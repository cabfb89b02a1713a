"""Knowledge-distillation losses (dual and triple layer) and the staged
teacher -> TA -> student training pipeline.

Upstream (teacher / TA) logits are always computed once with frozen
parameters; no gradient flows into them.
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .nn import (STUDENT, TA, TEACHER, TIERS, CELoss, TieredModel, TrainConfig, TrainResult,
                 check_fields, check_positive, check_unit, forward, one_of, train)

PAPER_EQ8 = "paper_eq8"     # student-leading KL, as printed
STANDARD_KD = "standard"    # teacher-leading KL, conventional KD

SEQUENTIAL = "sequential"
COMPOSITE_EQ10 = "composite_eq10"

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"

# what the tiers below the teacher learn from, each named by its variant token
KD_NONE = "nokd"
KD_DUAL = "dualkd"
KD_TRIPLE = "triplekd"
KD_VARIANTS = (KD_NONE, KD_DUAL, KD_TRIPLE)
# the one kd-variant rule, also `ExperimentConfig`'s
check_kd_variant = one_of(*KD_VARIANTS)


@dataclass(frozen=True)
class KDConfig:
    lam: float = 0.5
    temperature: float = 20.0
    direction: str = PAPER_EQ8
    triple_mode: str = SEQUENTIAL
    tri_combine: str = ADDITIVE

    # each checked field's one rule, a check(name, value)
    CHECKS = {"lam": check_unit, "temperature": check_positive,
              "direction": one_of(PAPER_EQ8, STANDARD_KD),
              "triple_mode": one_of(SEQUENTIAL, COMPOSITE_EQ10),
              "tri_combine": one_of(ADDITIVE, MULTIPLICATIVE)}

    def __post_init__(self):
        check_fields(self)


def _log_softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    check_positive("temperature", temperature)
    u = np.asarray(logits, dtype=np.float64) / temperature
    u = u - u.max(axis=-1, keepdims=True)
    return u - np.log(np.exp(u).sum(axis=-1, keepdims=True))


def _kl_rows(log_p, log_q, temperature: float, direction: str):
    """Per-row KL between the softened student (log_p) and upstream (log_q)
    distributions, and its gradient with respect to the student logits."""
    p = np.exp(log_p)
    if direction == PAPER_EQ8:
        kl = np.sum(p * (log_p - log_q), axis=-1)
        return kl, p * ((log_p - log_q) - kl[..., None]) / temperature
    else:  # STANDARD_KD
        q = np.exp(log_q)
        return np.sum(q * (log_q - log_p), axis=-1), (p - q) / temperature


def _composite_rows(log_p, log_q, log_r, temperature: float, combine: str):
    """Per-row nested student (log_p) / TA (log_q) / teacher (log_r)
    divergence, and its gradient with respect to the student logits. The
    operator joining the two bracketed log-difference terms is configurable
    (additive default, multiplicative selectable) because the printed form
    is ambiguous."""
    p = np.exp(log_p)
    a = log_p - log_q
    b = log_q - log_r
    if combine == ADDITIVE:
        comp = np.sum(p * (a + b), axis=-1)
        return comp, p * ((a + b) - comp[..., None]) / temperature
    else:  # MULTIPLICATIVE
        comp = np.sum(p * a * b, axis=-1)
        eb = np.sum(p * b, axis=-1)
        return comp, p * (a * b + b - comp[..., None] - eb[..., None]) / temperature


def _blend(cfg: KDConfig, div, ddiv, hard):
    """Batch mean of lam * T^2 * divergence + (1 - lam) * CE(hard), per
    fold of a stack, and its gradient with respect to the logits; `hard` is
    the logits' hard-label (CE, gradient) pair."""
    ce, dce = hard
    scale = cfg.lam * cfg.temperature * cfg.temperature
    loss = (scale * div + (1.0 - cfg.lam) * ce).sum(axis=-1) / ce.shape[-1]
    return loss, (scale * ddiv + (1.0 - cfg.lam) * dce) / ce.shape[-1]


class DualLoss:
    """Batch loss spec for teacher -> student distillation. The upstream
    logits are (n, classes), (F, n, classes) for a stack of folds, or
    (K, F, n, classes) for K members of such a stack, each taught by its
    own upstream fit; their softened log-probabilities are row-wise, so they
    are computed once per fit and the step takes its batch's rows."""

    def __init__(self, teacher_logits: np.ndarray, cfg: KDConfig):
        self.teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
        self.cfg = cfg
        self.log_q = _log_softmax(self.teacher_logits, cfg.temperature)

    def value_and_grad(self, logits, hard, idx):
        T = self.cfg.temperature
        kl, dkl = _kl_rows(_log_softmax(logits, T), self.log_q.take(idx, axis=-2),
                           T, self.cfg.direction)
        return _blend(self.cfg, kl, dkl, hard)


class TriLoss:
    """Batch loss spec for the composite teacher/TA/student divergence; the
    upstream log-probabilities are computed once, as in DualLoss."""

    def __init__(self, teacher_logits: np.ndarray, ta_logits: np.ndarray,
                 cfg: KDConfig):
        self.teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
        self.ta_logits = np.asarray(ta_logits, dtype=np.float64)
        self.cfg = cfg
        self.log_q = _log_softmax(self.ta_logits, cfg.temperature)
        self.log_r = _log_softmax(self.teacher_logits, cfg.temperature)

    def value_and_grad(self, logits, hard, idx):
        T = self.cfg.temperature
        comp, dcomp = _composite_rows(_log_softmax(logits, T),
                                      self.log_q.take(idx, axis=-2),
                                      self.log_r.take(idx, axis=-2),
                                      T, self.cfg.tri_combine)
        return _blend(self.cfg, comp, dcomp, hard)


class MemberLosses:
    """Loss spec of a member stack: M copies of one initial model, stacked
    (M, in, out) on a leading axis and trained in one `nn.train` call
    against the same rows, that differ only in their loss. `groups` lists
    (spec, count) pairs, and each spec runs over its `count` members' slice
    of the (M, F, b, classes) logits, in order, with its slice of the
    hard-label CE pair that `nn.grad` computes once over all members."""

    def __init__(self, groups):
        self.groups = groups

    def value_and_grad(self, logits, hard, idx):
        ce, dce = hard
        parts, start = [], 0
        for spec, count in self.groups:
            at = slice(start, start + count)
            parts.append(spec.value_and_grad(logits[at], (ce[at], dce[at]), idx))
            start += count
        losses, grads = zip(*parts)
        return np.concatenate(losses), np.concatenate(grads)


def _taught_by(upstream, cfg: KDConfig):
    """The loss of a fit taught by `upstream`, its teachers' logits: CE by
    none, dual KD by one, the composite loss by the teacher and the TA."""
    if not upstream:
        return CELoss()
    return DualLoss(*upstream, cfg) if len(upstream) == 1 else TriLoss(*upstream, cfg)


def distill_train(teacher: TieredModel, student_spec, X, y,
                  cfg: KDConfig, train_cfg: TrainConfig) -> TrainResult:
    """Train a fresh student of the given spec against the frozen teacher,
    a stacked one for a stack of folds' rows."""
    X = np.asarray(X, dtype=np.float64)
    teacher_logits = forward(teacher, X)
    return train(TieredModel.init(student_spec, seed=train_cfg.seed), X, y, train_cfg,
                 DualLoss(teacher_logits, cfg))


def check_capacity(teacher, ta, student) -> None:
    """Raise ValueError unless the tier specs are strictly capacity-ordered
    teacher > TA > student, as triple KD needs."""
    order = (teacher.n_params, ta.n_params, student.n_params)
    if not order[0] > order[1] > order[2]:
        raise ValueError(f"specs must be capacity-ordered teacher > TA > student, got {order}")


def takd_pipeline(specs, X, y, cfg: KDConfig, train_cfg: TrainConfig, variants):
    """Staged pipeline, the trainer of every variant's tier stack. `specs`
    maps each tier of nn.TIERS to its TierSpec; `variants` lists (kd, tiers)
    pairs: what the tiers below the teacher learn from, and the tiers the
    variant deploys.

    KD_NONE trains them on the hard labels alone; KD_DUAL distills each
    from the teacher; KD_TRIPLE needs specs strictly capacity-ordered
    teacher > TA > student. It distills the TA from the teacher, and the
    student from the TA (sequential mode) or from the nested three-model
    divergence with the teacher and TA frozen (composite mode). The TA is
    trained when the variant deploys it or under KD_TRIPLE.
    Each variant's fits are planned first, a key per tier: (tier, *keys of
    the fits it learns from). The distinct keys are then trained tier by
    tier, in nn.TIERS order, so that a fit's teachers exist before it, each
    tier seeded train_cfg.seed plus its index in nn.TIERS. A tier's keys
    share the spec, seed, rows and batch order and differ only in their
    loss, so they train as the members of one `nn.train` call: the tier's
    initial model stacked once per key, ordered by loss, under a
    `MemberLosses` of one CELoss, one DualLoss and one TriLoss, each over
    its group's stacked upstream logits; the trained stack is then split
    into one fit per key. A tier with one key is a one-member stack, except
    that a lone key with one teacher trains through `distill_train`: it is
    the one call that fires perfbench's `distill.distill_train` boundary.
    X and y may hold a stack of folds, (F, n, in) and (F, n), which train
    in lockstep (see `nn.train`); the results are then stacked.
    Returns each variant's {tier: TrainResult} over the tiers it trains.
    """
    plans = []
    for kd, tiers in variants:
        check_kd_variant("kd", kd)
        teacher = (TEACHER,)
        ta = (TA,) if kd == KD_NONE else (TA, teacher)
        student = {KD_NONE: (STUDENT,), KD_DUAL: (STUDENT, teacher),
                   KD_TRIPLE: (STUDENT, ta) if cfg.triple_mode == SEQUENTIAL
                   else (STUDENT, teacher, ta)}[kd]
        plan = {TEACHER: teacher, TA: ta, STUDENT: student}
        if kd == KD_TRIPLE:
            check_capacity(*(specs[tier] for tier in TIERS))
        elif TA not in tiers:
            del plan[TA]
        plans.append(plan)

    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    solo = X.ndim == 2
    if solo:  # a solo fit is fold 0 of a one-fold stack
        X, y = X[None], y[None]
    fits = {}
    keys = dict.fromkeys(key for plan in plans for key in plan.values())

    def taught(key):
        """The logits of the fits `key` learns from."""
        return [forward(fits[k].model, X) for k in key[1:]]

    for index, tier in enumerate(TIERS):
        # the tier's keys, ordered by loss: CE, then dual KD, then composite
        members = sorted((key for key in keys if key[0] == tier), key=len)
        if not members:
            continue
        tier_cfg = dataclasses.replace(train_cfg, seed=train_cfg.seed + index)
        if len(members) == 1 and len(members[0]) == 2:
            [(_, upstream)] = members
            fits[members[0]] = distill_train(fits[upstream].model, specs[tier], X, y,
                                             cfg, tier_cfg)
            continue
        # one loss per group of K members, over their teachers' logits
        # stacked (K, F, n, classes)
        groups = [list(group) for _, group in itertools.groupby(members, key=len)]
        loss = MemberLosses([(_taught_by([np.stack(c) for c in zip(*map(taught, group))],
                                         cfg), len(group)) for group in groups])
        stack = train(TieredModel.init(specs[tier], seed=tier_cfg.seed).stacked(len(members)),
                      X, y, tier_cfg, loss)
        fits.update((key, stack.at(m)) for m, key in enumerate(members))
    if solo:
        fits = {key: fit.fold(0) for key, fit in fits.items()}
    return [{tier: fits[key] for tier, key in plan.items()} for plan in plans]
