"""Knowledge-distillation losses (dual and triple layer) and the staged
teacher -> TA -> student training pipeline.

Upstream (teacher / TA) logits are always computed once with frozen
parameters; no gradient flows into them.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .nn import (NonPositiveTemperature, TieredModel, TrainConfig, TrainResult,
                 ce_rows, forward, softmax_t, train)

PAPER_EQ8 = "paper_eq8"     # student-leading KL, as printed
STANDARD_KD = "standard"    # teacher-leading KL, conventional KD

SEQUENTIAL = "sequential"
COMPOSITE_EQ10 = "composite_eq10"

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"

# what the tiers below the teacher learn from
KD_NONE = "none"
KD_DUAL = "dual"
KD_TRIPLE = "triple"


@dataclass(frozen=True)
class KDConfig:
    lam: float = 0.5
    temperature: float = 20.0
    direction: str = PAPER_EQ8
    triple_mode: str = SEQUENTIAL
    tri_combine: str = ADDITIVE

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lam must be in [0, 1]")
        if self.temperature <= 0:
            raise NonPositiveTemperature("temperature must be > 0")
        if self.direction not in (PAPER_EQ8, STANDARD_KD):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.triple_mode not in (SEQUENTIAL, COMPOSITE_EQ10):
            raise ValueError(f"unknown triple_mode {self.triple_mode!r}")
        if self.tri_combine not in (ADDITIVE, MULTIPLICATIVE):
            raise ValueError(f"unknown tri_combine {self.tri_combine!r}")


def _log_softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    if temperature <= 0:
        raise NonPositiveTemperature("temperature must be > 0")
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
    if direction == STANDARD_KD:
        q = np.exp(log_q)
        return np.sum(q * (log_q - log_p), axis=-1), (p - q) / temperature
    raise ValueError(f"unknown direction {direction!r}")


def _composite_rows(log_p, log_q, log_r, temperature: float, combine: str):
    """Per-row nested student (log_p) / TA (log_q) / teacher (log_r)
    divergence, and its gradient with respect to the student logits."""
    p = np.exp(log_p)
    a = log_p - log_q
    b = log_q - log_r
    if combine == ADDITIVE:
        comp = np.sum(p * (a + b), axis=-1)
        return comp, p * ((a + b) - comp[..., None]) / temperature
    if combine == MULTIPLICATIVE:
        comp = np.sum(p * a * b, axis=-1)
        eb = np.sum(p * b, axis=-1)
        return comp, p * (a * b + b - comp[..., None] - eb[..., None]) / temperature
    raise ValueError(f"unknown combine {combine!r}")


def _blend(cfg: KDConfig, div, ddiv, logits, labels):
    """Batch mean of lam * T^2 * divergence + (1 - lam) * CE(hard), per
    fold of a stack, and its gradient with respect to the logits."""
    ce, dce = ce_rows(softmax_t(logits, 1.0), labels)
    scale = cfg.lam * cfg.temperature * cfg.temperature
    loss = (scale * div + (1.0 - cfg.lam) * ce).sum(axis=-1) / ce.shape[-1]
    return loss, (scale * ddiv + (1.0 - cfg.lam) * dce) / ce.shape[-1]


def kl_soft(t_logits, s_logits, temperature: float,
            direction: str = PAPER_EQ8) -> float:
    """Divergence between the temperature-softened output distributions."""
    log_p = _log_softmax(np.atleast_2d(s_logits), temperature)  # student
    log_q = _log_softmax(np.atleast_2d(t_logits), temperature)  # teacher
    return float(_kl_rows(log_p, log_q, temperature, direction)[0][0])


def loss_dual(t_logits, s_logits, label: int, cfg: KDConfig) -> float:
    """lam * T^2 * KL(softened) + (1 - lam) * CE(hard)."""
    spec = DualLoss(np.atleast_2d(t_logits), cfg)
    return float(spec.value_and_grad(np.atleast_2d(s_logits), [label], [0])[0])


def loss_tri(t_logits, ta_logits, s_logits, label: int, cfg: KDConfig) -> float:
    """Triple-layer loss: the nested teacher/TA/student divergence blended
    with hard-label cross-entropy. The operator joining the two bracketed
    log-difference terms is configurable (additive default, multiplicative
    selectable) because the printed form is ambiguous."""
    spec = TriLoss(np.atleast_2d(t_logits), np.atleast_2d(ta_logits), cfg)
    return float(spec.value_and_grad(np.atleast_2d(s_logits), [label], [0])[0])


class DualLoss:
    """Batch loss spec for teacher -> student distillation. The upstream
    logits are (n, classes), or (F, n, classes) for a stack of folds; their
    softened log-probabilities are row-wise, so they are computed once per
    fit and the step takes its batch's rows."""

    def __init__(self, teacher_logits: np.ndarray, cfg: KDConfig):
        self.teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
        self.cfg = cfg
        self.log_q = _log_softmax(self.teacher_logits, cfg.temperature)

    def value_and_grad(self, logits, labels, idx):
        T = self.cfg.temperature
        kl, dkl = _kl_rows(_log_softmax(logits, T), self.log_q.take(idx, axis=-2),
                           T, self.cfg.direction)
        return _blend(self.cfg, kl, dkl, logits, labels)


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

    def value_and_grad(self, logits, labels, idx):
        T = self.cfg.temperature
        comp, dcomp = _composite_rows(_log_softmax(logits, T),
                                      self.log_q.take(idx, axis=-2),
                                      self.log_r.take(idx, axis=-2),
                                      T, self.cfg.tri_combine)
        return _blend(self.cfg, comp, dcomp, logits, labels)


def distill_train(teacher: TieredModel, student_spec, X, y,
                  cfg: KDConfig, train_cfg: TrainConfig) -> TrainResult:
    """Train a fresh student of the given spec against the frozen teacher,
    a stacked one for a stack of folds' rows."""
    X = np.asarray(X, dtype=np.float64)
    teacher_logits = forward(teacher, X)
    student = TieredModel.init(student_spec, seed=train_cfg.seed)
    return train(student, X, y, train_cfg, DualLoss(teacher_logits, cfg))


def takd_pipeline(teacher_spec, ta_spec, student_spec, X, y,
                  cfg: KDConfig, train_cfg: TrainConfig,
                  kd: str = KD_TRIPLE, teacher=None):
    """Staged pipeline: the teacher (CE), then the TA if `ta_spec` is given,
    then the student: the trainer of every variant's tier stack. Each tier
    gets its own seed, train_cfg.seed plus 0, 1 and 2. A `teacher` this
    pipeline returned for the same inputs, whatever their `kd`, is reused.

    `kd` says what the lower tiers learn from: KD_NONE trains them on the
    hard labels alone; KD_DUAL distills each from the teacher; KD_TRIPLE
    needs the TA and specs strictly capacity-ordered teacher > TA > student.
    It distills the TA from the teacher, and the student from the TA
    (sequential mode) or from the nested three-model divergence with the
    teacher and TA frozen (composite mode).
    X and y may hold a stack of folds, (F, n, in) and (F, n), which train
    in lockstep (see `nn.train`); the results are then stacked.
    Returns the (teacher, TA or None, student) TrainResults.
    """
    if kd not in (KD_NONE, KD_DUAL, KD_TRIPLE):
        raise ValueError(f"unknown kd {kd!r}")
    if kd == KD_TRIPLE:
        if ta_spec is None:
            raise ValueError("triple KD needs a TA spec")
        order = (teacher_spec.n_params, ta_spec.n_params, student_spec.n_params)
        if not order[0] > order[1] > order[2]:
            raise ValueError(f"specs must be capacity-ordered teacher > TA > student, got {order}")
    X = np.asarray(X, dtype=np.float64)
    ta_cfg = dataclasses.replace(train_cfg, seed=train_cfg.seed + 1)
    student_cfg = dataclasses.replace(train_cfg, seed=train_cfg.seed + 2)

    def fit(spec, tier_cfg, upstream):
        if upstream is None:
            return train(TieredModel.init(spec, seed=tier_cfg.seed), X, y, tier_cfg)
        return distill_train(upstream, spec, X, y, cfg, tier_cfg)

    teacher_res = teacher if teacher is not None else fit(teacher_spec, train_cfg, None)
    teacher = teacher_res.model
    ta_res = None
    if ta_spec is not None:
        ta_res = fit(ta_spec, ta_cfg, None if kd == KD_NONE else teacher)
    if kd == KD_NONE:
        student_res = fit(student_spec, student_cfg, None)
    elif kd == KD_DUAL:
        student_res = fit(student_spec, student_cfg, teacher)
    elif cfg.triple_mode == SEQUENTIAL:
        student_res = fit(student_spec, student_cfg, ta_res.model)
    else:
        loss = TriLoss(forward(teacher, X), forward(ta_res.model, X), cfg)
        student = TieredModel.init(student_spec, seed=student_cfg.seed)
        student_res = train(student, X, y, student_cfg, loss)
    return teacher_res, ta_res, student_res
