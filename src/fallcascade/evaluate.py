"""Confusion-matrix metrics, improvement deltas, and the leave-one-subject-out
experiment driver that ties preprocessing, training, and routing together."""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import distill, nn
from .cascade import CascadeReport, ConfusionMatrix, build_cascade, run_dataset
from .dataset import Dataset, loso_folds
from .distill import KD_DUAL, KD_NONE, KD_TRIPLE, KDConfig
from .edge_threshold import MissingClass, fit_thresholds
from .nn import TrainConfig, default_tier_spec
from .preprocess import WindowSpec, extract_features, extract_window, feature_matrix

F1_STANDARD = "standard"
F1_PAPER = "paper"

LAYERS_DUAL = "dual"
LAYERS_TRIPLE = "triple"

# the classifier tiers each layer layout deploys above the gate, bottom-up
DEPLOYED_TIERS = {LAYERS_DUAL: ("student", "teacher"),
                  LAYERS_TRIPLE: ("student", "ta", "teacher")}


class UndefinedMetric(Exception):
    pass


@dataclass(frozen=True)
class Metrics:
    """acc/pre/rec/f1 as fractions; undefined ratios are None, never 0."""

    acc: float | None
    pre: float | None
    rec: float | None
    f1: float | None
    f1_mode: str = F1_STANDARD


def metrics(cm: ConfusionMatrix, f1_mode: str = F1_STANDARD) -> Metrics:
    """ACC, PRE, REC and F1. The default F1 is the harmonic mean; the
    'paper' mode omits the factor 2 (and therefore caps at 0.5)."""
    if f1_mode not in (F1_STANDARD, F1_PAPER):
        raise ValueError(f"unknown f1_mode {f1_mode!r}")
    if cm.total == 0:
        raise UndefinedMetric("empty confusion matrix")
    acc = (cm.tp + cm.tn) / cm.total
    pre = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else None
    rec = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    if pre is None or rec is None or pre + rec == 0:
        f1 = None
    else:
        ratio = pre * rec / (pre + rec)
        f1 = 2.0 * ratio if f1_mode == F1_STANDARD else ratio
    return Metrics(acc=acc, pre=pre, rec=rec, f1=f1, f1_mode=f1_mode)


def percent_change(new: float | None, base: float | None) -> float | None:
    """Signed percentage change of `new` relative to `base`; None, like an
    undefined metric, when `base` is None or 0 or `new` is None."""
    if base is None or base == 0 or new is None:
        return None
    return 100.0 * (new - base) / base


def fit_scaler(X_train: np.ndarray, mode: str):
    """Per-feature scaler fit on training data; returns a pure callable."""
    if mode == "minmax":
        lo = X_train.min(axis=0)
        span = X_train.max(axis=0) - lo
        span = np.where(span == 0, 1.0, span)
        return lambda x: (x - lo) / span
    if mode == "zscore":
        mu = X_train.mean(axis=0)
        sd = X_train.std(axis=0)
        # a constant column's std may be the rounding residue of its mean
        flat = (sd == 0) | (X_train.max(axis=0) == X_train.min(axis=0))
        sd = np.where(flat, 1.0, sd)
        return lambda x: (x - mu) / sd
    raise ValueError(f"unknown normalization mode {mode!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    window: WindowSpec = WindowSpec()
    normalization: str = "minmax"
    student: object = None
    ta: object = None
    teacher: object = None
    train: TrainConfig = TrainConfig()
    kd: KDConfig = KDConfig()
    kd_variant: str = KD_DUAL
    layers: str = LAYERS_DUAL
    tq_max: float = 0.8
    tq_min: float = 0.2
    inference_temperature: float = 1.0
    vertical_axis: str = "x"

    def __post_init__(self):
        if self.kd_variant not in (KD_NONE, KD_DUAL, KD_TRIPLE):
            raise ValueError(f"unknown kd_variant {self.kd_variant!r}")
        if self.layers not in (LAYERS_DUAL, LAYERS_TRIPLE):
            raise ValueError(f"unknown layers {self.layers!r}")
        for name in ("student", "ta", "teacher"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default_tier_spec(
                    {"student": nn.STUDENT, "ta": nn.TA, "teacher": nn.TEACHER}[name]))


@dataclass
class FoldResult:
    subject: str
    cm: ConfusionMatrix
    metrics: Metrics
    report: CascadeReport


@dataclass
class AggregateReport:
    folds: list
    pooled_cm: ConfusionMatrix
    pooled_metrics: Metrics
    mean_metrics: Metrics
    pooled_report: CascadeReport
    loss_curves: dict = field(default_factory=dict)

    @classmethod
    def pool(cls, folds, curves) -> "AggregateReport":
        pooled_cm = functools.reduce(operator.add, (fold.cm for fold in folds))
        mean = {}
        for name in ("acc", "pre", "rec", "f1"):
            vals = [getattr(f.metrics, name) for f in folds
                    if getattr(f.metrics, name) is not None]
            mean[name] = float(np.mean(vals)) if vals else None
        return cls(
            folds=folds,
            pooled_cm=pooled_cm,
            pooled_metrics=metrics(pooled_cm),
            mean_metrics=Metrics(**mean),
            pooled_report=functools.reduce(operator.add, (fold.report for fold in folds)),
            loss_curves={name: np.mean(np.array(c), axis=0).tolist()
                         for name, c in curves.items()},
        )


def stack_size(n_rows: int, teacher: nn.TierSpec) -> int:
    """How many folds of `n_rows` training rows train in lockstep: as many as
    keep a stack's rows and its teacher's weights, velocities and gradients
    within 2**16 float64 values (512 KiB), and at least one."""
    per_fold = n_rows * teacher.layer_widths[0] + 3 * teacher.n_params
    return max(1, 2 ** 16 // per_fold)


def _stacks(splits, teacher: nn.TierSpec):
    """The fold indices grouped by training size (folds of one size share
    the permutation), each group split into balanced stacks of at most
    `stack_size` folds, in order of each group's first fold."""
    groups = {}
    for k, (_, train_rows, _) in enumerate(splits):
        groups.setdefault(len(train_rows), []).append(k)
    for n_rows, folds in groups.items():
        count = -(-len(folds) // stack_size(n_rows, teacher))
        for i in range(count):
            yield folds[i * len(folds) // count:(i + 1) * len(folds) // count]


def _fold_error(e, subject):
    return type(e)(f"fold holding out {subject}: {e}")


def loso_evaluate(dataset: Dataset, cfg: ExperimentConfig,
                  variants=None) -> AggregateReport | list[AggregateReport]:
    """Full LOSO experiment: per fold, fit the gate and train the tier stack
    on the training subjects, then route the held-out subject's windows.
    Returns cfg's variant's AggregateReport, or the list of those of
    `variants`, (kd_variant, layers) pairs that share each fold's teacher.

    Folds of equal training size train in lockstep, a stack of them per
    `distill.takd_pipeline` call; each fold's models are its solo fits."""
    splits = loso_folds(t.subject_id for t in dataset.traces)
    pairs = [(cfg.kd_variant, cfg.layers)] if variants is None else list(variants)
    windows = [extract_window(t, cfg.window) for t in dataset.traces]
    features, labels = feature_matrix(windows, cfg.vertical_axis)
    # each variant's (fold result, loss curve per tier), by fold
    runs = [[None] * len(splits) for _ in pairs]
    for stack in _stacks(splits, cfg.teacher):
        n_rows = len(splits[stack[0]][1])
        X = np.empty((len(stack), n_rows, features.shape[1]))
        y = np.empty((len(stack), n_rows), dtype=labels.dtype)
        gates = []
        for i, k in enumerate(stack):
            subject, train_rows, _ = splits[k]
            try:
                thresholds = fit_thresholds([windows[r] for r in train_rows])
            except MissingClass as e:
                raise _fold_error(e, subject) from e
            scaler = fit_scaler(features[train_rows], cfg.normalization)
            X[i], y[i] = scaler(features[train_rows]), labels[train_rows]
            gates.append((thresholds, scaler))
        teacher = None
        for (kd_variant, layers), run in zip(pairs, runs):
            # the TA is trained when it is deployed or when it teaches the student
            trains_ta = kd_variant == KD_TRIPLE or layers == LAYERS_TRIPLE
            try:
                tiers = distill.takd_pipeline(
                    cfg.teacher, cfg.ta if trains_ta else None, cfg.student,
                    X, y, cfg.kd, cfg.train, kd=kd_variant, teacher=teacher)
            except nn.NonFiniteLoss as e:
                raise _fold_error(e, splits[stack[e.fold]][0]) from e
            teacher = tiers[0]
            for i, k in enumerate(stack):
                subject, _, test_rows = splits[k]
                thresholds, scaler = gates[i]
                results = {name: res.fold(i) for name, res in
                           zip(("teacher", "ta", "student"), tiers) if res is not None}
                deployed = [results[name].model for name in DEPLOYED_TIERS[layers]]
                cascade = build_cascade(
                    deployed, thresholds, tq_max=cfg.tq_max, tq_min=cfg.tq_min,
                    inference_temperature=cfg.inference_temperature,
                    featurize=lambda w, s=scaler: s(extract_features(w, cfg.vertical_axis)))
                report = run_dataset(cascade, [windows[r] for r in test_rows])
                run[k] = (FoldResult(subject, report.cm, metrics(report.cm), report),
                          {name: res.epoch_losses for name, res in results.items()})
    aggs = []
    for run in runs:
        curves = {}
        for _, fold_curves in run:
            for name, curve in fold_curves.items():
                curves.setdefault(name, []).append(curve)
        aggs.append(AggregateReport.pool([fold for fold, _ in run], curves))
    return aggs[0] if variants is None else aggs
