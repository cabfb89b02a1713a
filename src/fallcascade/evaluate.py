"""Confusion-matrix metrics, improvement deltas, and the leave-one-subject-out
experiment driver that ties preprocessing, training, and routing together."""
from __future__ import annotations

import functools
import operator
from dataclasses import astuple, dataclass

import numpy as np

from . import distill, nn
from .cascade import (Cascade, CascadeReport, ConfusionMatrix, build_cascade, check_band,
                      run_dataset)
from .dataset import Dataset, loso_folds
from .distill import KD_DUAL, KD_NONE, KD_TRIPLE, KD_VARIANTS, KDConfig
from .edge_threshold import MissingClass, fit_thresholds
from .nn import TrainConfig, check_temperature, default_tier_spec
from .preprocess import WindowSpec, extract_window, feature_matrix
# routing reads the feature table and calls no extract_features here; the name
# stays because perfbench/tracing.py patches `evaluate.extract_features`
from .preprocess import extract_features  # noqa: F401

F1_STANDARD = "standard"
F1_PAPER = "paper"

LAYERS_DUAL = "dual"
LAYERS_TRIPLE = "triple"

NORMALIZATIONS = ("minmax", "zscore")

# the tier each ExperimentConfig tier field holds
TIER_FIELDS = {"student": nn.STUDENT, "ta": nn.TA, "teacher": nn.TEACHER}

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
    return Metrics(acc=acc, pre=pre, rec=rec, f1=f1)


def percent_change(new: float | None, base: float | None) -> float | None:
    """Signed percentage change of `new` relative to `base`; None, like an
    undefined metric, when `base` is None or 0 or `new` is None."""
    if base is None or base == 0 or new is None:
        return None
    return 100.0 * (new - base) / base


def check_normalization(mode: str) -> None:
    """Raise ValueError unless mode is one of NORMALIZATIONS."""
    if mode not in NORMALIZATIONS:
        raise ValueError(f"normalization must be {' or '.join(NORMALIZATIONS)}, "
                         f"got {mode!r}")


def fit_scaler(X_train: np.ndarray, mode: str):
    """Per-feature scaler fit on training data; returns a pure callable."""
    check_normalization(mode)
    if mode == "minmax":
        lo = X_train.min(axis=0)
        span = X_train.max(axis=0) - lo
        span = np.where(span == 0, 1.0, span)
        return lambda x: (x - lo) / span
    mu = X_train.mean(axis=0)
    sd = X_train.std(axis=0)
    # a constant column's std may be the rounding residue of its mean
    flat = (sd == 0) | (X_train.max(axis=0) == X_train.min(axis=0))
    sd = np.where(flat, 1.0, sd)
    return lambda x: (x - mu) / sd


class NotInTable(LookupError):
    pass


def row_lookup(windows, rows):
    """A cascade's featurize that returns the row of `rows` at each window's
    position in `windows`. Windows are matched by identity, not by value: the
    lookup holds every window, so no other object can take a held window's id,
    and any other window, even an equal copy, raises NotInTable."""
    index = {id(w): (w, row) for w, row in zip(windows, rows)}

    def featurize(window):
        try:
            return index[id(window)][1]
        except KeyError:
            raise NotInTable(f"window is not one of the {len(index)} windows of this "
                             "feature table; a table is looked up by window identity") from None
    return featurize


@dataclass(frozen=True)
class ExperimentConfig:
    window: WindowSpec = WindowSpec()
    normalization: str = "minmax"
    student: nn.TierSpec = default_tier_spec(nn.STUDENT)
    ta: nn.TierSpec = default_tier_spec(nn.TA)
    teacher: nn.TierSpec = default_tier_spec(nn.TEACHER)
    train: TrainConfig = TrainConfig()
    kd: KDConfig = KDConfig()
    kd_variant: str = KD_DUAL
    layers: str = LAYERS_DUAL
    tq_max: float = Cascade.tq_max
    tq_min: float = Cascade.tq_min
    inference_temperature: float = Cascade.inference_temperature

    def __post_init__(self):
        if self.kd_variant not in KD_VARIANTS:
            raise ValueError(f"unknown kd_variant {self.kd_variant!r}")
        if self.layers not in DEPLOYED_TIERS:
            raise ValueError(f"unknown layers {self.layers!r}")
        check_normalization(self.normalization)
        check_band(self.tq_max, self.tq_min)
        check_temperature(self.inference_temperature)


@dataclass
class FoldResult:
    subject: str
    report: CascadeReport
    loss_curves: dict  # tier name -> its loss per epoch


@dataclass
class AggregateReport:
    folds: list
    pooled_metrics: Metrics
    mean_metrics: Metrics
    pooled_report: CascadeReport
    loss_curves: dict  # tier name -> its loss per epoch, averaged over the folds

    @classmethod
    def pool(cls, folds) -> "AggregateReport":
        pooled = functools.reduce(operator.add, (fold.report for fold in folds))
        # each metric's defined per-fold values, in Metrics field order
        defined = [[v for v in column if v is not None] for column in
                   zip(*(astuple(metrics(fold.report.cm)) for fold in folds))]
        curves = {}
        for fold in folds:
            for name, curve in fold.loss_curves.items():
                curves.setdefault(name, []).append(curve)
        return cls(
            folds=folds,
            pooled_metrics=metrics(pooled.cm),
            mean_metrics=Metrics(*(float(np.mean(v)) if v else None for v in defined)),
            pooled_report=pooled,
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
    `variants`, (kd_variant, layers) pairs that share each distinct fit.

    Folds of equal training size train in lockstep, a stack of them per
    `distill.takd_pipeline` call; each fold's models are its solo fits."""
    splits = loso_folds(t.subject_id for t in dataset.traces)
    pairs = [(cfg.kd_variant, cfg.layers)] if variants is None else list(variants)
    windows = [extract_window(t, cfg.window) for t in dataset.traces]
    features, labels = feature_matrix(windows)
    # each variant's fold results, by fold
    runs = [[None] * len(splits) for _ in pairs]
    for stack in _stacks(splits, cfg.teacher):
        n_rows = len(splits[stack[0]][1])
        X = np.empty((len(stack), n_rows, features.shape[1]))
        y = np.empty((len(stack), n_rows), dtype=labels.dtype)
        routes = []  # each fold's gate, held-out windows and their featurize
        for i, k in enumerate(stack):
            subject, train_rows, test_rows = splits[k]
            try:
                thresholds = fit_thresholds([windows[r] for r in train_rows])
            except MissingClass as e:
                raise _fold_error(e, subject) from e
            scaler = fit_scaler(features[train_rows], cfg.normalization)
            X[i], y[i] = scaler(features[train_rows]), labels[train_rows]
            # the held-out windows route by their scaled rows of the table
            held_out = [windows[r] for r in test_rows]
            featurize = row_lookup(held_out, scaler(features[test_rows]))
            routes.append((thresholds, held_out, featurize))
        fits = {}
        for (kd_variant, layers), run in zip(pairs, runs):
            # the TA is trained when it is deployed or when it teaches the student
            trains_ta = kd_variant == KD_TRIPLE or layers == LAYERS_TRIPLE
            try:
                tiers = distill.takd_pipeline(
                    cfg.teacher, cfg.ta if trains_ta else None, cfg.student,
                    X, y, cfg.kd, cfg.train, kd=kd_variant, fits=fits)
            except nn.NonFiniteLoss as e:
                raise _fold_error(e, splits[stack[e.fold]][0]) from e
            for i, k in enumerate(stack):
                thresholds, held_out, featurize = routes[i]
                results = {name: res.fold(i) for name, res in
                           zip(("teacher", "ta", "student"), tiers) if res is not None}
                deployed = [results[name].model for name in DEPLOYED_TIERS[layers]]
                cascade = build_cascade(
                    deployed, thresholds, tq_max=cfg.tq_max, tq_min=cfg.tq_min,
                    inference_temperature=cfg.inference_temperature,
                    featurize=featurize)
                report = run_dataset(cascade, held_out)
                run[k] = FoldResult(splits[k][0], report,
                                    {name: res.epoch_losses for name, res in results.items()})
    aggs = [AggregateReport.pool(run) for run in runs]
    return aggs[0] if variants is None else aggs
