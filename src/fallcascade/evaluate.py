"""Confusion-matrix metrics, improvement deltas, and the leave-one-subject-out
experiment driver that ties preprocessing, training, and routing together."""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import distill, nn
from .cascade import CascadeReport, ConfusionMatrix, build_cascade, run_dataset
from .dataset import Dataset
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


class ZeroBaseline(Exception):
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


@dataclass(frozen=True)
class ImprovementReport:
    acc_imp: float
    pre_imp: float
    rec_imp: float
    f1_imp: float


def percent_change(new: float, base: float) -> float:
    """Signed percentage change of `new` relative to a nonzero `base`."""
    return 100.0 * (new - base) / base


def improvement(distilled: Metrics, original: Metrics) -> ImprovementReport:
    """Signed percentage change of each metric relative to the original."""
    out = {}
    for name in ("acc", "pre", "rec", "f1"):
        d = getattr(distilled, name)
        o = getattr(original, name)
        if o is None or o == 0 or d is None:
            raise ZeroBaseline(f"metric {name!r} has no nonzero baseline")
        out[name + "_imp"] = percent_change(d, o)
    return ImprovementReport(**out)


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
        sd = np.where(sd == 0, 1.0, sd)
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
    strict_paper_gate: bool = False

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


def loso_evaluate(dataset: Dataset, cfg: ExperimentConfig,
                  variants=None) -> AggregateReport | list[AggregateReport]:
    """Full LOSO experiment: per fold, fit the gate and train the tier stack
    on the training subjects, then route the held-out subject's windows.
    Returns cfg's variant's AggregateReport, or the list of those of
    `variants`, (kd_variant, layers) pairs that share each fold's teacher."""
    if len(dataset.subjects) < 2:
        raise ValueError("LOSO needs at least 2 subjects")
    pairs = [(cfg.kd_variant, cfg.layers)] if variants is None else list(variants)
    windows = [extract_window(t, cfg.window) for t in dataset.traces]
    features, labels = feature_matrix(windows, cfg.vertical_axis)
    runs = [([], {}) for _ in pairs]  # each variant's fold results and loss curves
    for subject in dataset.subjects:
        train_rows = [i for i, w in enumerate(windows) if w.subject_id != subject]
        test_windows = [w for w in windows if w.subject_id == subject]
        try:
            thresholds = fit_thresholds([windows[i] for i in train_rows])
            scaler = fit_scaler(features[train_rows], cfg.normalization)
            X_train, y_train = scaler(features[train_rows]), labels[train_rows]
            featurize = lambda w, s=scaler: s(extract_features(w, cfg.vertical_axis))
            teacher = None
            for (kd_variant, layers), (folds, curves) in zip(pairs, runs):
                # the TA is trained when it is deployed or when it teaches the student
                trains_ta = kd_variant == KD_TRIPLE or layers == LAYERS_TRIPLE
                stack = distill.takd_pipeline(
                    cfg.teacher, cfg.ta if trains_ta else None, cfg.student,
                    X_train, y_train, cfg.kd, cfg.train, kd=kd_variant, teacher=teacher)
                teacher = stack[0]
                results = {name: res for name, res in
                           zip(("teacher", "ta", "student"), stack) if res is not None}
                deployed = [results[name].model for name in DEPLOYED_TIERS[layers]]
                cascade = build_cascade(
                    deployed, thresholds, tq_max=cfg.tq_max, tq_min=cfg.tq_min,
                    inference_temperature=cfg.inference_temperature, featurize=featurize,
                    strict_paper_gate=cfg.strict_paper_gate)
                report = run_dataset(cascade, test_windows)
                folds.append(FoldResult(subject, report.cm, metrics(report.cm), report))
                for name, res in results.items():
                    curves.setdefault(name, []).append(res.epoch_losses)
        except (MissingClass, nn.NonFiniteLoss) as e:
            raise type(e)(f"fold holding out {subject}: {e}") from e
    aggs = [AggregateReport.pool(folds, curves) for folds, curves in runs]
    return aggs[0] if variants is None else aggs
