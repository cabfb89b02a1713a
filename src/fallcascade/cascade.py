"""Multilayer escalation cascade: edge threshold gate, then classifier
stations that either decide or forward uncertain windows upward."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import ADL, FALL
from .edge_threshold import EdgeThresholds, TriDecision, classify_tc, window_peaks
from .nn import TieredModel, count_params, forward, softmax_t
from .preprocess import Window, extract_features

FALL_CLASS = 1  # logit / probability index of the Fall class


class InvalidThresholds(Exception):
    pass


def judge_tq(p_fall: float, tq_max: float, tq_min: float) -> TriDecision:
    """Confidence banding of the fall probability: above tq_max is Fall,
    below tq_min is ADL, anything in between escalates."""
    if not (0.0 <= tq_min < tq_max <= 1.0):
        raise InvalidThresholds(f"need 0 <= tq_min < tq_max <= 1, got ({tq_max}, {tq_min})")
    if p_fall > tq_max:
        return TriDecision.FALL
    if p_fall < tq_min:
        return TriDecision.ADL
    return TriDecision.UNCERTAIN


@dataclass(frozen=True)
class Station:
    """One station of the cascade: the threshold gate when `model` is None,
    a classifier otherwise."""

    name: str
    model: TieredModel | None = None


@dataclass
class Cascade:
    """The gate, then classifier stations in ascending capacity. Every
    classifier below the last escalates windows whose fall probability lies
    in the band [tq_min, tq_max]; the last decides by argmax."""

    stations: list
    thresholds: EdgeThresholds
    tq_max: float = 0.8
    tq_min: float = 0.2
    inference_temperature: float = 1.0
    strict_paper_gate: bool = False
    featurize: object = None  # callable Window -> model input; default raw features

    def __post_init__(self):
        if len(self.stations) < 2:
            raise ValueError("cascade needs at least a gate and one classifier")
        if self.stations[0].model is not None:
            raise ValueError("first station must be the threshold gate")
        if any(s.model is None for s in self.stations[1:]):
            raise ValueError("every station after the gate needs a model")
        if not (0.0 <= self.tq_min < self.tq_max <= 1.0):
            raise InvalidThresholds(
                f"need 0 <= tq_min < tq_max <= 1, got ({self.tq_max}, {self.tq_min})")
        if self.inference_temperature <= 0:
            raise ValueError("inference_temperature must be > 0")
        sizes = [count_params(s.model) for s in self.stations[1:]]
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            warnings.warn("classifier stations are not capacity-ordered ascending",
                          stacklevel=2)
        if self.featurize is None:
            self.featurize = extract_features


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.tp + other.tp, self.tn + other.tn,
                               self.fp + other.fp, self.fn + other.fn)

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class RoutedDecision:
    final: str  # FALL or ADL
    decided_at: int
    per_station_prob: list = field(default_factory=list)


@dataclass
class CascadeReport:
    station_names: list
    processed: list       # windows entering each station
    decided_fall: list
    decided_adl: list
    escalated: list
    total: int
    window_len: int
    cm: ConfusionMatrix = ConfusionMatrix()

    @property
    def processed_samples(self) -> list:
        return [c * self.window_len for c in self.processed]

    @property
    def decided(self) -> list:
        return [f + a for f, a in zip(self.decided_fall, self.decided_adl)]

    def __add__(self, other: "CascadeReport") -> "CascadeReport":
        """Pooled counts of two routings through the same stations; the
        window length is this report's."""
        if other.station_names != self.station_names:
            raise ValueError("cannot add reports over different stations")

        def add(a, b):
            return [x + y for x, y in zip(a, b)]

        return CascadeReport(
            station_names=list(self.station_names),
            processed=add(self.processed, other.processed),
            decided_fall=add(self.decided_fall, other.decided_fall),
            decided_adl=add(self.decided_adl, other.decided_adl),
            escalated=add(self.escalated, other.escalated),
            total=self.total + other.total,
            window_len=self.window_len,
            cm=self.cm + other.cm,
        )


def run_sample(cascade: Cascade, window: Window) -> RoutedDecision:
    """Route one window through the cascade until a station decides."""
    v, w = window_peaks(window)
    gate = classify_tc(v, w, cascade.thresholds,
                       strict_paper=cascade.strict_paper_gate)
    if gate is not TriDecision.UNCERTAIN:
        return RoutedDecision(gate.value, 0, [])
    x = cascade.featurize(window)
    probs = []
    top = len(cascade.stations) - 1
    for i, station in enumerate(cascade.stations[1:], start=1):
        logits = forward(station.model, x)
        p_fall = float(softmax_t(logits, cascade.inference_temperature)[FALL_CLASS])
        probs.append(p_fall)
        if i == top:
            final = FALL if int(np.argmax(logits)) == FALL_CLASS else ADL
            return RoutedDecision(final, i, probs)
        verdict = judge_tq(p_fall, cascade.tq_max, cascade.tq_min)
        if verdict is not TriDecision.UNCERTAIN:
            return RoutedDecision(verdict.value, i, probs)


def run_dataset(cascade: Cascade, windows) -> CascadeReport:
    """Route each window and count where it exits and with what outcome; each
    station above the gate receives the windows the one below did not decide."""
    windows = list(windows)
    if not windows:
        raise ValueError("no windows to route")
    n_stations = len(cascade.stations)
    decided = {FALL: [0] * n_stations, ADL: [0] * n_stations}
    outcomes = [0] * 4  # tn, fn, fp, tp at 2 * (predicted fall) + (actual fall)
    for window in windows:
        decision = run_sample(cascade, window)
        decided[decision.final][decision.decided_at] += 1
        outcomes[2 * (decision.final == FALL) + (window.label == FALL)] += 1
    tn, fn, fp, tp = outcomes
    exits = [f + a for f, a in zip(decided[FALL], decided[ADL])]
    processed = [len(windows)]
    for e in exits[:-1]:
        processed.append(processed[-1] - e)
    return CascadeReport(
        station_names=[s.name for s in cascade.stations],
        processed=processed,
        decided_fall=decided[FALL],
        decided_adl=decided[ADL],
        escalated=[p - e for p, e in zip(processed, exits)],
        total=len(windows),
        window_len=len(windows[0].samples),
        cm=ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn),
    )


def build_cascade(models, thresholds: EdgeThresholds, tq_max: float = 0.8,
                  tq_min: float = 0.2, inference_temperature: float = 1.0,
                  featurize=None, names=None,
                  strict_paper_gate: bool = False) -> Cascade:
    """Gate plus the given models in order; the last model is the top station."""
    if names is None:
        names = [f"mec{i + 1}" for i in range(len(models) - 1)] + ["cc"]
    stations = [Station("ed_gate")] + [Station(names[i], m) for i, m in enumerate(models)]
    return Cascade(stations=stations, thresholds=thresholds, tq_max=tq_max,
                   tq_min=tq_min, inference_temperature=inference_temperature,
                   strict_paper_gate=strict_paper_gate, featurize=featurize)
