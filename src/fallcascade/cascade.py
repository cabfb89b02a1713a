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

GATE = "gate"
CLASSIFIER = "classifier"

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


@dataclass
class Station:
    name: str
    kind: str = CLASSIFIER
    model: TieredModel | None = None
    tq_max: float = 0.8
    tq_min: float = 0.2
    is_top: bool = False

    def __post_init__(self):
        if self.kind not in (GATE, CLASSIFIER):
            raise ValueError(f"unknown station kind {self.kind!r}")
        if self.kind == CLASSIFIER and self.model is None:
            raise ValueError(f"classifier station {self.name!r} needs a model")
        if self.kind == CLASSIFIER and not self.is_top:
            if not (0.0 <= self.tq_min < self.tq_max <= 1.0):
                raise InvalidThresholds(
                    f"station {self.name!r}: need 0 <= tq_min < tq_max <= 1")


@dataclass
class Cascade:
    stations: list
    thresholds: EdgeThresholds
    inference_temperature: float = 1.0
    strict_paper_gate: bool = False
    featurize: object = None  # callable Window -> model input; default raw features

    def __post_init__(self):
        if len(self.stations) < 2:
            raise ValueError("cascade needs at least a gate and one classifier")
        if self.stations[0].kind != GATE:
            raise ValueError("first station must be the threshold gate")
        tops = [s for s in self.stations if s.is_top]
        if tops != [self.stations[-1]]:
            raise ValueError("exactly the last station must be marked top")
        if self.inference_temperature <= 0:
            raise ValueError("inference_temperature must be > 0")
        sizes = [count_params(s.model) for s in self.stations if s.kind == CLASSIFIER]
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            warnings.warn("classifier stations are not capacity-ordered ascending",
                          stacklevel=2)
        if self.featurize is None:
            self.featurize = extract_features


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
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

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
            tp=self.tp + other.tp, tn=self.tn + other.tn,
            fp=self.fp + other.fp, fn=self.fn + other.fn,
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
    for i, station in enumerate(cascade.stations[1:], start=1):
        logits = forward(station.model, x)
        p_fall = float(softmax_t(logits, cascade.inference_temperature)[FALL_CLASS])
        probs.append(p_fall)
        if station.is_top:
            final = FALL if int(np.argmax(logits)) == FALL_CLASS else ADL
            return RoutedDecision(final, i, probs)
        verdict = judge_tq(p_fall, station.tq_max, station.tq_min)
        if verdict is not TriDecision.UNCERTAIN:
            return RoutedDecision(verdict.value, i, probs)
    raise AssertionError("unreachable: top station always decides")


def run_dataset(cascade: Cascade, windows) -> CascadeReport:
    """Aggregate routing over a set of windows with conservation accounting."""
    windows = list(windows)
    if not windows:
        raise ValueError("no windows to route")
    n_stations = len(cascade.stations)
    processed = [0] * n_stations
    decided_fall = [0] * n_stations
    decided_adl = [0] * n_stations
    escalated = [0] * n_stations
    tp = tn = fp = fn = 0
    for window in windows:
        decision = run_sample(cascade, window)
        for i in range(decision.decided_at + 1):
            processed[i] += 1
            if i < decision.decided_at:
                escalated[i] += 1
        if decision.final == FALL:
            decided_fall[decision.decided_at] += 1
        else:
            decided_adl[decision.decided_at] += 1
        actual_fall = window.label == FALL
        predicted_fall = decision.final == FALL
        if actual_fall and predicted_fall:
            tp += 1
        elif actual_fall:
            fn += 1
        elif predicted_fall:
            fp += 1
        else:
            tn += 1
    return CascadeReport(
        station_names=[s.name for s in cascade.stations],
        processed=processed,
        decided_fall=decided_fall,
        decided_adl=decided_adl,
        escalated=escalated,
        total=len(windows),
        window_len=len(windows[0].samples),
        tp=tp, tn=tn, fp=fp, fn=fn,
    )


def build_cascade(models, thresholds: EdgeThresholds, tq_max: float = 0.8,
                  tq_min: float = 0.2, inference_temperature: float = 1.0,
                  featurize=None, names=None,
                  strict_paper_gate: bool = False) -> Cascade:
    """Gate plus the given models in order; the last model is the top station."""
    if names is None:
        names = [f"mec{i + 1}" for i in range(len(models) - 1)] + ["cc"]
    stations = [Station("ed_gate", kind=GATE, is_top=False)]
    for i, model in enumerate(models):
        top = i == len(models) - 1
        stations.append(Station(names[i], kind=CLASSIFIER, model=model,
                                tq_max=tq_max, tq_min=tq_min, is_top=top))
    return Cascade(stations=stations, thresholds=thresholds,
                   inference_temperature=inference_temperature,
                   strict_paper_gate=strict_paper_gate, featurize=featurize)
