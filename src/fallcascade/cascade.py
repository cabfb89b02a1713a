"""Multilayer escalation cascade: edge threshold gate, then classifier
stations that either decide or forward uncertain windows upward."""
from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .edge_threshold import EdgeThresholds, classify_tc, window_peaks
from .nn import TieredModel, check_fields, check_positive, forward, softmax_t
from .preprocess import ADL, CLASSES, FALL, Window, extract_features

FALL_CLASS = CLASSES.index(FALL)  # logit / probability index of the Fall class

# the per-station counts of a CascadeReport, in report and CSV column order
STATION_COLUMNS = ("processed", "decided_fall", "decided_adl", "escalated",
                   "processed_samples")


class InvalidThresholds(ValueError):
    pass


def check_band(tq_max: float, tq_min: float) -> None:
    """Raise InvalidThresholds unless 0 <= tq_min < tq_max <= 1."""
    if not (0.0 <= tq_min < tq_max <= 1.0):
        raise InvalidThresholds(f"need 0 <= tq_min < tq_max <= 1, got ({tq_max}, {tq_min})")


def judge_tq(p_fall: float, tq_max: float, tq_min: float) -> str | None:
    """Confidence banding of the fall probability against a band that
    check_band accepts: above tq_max is FALL, below tq_min is ADL, anything
    in between is None and escalates."""
    if p_fall > tq_max:
        return FALL
    if p_fall < tq_min:
        return ADL
    return None


@dataclass(frozen=True)
class Station:
    """One station of the cascade: the threshold gate when `model` is None,
    a classifier otherwise."""

    name: str
    model: TieredModel | None = None


@dataclass
class Cascade:
    """The gate, then one classifier station per model, in ascending
    capacity: mec1, mec2, ... and cc on top. Every classifier below the last
    escalates windows whose fall probability lies in the band
    [tq_min, tq_max]; the last decides by argmax."""

    models: list
    thresholds: EdgeThresholds
    tq_max: float = 0.8
    tq_min: float = 0.2
    inference_temperature: float = 1.0
    featurize: object = extract_features  # callable Window -> model input
    stations: list = field(init=False)

    # each checked field's one rule, a check(name, value); the band spans two fields
    CHECKS = {"inference_temperature": check_positive}

    def __post_init__(self):
        if not self.models:
            raise ValueError("cascade needs at least one classifier model")
        check_band(self.tq_max, self.tq_min)
        check_fields(self)
        sizes = [m.spec.n_params for m in self.models]
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            warnings.warn("classifier stations are not capacity-ordered ascending",
                          stacklevel=2)
        names = [f"mec{i + 1}" for i in range(len(self.models) - 1)] + ["cc"]
        self.stations = [Station("ed_gate")] + [Station(n, m) for n, m in zip(names, self.models)]


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


@dataclass
class CascadeReport:
    """Where the routed windows exited and with what outcome. Only the
    decided counts are stored; the volumes follow from them, since each
    station above the gate receives the windows the one below did not decide."""

    station_names: list
    decided_fall: list
    decided_adl: list
    window_len: int
    cm: ConfusionMatrix = ConfusionMatrix()

    @property
    def decided(self) -> list:
        return [f + a for f, a in zip(self.decided_fall, self.decided_adl)]

    @property
    def total(self) -> int:
        return sum(self.decided)

    @property
    def processed(self) -> list:
        """Windows entering each station."""
        return list(itertools.accumulate(self.decided[:-1], operator.sub, initial=self.total))

    @property
    def escalated(self) -> list:
        return [p - d for p, d in zip(self.processed, self.decided)]

    @property
    def processed_samples(self) -> list:
        return [c * self.window_len for c in self.processed]

    def station_rows(self) -> list:
        """(name, *counts) of each station, bottom-up, with the counts in
        STATION_COLUMNS order."""
        return list(zip(self.station_names, *(getattr(self, c) for c in STATION_COLUMNS)))

    def __add__(self, other: "CascadeReport") -> "CascadeReport":
        """Pooled counts of two routings through the same stations; the
        window length is this report's."""
        if other.station_names != self.station_names:
            raise ValueError("cannot add reports over different stations")

        def add(a, b):
            return [x + y for x, y in zip(a, b)]

        return CascadeReport(list(self.station_names),
                             add(self.decided_fall, other.decided_fall),
                             add(self.decided_adl, other.decided_adl),
                             self.window_len, self.cm + other.cm)


def run_sample(cascade: Cascade, window: Window) -> RoutedDecision:
    """Route one window through the cascade until a station decides."""
    v, w = window_peaks(window)
    gate = classify_tc(v, w, cascade.thresholds)
    if gate is not None:
        return RoutedDecision(gate, 0)
    x = cascade.featurize(window)
    top = len(cascade.stations) - 1
    for i, station in enumerate(cascade.stations[1:], start=1):
        logits = forward(station.model, x)
        if i == top:
            return RoutedDecision(CLASSES[int(np.argmax(logits))], i)
        p_fall = float(softmax_t(logits, cascade.inference_temperature)[FALL_CLASS])
        verdict = judge_tq(p_fall, cascade.tq_max, cascade.tq_min)
        if verdict is not None:
            return RoutedDecision(verdict, i)


def run_dataset(cascade: Cascade, windows) -> CascadeReport:
    """Route each window and count where it exits and with what outcome."""
    windows = list(windows)
    if not windows:
        raise ValueError("no windows to route")
    n_stations = len(cascade.stations)
    decided = {FALL: [0] * n_stations, ADL: [0] * n_stations}
    outcomes = [0] * 4  # tn, fn, fp, tp at 2 * (predicted class) + (actual class)
    for window in windows:
        decision = run_sample(cascade, window)
        decided[decision.final][decision.decided_at] += 1
        outcomes[2 * CLASSES.index(decision.final) + CLASSES.index(window.label)] += 1
    tn, fn, fp, tp = outcomes
    return CascadeReport([s.name for s in cascade.stations], decided[FALL], decided[ADL],
                         len(windows[0].samples), ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn))


def build_cascade(models, thresholds: EdgeThresholds, **settings) -> Cascade:
    """The cascade over `models`; `settings` are Cascade's band, temperature
    and featurize fields."""
    return Cascade(models, thresholds, **settings)
