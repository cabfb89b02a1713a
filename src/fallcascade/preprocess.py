"""Impact-centered windowing and the 54 time-domain features.

Channels are the three raw axes plus three derived norms:
ax, ay, az, a_norm = |(ax,ay,az)|, a_verti = |(ax,ay)|, a_hori = |(ay,az)|.
The device x axis is taken as vertical by default (WindowSpec.vertical_axis).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nn import check_fields, check_positive, one_of

if TYPE_CHECKING:
    from .dataset import Trace

FALL = "FALL"
ADL = "ADL"
LABELS = (FALL, ADL)
# a label's class id is its index here: its logit index and its `y` value
CLASSES = (ADL, FALL)

FEATURE_NAMES = tuple(
    f"{stat}_{ch}"
    for stat in ("mean", "std", "var", "max", "min", "range", "kurtosis", "skewness")
    for ch in ("ax", "ay", "az", "a_norm", "a_verti", "a_hori")
) + (
    "corr_ax_ay", "corr_ax_az", "corr_ay_az",
    "corr_norm_verti", "corr_norm_hori", "corr_verti_hori",
)
N_FEATURES = len(FEATURE_NAMES)


# (vertical-plane, horizontal-plane) axis pairs for each vertical axis
PLANE_AXES = {"x": ((0, 1), (1, 2)), "y": ((1, 2), (0, 2)), "z": ((2, 0), (0, 1))}


@dataclass(frozen=True)
class WindowSpec:
    """Sub-window durations after (ws_f_s) and before (ws_b_s) the impact,
    and the vertical axis that every window it cuts carries."""

    ws_f_s: float = 1.0
    ws_b_s: float = 0.8
    vertical_axis: str = "x"

    # each checked field's one rule, a check(name, value)
    CHECKS = {"ws_f_s": check_positive, "ws_b_s": check_positive,
              "vertical_axis": one_of(*PLANE_AXES)}

    def __post_init__(self):
        check_fields(self)

    def before(self, rate_hz: int) -> int:
        """Samples before the impact, which is the window's index of it."""
        return int(round(self.ws_b_s * rate_hz))

    def length(self, rate_hz: int) -> int:
        return self.before(rate_hz) + 1 + int(round(self.ws_f_s * rate_hz))


@dataclass(frozen=True)
class Window:
    """Fixed-size impact-centered segment of one trace."""

    samples: np.ndarray  # (length, 3)
    label: str  # FALL or ADL
    vertical_axis: str = "x"  # picks the planes the gate and the features read

    # each checked field's one rule, a check(name, value)
    CHECKS = {"label": one_of(*LABELS), "vertical_axis": WindowSpec.CHECKS["vertical_axis"]}

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        check_fields(self)


# channel index pairs of the six Pearson correlations, in FEATURE_NAMES order
_CORR_PAIRS = np.array([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def norm_xyz(s):
    """Spatial acceleration norm sqrt(ax^2 + ay^2 + az^2) of each sample in a
    (..., 3) array; one sample gives a scalar."""
    s = np.asarray(s, dtype=np.float64)
    return np.sqrt(np.sum(s * s, axis=-1))


def _plane_norm(s, axes):
    a, b = s[..., axes[0]], s[..., axes[1]]
    return np.sqrt(a * a + b * b)


def norm_hori(s, vertical_axis: str = "x"):
    """Horizontal-plane norm, over PLANE_AXES[vertical_axis] (sqrt(ay^2 + az^2)
    under x), of each sample in a (..., 3) array; one sample gives a scalar."""
    return _plane_norm(np.asarray(s, dtype=np.float64), PLANE_AXES[vertical_axis][1])


def find_impact(samples) -> int:
    """Index of the sample maximizing norm_xyz; ties break to the earliest."""
    return int(np.argmax(norm_xyz(samples)))


def extract_window(trace: Trace, spec: WindowSpec) -> Window:
    """Cut the fixed-size window that puts the impact at index
    spec.before(rate), zero-padding positions that fall outside the trace."""
    rate = trace.sample_rate_hz
    wb = spec.before(rate)
    length = spec.length(rate)
    out = np.zeros((length, 3))
    lo = find_impact(trace.samples) - wb
    hi = lo + length
    src_lo = max(lo, 0)
    src_hi = min(hi, len(trace.samples))
    out[src_lo - lo: src_hi - lo] = trace.samples[src_lo:src_hi]
    return Window(out, trace.label, spec.vertical_axis)


def channel_matrix(samples: np.ndarray, vertical_axis: str = "x") -> np.ndarray:
    """Stack the six analysis channels as columns."""
    WindowSpec.CHECKS["vertical_axis"]("vertical_axis", vertical_axis)
    samples = np.asarray(samples, dtype=np.float64)
    verti, hori = PLANE_AXES[vertical_axis]
    return np.column_stack([samples, norm_xyz(samples),
                            _plane_norm(samples, verti), _plane_norm(samples, hori)])


def extract_features(window: Window) -> np.ndarray:
    """54 time-domain statistics over the raw (unnormalized) window.

    Ordering: 8 stats x 6 channels (mean, SD, variance, max, min, range,
    excess kurtosis, skewness), then Pearson correlations for the axis
    pairs (x,y), (x,z), (y,z) and the norm pairs (norm,verti), (norm,hori),
    (verti,hori). Zero-variance channels yield 0 for the shape statistics.
    """
    ch = channel_matrix(window.samples, window.vertical_axis)
    f = np.empty(N_FEATURES)
    f[0:6] = ch.mean(axis=0)
    f[6:12] = ch.std(axis=0)
    f[12:18] = ch.var(axis=0)
    hi, lo = ch.max(axis=0), ch.min(axis=0)
    f[18:24] = hi
    f[24:30] = lo
    f[30:36] = hi - lo
    # one channel per contiguous row, so each sum below is numpy's pairwise
    # sum over that channel alone
    rows = np.ascontiguousarray(ch.T)
    d = rows - rows.mean(axis=1, keepdims=True)
    d[hi == lo] = 0.0  # a constant channel's float mean can miss its reading
    ss = np.sum(d * d, axis=1)
    m2 = ss / len(ch)
    # a flat channel's shape statistics are 0; dividing its zero moments by 1
    # keeps 0/0 out. float_power rounds as libm's pow does; array ** may take
    # a SIMD pow that differs from it in the last bit
    flat = m2 == 0
    m2 = np.where(flat, 1.0, m2)
    f[36:42] = np.where(flat, 0.0, np.mean(d ** 4, axis=1) / np.float_power(m2, 2) - 3.0)
    f[42:48] = np.where(flat, 0.0, np.mean(d ** 3, axis=1) / np.float_power(m2, 1.5))
    i, j = _CORR_PAIRS.T
    denom = np.sqrt(ss[i] * ss[j])
    f[48:54] = np.divide(np.sum(d[i] * d[j], axis=1), denom,
                         out=np.zeros(len(denom)), where=denom != 0)
    return f


def feature_matrix(windows):
    """(X, y) with X shape (n, 54) and y each window's class id, its label's
    index in CLASSES."""
    X = np.stack([extract_features(w) for w in windows])
    y = np.array([CLASSES.index(w.label) for w in windows], dtype=np.int64)
    return X, y
