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


# the largest reading magnitude a window or trace may hold, in g: far above
# any body-worn accelerometer's full scale, and far below the ~1e76 g where
# the kurtosis' fourth power overflows
MAX_READING_G = 1e6


class BadSamples(ValueError):
    """Samples that are not an (n >= 1, 3) array of finite floats within
    ±MAX_READING_G."""


class NoSamples(BadSamples):
    """Samples of the right shape with no rows."""


def check_samples(name: str, samples: np.ndarray) -> None:
    """Raise BadSamples, naming the field, unless samples is an (n, 3) float
    array with n >= 1 and every reading finite and within ±MAX_READING_G
    (NoSamples when n == 0)."""
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise BadSamples(f"{name} must have shape (n, 3), got {samples.shape}")
    if len(samples) == 0:
        raise NoSamples(f"{name} must have at least one row")
    if not np.isfinite(samples).all():
        raise BadSamples(f"{name} must be finite")
    peak = np.abs(samples).max()
    if peak > MAX_READING_G:
        raise BadSamples(f"{name} must lie in [-{MAX_READING_G:g}, {MAX_READING_G:g}] g, "
                         f"got a reading of magnitude {peak:g}")


@dataclass(frozen=True)
class Window:
    """Fixed-size impact-centered segment of one trace."""

    samples: np.ndarray  # (length, 3), length >= 1, finite, within ±MAX_READING_G
    label: str  # FALL or ADL
    vertical_axis: str = "x"  # picks the planes the gate and the features read

    # each checked field's one rule, a check(name, value)
    CHECKS = {"samples": check_samples, "label": one_of(*LABELS),
              "vertical_axis": WindowSpec.CHECKS["vertical_axis"]}

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        check_fields(self)


# channel index pairs of the six Pearson correlations, in FEATURE_NAMES order
_CORR_I, _CORR_J = np.array([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]).T


def sample_norms(samples, vertical_axis: str = "x") -> np.ndarray:
    """The spatial norm sqrt(ax^2 + ay^2 + az^2), then the vertical- and
    horizontal-plane norms over PLANE_AXES[vertical_axis] (sqrt(ax^2 + ay^2)
    and sqrt(ay^2 + az^2) under x), as the three rows of a (3, n) array for
    (n, 3) samples, or a (3,) array for one sample. Each reading is squared
    once, and each sum of squares adds in axis order."""
    s = np.asarray(samples, dtype=np.float64)
    sq = (s * s).T
    (va, vb), (ha, hb) = PLANE_AXES[vertical_axis]
    return np.sqrt([sq[0] + sq[1] + sq[2], sq[va] + sq[vb], sq[ha] + sq[hb]])


def norm_xyz(s):
    """Spatial acceleration norm of each sample in an (n, 3) array; one
    sample gives a scalar."""
    return sample_norms(s)[0]


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
    """Stack the six analysis channels as the columns of a C-ordered (n, 6)
    array: the three axes, then the three rows of sample_norms."""
    WindowSpec.CHECKS["vertical_axis"]("vertical_axis", vertical_axis)
    samples = np.asarray(samples, dtype=np.float64)
    ch = np.empty((len(samples), 6))
    ch[:, :3] = samples
    ch[:, 3:] = sample_norms(samples, vertical_axis).T
    return ch


def extract_features(window: Window) -> np.ndarray:
    """54 time-domain statistics over the raw (unnormalized) window.

    Ordering: 8 stats x 6 channels (mean, SD, variance, max, min, range,
    excess kurtosis, skewness), then Pearson correlations for the axis
    pairs (x,y), (x,z), (y,z) and the norm pairs (norm,verti), (norm,hori),
    (verti,hori). Channels whose squared variance is 0 yield 0 shape statistics.

    The mean and the variance sum each column of the (n, 6) channels in
    sequence, as ch.mean(axis=0) and ch.var(axis=0) do, and the SD is the
    root of the variance, as ch.std(axis=0) is. The moments and the
    correlations sum each channel's contiguous row pairwise.
    """
    ch = channel_matrix(window.samples, window.vertical_axis)
    n = len(ch)
    # np.add.reduce sums as ndarray.sum and .mean do, without their wrappers
    f = np.zeros(N_FEATURES)
    # one view of f per statistic, each written in place; a correlation the
    # divide below skips keeps f's 0
    mean, sd, var, hi, lo, spread, kurt, skew, corr = f.reshape(-1, 6)
    np.divide(np.add.reduce(ch, 0), n, out=mean)
    dev = ch - mean
    np.multiply(dev, dev, out=dev)
    np.divide(np.add.reduce(dev, 0), n, out=var)
    np.sqrt(var, out=sd)
    # one channel per contiguous row, so each sum below is numpy's pairwise
    # sum over that channel alone
    d = ch.T.copy()
    np.maximum.reduce(d, 1, out=hi)
    np.minimum.reduce(d, 1, out=lo)
    np.subtract(hi, lo, out=spread)
    d -= np.add.reduce(d, 1, keepdims=True) / n
    d[hi == lo] = 0.0  # a constant channel's float mean can miss its reading
    ss = np.add.reduce(d * d, 1)
    m2 = ss / n
    # a channel whose m2 squared is 0, flat or with a spread so tiny that it
    # underflows, has shape statistics 0; dividing its moments by 1 keeps 0/0
    # out. float_power rounds as libm's pow does; a SIMD array ** may not
    m2_sq = np.float_power(m2, 2)
    flat = m2_sq == 0
    m2[flat] = m2_sq[flat] = 1.0
    np.divide(np.add.reduce(d ** 4, 1) / n, m2_sq, out=kurt)
    kurt -= 3.0
    np.divide(np.add.reduce(d ** 3, 1) / n, np.float_power(m2, 1.5), out=skew)
    kurt[flat] = skew[flat] = 0.0
    denom = np.sqrt(ss[_CORR_I] * ss[_CORR_J])
    np.divide(np.add.reduce(d[_CORR_I] * d[_CORR_J], 1), denom, out=corr, where=denom != 0)
    return f


def feature_matrix(windows):
    """(X, y) with X shape (n, 54) and y each window's class id, its label's
    index in CLASSES."""
    X = np.stack([extract_features(w) for w in windows])
    y = np.array([CLASSES.index(w.label) for w in windows], dtype=np.int64)
    return X, y
