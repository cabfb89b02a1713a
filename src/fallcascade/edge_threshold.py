"""Edge-device threshold gate: absolute-fall / absolute-ADL band classification
on the per-window maxima of the spatial and horizontal acceleration norms."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preprocess import ADL, FALL, Window, sample_norms


class MissingClass(Exception):
    pass


@dataclass(frozen=True)
class EdgeThresholds:
    """t_fall_* = max norm over training ADL windows (absolute-fall bound);
    t_adl_* = min norm over training fall windows (absolute-ADL bound)."""

    t_fall_xyz: float
    t_fall_hori: float
    t_adl_xyz: float
    t_adl_hori: float


def window_peaks(window: Window):
    """(max spatial norm, max horizontal-plane norm about its vertical axis)
    of the window: the maxima of the first and last rows of sample_norms."""
    xyz, _, hori = np.maximum.reduce(sample_norms(window.samples, window.vertical_axis), 1)
    return float(xyz), float(hori)


def fit_thresholds(train_windows) -> EdgeThresholds:
    peaks = {FALL: [], ADL: []}  # label -> the (v, w) peaks of its windows
    for win in train_windows:
        peaks[win.label].append(window_peaks(win))
    if not peaks[FALL] or not peaks[ADL]:
        raise MissingClass("training windows must contain both falls and ADLs")
    (fall_v, fall_w), (adl_v, adl_w) = zip(*peaks[FALL]), zip(*peaks[ADL])
    return EdgeThresholds(
        t_fall_xyz=max(adl_v),
        t_fall_hori=max(adl_w),
        t_adl_xyz=min(fall_v),
        t_adl_hori=min(fall_w),
    )


def classify_tc(v: float, w: float, th: EdgeThresholds) -> str | None:
    """Three-way band classification of the peak pair (v, w): FALL, ADL, or
    None to escalate.

    Fall requires both peaks above the absolute-fall bounds, ADL both
    below the absolute-ADL bounds. A pair satisfying both branches at once —
    possible when the training classes are separable, so the fall bounds
    sit below the ADL bounds — is ambiguous and escalates, as does boundary
    equality.
    """
    is_fall = v > th.t_fall_xyz and w > th.t_fall_hori
    is_adl = v < th.t_adl_xyz and w < th.t_adl_hori
    if is_fall and not is_adl:
        return FALL
    if is_adl and not is_fall:
        return ADL
    return None
