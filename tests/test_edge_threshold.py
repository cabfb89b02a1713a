import numpy as np
import pytest

from fallcascade import edge_threshold as et
from fallcascade.dataset import ADL, FALL
from fallcascade.preprocess import (FEATURE_NAMES, Window, WindowSpec, extract_features,
                                    extract_window)

# overlapping training classes put the absolute-fall bound above the
# absolute-ADL bound, leaving (1.5, 3.0) as the uncertain band
TH = et.EdgeThresholds(t_fall_xyz=3.0, t_fall_hori=3.0,
                       t_adl_xyz=1.5, t_adl_hori=1.5)


def window_with_peak(vec, label):
    samples = np.zeros((10, 3))
    samples[4] = vec
    return Window(samples, label)


class TestFitThresholds:
    def test_max_min_by_definition(self):
        wins = [window_with_peak([0, 1.2, 0], "ADL"),
                window_with_peak([0, 1.5, 0], "ADL"),
                window_with_peak([0, 3.0, 0], "FALL"),
                window_with_peak([0, 4.0, 0], "FALL")]
        th = et.fit_thresholds(wins)
        assert th.t_fall_xyz == pytest.approx(1.5)
        assert th.t_fall_hori == pytest.approx(1.5)
        assert th.t_adl_xyz == pytest.approx(3.0)
        assert th.t_adl_hori == pytest.approx(3.0)

    def test_singletons(self):
        wins = [window_with_peak([0, 0, 2.0], "ADL"),
                window_with_peak([0, 0, 5.0], "FALL")]
        th = et.fit_thresholds(wins)
        assert th.t_fall_xyz == pytest.approx(2.0)
        assert th.t_adl_xyz == pytest.approx(5.0)

    def test_missing_class(self):
        with pytest.raises(et.MissingClass):
            et.fit_thresholds([window_with_peak([0, 1, 0], "ADL")])

    def test_matches_scan_oracle(self, small_windows):
        th = et.fit_thresholds(small_windows)
        peaks = [(et.window_peaks(w), w.label) for w in small_windows]
        assert th.t_fall_xyz == max(v for (v, _), l in peaks if l != FALL)
        assert th.t_fall_hori == max(w for (_, w), l in peaks if l != FALL)
        assert th.t_adl_xyz == min(v for (v, _), l in peaks if l == FALL)
        assert th.t_adl_hori == min(w for (_, w), l in peaks if l == FALL)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_gate_peaks_are_the_feature_maxima(small_dataset, axis):
    # the gate and the classifiers read the same planes of the window
    columns = [FEATURE_NAMES.index("max_a_norm"), FEATURE_NAMES.index("max_a_hori")]
    for trace in small_dataset.traces:
        window = extract_window(trace, WindowSpec(0.6, 0.5, axis))
        assert window.vertical_axis == axis
        assert list(et.window_peaks(window)) == extract_features(window)[columns].tolist()


class TestClassifyTc:
    def test_both_exceed_is_fall(self):
        assert et.classify_tc(4.0, 4.0, TH) == FALL

    def test_both_below_is_adl(self):
        assert et.classify_tc(1.0, 1.0, TH) == ADL

    def test_between_bands_is_uncertain(self):
        assert et.classify_tc(2.0, 2.0, TH) is None

    def test_boundary_equality_is_uncertain(self):
        assert et.classify_tc(1.5, 1.5, TH) is None
        assert et.classify_tc(3.0, 3.0, TH) is None

    def test_both_branches_holding_is_uncertain(self):
        # separable training data puts the fall bounds below the ADL
        # bounds; a pair that satisfies both branches at once is ambiguous
        sep = et.EdgeThresholds(1.5, 1.5, 3.0, 3.0)
        assert et.classify_tc(2.0, 2.0, sep) is None
        assert et.classify_tc(4.0, 4.0, sep) == FALL
        assert et.classify_tc(1.0, 1.0, sep) == ADL

    def test_scale_invariance(self):
        for scale in (0.5, 2.0, 10.0):
            scaled = et.EdgeThresholds(TH.t_fall_xyz * scale, TH.t_fall_hori * scale,
                                       TH.t_adl_xyz * scale, TH.t_adl_hori * scale)
            for v, w in [(4.0, 4.0), (1.0, 1.0), (2.0, 2.0)]:
                assert et.classify_tc(v * scale, w * scale, scaled) is \
                    et.classify_tc(v, w, TH)


class TestTrainingConsistency:
    def test_no_cross_class_absolute_errors(self, small_windows):
        th = et.fit_thresholds(small_windows)
        for win in small_windows:
            v, w = et.window_peaks(win)
            decision = et.classify_tc(v, w, th)
            if win.label == FALL:
                assert decision != ADL
            else:
                assert decision != FALL

    def test_monotonicity_of_fall_region(self):
        # raising t_fall_* can only shrink the Fall region
        rng = np.random.default_rng(11)
        raised = et.EdgeThresholds(TH.t_fall_xyz + 0.5, TH.t_fall_hori + 0.5,
                                   TH.t_adl_xyz, TH.t_adl_hori)
        for v, w in rng.uniform(0, 6, size=(200, 2)):
            if et.classify_tc(v, w, raised) == FALL:
                assert et.classify_tc(v, w, TH) == FALL
