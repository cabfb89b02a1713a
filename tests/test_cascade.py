import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fallcascade import cascade as cs
from fallcascade import edge_threshold as et
from fallcascade import evaluate, nn
from fallcascade import preprocess as pp
from fallcascade.dataset import ADL, FALL, DatasetError, Trace
from fallcascade.edge_threshold import EdgeThresholds
from fallcascade.preprocess import Window


def make_window(peak_vec, label):
    samples = np.zeros((10, 3))
    samples[0] = [0.1, 0.1, 0.1]
    samples[5] = peak_vec
    return Window(samples, label)


TH = EdgeThresholds(t_fall_xyz=3.0, t_fall_hori=2.0, t_adl_xyz=1.5, t_adl_hori=1.0)


def const_model(logit_fall):
    """Model that always emits logits (0, logit_fall)."""
    model = nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (54, 2)), seed=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = [0.0, logit_fall]
    return model


def two_station_cascade(lower_logit, upper_logit, tq_max=0.8, tq_min=0.2,
                        temperature=1.0):
    return cs.build_cascade([const_model(lower_logit), const_model(upper_logit)],
                            TH, tq_max=tq_max, tq_min=tq_min,
                            inference_temperature=temperature)


class TestJudgeTq:
    def test_above_max_is_fall(self):
        assert cs.judge_tq(0.9, 0.8, 0.2) == FALL

    def test_below_min_is_adl(self):
        assert cs.judge_tq(0.1, 0.8, 0.2) == ADL

    def test_inside_band_is_uncertain(self):
        assert cs.judge_tq(0.5, 0.8, 0.2) is None

    def test_invalid_thresholds(self):
        # the band is checked once, when its cascade is built
        with pytest.raises(cs.InvalidThresholds):
            two_station_cascade(0.0, 0.0, tq_max=0.2, tq_min=0.8)


class TestRunSample:
    def test_gate_short_circuits_absolute_fall(self):
        casc = two_station_cascade(0.0, 0.0)
        window = make_window([4.0, 3.0, 3.0], FALL)
        decision = cs.run_sample(casc, window)
        assert decision.final == FALL
        assert decision.decided_at == 0

    def test_all_uncertain_top_decides_by_argmax(self):
        # lower station emits p_fall = 0.5 (uncertain); top argmax picks ADL
        casc = two_station_cascade(0.0, -2.0)
        window = make_window([2.0, 1.5, 1.2], FALL)  # gate-uncertain
        decision = cs.run_sample(casc, window)
        assert decision.decided_at == 2
        assert decision.final == ADL

    def test_empty_band_decides_at_first_classifier(self):
        eps = 1e-9
        casc = two_station_cascade(0.4, 5.0, tq_max=0.5 + eps, tq_min=0.5 - eps)
        window = make_window([2.0, 1.5, 1.2], ADL)
        decision = cs.run_sample(casc, window)
        assert decision.decided_at == 1

    def test_confident_lower_station_decides(self):
        casc = two_station_cascade(3.0, 0.0)  # p_fall ~ 0.95 > 0.8
        window = make_window([2.0, 1.5, 1.2], FALL)
        decision = cs.run_sample(casc, window)
        assert decision.decided_at == 1
        assert decision.final == FALL



class TestRunDataset:
    def _mixed_windows(self, n_each=20):
        wins = []
        for i in range(n_each):
            wins.append(make_window([4.0 + i * 0.01, 3.0, 3.0], FALL))  # gate fall
            wins.append(make_window([0.5, 0.3, 0.3], ADL))              # gate adl
            wins.append(make_window([2.0, 1.5, 1.2], FALL))             # uncertain
            wins.append(make_window([1.8, 1.4, 1.1], ADL))              # uncertain
        return wins

    def test_all_decided_at_gate(self):
        casc = two_station_cascade(0.0, 0.0)
        wins = [make_window([4.0, 3.0, 3.0], FALL) for _ in range(100)]
        report = cs.run_dataset(casc, wins)
        assert report.decided[0] == 100
        assert report.processed[1:] == [0, 0]

    def test_conservation(self):
        casc = two_station_cascade(0.0, 1.0)
        report = cs.run_dataset(casc, self._mixed_windows())
        assert sum(report.decided) == report.total
        for i in range(len(report.processed) - 1):
            assert report.processed[i + 1] == report.processed[i] - report.decided[i]
        assert all(a >= b for a, b in zip(report.processed, report.processed[1:]))

    def test_widening_band_never_decreases_upper_volume(self):
        wins = self._mixed_windows()
        narrow = cs.run_dataset(two_station_cascade(0.4, 1.0,
                                                    tq_max=0.6, tq_min=0.4), wins)
        wide = cs.run_dataset(two_station_cascade(0.4, 1.0,
                                                  tq_max=0.9, tq_min=0.1), wins)
        for n, w in zip(narrow.processed[1:], wide.processed[1:]):
            assert w >= n

    def test_confusion_counts_sum_to_total(self):
        casc = two_station_cascade(0.0, 1.0)
        report = cs.run_dataset(casc, self._mixed_windows())
        cm = report.cm
        assert cm.tp + cm.tn + cm.fp + cm.fn == report.total

    def test_sample_volume_accounting(self):
        casc = two_station_cascade(0.0, 1.0)
        report = cs.run_dataset(casc, self._mixed_windows())
        assert report.processed_samples == [c * 10 for c in report.processed]

    def test_reports_add_to_the_routing_of_both_sets(self):
        casc = two_station_cascade(0.0, 1.0)
        wins = self._mixed_windows()
        pooled = cs.run_dataset(casc, wins[:30]) + cs.run_dataset(casc, wins[30:])
        assert pooled == cs.run_dataset(casc, wins)

    def test_report_without_confusion_counts_holds_an_empty_matrix(self):
        report = cs.CascadeReport(station_names=["g", "cc"], decided_fall=[2, 0],
                                  decided_adl=[1, 1], window_len=10)
        assert report.cm == cs.ConfusionMatrix()
        assert (report + report).cm == cs.ConfusionMatrix()

    def test_adding_reports_over_other_stations_raises(self):
        wins = self._mixed_windows(2)
        three = cs.build_cascade([const_model(0.0)] * 3, TH)
        with pytest.raises(ValueError):
            cs.run_dataset(two_station_cascade(0.0, 1.0), wins) + cs.run_dataset(three, wins)


@pytest.mark.parametrize("reader", ["feature_matrix", "fit_thresholds", "run_dataset"])
def test_a_label_outside_the_vocabulary_raises(reader):
    # "fall" is neither FALL nor ADL: no window carries it, so no reader can
    # count it as an ADL
    read = {"feature_matrix": pp.feature_matrix, "fit_thresholds": et.fit_thresholds,
            "run_dataset": lambda ws: cs.run_dataset(two_station_cascade(0.0, 0.0), ws)}
    windows = [make_window([4.0, 3.0, 3.0], FALL), make_window([0.5, 0.3, 0.3], ADL)]
    read[reader](windows)
    with pytest.raises(ValueError, match=r"label must be one of \('FALL', 'ADL'\), got 'fall'"):
        read[reader](windows + [make_window([4.0, 3.0, 3.0], "fall")])


def test_trace_and_window_share_one_label_rule():
    with pytest.raises(ValueError) as window:
        Window(np.zeros((4, 3)), "fall")
    with pytest.raises(DatasetError) as trace:
        Trace("S1", "T1", "fall", 50, np.zeros((4, 3)))
    assert str(trace.value) == str(window.value) == (
        "label must be one of ('FALL', 'ADL'), got 'fall'")


class TestCascadeValidation:
    def test_capacity_inversion_warns_only(self):
        big = nn.TieredModel.init(nn.TierSpec(nn.TEACHER, (54, 32, 2)), seed=0)
        small = nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (54, 2)), seed=0)
        with pytest.warns(UserWarning):
            cs.build_cascade([big, small], TH)

    @pytest.mark.parametrize("n_models", [1, 2, 3])
    @pytest.mark.parametrize("tq_max, tq_min",
                             [(0.2, 0.8), (0.3, 0.3), (0.8, -0.1), (1.1, 0.2)])
    def test_band_is_checked_for_any_depth(self, n_models, tq_max, tq_min):
        with pytest.raises(cs.InvalidThresholds):
            cs.build_cascade([const_model(0.0)] * n_models, TH,
                             tq_max=tq_max, tq_min=tq_min)

    def test_needs_a_classifier(self):
        with pytest.raises(ValueError):
            cs.Cascade(models=[], thresholds=TH)


class TestDataModel:
    def test_station_is_a_frozen_name_and_model(self):
        assert [f.name for f in dataclasses.fields(cs.Station)] == ["name", "model"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cs.Station("g").model = const_model(0.0)

    def test_built_cascade_holds_one_band(self):
        casc = two_station_cascade(0.0, 0.0, tq_max=0.7, tq_min=0.1)
        assert (casc.tq_max, casc.tq_min) == (0.7, 0.1)
        assert [s.name for s in casc.stations] == ["ed_gate", "mec1", "cc"]
        assert casc.stations[0].model is None

    def test_evaluate_uses_the_cascade_confusion_matrix(self):
        assert evaluate.ConfusionMatrix is cs.ConfusionMatrix


# two gate-uncertain windows, one the gate calls a fall, one it calls ADL
PEAKS = [[2.0, 1.5, 1.2], [1.8, 1.4, 1.1], [4.0, 3.0, 3.0], [0.5, 0.3, 0.3]]


@settings(max_examples=40, deadline=None)
@given(logits=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
       band=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
           lambda b: b[0] < b[1]),
       picks=st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                      min_size=1, max_size=12))
def test_run_dataset_counts_the_single_window_decisions(logits, band, picks):
    """Random depths, bands and logits: each station's counts in the report
    and its confusion matrix are those of the per-window decisions."""
    wins = [make_window(PEAKS[k], FALL if fall else ADL) for k, fall in picks]
    casc = cs.build_cascade([const_model(v) for v in logits], TH,
                            tq_max=band[1], tq_min=band[0])
    report = cs.run_dataset(casc, wins)
    decisions = [cs.run_sample(casc, w) for w in wins]
    assert report.total == len(wins)
    for i in range(len(casc.stations)):
        exits = [d.final for d in decisions if d.decided_at == i]
        assert report.decided_fall[i] == exits.count(FALL)
        assert report.decided_adl[i] == exits.count(ADL)
        assert report.processed[i] == sum(d.decided_at >= i for d in decisions)
        assert report.escalated[i] == sum(d.decided_at > i for d in decisions)
    outcomes = [(d.final == FALL, w.label == FALL) for d, w in zip(decisions, wins)]
    assert report.cm == cs.ConfusionMatrix(
        tp=outcomes.count((True, True)), tn=outcomes.count((False, False)),
        fp=outcomes.count((True, False)), fn=outcomes.count((False, True)))
