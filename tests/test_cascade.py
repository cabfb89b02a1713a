import numpy as np
import pytest

from fallcascade import cascade as cs
from fallcascade import nn
from fallcascade.dataset import ADL, FALL
from fallcascade.edge_threshold import EdgeThresholds, TriDecision
from fallcascade.preprocess import Window


def make_window(peak_vec, label):
    samples = np.zeros((10, 3))
    samples[0] = [0.1, 0.1, 0.1]
    samples[5] = peak_vec
    return Window(samples, 5, label, "S1", "T1", 50)


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
        assert cs.judge_tq(0.9, 0.8, 0.2) is TriDecision.FALL

    def test_below_min_is_adl(self):
        assert cs.judge_tq(0.1, 0.8, 0.2) is TriDecision.ADL

    def test_inside_band_is_uncertain(self):
        assert cs.judge_tq(0.5, 0.8, 0.2) is TriDecision.UNCERTAIN

    def test_invalid_thresholds(self):
        with pytest.raises(cs.InvalidThresholds):
            cs.judge_tq(0.5, 0.2, 0.8)


class TestRunSample:
    def test_gate_short_circuits_absolute_fall(self):
        casc = two_station_cascade(0.0, 0.0)
        window = make_window([4.0, 3.0, 3.0], FALL)
        decision = cs.run_sample(casc, window)
        assert decision.final == FALL
        assert decision.decided_at == 0
        assert decision.per_station_prob == []

    def test_all_uncertain_top_decides_by_argmax(self):
        # lower station emits p_fall = 0.5 (uncertain); top argmax picks ADL
        casc = two_station_cascade(0.0, -2.0)
        window = make_window([2.0, 1.5, 1.2], FALL)  # gate-uncertain
        decision = cs.run_sample(casc, window)
        assert decision.decided_at == 2
        assert decision.final == ADL
        assert len(decision.per_station_prob) == 2

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


    def test_strict_paper_gate_decides_adl_between_the_bands(self):
        # peaks (2.77, 1.92) lie below t_fall_* (3.0, 2.0) and above t_adl_*
        window = make_window([2.0, 1.5, 1.2], FALL)
        models = [const_model(0.0), const_model(0.0)]
        strict = cs.run_sample(cs.build_cascade(models, TH, strict_paper_gate=True),
                               window)
        assert (strict.final, strict.decided_at) == (ADL, 0)
        assert cs.run_sample(cs.build_cascade(models, TH), window).decided_at > 0


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
        assert report.tp + report.tn + report.fp + report.fn == report.total

    def test_sample_volume_accounting(self):
        casc = two_station_cascade(0.0, 1.0)
        report = cs.run_dataset(casc, self._mixed_windows())
        assert report.processed_samples == [c * 10 for c in report.processed]

    def test_reports_add_to_the_routing_of_both_sets(self):
        casc = two_station_cascade(0.0, 1.0)
        wins = self._mixed_windows()
        pooled = cs.run_dataset(casc, wins[:30]) + cs.run_dataset(casc, wins[30:])
        assert pooled == cs.run_dataset(casc, wins)

    def test_adding_reports_over_other_stations_raises(self):
        wins = self._mixed_windows(2)
        three = cs.build_cascade([const_model(0.0)] * 3, TH)
        with pytest.raises(ValueError):
            cs.run_dataset(two_station_cascade(0.0, 1.0), wins) + cs.run_dataset(three, wins)


class TestCascadeValidation:
    def test_needs_gate_first(self):
        with pytest.raises(ValueError):
            cs.Cascade(stations=[cs.Station("a", model=const_model(0), is_top=False,
                                            kind=cs.CLASSIFIER),
                                 cs.Station("b", model=const_model(0), is_top=True,
                                            kind=cs.CLASSIFIER)],
                       thresholds=TH)

    def test_capacity_inversion_warns_only(self):
        big = nn.TieredModel.init(nn.TierSpec(nn.TEACHER, (54, 32, 2)), seed=0)
        small = nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (54, 2)), seed=0)
        with pytest.warns(UserWarning):
            cs.build_cascade([big, small], TH)
