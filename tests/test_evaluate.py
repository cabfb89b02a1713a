import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fallcascade import distill
from fallcascade import evaluate as ev
from fallcascade import nn
from fallcascade import preprocess as pp
from fallcascade.cascade import InvalidThresholds
from fallcascade.dataset import FALL, Dataset, SynthSpec, loso_folds, synth_generate
from fallcascade.edge_threshold import MissingClass
from fallcascade.preprocess import Window, WindowSpec


class TestMetrics:
    CM = ev.ConfusionMatrix(tp=50, tn=40, fp=5, fn=5)

    def test_worked_example(self):
        m = ev.metrics(self.CM)
        assert m.acc == pytest.approx(0.9, abs=1e-12)
        assert m.pre == pytest.approx(0.909091, abs=1e-6)
        assert m.rec == pytest.approx(0.909091, abs=1e-6)
        assert m.f1 == pytest.approx(0.909091, abs=1e-6)

    def test_paper_f1_omits_factor_two(self):
        m = ev.metrics(self.CM, f1_mode=ev.F1_PAPER)
        assert m.f1 == pytest.approx(0.454545, abs=1e-6)

    def test_undefined_precision(self):
        m = ev.metrics(ev.ConfusionMatrix(tp=0, tn=10, fp=0, fn=0))
        assert m.pre is None

    def test_empty_matrix(self):
        with pytest.raises(ev.UndefinedMetric):
            ev.metrics(ev.ConfusionMatrix())

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        tp, tn, fp, fn = (int(v) for v in rng.integers(1, 100, size=4))
        m = ev.metrics(ev.ConfusionMatrix(tp, tn, fp, fn))
        assert m.acc == pytest.approx((tp + tn) / (tp + tn + fp + fn))
        assert m.pre == pytest.approx(tp / (tp + fp))
        assert m.rec == pytest.approx(tp / (tp + fn))
        assert m.f1 == pytest.approx(2 * m.pre * m.rec / (m.pre + m.rec))

    def test_standard_f1_dominates_paper_f1(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tp, tn, fp, fn = (int(v) for v in rng.integers(1, 50, size=4))
            cm = ev.ConfusionMatrix(tp, tn, fp, fn)
            std = ev.metrics(cm).f1
            paper = ev.metrics(cm, f1_mode=ev.F1_PAPER).f1
            assert std == pytest.approx(2 * paper)


METRIC_NAMES = ("acc", "pre", "rec", "f1")


def improvements(distilled, original):
    """percent_change of each metric of `distilled` over `original`."""
    return [ev.percent_change(getattr(distilled, name), getattr(original, name))
            for name in METRIC_NAMES]


class TestImprovement:
    def test_identity_is_zero(self):
        m = ev.metrics(ev.ConfusionMatrix(50, 40, 5, 5))
        assert improvements(m, m) == [0.0] * 4

    def test_ten_percent(self):
        assert ev.percent_change(0.88, 0.80) == pytest.approx(10.0)

    def test_published_improvement_row_shape(self):
        # original metrics chosen so the signed-percentage convention
        # reproduces the published deltas exactly
        orig = ev.Metrics(acc=0.50, pre=0.30, rec=0.50, f1=0.37)
        dist = ev.Metrics(acc=0.50 * 1.0456, pre=0.30 * 1.9217,
                          rec=0.50 * 1.0436, f1=0.37 * 1.5354)
        assert improvements(dist, orig) == pytest.approx([4.56, 92.17, 4.36, 53.54])

    def test_zero_baseline(self):
        # an undefined delta is None, as an undefined metric is
        orig = ev.Metrics(acc=0.0, pre=None, rec=0.5, f1=0.5)
        dist = ev.Metrics(acc=0.5, pre=0.5, rec=None, f1=0.55)
        assert improvements(dist, orig) == [None, None, None, pytest.approx(10.0)]


class TestFeatureScaler:
    def test_minmax_maps_train_to_unit_box(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 5))
        scaler = ev.fit_scaler(X, "minmax")
        out = scaler(X)
        assert np.allclose(out.min(axis=0), 0.0)
        assert np.allclose(out.max(axis=0), 1.0)

    def test_zscore_standardizes_train(self):
        rng = np.random.default_rng(3)
        X = rng.normal(3.0, 2.0, size=(40, 4))
        out = ev.fit_scaler(X, "zscore")(X)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ev.fit_scaler(np.zeros((2, 2)), "robust")

    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    def test_inexact_constant_column_is_not_blown_up(self, mode):
        # three 0.1s: the float mean misses 0.1, so std is a rounding residue
        X = np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 3.0]])
        scaler = ev.fit_scaler(X, mode)
        assert np.all(np.abs(scaler(X)[:, 0]) < 1e-15)
        assert scaler(np.array([[0.2, 2.0]]))[0, 0] == pytest.approx(0.1)


class TestExperimentConfig:
    @pytest.mark.parametrize("kw, error", [
        (dict(tq_max=0.2, tq_min=0.8), InvalidThresholds),
        (dict(tq_max=0.3, tq_min=0.3), InvalidThresholds),
        (dict(inference_temperature=0.0), ValueError),
        (dict(inference_temperature=-1.0), ValueError),
        (dict(normalization="zcore"), ValueError),
    ], ids=["inverted_band", "empty_band", "temperature", "negative_temperature",
            "normalization"])
    def test_bad_value_fails_when_built(self, kw, error):
        with pytest.raises(error):
            ev.ExperimentConfig(**kw)


def fast_config(**kw):
    defaults = dict(
        window=WindowSpec(0.6, 0.5),
        train=nn.TrainConfig(epochs=15, batch_size=16, seed=0),
        student=nn.TierSpec(nn.STUDENT, (54, 8, 2)),
        ta=nn.TierSpec(nn.TA, (54, 16, 2)),
        teacher=nn.TierSpec(nn.TEACHER, (54, 32, 2)),
    )
    defaults.update(kw)
    return ev.ExperimentConfig(**defaults)


class TestLosoEvaluate:
    def test_one_fold_per_subject(self, small_dataset):
        agg = ev.loso_evaluate(small_dataset, fast_config())
        assert [f.subject for f in agg.folds] == list(small_dataset.subjects)

    def test_pooled_counts_are_fold_sums(self, small_dataset):
        agg = ev.loso_evaluate(small_dataset, fast_config())
        total = ev.ConfusionMatrix()
        for fold in agg.folds:
            total = total + fold.report.cm
        assert agg.pooled_report.cm == total
        assert agg.pooled_report.cm.total == len(small_dataset)

    def test_pooled_acc_is_weighted_fold_mean(self, small_dataset):
        agg = ev.loso_evaluate(small_dataset, fast_config())
        weighted = sum(ev.metrics(f.report.cm).acc * f.report.cm.total for f in agg.folds)
        assert agg.pooled_metrics.acc == pytest.approx(weighted / agg.pooled_report.cm.total)

    def test_deterministic_across_reruns(self, small_dataset):
        cfg = fast_config()
        a = ev.loso_evaluate(small_dataset, cfg)
        b = ev.loso_evaluate(small_dataset, cfg)
        assert a.pooled_report.cm == b.pooled_report.cm
        assert a.pooled_report.processed == b.pooled_report.processed
        assert a.loss_curves == b.loss_curves

    @pytest.mark.parametrize("kd_variant,layers", [
        (ev.KD_NONE, ev.LAYERS_DUAL),
        (ev.KD_DUAL, ev.LAYERS_TRIPLE),
        (ev.KD_TRIPLE, ev.LAYERS_TRIPLE),
    ], ids=["none-dual", "dual-triple", "triple-triple"])
    def test_variants_run(self, small_dataset, kd_variant, layers):
        agg = ev.loso_evaluate(small_dataset,
                               fast_config(kd_variant=kd_variant, layers=layers))
        n_stations = 3 if layers == ev.LAYERS_DUAL else 4
        assert len(agg.pooled_report.station_names) == n_stations
        assert sum(agg.pooled_report.decided) == agg.pooled_report.total

    def test_fold_without_a_class_is_named(self, small_dataset):
        only = small_dataset.subjects[0]
        traces = [t for t in small_dataset.traces
                  if t.label != FALL or t.subject_id == only]
        with pytest.raises(MissingClass, match=f"holding out {only}"):
            ev.loso_evaluate(Dataset("falls-in-one", traces), fast_config())

    def test_non_finite_loss_is_named_with_its_fold(self, small_dataset):
        diverging = nn.TrainConfig(epochs=3, batch_size=16, learning_rate=1e300)
        first = small_dataset.subjects[0]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                nn.NonFiniteLoss, match=f"holding out {first}: teacher training loss"):
            ev.loso_evaluate(small_dataset, fast_config(train=diverging))

    def test_non_finite_member_of_a_stack_is_named(self, small_dataset, monkeypatch):
        # the students of two variants train as one member stack; the second
        # member's loss turns NaN in the stack's second fold only. The
        # teacher, a one-member stack, is left alone
        second = small_dataset.subjects[1]
        value_and_grad = distill.MemberLosses.value_and_grad

        def poisoned(self, logits, hard, idx):
            loss, grad = value_and_grad(self, logits, hard, idx)
            if len(loss) > 1:
                loss[1, 1] = np.nan
            return loss, grad

        monkeypatch.setattr(distill.MemberLosses, "value_and_grad", poisoned)
        splits = ev.loso_folds(t.subject_id for t in small_dataset.traces)
        assert list(ev._stacks(splits, fast_config().teacher)) == [[0, 1, 2]]
        with pytest.raises(nn.NonFiniteLoss,
                           match=f"holding out {second}: student training loss is nan at epoch 1$"):
            ev.loso_evaluate(small_dataset, fast_config(),
                             variants=[(ev.KD_NONE, ev.LAYERS_DUAL), (ev.KD_DUAL, ev.LAYERS_DUAL)])

    def test_needs_two_subjects(self, small_dataset):
        first = small_dataset.subjects[0]
        single = Dataset("one-subject", [t for t in small_dataset.traces
                                         if t.subject_id == first])
        with pytest.raises(ValueError):
            ev.loso_evaluate(single, fast_config())


# noisy, overlapping peak ranges: the gate passes most windows on, and the
# briefly trained tiers are unsure enough that windows reach every station
ESCALATING_SPEC = SynthSpec(n_subjects=3, falls_per_subject=5, adls_per_subject=5,
                            fall_peak_range=(1.5, 4.0), adl_peak_range=(0.8, 3.0),
                            trace_duration_s=2.0, noise_sd=0.5, sample_rate_hz=50,
                            seed=0)

# (kd_variant, layers, triple_mode) -> (tp, tn, fp, fn), processed per station
VARIANT_PINS = {
    (ev.KD_NONE, ev.LAYERS_DUAL, distill.SEQUENTIAL): ((15, 13, 2, 0), [30, 17, 7]),
    (ev.KD_NONE, ev.LAYERS_DUAL, distill.COMPOSITE_EQ10): ((15, 13, 2, 0), [30, 17, 7]),
    (ev.KD_NONE, ev.LAYERS_TRIPLE, distill.SEQUENTIAL): ((15, 13, 2, 0), [30, 17, 7, 7]),
    (ev.KD_NONE, ev.LAYERS_TRIPLE, distill.COMPOSITE_EQ10): ((15, 13, 2, 0), [30, 17, 7, 7]),
    (ev.KD_DUAL, ev.LAYERS_DUAL, distill.SEQUENTIAL): ((15, 13, 2, 0), [30, 17, 5]),
    (ev.KD_DUAL, ev.LAYERS_DUAL, distill.COMPOSITE_EQ10): ((15, 13, 2, 0), [30, 17, 5]),
    (ev.KD_DUAL, ev.LAYERS_TRIPLE, distill.SEQUENTIAL): ((15, 13, 2, 0), [30, 17, 5, 3]),
    (ev.KD_DUAL, ev.LAYERS_TRIPLE, distill.COMPOSITE_EQ10): ((15, 13, 2, 0), [30, 17, 5, 3]),
    (ev.KD_TRIPLE, ev.LAYERS_DUAL, distill.SEQUENTIAL): ((15, 13, 2, 0), [30, 17, 4]),
    (ev.KD_TRIPLE, ev.LAYERS_DUAL, distill.COMPOSITE_EQ10): ((15, 13, 2, 0), [30, 17, 5]),
    (ev.KD_TRIPLE, ev.LAYERS_TRIPLE, distill.SEQUENTIAL): ((15, 13, 2, 0), [30, 17, 4, 3]),
    (ev.KD_TRIPLE, ev.LAYERS_TRIPLE, distill.COMPOSITE_EQ10): ((15, 13, 2, 0), [30, 17, 5, 3]),
}


class TestVariantMatrix:
    """Every (kd, layers) variant under both triple modes: which tiers are
    trained, what is deployed, and the routing outcome pinned."""

    @pytest.fixture(scope="class")
    def data(self):
        return synth_generate(ESCALATING_SPEC)

    @pytest.mark.parametrize("key", sorted(VARIANT_PINS))
    def test_variant(self, data, key):
        kd_variant, layers, mode = key
        cfg = fast_config(
            train=nn.TrainConfig(epochs=20, batch_size=8, learning_rate=0.02, seed=0),
            kd=distill.KDConfig(lam=0.7, temperature=20.0, triple_mode=mode),
            kd_variant=kd_variant, layers=layers)
        agg = ev.loso_evaluate(data, cfg)
        trains_ta = kd_variant == ev.KD_TRIPLE or layers == ev.LAYERS_TRIPLE
        assert set(agg.loss_curves) == ({"teacher", "ta", "student"} if trains_ta
                                        else {"teacher", "student"})
        n_stations = 4 if layers == ev.LAYERS_TRIPLE else 3
        assert len(agg.pooled_report.station_names) == n_stations
        cm, processed = VARIANT_PINS[key]
        pooled = agg.pooled_report.cm
        assert (pooled.tp, pooled.tn, pooled.fp, pooled.fn) == cm
        assert agg.pooled_report.processed == processed

    def test_pipeline_defaults_enforce_capacity_order(self, separable_xy):
        X, y = separable_xy
        small, big = (nn.TierSpec(nn.STUDENT, (2, 4, 2)),
                      nn.TierSpec(nn.TEACHER, (2, 16, 2)))
        with pytest.raises(ValueError):
            distill.takd_pipeline({nn.TEACHER: small, nn.TA: big, nn.STUDENT: big}, X, y,
                                  distill.KDConfig(), nn.TrainConfig(epochs=1),
                                  [(ev.KD_TRIPLE, ev.DEPLOYED_TIERS[ev.LAYERS_TRIPLE])])


class TestSharedPass:
    """One call over several variants shares each fold's windows, features,
    gate, scaler and teacher, and gives each variant its solo call's result."""

    VARIANTS = [(kd, layers) for kd in (ev.KD_NONE, ev.KD_DUAL, ev.KD_TRIPLE)
                for layers in (ev.LAYERS_DUAL, ev.LAYERS_TRIPLE)]

    @pytest.fixture(scope="class")
    def data(self):
        return synth_generate(ESCALATING_SPEC)

    @staticmethod
    def config(mode):
        return fast_config(
            train=nn.TrainConfig(epochs=20, batch_size=8, learning_rate=0.02, seed=0),
            kd=distill.KDConfig(lam=0.7, temperature=20.0, triple_mode=mode))

    @pytest.mark.parametrize("mode", [distill.SEQUENTIAL, distill.COMPOSITE_EQ10])
    def test_equals_each_solo_call(self, data, mode):
        cfg = self.config(mode)
        shared = ev.loso_evaluate(data, cfg, variants=self.VARIANTS)
        assert len(shared) == len(self.VARIANTS)
        for (kd_variant, layers), agg in zip(self.VARIANTS, shared):
            solo = ev.loso_evaluate(
                data, dataclasses.replace(cfg, kd_variant=kd_variant, layers=layers))
            assert [f.report.cm for f in agg.folds] == [f.report.cm for f in solo.folds]
            assert [f.report for f in agg.folds] == [f.report for f in solo.folds]
            assert agg.pooled_report == solo.pooled_report
            assert agg.pooled_metrics == solo.pooled_metrics
            assert agg.mean_metrics == solo.mean_metrics
            assert sorted(agg.loss_curves) == sorted(solo.loss_curves)
            for name, curve in agg.loss_curves.items():
                assert np.array(curve).tobytes() == np.array(solo.loss_curves[name]).tobytes()

    def test_without_variants_returns_the_config_variant(self, data):
        cfg = self.config(distill.SEQUENTIAL)
        agg = ev.loso_evaluate(data, cfg)
        [listed] = ev.loso_evaluate(data, cfg, variants=[(cfg.kd_variant, cfg.layers)])
        assert isinstance(agg, ev.AggregateReport)
        assert agg == listed

    def test_windows_features_and_teacher_once(self, data, monkeypatch):
        # and every other distinct fit once: the six variants deploy 11 tiers
        # per fold, and 6 of them are distinct fits
        calls, fits = Counter(), Counter()
        extract_window, feature_matrix, train = ev.extract_window, ev.feature_matrix, distill.train
        takd_pipeline = distill.takd_pipeline

        def count_window(*args, **kwargs):
            calls["windows"] += 1
            return extract_window(*args, **kwargs)

        def count_table(*args, **kwargs):
            calls["feature_tables"] += 1
            return feature_matrix(*args, **kwargs)

        def count_pipeline(*args, **kwargs):
            calls["pipelines"] += 1
            return takd_pipeline(*args, **kwargs)

        def count_fit(model, X, y, cfg, loss_spec=None):
            # a stack of folds is one call with one fit per fold, and a
            # member stack one with a stack per member
            members = int(np.prod(model.weights[0].shape[:-2]))
            fits[model.spec.tier] += members * (len(X) if np.ndim(X) == 3 else 1)
            return train(model, X, y, cfg, loss_spec)

        monkeypatch.setattr(ev, "extract_window", count_window)
        monkeypatch.setattr(ev, "feature_matrix", count_table)
        monkeypatch.setattr(distill, "train", count_fit)
        monkeypatch.setattr(distill, "takd_pipeline", count_pipeline)
        folds = len(data.subjects)
        splits = ev.loso_folds(t.subject_id for t in data.traces)
        stacks = len(list(ev._stacks(splits, self.config(distill.SEQUENTIAL).teacher)))
        for mode in (distill.SEQUENTIAL, distill.COMPOSITE_EQ10):
            calls.clear()
            fits.clear()
            ev.loso_evaluate(data, self.config(mode), variants=self.VARIANTS)
            # one pipeline call trains a fold stack's fits for every variant
            assert calls == {"windows": len(data), "feature_tables": 1, "pipelines": stacks}
            # the teacher; the TA on the labels and from the teacher; the
            # student on the labels, from the teacher and from the TA (or from
            # teacher and TA, in composite mode)
            assert fits == {nn.TEACHER: folds, nn.TA: 2 * folds, nn.STUDENT: 3 * folds}


class TestTableRouting:
    """The held-out windows route by their scaled rows of the run's feature
    table, which is featurised once per trace."""

    VARIANTS = TestSharedPass.VARIANTS

    @pytest.fixture(scope="class")
    def data(self):
        return synth_generate(ESCALATING_SPEC)

    def test_one_feature_row_per_trace(self, data, monkeypatch):
        rows = Counter()
        extract_features = pp.extract_features

        def count_row(window):
            rows[id(window)] += 1
            return extract_features(window)

        # the name the feature table calls, and the one `evaluate` imports
        monkeypatch.setattr(pp, "extract_features", count_row)
        monkeypatch.setattr(ev, "extract_features", count_row)
        aggs = ev.loso_evaluate(data, TestSharedPass.config(distill.SEQUENTIAL),
                                variants=self.VARIANTS)
        assert len(rows) == len(data) and set(rows.values()) == {1}
        # the routes did reach the classifier stations, which read the rows
        assert all(agg.pooled_report.processed[1] > 0 for agg in aggs)

    def test_lookup_holds_its_windows_and_only_those(self, small_windows):
        rows = np.arange(len(small_windows) * 2.0).reshape(len(small_windows), 2)
        featurize = ev.row_lookup(small_windows, rows)
        for k, w in enumerate(small_windows):
            assert featurize(w) is not None and np.array_equal(featurize(w), rows[k])
        w = small_windows[0]
        equal = Window(w.samples.copy(), w.label, w.vertical_axis)
        assert np.array_equal(equal.samples, w.samples) and equal is not w
        with pytest.raises(ev.NotInTable, match=f"one of the {len(small_windows)} windows"):
            featurize(equal)
        assert issubclass(ev.NotInTable, LookupError)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n_subjects=st.integers(2, 3),
           per_class=st.integers(2, 4), normalization=st.sampled_from(ev.NORMALIZATIONS),
           axis=st.sampled_from(sorted(pp.PLANE_AXES)),
           variants=st.lists(st.sampled_from(TestSharedPass.VARIANTS), min_size=1,
                             max_size=3, unique=True))
    def test_table_rows_route_as_recomputed_features(self, seed, n_subjects, per_class,
                                                     normalization, axis, variants):
        data = synth_generate(dataclasses.replace(
            ESCALATING_SPEC, n_subjects=n_subjects, falls_per_subject=per_class,
            adls_per_subject=per_class, seed=seed))
        cfg = fast_config(window=WindowSpec(0.6, 0.5, axis), normalization=normalization,
                          train=nn.TrainConfig(epochs=3, batch_size=8, learning_rate=0.02))
        # the reference featurize: each fold's scaler, fit on its training
        # rows, over features computed afresh from the window
        windows = [pp.extract_window(t, cfg.window) for t in data.traces]
        features, _ = pp.feature_matrix(windows)
        subject_of = {w.samples.tobytes(): t.subject_id for w, t in zip(windows, data.traces)}
        scalers = {subject: ev.fit_scaler(features[train], normalization)
                   for subject, train, _ in loso_folds(t.subject_id for t in data.traces)}
        routed = []
        run_dataset = ev.run_dataset

        def with_reference(cascade, held_out):
            scaler = scalers[subject_of[held_out[0].samples.tobytes()]]
            reference = dataclasses.replace(
                cascade, featurize=lambda w: scaler(pp.extract_features(w)))
            routed.append((run_dataset(cascade, held_out), run_dataset(reference, held_out)))
            return routed[-1][0]

        with pytest.MonkeyPatch.context() as m:
            m.setattr(ev, "run_dataset", with_reference)
            aggs = ev.loso_evaluate(data, cfg, variants=variants)
        assert len(routed) == n_subjects * len(variants)
        assert sorted(map(id, (f.report for agg in aggs for f in agg.folds))) == sorted(
            id(table) for table, _ in routed)
        for table, reference in routed:
            assert table == reference


class TestLockstepFolds:
    """Folds of equal training size train as one stack; every fold's result
    is the one its solo fits give."""

    VARIANTS = TestSharedPass.VARIANTS

    @pytest.fixture(scope="class")
    def unequal(self):
        # 4 subjects holding 10, 10, 10 and 8 windows: training sizes 28 and 30
        data = synth_generate(dataclasses.replace(ESCALATING_SPEC, n_subjects=4))
        last = [i for i, t in enumerate(data.traces) if t.subject_id == data.subjects[-1]]
        return Dataset("unequal", [t for i, t in enumerate(data.traces) if i not in last[:2]])

    def test_stack_size_rule(self):
        # the benchmark's `escalate` folds stack 3 + 3; the default teacher
        # over the default set's folds trains each fold alone
        assert ev.stack_size(200, nn.TierSpec(nn.TEACHER, (54, 32, 2))) == 4
        assert ev.stack_size(40, nn.default_tier_spec(nn.TEACHER)) == 1
        splits = [(f"S{k}", list(range(200)), []) for k in range(6)]
        assert list(ev._stacks(splits, nn.TierSpec(nn.TEACHER, (54, 32, 2)))) == [
            [0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("most", [None, 2])
    def test_unequal_subjects_equal_solo_fits(self, unequal, monkeypatch, most):
        cfg = TestSharedPass.config(distill.COMPOSITE_EQ10)
        splits = ev.loso_folds(t.subject_id for t in unequal.traces)
        assert [len(rows) for _, rows, _ in splits] == [28, 28, 28, 30]
        if most is not None:  # a group larger than a stack
            rule = ev.stack_size
            monkeypatch.setattr(ev, "stack_size", lambda *a: min(most, rule(*a)))
        stacks = list(ev._stacks(splits, cfg.teacher))
        assert stacks == ([[0, 1, 2], [3]] if most is None else [[0], [1, 2], [3]])
        stacked = ev.loso_evaluate(unequal, cfg, variants=self.VARIANTS)
        monkeypatch.setattr(ev, "stack_size", lambda *a: 1)
        solo = ev.loso_evaluate(unequal, cfg, variants=self.VARIANTS)
        for agg, ref in zip(stacked, solo):
            assert [f.subject for f in agg.folds] == list(unequal.subjects)
            assert [f.report for f in agg.folds] == [f.report for f in ref.folds]
            assert agg.pooled_metrics == ref.pooled_metrics
            assert list(agg.loss_curves) == list(ref.loss_curves)
            for name, curve in agg.loss_curves.items():
                assert np.array(curve).tobytes() == np.array(ref.loss_curves[name]).tobytes()

    def test_non_finite_later_fold_of_a_stack_is_named(self, small_dataset, monkeypatch):
        # a NaN feature in a row of the first subject reaches every fold but
        # that subject's own: the stack diverges in its second and third folds
        # at the same epoch, and the first of them in LOSO order is named
        first, second = small_dataset.subjects[:2]
        row = next(i for i, t in enumerate(small_dataset.traces) if t.subject_id == first)
        feature_matrix = ev.feature_matrix

        def poisoned(*args, **kwargs):
            X, y = feature_matrix(*args, **kwargs)
            X[row, 0] = np.nan
            return X, y

        monkeypatch.setattr(ev, "feature_matrix", poisoned)
        splits = ev.loso_folds(t.subject_id for t in small_dataset.traces)
        assert list(ev._stacks(splits, fast_config().teacher)) == [[0, 1, 2]]
        with pytest.raises(nn.NonFiniteLoss,
                           match=f"holding out {second}: teacher training loss is nan at epoch 1"):
            ev.loso_evaluate(small_dataset, fast_config())
