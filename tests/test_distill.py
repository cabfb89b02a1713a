import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fallcascade import distill, nn
from fallcascade.evaluate import DEPLOYED_TIERS, LAYERS_DUAL, LAYERS_TRIPLE
from gradcheck import max_rel_error

# logits whose T=1 softmax gives exactly (0.5, 0.5) and (0.9, 0.1)
UNIFORM = np.array([0.0, 0.0])
SKEWED = np.array([math.log(0.9), math.log(0.1)])


class TestKlSoft:
    @pytest.mark.parametrize("direction", [distill.PAPER_EQ8, distill.STANDARD_KD])
    @pytest.mark.parametrize("T", [1.0, 5.0, 20.0])
    def test_identical_logits_zero(self, direction, T):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = rng.normal(scale=3.0, size=2)
            assert abs(distill.kl_soft(logits, logits, T, direction)) < 1e-9

    def test_unknown_direction_is_the_kd_config_rule(self):
        message = "^direction must be one of paper_eq8, standard, got 'up'$"
        with pytest.raises(ValueError, match=message):
            distill.kl_soft([0, 1], [1, 0], 2.0, "up")
        with pytest.raises(ValueError, match=message):
            distill.KDConfig(direction="up")

    def test_paper_direction_hand_value(self):
        # 0.5*ln(0.5/0.9) + 0.5*ln(0.5/0.1)
        val = distill.kl_soft(SKEWED, UNIFORM, 1.0, distill.PAPER_EQ8)
        assert val == pytest.approx(0.510826, abs=1e-5)

    def test_standard_direction_hand_value(self):
        # 0.9*ln(0.9/0.5) + 0.1*ln(0.1/0.5)
        val = distill.kl_soft(SKEWED, UNIFORM, 1.0, distill.STANDARD_KD)
        assert val == pytest.approx(0.368064, abs=1e-5)

    @pytest.mark.parametrize("direction", [distill.PAPER_EQ8, distill.STANDARD_KD])
    @pytest.mark.parametrize("T", [1.0, 5.0, 20.0])
    def test_non_negative(self, direction, T):
        rng = np.random.default_rng(2)
        for _ in range(300):
            t_logits = rng.normal(scale=4.0, size=2)
            s_logits = rng.normal(scale=4.0, size=2)
            assert distill.kl_soft(t_logits, s_logits, T, direction) >= -1e-9

    def test_nonpositive_temperature(self):
        with pytest.raises(ValueError, match=r"^temperature must be > 0, got 0\.0$"):
            distill.kl_soft(UNIFORM, SKEWED, 0.0)


class TestLossDual:
    def test_lambda_zero_is_cross_entropy(self):
        cfg = distill.KDConfig(lam=0.0, temperature=20.0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = rng.normal(size=2)
            s = rng.normal(size=2)
            label = int(rng.integers(0, 2))
            ce = nn.cross_entropy(nn.softmax_t(s, 1.0), label)
            assert distill.loss_dual(t, s, label, cfg) == pytest.approx(ce, abs=1e-12)

    def test_lambda_one_identical_logits_zero(self):
        cfg = distill.KDConfig(lam=1.0, temperature=20.0)
        logits = np.array([1.3, -0.2])
        assert distill.loss_dual(logits, logits, 0, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_hand_composed_value(self):
        cfg = distill.KDConfig(lam=0.5, temperature=20.0)
        t = np.array([2.0, -1.0])
        s = np.array([-0.5, 0.7])
        kl = distill.kl_soft(t, s, 20.0, cfg.direction)
        ce = nn.cross_entropy(nn.softmax_t(s, 1.0), 1)
        expected = 0.5 * 400.0 * kl + 0.5 * ce
        assert distill.loss_dual(t, s, 1, cfg) == pytest.approx(expected, rel=1e-12)

    def test_affine_in_lambda(self):
        t = np.array([1.0, 0.0])
        s = np.array([0.2, 0.4])
        vals = [distill.loss_dual(t, s, 0, distill.KDConfig(lam=l))
                for l in (0.0, 0.5, 1.0)]
        assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2, rel=1e-12)


class TestLossTri:
    def test_all_equal_reduces_to_weighted_ce(self):
        cfg = distill.KDConfig(lam=0.5)
        logits = np.array([0.8, -0.3])
        ce = nn.cross_entropy(nn.softmax_t(logits, 1.0), 0)
        val = distill.loss_tri(logits, logits, logits, 0, cfg)
        assert val == pytest.approx((1 - cfg.lam) * ce, abs=1e-12)

    def test_lambda_zero_is_cross_entropy(self):
        cfg = distill.KDConfig(lam=0.0)
        rng = np.random.default_rng(4)
        t, ta, s = rng.normal(size=(3, 2))
        ce = nn.cross_entropy(nn.softmax_t(s, 1.0), 1)
        assert distill.loss_tri(t, ta, s, 1, cfg) == pytest.approx(ce, abs=1e-12)

    @pytest.mark.parametrize("combine", [distill.ADDITIVE, distill.MULTIPLICATIVE])
    def test_matches_hand_evaluation(self, combine):
        cfg = distill.KDConfig(lam=0.5, temperature=2.0, tri_combine=combine)
        t = np.array([1.0, -1.0])
        ta = np.array([0.5, 0.2])
        s = np.array([-0.3, 0.9])
        p = nn.softmax_t(s, 2.0)
        q = nn.softmax_t(ta, 2.0)
        r = nn.softmax_t(t, 2.0)
        a = np.log(p) - np.log(q)
        b = np.log(q) - np.log(r)
        comp = np.sum(p * (a + b)) if combine == distill.ADDITIVE else np.sum(p * a * b)
        ce = nn.cross_entropy(nn.softmax_t(s, 1.0), 1)
        expected = 0.5 * 4.0 * comp + 0.5 * ce
        assert distill.loss_tri(t, ta, s, 1, cfg) == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64),
           T=st.sampled_from([0.5, 1.0, 2.0, 20.0]), scale=st.floats(0.1, 30.0),
           lam=st.floats(0.0, 1.0))
    def test_composite_additive_is_dual_kd_from_the_teacher(self, seed, n, T, scale, lam):
        # sum p((log p - log q) + (log q - log r)) = sum p(log p - log r): the
        # TA's log q cancels, leaving the paper-direction KL to the teacher
        rng = np.random.default_rng(seed)
        s, t, ta, other_ta = rng.normal(scale=scale, size=(4, n, 2))
        y, idx = rng.integers(0, 2, size=n), np.arange(n)
        hard = nn.ce_rows(nn.softmax_t(s, 1.0), y)
        cfg = distill.KDConfig(lam=lam, temperature=T, direction=distill.PAPER_EQ8,
                               triple_mode=distill.COMPOSITE_EQ10,
                               tri_combine=distill.ADDITIVE)
        loss, grad = distill.TriLoss(t, ta, cfg).value_and_grad(s, hard, idx)
        dual_loss, dual_grad = distill.DualLoss(t, cfg).value_and_grad(s, hard, idx)
        np.testing.assert_allclose(loss, dual_loss, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad, dual_grad, rtol=1e-12, atol=1e-12)
        redrawn, _ = distill.TriLoss(t, other_ta, cfg).value_and_grad(s, hard, idx)
        np.testing.assert_allclose(redrawn, loss, rtol=1e-12, atol=1e-12)


class TestBatchLossGradients:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        model = nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (4, 6, 2)), seed=seed)
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, size=5)
        t_logits = rng.normal(scale=2.0, size=(5, 2))
        ta_logits = rng.normal(scale=2.0, size=(5, 2))
        return model, X, y, t_logits, ta_logits

    @pytest.mark.parametrize("direction", [distill.PAPER_EQ8, distill.STANDARD_KD])
    def test_dual_loss_gradient(self, direction):
        model, X, y, t_logits, _ = self._setup(5)
        cfg = distill.KDConfig(lam=0.5, temperature=20.0, direction=direction)
        spec = distill.DualLoss(t_logits, cfg)
        assert max_rel_error(model, X, y, spec) < 1e-4

    @pytest.mark.parametrize("combine", [distill.ADDITIVE, distill.MULTIPLICATIVE])
    def test_tri_loss_gradient(self, combine):
        model, X, y, t_logits, ta_logits = self._setup(6)
        cfg = distill.KDConfig(lam=0.5, temperature=5.0, tri_combine=combine)
        spec = distill.TriLoss(t_logits, ta_logits, cfg)
        assert max_rel_error(model, X, y, spec) < 1e-4


class TestDistillTrain:
    def test_lambda_zero_matches_plain_training(self, separable_xy):
        X, y = separable_xy
        spec = nn.TierSpec(nn.STUDENT, (2, 4, 2))
        cfg = nn.TrainConfig(epochs=8, seed=9)
        teacher = nn.train(nn.TieredModel.init(nn.TierSpec(nn.TEACHER, (2, 16, 2)),
                                               seed=9), X, y, cfg).model
        kd = distill.KDConfig(lam=0.0)
        distilled = distill.distill_train(teacher, spec, X, y, kd, cfg)
        plain = nn.train(nn.TieredModel.init(spec, seed=cfg.seed), X, y, cfg)
        for a, b in zip(distilled.model.weights, plain.model.weights):
            assert a.tobytes() == b.tobytes()

    def test_separable_accuracy(self, separable_xy, accuracy):
        X, y = separable_xy
        cfg = nn.TrainConfig(epochs=150, seed=10)
        teacher = nn.train(nn.TieredModel.init(nn.TierSpec(nn.TEACHER, (2, 16, 2)),
                                               seed=10), X, y, cfg).model
        res = distill.distill_train(teacher, nn.TierSpec(nn.STUDENT, (2, 4, 2)),
                                    X, y, distill.KDConfig(), cfg)
        assert accuracy(res.model, X, y) >= 0.9

    def test_determinism(self, separable_xy):
        X, y = separable_xy
        cfg = nn.TrainConfig(epochs=5, seed=11)
        teacher = nn.train(nn.TieredModel.init(nn.TierSpec(nn.TEACHER, (2, 8, 2)),
                                               seed=11), X, y, cfg).model
        r1 = distill.distill_train(teacher, nn.TierSpec(nn.STUDENT, (2, 4, 2)),
                                   X, y, distill.KDConfig(), cfg)
        r2 = distill.distill_train(teacher, nn.TierSpec(nn.STUDENT, (2, 4, 2)),
                                   X, y, distill.KDConfig(), cfg)
        for a, b in zip(r1.model.weights, r2.model.weights):
            assert a.tobytes() == b.tobytes()


# the tiers of each layer layout, and every (kd, tiers) variant they make
DUAL, TRIPLE = DEPLOYED_TIERS[LAYERS_DUAL], DEPLOYED_TIERS[LAYERS_TRIPLE]
VARIANTS = [(kd, tiers) for kd in distill.KD_VARIANTS for tiers in (DUAL, TRIPLE)]


class TestTakdPipeline:
    SPECS = {nn.TEACHER: nn.TierSpec(nn.TEACHER, (2, 16, 8, 2)),
             nn.TA: nn.TierSpec(nn.TA, (2, 8, 2)),
             nn.STUDENT: nn.TierSpec(nn.STUDENT, (2, 4, 2))}

    @pytest.mark.parametrize("mode", [distill.SEQUENTIAL, distill.COMPOSITE_EQ10])
    def test_all_models_learn_separable_set(self, separable_xy, accuracy, mode):
        X, y = separable_xy
        cfg = nn.TrainConfig(epochs=150, seed=12)
        kd = distill.KDConfig(triple_mode=mode)
        [fits] = distill.takd_pipeline(self.SPECS, X, y, kd, cfg, [(distill.KD_TRIPLE, TRIPLE)])
        for res in (fits[nn.TEACHER], fits[nn.TA], fits[nn.STUDENT]):
            assert accuracy(res.model, X, y) >= 0.9

    def test_capacity_order_enforced(self, separable_xy):
        X, y = separable_xy
        cfg = nn.TrainConfig(epochs=2, seed=13)
        teacher, ta, student = (self.SPECS[tier] for tier in nn.TIERS)
        with pytest.raises(ValueError):
            distill.takd_pipeline({nn.TEACHER: student, nn.TA: ta, nn.STUDENT: teacher},
                                  X, y, distill.KDConfig(), cfg, [(distill.KD_TRIPLE, TRIPLE)])
        with pytest.raises(ValueError):  # equal sizes are not an order either
            distill.takd_pipeline({nn.TEACHER: teacher, nn.TA: teacher, nn.STUDENT: student},
                                  X, y, distill.KDConfig(), cfg, [(distill.KD_TRIPLE, TRIPLE)])

    def test_determinism(self, separable_xy):
        X, y = separable_xy
        cfg = nn.TrainConfig(epochs=3, seed=15)
        [out1] = distill.takd_pipeline(self.SPECS, X, y, distill.KDConfig(), cfg,
                                       [(distill.KD_TRIPLE, TRIPLE)])
        [out2] = distill.takd_pipeline(self.SPECS, X, y, distill.KDConfig(), cfg,
                                       [(distill.KD_TRIPLE, TRIPLE)])
        assert list(out1) == list(out2)
        for tier, r1 in out1.items():
            for a, b in zip(r1.model.weights, out2[tier].model.weights):
                assert a.tobytes() == b.tobytes()

    def test_without_kd_each_tier_is_plain_training_with_its_seed(self, separable_xy):
        X, y = separable_xy
        cfg = nn.TrainConfig(epochs=3, seed=16)
        [stack] = distill.takd_pipeline(self.SPECS, X, y, distill.KDConfig(), cfg,
                                        [(distill.KD_NONE, TRIPLE)])
        for offset, tier in enumerate(nn.TIERS):
            spec, res = self.SPECS[tier], stack[tier]
            tier_cfg = nn.TrainConfig(epochs=3, seed=16 + offset)
            plain = nn.train(nn.TieredModel.init(spec, seed=16 + offset), X, y, tier_cfg)
            for a, b in zip(res.model.weights, plain.model.weights):
                assert a.tobytes() == b.tobytes()

    def test_ta_is_optional_except_for_triple_kd(self, separable_xy):
        X, y = separable_xy
        cfg = nn.TrainConfig(epochs=2, seed=17)
        dual, triple = distill.takd_pipeline(
            self.SPECS, X, y, distill.KDConfig(), cfg,
            [(distill.KD_DUAL, DUAL), (distill.KD_TRIPLE, DUAL)])
        assert nn.TA not in dual and dual[nn.STUDENT].model.spec == self.SPECS[nn.STUDENT]
        # triple KD trains the TA that teaches its student, deployed or not
        assert set(triple) == set(nn.TIERS)

    def test_equal_tiers_without_kd_are_separate_fits_with_their_seeds(self, separable_xy):
        X, y = separable_xy
        cfg = nn.TrainConfig(epochs=3, seed=19)
        spec = self.SPECS[nn.STUDENT]  # the TA takes the student's spec
        [fits] = distill.takd_pipeline({**self.SPECS, nn.TA: spec}, X, y,
                                       distill.KDConfig(), cfg, [(distill.KD_NONE, TRIPLE)])
        ta, student = fits[nn.TA], fits[nn.STUDENT]
        for offset, res in ((1, ta), (2, student)):
            tier_cfg = nn.TrainConfig(epochs=3, seed=19 + offset)
            assert same_fit(res, nn.train(nn.TieredModel.init(spec, seed=19 + offset),
                                          X, y, tier_cfg))
        assert not same_fit(ta, student)

    @pytest.mark.parametrize("kd, mode", [(distill.KD_NONE, distill.SEQUENTIAL),
                                          (distill.KD_DUAL, distill.SEQUENTIAL),
                                          (distill.KD_TRIPLE, distill.SEQUENTIAL),
                                          (distill.KD_TRIPLE, distill.COMPOSITE_EQ10)],
                             ids=["none-sequential", "dual-sequential", "triple-sequential",
                                  "triple-composite_eq10"])
    def test_held_fits_are_returned_not_retrained(self, separable_xy, monkeypatch, kd, mode):
        X, y = separable_xy
        cfg, kd_cfg = nn.TrainConfig(epochs=2, seed=20), distill.KDConfig(triple_mode=mode)
        trained, train = [], distill.train

        def counted(*args, **kwargs):
            trained.append(args[0].spec.tier)
            return train(*args, **kwargs)

        monkeypatch.setattr(distill, "train", counted)
        first, dual, again = distill.takd_pipeline(self.SPECS, X, y, kd_cfg, cfg,
                                                   [(kd, TRIPLE), (kd, DUAL), (kd, TRIPLE)])
        # each tier is trained once; the later variants are handed the held fits
        assert sorted(trained) == sorted(nn.TIERS)
        assert list(again) == list(first)
        assert all(again[tier] is fit for tier, fit in first.items())
        assert all(first[tier] is fit for tier, fit in dual.items())
        assert (nn.TA in dual) == (kd == distill.KD_TRIPLE)


def same_fit(a: nn.TrainResult, b: nn.TrainResult) -> bool:
    """Weights, biases and epoch losses equal bit for bit."""
    return (all(x.tobytes() == y.tobytes() for x, y in
                zip(a.model.weights + a.model.biases, b.model.weights + b.model.biases))
            and a.epoch_losses.tobytes() == b.epoch_losses.tobytes())


@st.composite
def fold_stacks(draw, width, max_folds=4):
    """F folds of n rows each: (F, n, width) features and (F, n) labels."""
    folds = draw(st.integers(1, max_folds))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    return rng.normal(size=(folds, n, width)), rng.integers(0, 2, size=(folds, n)), rng


kd_configs = st.builds(
    distill.KDConfig, lam=st.floats(0.0, 1.0), temperature=st.floats(0.5, 20.0),
    direction=st.sampled_from([distill.PAPER_EQ8, distill.STANDARD_KD]),
    triple_mode=st.sampled_from([distill.SEQUENTIAL, distill.COMPOSITE_EQ10]),
    tri_combine=st.sampled_from([distill.ADDITIVE, distill.MULTIPLICATIVE]))
train_configs = st.builds(
    nn.TrainConfig, epochs=st.integers(1, 3), batch_size=st.integers(1, 48),
    learning_rate=st.sampled_from([0.0, 0.01, 0.1]), seed=st.integers(0, 99))


def capacity_ordered(width, student, grow):
    """Tier specs with one hidden layer each, teacher > TA > student."""
    hidden = (student, student + grow[0], student + grow[0] + grow[1])
    return {tier: nn.TierSpec(tier, (width, h, 2)) for tier, h in
            zip((nn.STUDENT, nn.TA, nn.TEACHER), hidden)}


class TestLockstep:
    """A stack of folds trained in one call equals each fold's solo fit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), width=st.integers(1, 8),
           hidden=st.lists(st.integers(1, 12), max_size=2),
           loss=st.sampled_from(["ce", "dual", "composite"]),
           kd=kd_configs, cfg=train_configs)
    def test_train_stack_equals_solo_fits(self, data, width, hidden, loss, kd, cfg):
        X, y, rng = data.draw(fold_stacks(width))
        teacher = rng.normal(scale=3.0, size=X.shape[:2] + (2,))
        ta = rng.normal(scale=3.0, size=X.shape[:2] + (2,))

        def loss_spec(k=slice(None)):
            if loss == "dual":
                return distill.DualLoss(teacher[k], kd)
            if loss == "composite":
                return distill.TriLoss(teacher[k], ta[k], kd)
            return None

        model = nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (width, *hidden, 2)), seed=cfg.seed)
        stacked = nn.train(model, X, y, cfg, loss_spec())
        assert stacked.model.weights[0].shape == (len(X), width, (*hidden, 2)[0])
        for k in range(len(X)):
            assert same_fit(stacked.fold(k), nn.train(model, X[k], y[k], cfg, loss_spec(k)))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), width=st.integers(1, 6), student=st.integers(1, 4),
           grow=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           kd_variant=st.sampled_from([distill.KD_NONE, distill.KD_DUAL, distill.KD_TRIPLE]),
           kd=kd_configs, cfg=train_configs)
    def test_pipeline_stack_equals_solo_pipelines(self, data, width, student, grow,
                                                  kd_variant, kd, cfg):
        X, y, _ = data.draw(fold_stacks(width))
        specs = capacity_ordered(width, student, grow)
        [stacked] = distill.takd_pipeline(specs, X, y, kd, cfg, [(kd_variant, TRIPLE)])
        for k in range(len(X)):
            [solo] = distill.takd_pipeline(specs, X[k], y[k], kd, cfg, [(kd_variant, TRIPLE)])
            for tier, a in stacked.items():
                assert same_fit(a.fold(k), solo[tier])

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), width=st.integers(1, 6), student=st.integers(1, 4),
           grow=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           variants=st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=6, unique=True),
           kd=kd_configs, cfg=train_configs)
    def test_one_call_equals_each_variant_solo_call(self, data, width, student, grow,
                                                    variants, kd, cfg):
        X, y, _ = data.draw(fold_stacks(width, max_folds=3))
        specs = capacity_ordered(width, student, grow)
        calls, train = [], distill.train

        def counted(model, X, y, cfg, loss_spec=None):
            # a member stack is one call with one fit per member
            calls.extend([model.spec.tier] * int(np.prod(model.weights[0].shape[:-2])))
            return train(model, X, y, cfg, loss_spec)

        with mock.patch.object(distill, "train", counted):
            shared = distill.takd_pipeline(specs, X, y, kd, cfg, variants)
        # one teacher; a TA on the labels and one from the teacher, each when
        # some variant trains it; one student per kd
        tas = {kd_variant == distill.KD_NONE for kd_variant, tiers in variants
               if kd_variant == distill.KD_TRIPLE or nn.TA in tiers}
        assert len(calls) == 1 + len(tas) + len({kd_variant for kd_variant, _ in variants})
        assert len(shared) == len(variants)
        # a fit that several variants plan is one fit, handed to each
        assert all(fits[nn.TEACHER] is shared[0][nn.TEACHER] for fits in shared)
        for variant, fits in zip(variants, shared):
            [solo] = distill.takd_pipeline(specs, X, y, kd, cfg, [variant])
            assert list(fits) == list(solo)
            for tier, fit in fits.items():
                assert same_fit(fit, solo[tier])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), width=st.integers(1, 6), student=st.integers(1, 4),
           grow=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           loss=st.sampled_from(["ce", "dual", "composite"]), solo=st.booleans(),
           kd=kd_configs, cfg=train_configs)
    def test_one_key_tier_equals_its_own_train(self, data, width, student, grow, loss,
                                               solo, kd, cfg):
        # one variant plans one key per tier: a one-member stack, or through
        # distill_train when one fit teaches it, each the bits of `nn.train`
        # on the tier's initial model under its teachers' loss
        X, y, _ = data.draw(fold_stacks(width))
        if solo:
            X, y = X[0], y[0]
        specs = capacity_ordered(width, student, grow)
        kd = dataclasses.replace(kd, triple_mode=distill.COMPOSITE_EQ10)
        kd_variant = {"ce": distill.KD_NONE, "dual": distill.KD_DUAL,
                      "composite": distill.KD_TRIPLE}[loss]
        [fits] = distill.takd_pipeline(specs, X, y, kd, cfg, [(kd_variant, TRIPLE)])
        assert list(fits) == list(nn.TIERS)

        teacher, ta = (nn.forward(fits[tier].model, X) for tier in (nn.TEACHER, nn.TA))
        dual = distill.DualLoss(teacher, kd)
        losses = {nn.TEACHER: nn.CELoss(), nn.TA: nn.CELoss() if loss == "ce" else dual,
                  nn.STUDENT: {"ce": nn.CELoss(), "dual": dual,
                               "composite": distill.TriLoss(teacher, ta, kd)}[loss]}
        for index, tier in enumerate(nn.TIERS):
            tier_cfg = dataclasses.replace(cfg, seed=cfg.seed + index)
            model = nn.TieredModel.init(specs[tier], seed=tier_cfg.seed)
            assert same_fit(fits[tier], nn.train(model, X, y, tier_cfg, losses[tier]))

    def test_first_non_finite_epoch_then_first_fold_is_named(self):
        class Poisoned(nn.CELoss):
            """CE whose loss turns NaN for some folds from a given step on."""

            def __init__(self, poison):
                self.poison, self.step = poison, 0  # {fold: first poisoned step}

            def value_and_grad(self, logits, hard, idx):
                loss, grad = super().value_and_grad(logits, hard, idx)
                self.step += 1
                for fold, step in self.poison.items():
                    if self.step >= step:
                        loss[fold] = np.nan
                return loss, grad

        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(4, 20, 3)), rng.integers(0, 2, size=(4, 20))
        model = nn.TieredModel.init(nn.TierSpec(nn.TA, (3, 4, 2)))
        cfg = nn.TrainConfig(epochs=4, batch_size=10)  # 2 steps per epoch
        # fold 1 goes NaN in epoch 3, folds 3 and 2 in epoch 2: fold 2 is named
        with pytest.raises(nn.NonFiniteLoss, match="^ta training loss is nan at epoch 2$") as e:
            nn.train(model, X, y, cfg, Poisoned({1: 5, 3: 3, 2: 4}))
        assert e.value.fold == 2
        with pytest.raises(nn.NonFiniteLoss) as e:
            nn.train(model, X[0], y[0], cfg, Poisoned({0: 1}))
        assert e.value.fold == 0

    def test_a_poisoned_member_names_its_fold(self):
        class Poisoned(nn.CELoss):
            """CE whose first member's loss in fold 1 is NaN."""

            def value_and_grad(self, logits, hard, idx):
                loss, grad = super().value_and_grad(logits, hard, idx)
                loss[0, 1] = np.nan
                return loss, grad

        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(3, 20, 3)), rng.integers(0, 2, size=(3, 20))
        model = nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (3, 4, 2)))
        teachers = rng.normal(size=(2, 3, 20, 2))
        # four members: a healthy CE, a healthy dual group of two, and last
        # the poisoned one
        dual = distill.DualLoss(teachers, distill.KDConfig())
        loss = distill.MemberLosses([(nn.CELoss(), 1), (dual, 2), (Poisoned(), 1)])
        with pytest.raises(nn.NonFiniteLoss,
                           match="^student training loss is nan at epoch 1$") as e:
            nn.train(model.stacked(4), X, y, nn.TrainConfig(epochs=2, batch_size=10), loss)
        assert e.value.fold == 1
