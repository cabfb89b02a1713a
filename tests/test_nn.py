import math

import numpy as np
import pytest

from fallcascade import nn
from gradcheck import max_rel_error


def tiny_model(widths=(3, 4, 2), seed=0):
    return nn.TieredModel.init(nn.TierSpec(nn.STUDENT, widths), seed=seed)


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        model = tiny_model()
        for W in model.weights:
            W[:] = 0.0
        assert nn.forward(model, np.zeros(3)).tolist() == [0.0, 0.0]

    def test_passthrough_single_layer(self):
        model = tiny_model(widths=(3, 2))
        model.weights[0][:] = 0.0
        model.weights[0][0, 0] = 1.0
        model.weights[0][1, 1] = 1.0
        model.biases[0][:] = 0.0
        out = nn.forward(model, np.array([2.5, -1.5, 9.0]))
        assert out.tolist() == [2.5, -1.5]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_matrix_oracle(self, seed):
        model = tiny_model(widths=(6, 5, 4, 2), seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=6)
        a = x
        for l, (W, b) in enumerate(zip(model.weights, model.biases)):
            a = a @ W + b
            if l < len(model.weights) - 1:
                a = np.where(a > 0, a, 0.0)
        np.testing.assert_allclose(nn.forward(model, x), a, rtol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(nn.ShapeMismatch):
            nn.forward(tiny_model(), np.zeros(5))


class TestSoftmaxT:
    def test_symmetric_logits(self):
        for T in (0.5, 1.0, 20.0):
            np.testing.assert_allclose(nn.softmax_t([0.0, 0.0], T), [0.5, 0.5])

    def test_closed_form(self):
        np.testing.assert_allclose(nn.softmax_t([math.log(3), 0.0], 1.0),
                                   [0.75, 0.25], rtol=1e-12)

    def test_high_temperature_softening(self):
        p = nn.softmax_t([2.0, 0.0], 20.0)
        assert p[0] == pytest.approx(0.52498, abs=1e-5)
        assert p[1] == pytest.approx(0.47502, abs=1e-5)

    def test_nonpositive_temperature(self):
        with pytest.raises(nn.NonPositiveTemperature):
            nn.softmax_t([1.0, 0.0], 0.0)

    @pytest.mark.parametrize("T", [0.1, 1.0, 5.0, 20.0, 100.0])
    def test_valid_distribution_and_argmax_preserved(self, T):
        rng = np.random.default_rng(17)
        for _ in range(50):
            logits = rng.normal(scale=5.0, size=2)
            p = nn.softmax_t(logits, T)
            assert np.all(p > 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.argmax(p) == np.argmax(logits)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert nn.cross_entropy([1.0, 0.0], 0) == 0.0

    def test_uniform(self):
        assert nn.cross_entropy([0.5, 0.5], 1) == pytest.approx(math.log(2))

    def test_wrong_confident(self):
        assert nn.cross_entropy([0.9, 0.1], 1) == pytest.approx(2.302585, abs=1e-6)


class TestGrad:
    def test_symmetric_stationary_point(self):
        model = tiny_model(widths=(2, 2))
        for W in model.weights:
            W[:] = 0.0
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        y = np.array([0, 1])  # balanced labels, symmetric loss
        _, gw, gb = nn.grad(model, X, y)
        np.testing.assert_allclose(gb[-1], 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_check(self, seed):
        rng = np.random.default_rng(seed)
        model = tiny_model(widths=(4, 6, 2), seed=seed)
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, size=5)
        assert max_rel_error(model, X, y, nn.CELoss()) < 1e-4

    def test_gradient_scales_with_loss(self):
        class ScaledCE(nn.CELoss):
            def __init__(self, c):
                self.c = c

            def value_and_grad(self, logits, labels, idx):
                loss, grad = super().value_and_grad(logits, labels, idx)
                return self.c * loss, self.c * grad

        rng = np.random.default_rng(8)
        model = tiny_model(widths=(3, 5, 2), seed=8)
        X = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        _, gw1, _ = nn.grad(model, X, y, nn.CELoss())
        _, gw3, _ = nn.grad(model, X, y, ScaledCE(3.0))
        for a, b in zip(gw1, gw3):
            np.testing.assert_allclose(3.0 * a, b, rtol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(nn.EmptyData):
            nn.grad(tiny_model(), np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestTrain:
    def test_separable_set_reaches_high_accuracy(self, separable_xy, accuracy):
        X, y = separable_xy
        model = tiny_model(widths=(2, 8, 2), seed=1)
        cfg = nn.TrainConfig(epochs=200, batch_size=64, learning_rate=0.001, seed=1)
        result = nn.train(model, X, y, cfg)
        assert accuracy(result.model, X, y) >= 0.95

    def test_zero_learning_rate_is_noop(self, separable_xy):
        X, y = separable_xy
        model = tiny_model(widths=(2, 4, 2), seed=2)
        cfg = nn.TrainConfig(epochs=3, learning_rate=0.0, seed=2)
        result = nn.train(model, X, y, cfg)
        for a, b in zip(model.weights, result.model.weights):
            assert a.tobytes() == b.tobytes()

    def test_same_seed_is_bit_identical(self, separable_xy):
        X, y = separable_xy
        cfg = nn.TrainConfig(epochs=5, seed=3)
        r1 = nn.train(tiny_model(widths=(2, 4, 2), seed=3), X, y, cfg)
        r2 = nn.train(tiny_model(widths=(2, 4, 2), seed=3), X, y, cfg)
        for a, b in zip(r1.model.weights, r2.model.weights):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(r1.model.biases, r2.model.biases):
            assert a.tobytes() == b.tobytes()

    def test_loss_curve_settles(self, separable_xy):
        X, y = separable_xy
        cfg = nn.TrainConfig(epochs=120, seed=4)
        result = nn.train(tiny_model(widths=(2, 8, 2), seed=4), X, y, cfg)
        losses = np.array(result.epoch_losses)
        smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
        # after the warmup epochs the smoothed curve never rises more than 5%
        for i in range(20, len(smooth) - 1):
            assert smooth[i + 1] <= smooth[i] * 1.05

    def test_non_finite_loss_names_tier_and_epoch(self, separable_xy):
        X, y = separable_xy
        X = X.copy()
        X[7, 0] = np.nan
        model = nn.TieredModel.init(nn.TierSpec(nn.TA, (2, 4, 2)), seed=0)
        with pytest.raises(nn.NonFiniteLoss, match="TA training loss is nan at epoch 1"):
            nn.train(model, X, y, nn.TrainConfig(epochs=3, batch_size=16))


class TestCountParams:
    def test_default_student(self):
        assert nn.count_params(nn.default_tier_spec(nn.STUDENT)) == 914

    def test_minimal(self):
        assert nn.count_params(nn.TierSpec(nn.STUDENT, (2, 2))) == 6

    def test_matches_recount_oracle(self):
        model = tiny_model(widths=(7, 5, 3, 2), seed=0)
        oracle = sum(W.size for W in model.weights) + sum(b.size for b in model.biases)
        assert nn.count_params(model) == oracle

    def test_tier_capacity_ordering(self):
        s = nn.count_params(nn.default_tier_spec(nn.STUDENT))
        ta = nn.count_params(nn.default_tier_spec(nn.TA))
        t = nn.count_params(nn.default_tier_spec(nn.TEACHER))
        assert t > ta > s


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = tiny_model(widths=(5, 4, 2), seed=6)
        path = tmp_path / "model.txt"
        nn.save_model(model, path)
        loaded = nn.load_model(path)
        assert loaded.spec == model.spec
        assert loaded.seed == model.seed
        for a, b in zip(model.weights, loaded.weights):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(model.biases, loaded.biases):
            assert a.tobytes() == b.tobytes()

    def test_truncated_checkpoint_is_rejected(self, tmp_path):
        model = nn.TieredModel.init(nn.default_tier_spec(nn.TEACHER), seed=0)
        path = tmp_path / "teacher.txt"
        nn.save_model(model, path)
        lines = path.read_text().splitlines()
        cut = tmp_path / "cut.txt"
        cut.write_text("\n".join(lines[:lines.index("layer=1")]) + "\n")
        with pytest.raises(nn.ShapeMismatch):
            nn.load_model(cut)

    def test_header_is_read_by_key(self, tmp_path):
        model = tiny_model(widths=(5, 4, 2), seed=6)
        path = tmp_path / "model.txt"
        nn.save_model(model, path)
        lines = path.read_text().splitlines()
        lines[1:1] = ["note=retrained"]
        path.write_text("\n".join(lines) + "\n")
        loaded = nn.load_model(path)
        assert (loaded.spec, loaded.seed) == (model.spec, model.seed)
