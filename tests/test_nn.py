import math
import re
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fallcascade import distill, nn
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
        a = x[None]
        for l, (W, b) in enumerate(zip(model.weights, model.biases)):
            a = a @ W + b
            if l < len(model.weights) - 1:
                a = np.where(a > 0, a, 0.0)
        np.testing.assert_allclose(nn.forward(model, x), a[0], rtol=1e-9)

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
        with pytest.raises(ValueError, match=r"^temperature must be > 0, got 0\.0$"):
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
        assert nn.ce_rows(np.array([[1.0, 0.0]]), [0])[0][0] == 0.0

    def test_uniform(self):
        assert nn.ce_rows(np.array([[0.5, 0.5]]), [1])[0][0] == pytest.approx(math.log(2))

    def test_wrong_confident(self):
        assert nn.ce_rows(np.array([[0.9, 0.1]]), [1])[0][0] == pytest.approx(2.302585, abs=1e-6)


def fancy_ce_rows(probs, labels):
    """ce_rows by fancy indexing, for (n, classes) rows with n labels or a
    stack's (F, n, classes) with (F, n) labels: the oracle of the one-hot form."""
    labels = np.asarray(labels)
    rows = np.arange(labels.shape[-1])
    at = (rows, labels) if labels.ndim == 1 else (
        np.arange(len(labels))[:, None], rows, labels)
    ce = -np.log(np.clip(probs[at], 1e-12, None))
    grad = probs.copy()
    grad[at] -= 1.0
    return ce, grad


class TestCeRows:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(members=st.integers(1, 4), folds=st.integers(1, 3), n=st.integers(1, 9),
           classes=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1.0, 30.0, 800.0]))
    def test_members_equal_the_fancy_index_form_slice_by_slice(self, members, folds, n,
                                                               classes, seed, scale):
        # large scales push probabilities to 0, below the 1e-12 clamp
        rng = np.random.default_rng(seed)
        probs = nn.softmax_t(rng.normal(scale=scale, size=(members, folds, n, classes)))
        labels = rng.integers(0, classes, size=(folds, n))
        ce, grad = nn.ce_rows(probs, labels)
        assert ce.shape == (members, folds, n) and grad.shape == probs.shape
        for m in range(members):
            # each member as a stack, and each of its folds as a solo fit's rows
            pairs = [((ce[m], grad[m]), fancy_ce_rows(probs[m], labels))]
            pairs += [(nn.ce_rows(probs[m, k], labels[k]), fancy_ce_rows(probs[m, k], labels[k]))
                      for k in range(folds)]
            for got, want in pairs:
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestGrad:
    def test_symmetric_stationary_point(self):
        model = tiny_model(widths=(2, 2))
        for W in model.weights:
            W[:] = 0.0
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        y = np.array([0, 1])  # balanced labels, symmetric loss
        _, g = nn.grad(model, X, y)
        np.testing.assert_allclose(g.biases[-1], 0.0, atol=1e-12)

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

            def value_and_grad(self, logits, hard, idx):
                loss, grad = super().value_and_grad(logits, hard, idx)
                return self.c * loss, self.c * grad

        rng = np.random.default_rng(8)
        model = tiny_model(widths=(3, 5, 2), seed=8)
        X = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        _, g1 = nn.grad(model, X, y, nn.CELoss())
        _, g3 = nn.grad(model, X, y, ScaledCE(3.0))
        for a, b in zip(g1.weights, g3.weights):
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
        smooth = np.convolve(result.epoch_losses, np.ones(5) / 5, mode="valid")
        # after the warmup epochs the smoothed curve never rises more than 5%
        for i in range(20, len(smooth) - 1):
            assert smooth[i + 1] <= smooth[i] * 1.05

    def test_one_gradient_is_live_at_a_time(self, separable_xy, monkeypatch):
        # each step's gradient is released before the next step computes its own
        X, y = separable_xy
        grad, earlier = nn.grad, []

        def spied(*args, **kwargs):
            assert not any(ref() is not None for ref in earlier)
            loss, g = grad(*args, **kwargs)
            earlier.append(weakref.ref(g.params))
            return loss, g

        monkeypatch.setattr(nn, "grad", spied)
        nn.train(tiny_model(widths=(2, 4, 2), seed=5), X, y,
                 nn.TrainConfig(epochs=2, batch_size=64, seed=5))
        assert len(earlier) == 8

    def test_non_finite_loss_names_tier_and_epoch(self, separable_xy):
        X, y = separable_xy
        X = X.copy()
        X[7, 0] = np.nan
        model = nn.TieredModel.init(nn.TierSpec(nn.TA, (2, 4, 2)), seed=0)
        with pytest.raises(nn.NonFiniteLoss, match="^ta training loss is nan at epoch 1$"):
            nn.train(model, X, y, nn.TrainConfig(epochs=3, batch_size=16))


def arrays(model):
    return model.weights + model.biases


def same_bits(a, b) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(arrays(a), arrays(b)))


class TestStacks:
    """A stack's fold and leading-axis views, and a trained member stack,
    give back the model or fit each entry stands for."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(widths=st.lists(st.integers(1, 5), min_size=2, max_size=4),
           lead=st.sampled_from([(), (3,), (2, 3)]), n=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_views_give_back_the_stacked_arrays(self, widths, lead, n, seed):
        # a solo model, a stack of folds (3,) or members of one (2, 3), with
        # distinct entries
        rng = np.random.default_rng(seed)
        spec = nn.TierSpec(nn.STUDENT, (*widths, 2))
        pairs = list(zip(spec.layer_widths, spec.layer_widths[1:]))
        model = nn.TieredModel(spec, rng.normal(size=(*lead, spec.n_params)))
        stack = model.stacked(n)
        views = [stack, *(stack.fold(k) for k in range(n))]
        if lead:
            views += [model.at(i) for i in range(lead[0])]
            assert all(same_bits(stack.at(i).fold(k), model.at(i))
                       for i in range(lead[0]) for k in range(n))
        else:
            assert all(same_bits(stack.at(i), model) for i in range(n))
        assert all(same_bits(stack.fold(k), model) for k in range(n))
        for view in [nn.TieredModel.init(spec, seed=0), *views]:
            assert [b.shape[-2:] for b in view.biases] == [(1, o) for _, o in pairs]

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(width=st.integers(1, 4), hidden=st.integers(1, 6), members=st.integers(1, 3),
           folds=st.sampled_from([None, 1, 3]), n=st.integers(1, 20),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_each_member_is_its_own_fit(self, width, hidden, members, folds, n, seed):
        # folds None gives (n, in) rows, else (folds, n, in)
        rng = np.random.default_rng(seed)
        lead = () if folds is None else (folds,)
        X, y = rng.normal(size=(*lead, n, width)), rng.integers(0, 2, size=(*lead, n))
        model = nn.TieredModel.init(nn.TierSpec(nn.STUDENT, (width, hidden, 2)), seed=seed)
        cfg = nn.TrainConfig(epochs=2, batch_size=8, learning_rate=0.1, seed=seed % 100)
        solo = nn.train(model, X, y, cfg)
        stack = nn.train(model.stacked(members), X, y, cfg)
        for m in range(members):
            fit = stack.at(m)
            assert same_bits(fit.model, solo.model)
            assert fit.epoch_losses.tobytes() == solo.epoch_losses.tobytes()


class TestCountParams:
    def test_default_student(self):
        assert nn.default_tier_spec(nn.STUDENT).n_params == 914

    def test_minimal(self):
        assert nn.TierSpec(nn.STUDENT, (2, 2)).n_params == 6

    def test_matches_recount_oracle(self):
        model = tiny_model(widths=(7, 5, 3, 2), seed=0)
        oracle = sum(W.size for W in model.weights) + sum(b.size for b in model.biases)
        assert model.spec.n_params == oracle

    def test_tier_capacity_ordering(self):
        s = nn.default_tier_spec(nn.STUDENT).n_params
        ta = nn.default_tier_spec(nn.TA).n_params
        t = nn.default_tier_spec(nn.TEACHER).n_params
        assert t > ta > s


class TestParamsLayout:
    """`params` is the model: every weight and bias is a view of it, in
    layer order, and a wrong parameter length fails when the model is made."""

    @pytest.mark.parametrize("shape", [(7,), (5,), (3, 7), ()])
    def test_wrong_length_names_tier_shape_and_length(self, shape):
        spec = nn.TierSpec(nn.TA, (2, 2))  # 6 parameters
        message = rf"^ta params have shape {re.escape(str(shape))}, need a last axis of 6$"
        with pytest.raises(nn.ShapeMismatch, match=message):
            nn.TieredModel(spec, np.zeros(shape))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(widths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           lead=st.sampled_from([(), (3,), (2, 3)]), n=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_every_layout_is_views_of_params(self, widths, lead, n, seed):
        spec = nn.TierSpec(nn.STUDENT, (*widths, 2))
        rng = np.random.default_rng(seed)
        model = nn.TieredModel(spec, rng.normal(size=(*lead, spec.n_params)))
        stack = model.stacked(n)
        views = [model, stack, *(stack.fold(k) for k in range(n))]
        views += [v.at(i) for v in (model, stack) if lead for i in range(lead[0])]
        for view in views:
            rows = view.params.shape[:-1]
            assert all(np.shares_memory(a, view.params) for a in arrays(view))
            # each layer's weights, then its bias, in layer order
            flat = [a.reshape(*rows, -1) for layer in zip(view.weights, view.biases)
                    for a in layer]
            assert np.concatenate(flat, axis=-1).tobytes() == view.params.tobytes()
            # a write through a view, as TestForward makes, reaches params
            view.weights[0][:] = 7.0
            view.biases[-1][:] = -1.0
            assert (view.params[..., :spec.layer_widths[0] * spec.layer_widths[1]] == 7.0).all()
            assert (view.params[..., -2:] == -1.0).all()
        # fold and at views write into the stack they were taken from
        stack.fold(n - 1).biases[0][:] = 3.0
        assert (stack.biases[0][..., n - 1, :, :] == 3.0).all()


@dataclass
class ListModel:
    """A model as it was held before `params`, the oracle's layout: a list
    of weights and a list of biases, each its own array."""
    spec: nn.TierSpec
    weights: list
    biases: list

    def _map(self, view) -> "ListModel":
        return ListModel(self.spec, [view(w) for w in self.weights],
                         [view(b) for b in self.biases])

    def stacked(self, n: int) -> "ListModel":
        return self._map(lambda a: np.tile(a[..., None, :, :], (n, 1, 1)))

    def fold(self, k: int) -> "ListModel":
        return self._map(lambda a: a[..., k, :, :])


def list_grad(model, X, y, loss_spec=None, idx=None):
    """`nn.grad` as it was: (loss, dW list, db list)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if loss_spec is None:
        loss_spec = nn.CELoss()
    if idx is None:
        idx = np.arange(X.shape[-2])
    logits, activations = nn._forward_cached(model, X)
    loss, delta = loss_spec.value_and_grad(logits, nn.ce_rows(nn.softmax_t(logits, 1.0), y), idx)
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = activations[l].swapaxes(-1, -2) @ delta
        grads_b[l] = delta.sum(axis=-2, keepdims=True)
        if l > 0:
            delta = (delta @ model.weights[l].swapaxes(-1, -2)) * (activations[l] > 0)
    return loss, grads_w, grads_b


def list_train(model, X, y, cfg, loss_spec=None):
    """`nn.train` as it was, with its momentum update per parameter array:
    (trained ListModel, epoch losses)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    solo = X.ndim == 2
    if solo:
        X, y = X[None], y[None]
    model = model.stacked(len(X))
    rng = np.random.default_rng(cfg.seed)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    n = X.shape[1]
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, gw, gb = list_grad(model, X.take(batch, axis=1), y.take(batch, axis=1),
                                     loss_spec, idx=batch)
            epoch_loss += loss
            n_batches += 1
            for params, vels, grads in ((model.weights, vel_w, gw),
                                        (model.biases, vel_b, gb)):
                for p, v, g in zip(params, vels, grads):
                    v *= cfg.momentum
                    g *= cfg.learning_rate
                    v -= g
                    p += v
        losses.append(epoch_loss / n_batches)
    losses = np.moveaxis(np.array(losses), 0, -1)
    return (model.fold(0), losses[..., 0, :]) if solo else (model, losses)


def kd_loss(kind, lead, n, rng):
    """A loss spec of `kind`, "ce", "dual" or "tri", whose upstream logits
    are (*lead, n, 2)."""
    if kind == "ce":
        return nn.CELoss()
    cfg = distill.KDConfig(lam=float(rng.uniform()), temperature=float(rng.uniform(1.0, 20.0)),
                           tri_combine=rng.choice([distill.ADDITIVE, distill.MULTIPLICATIVE]))
    t, ta = (rng.normal(scale=3.0, size=(*lead, n, 2)) for _ in range(2))
    return distill.DualLoss(t, cfg) if kind == "dual" else distill.TriLoss(t, ta, cfg)


class TestFlatParamsOracle:
    """`nn.train` on one parameter array equals the per-array update it
    replaced, byte for byte, in every layout and loss."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(width=st.integers(1, 5), hidden=st.lists(st.integers(1, 6), max_size=3),
           layout=st.sampled_from(["solo", "stack"]), folds=st.integers(1, 3),
           counts=st.lists(st.integers(0, 2), min_size=3, max_size=3).filter(any),
           n=st.integers(1, 12), batch_size=st.integers(1, 16), epochs=st.integers(1, 3),
           lr=st.sampled_from([0.0, 0.01, 0.5]), momentum=st.sampled_from([0.0, 0.9]),
           kind=st.sampled_from(["ce", "dual", "tri", "members"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_train_equals_the_per_array_update(self, width, hidden, layout, folds, counts, n,
                                               batch_size, epochs, lr, momentum, kind, seed):
        rng = np.random.default_rng(seed)
        spec = nn.TierSpec(nn.STUDENT, (width, *hidden, 2))
        cfg = nn.TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=lr,
                             momentum=momentum, seed=seed % 1000)
        if layout == "solo":
            # members need a leading member axis, so a solo fit takes CE
            model = nn.TieredModel.init(spec, seed=seed % 1000)
            X, y = rng.normal(size=(n, width)), rng.integers(0, 2, size=n)
            loss = kd_loss("ce" if kind == "members" else kind, (), n, rng)
        else:
            # an (M, F) stack: M distinct members trained against F folds' rows
            members = sum(counts) if kind == "members" else 1 + counts[0]
            model = nn.TieredModel(spec, rng.normal(scale=0.5, size=(members, spec.n_params)))
            X = rng.normal(size=(folds, n, width))
            y = rng.integers(0, 2, size=(folds, n))
            loss = (distill.MemberLosses([(kd_loss(k, (c, folds), n, rng), c)
                                          for k, c in zip(["ce", "dual", "tri"], counts) if c])
                    if kind == "members" else kd_loss(kind, (members, folds), n, rng))
        want, want_losses = list_train(ListModel(spec, [W.copy() for W in model.weights],
                                                 [b.copy() for b in model.biases]),
                                       X, y, cfg, loss)
        got = nn.train(model, X, y, cfg, loss)
        assert same_bits(got.model, want)
        assert got.epoch_losses.shape == want_losses.shape
        assert got.epoch_losses.tobytes() == want_losses.tobytes()
