"""Minimal dense ReLU classifier stack with hand-derived backpropagation.

Three capacity tiers (student < TA < teacher) stand in for the small /
medium / large models of the cascade stations. Everything is plain numpy
and deterministic given a seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_CLASSES = 2  # index 0 = ADL, 1 = Fall

STUDENT = "student"
TA = "ta"
TEACHER = "teacher"
# the tiers in training order, each taught only by tiers before it
TIERS = (TEACHER, TA, STUDENT)

DEFAULT_TIER_WIDTHS = {
    STUDENT: (54, 16, 2),
    TA: (54, 64, 32, 2),
    TEACHER: (54, 128, 64, 32, 2),
}


class ShapeMismatch(Exception):
    pass


class EmptyData(Exception):
    pass


class NonFiniteLoss(Exception):
    """An epoch's mean loss is not finite; `fold` is the stack index of the
    first fold whose loss is not (0 for a solo fit)."""

    def __init__(self, message, fold: int = 0):
        super().__init__(message)
        self.fold = fold


@dataclass(frozen=True)
class TierSpec:
    tier: str
    layer_widths: tuple

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w <= 0 for w in widths):
            raise ValueError("layer widths must be positive")
        if widths[-1] != N_CLASSES:
            raise ValueError(f"output width must be {N_CLASSES}")
        object.__setattr__(self, "layer_widths", widths)

    @property
    def n_params(self) -> int:
        return sum(i * o + o for i, o in zip(self.layer_widths, self.layer_widths[1:]))


def default_tier_spec(tier: str) -> TierSpec:
    return TierSpec(tier, DEFAULT_TIER_WIDTHS[tier])


@dataclass
class TieredModel:
    """One model, or a stack of models along leading axes. Each bias keeps a
    unit row axis, so that `a @ W + b` broadcasts in every layout."""

    spec: TierSpec
    weights: list  # weights[l] has shape (in, out), stacked (..., in, out)
    biases: list   # biases[l] has shape (1, out), stacked (..., 1, out)

    @classmethod
    def init(cls, spec: TierSpec, seed: int = 0) -> "TieredModel":
        # He-style scaled uniform init, deterministic per seed
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(spec.layer_widths, spec.layer_widths[1:]):
            limit = np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros((1, fan_out)))
        return cls(spec=spec, weights=weights, biases=biases)

    def _map(self, view) -> "TieredModel":
        return TieredModel(self.spec, [view(w) for w in self.weights],
                           [view(b) for b in self.biases])

    def stacked(self, n: int) -> "TieredModel":
        """n copies of this model on a new axis just before each layer's
        (in, out): (n, in, out) from a solo model, (M, n, in, out) from a
        stack of M."""
        return self._map(lambda a: np.tile(a[..., None, :, :], (n, 1, 1)))

    def fold(self, k: int) -> "TieredModel":
        """Entry k of the axis just before each layer's (in, out), the fold
        axis of `train` (views of the stack)."""
        return self._map(lambda a: a[..., k, :, :])

    def at(self, i: int) -> "TieredModel":
        """Entry i of the leading axis (views of the stack)."""
        return self._map(lambda a: a[i])


def forward(model: TieredModel, x) -> np.ndarray:
    """Logits for a single feature vector (1-D), a batch (2-D) or, through a
    stacked model, a batch per fold (F, n, in)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[-1] != model.spec.layer_widths[0]:
        raise ShapeMismatch(
            f"input width {a.shape[-1]} != {model.spec.layer_widths[0]}")
    logits = _forward_cached(model, a)[0]
    return logits[0] if single else logits


def _forward_cached(model: TieredModel, X: np.ndarray):
    """Logits plus the post-activation of every layer (for backprop)."""
    activations = [X]
    a = X
    last = len(model.weights) - 1
    for l, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W + b
        a = z if l == last else np.maximum(z, 0.0)
        activations.append(a)
    return activations[-1], activations


def softmax_t(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature-softened softmax; rows sum to 1."""
    check_positive("temperature", temperature)
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ce_rows(probs: np.ndarray, labels) -> tuple:
    """Per-row cross-entropy of the true labels, with the log argument
    clamped at 1e-12, and its gradient with respect to the logits the rows
    of `probs` are the T=1 softmax of. The labels broadcast over the leading
    axes of `probs`: n labels for (n, classes), (F, n) for a stack's
    (F, n, classes) and for any further leading axes, as (M, F, n, classes)."""
    hot = np.asarray(labels)[..., None] == np.arange(probs.shape[-1])
    # adding the zeros of the other classes leaves the picked value exact
    ce = -np.log(np.clip(np.where(hot, probs, 0.0).sum(axis=-1), 1e-12, None))
    return ce, probs - hot


def cross_entropy(probs, label: int) -> float:
    """Negative log-likelihood of the true label; log argument clamped at 1e-12."""
    return float(ce_rows(np.asarray(probs, dtype=np.float64)[None], [label])[0][0])


class CELoss:
    """Plain cross-entropy on the hard labels: the batch mean of the `hard`
    pair, `ce_rows(softmax_t(logits, 1.0), labels)`, that `grad` hands every
    loss spec's `value_and_grad(logits, hard, idx)`."""

    def value_and_grad(self, logits: np.ndarray, hard, idx):
        ce, grad = hard
        return ce.sum(axis=-1) / ce.shape[-1], grad / ce.shape[-1]


def grad(model: TieredModel, X, y, loss_spec=None, idx=None):
    """Backpropagated gradients: (loss, dW list, db list), each gradient in
    its parameter's layout. A model stacked (F, in, out) takes (F, n, in)
    rows and (F, n) labels and gives a loss per fold; one stacked
    (M, F, in, out) takes the same rows and gives an (M, F) loss. The
    hard-label CE pair is computed here, once per step, for the loss spec."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.size == 0:
        raise EmptyData("empty batch")
    if loss_spec is None:
        loss_spec = CELoss()
    if idx is None:
        idx = np.arange(X.shape[-2])
    logits, activations = _forward_cached(model, X)
    loss, delta = loss_spec.value_and_grad(logits, ce_rows(softmax_t(logits, 1.0), y), idx)
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = activations[l].swapaxes(-1, -2) @ delta
        grads_b[l] = delta.sum(axis=-2, keepdims=True)
        if l > 0:
            delta = (delta @ model.weights[l].swapaxes(-1, -2)) * (activations[l] > 0)
    return loss, grads_w, grads_b


def check_positive(name: str, value) -> None:
    """Raise ValueError, naming the field, unless value > 0."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def check_non_negative(name: str, value) -> None:
    """Raise ValueError, naming the field, unless value >= 0."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def check_non_empty(name: str, value) -> None:
    """Raise ValueError, naming the field, unless value is a non-empty
    string."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")


def check_fraction(name: str, value) -> None:
    """Raise ValueError, naming the field, unless 0 <= value < 1."""
    if not 0 <= value < 1:
        raise ValueError(f"{name} must be >= 0 and < 1, got {value}")


def check_unit(name: str, value) -> None:
    """Raise ValueError, naming the field, unless 0 <= value <= 1."""
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def one_of(*choices):
    """The check(name, value) that raises ValueError, naming the field and
    the choices, unless value is one of `choices`."""
    def check(name: str, value) -> None:
        if value not in choices:
            raise ValueError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return check


def check_fields(config) -> None:
    """Run each rule of config.CHECKS, its table of one check(name, value)
    per checked field, on the field it names."""
    for name, check in config.CHECKS.items():
        check(name, getattr(config, name))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 0.001
    momentum: float = 0.9
    seed: int = 0

    # each checked field's one rule, a check(name, value)
    CHECKS = {"epochs": check_positive, "batch_size": check_positive,
              "learning_rate": check_non_negative, "momentum": check_fraction,
              "seed": check_non_negative}

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainResult:
    model: TieredModel
    epoch_losses: np.ndarray  # (epochs,) for a solo fit, (..., F, epochs) for a stack

    def fold(self, k: int) -> "TrainResult":
        """Fold k of a stacked fit, as the fit it equals."""
        return TrainResult(self.model.fold(k), self.epoch_losses[..., k, :])

    def at(self, i: int) -> "TrainResult":
        """Entry i of the leading axis of a stacked fit, as the fit it equals."""
        return TrainResult(self.model.at(i), self.epoch_losses[i])


def train(model: TieredModel, X, y, cfg: TrainConfig, loss_spec=None) -> TrainResult:
    """SGD with momentum; deterministic given cfg.seed. The input model is
    not mutated; the trained copy and per-epoch mean losses are returned.

    X is (n, in) with n labels, or a stack of F folds' (F, n, in) rows with
    (F, n) labels. The initial model, solo or itself stacked on leading
    axes, is broadcast over the folds, which share the permutation and step
    in lockstep: a model stacked (M, in, out) trains (M, F, in, out)
    weights against the same rows, and its loss spec gives an (M, F) loss.
    The result is stacked, and each of its entries is bit-identical to its
    own fit; a solo fit is fold 0 of a one-fold stack.
    The first epoch whose mean loss is not finite in some fold of some
    entry raises NonFiniteLoss, naming the tier and epoch, with the first
    such fold."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.size == 0:
        raise EmptyData("no training data")
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
            # take gives contiguous rows, so that each fold's sums add in
            # the order of a solo fit's
            loss, gw, gb = grad(model, X.take(batch, axis=1), y.take(batch, axis=1),
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
        # (..., F): a fold fails when any entry's loss does
        finite = np.isfinite(losses[-1]).reshape(-1, len(X))
        if not finite.all():
            fold = int(np.argmin(finite.all(axis=0)))
            value = losses[-1].reshape(-1, len(X))[np.argmin(finite[:, fold]), fold]
            raise NonFiniteLoss(f"{model.spec.tier} training loss is "
                                f"{float(value)} at epoch {len(losses)}", fold)
    # (epochs, ..., F) -> (..., F, epochs)
    result = TrainResult(model=model, epoch_losses=np.moveaxis(np.array(losses), 0, -1))
    return result.fold(0) if solo else result
