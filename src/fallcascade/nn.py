"""Minimal dense ReLU classifier stack with hand-derived backpropagation.

Three capacity tiers (student < TA < teacher) stand in for the small /
medium / large models of the cascade stations. Everything is plain numpy
and deterministic given a seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

N_CLASSES = 2  # index 0 = ADL, 1 = Fall

STUDENT = "Student"
TA = "TA"
TEACHER = "Teacher"

DEFAULT_TIER_WIDTHS = {
    STUDENT: (54, 16, 2),
    TA: (54, 64, 32, 2),
    TEACHER: (54, 128, 64, 32, 2),
}


class ShapeMismatch(Exception):
    pass


class NonPositiveTemperature(ValueError):
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
    """One model, or a stack of F fold models along a leading axis whose
    biases keep a unit row axis so that `a @ W + b` broadcasts."""

    spec: TierSpec
    weights: list  # weights[l] has shape (in, out), stacked (F, in, out)
    biases: list   # biases[l] has shape (out,), stacked (F, 1, out)
    seed: int = 0

    @classmethod
    def init(cls, spec: TierSpec, seed: int = 0) -> "TieredModel":
        # He-style scaled uniform init, deterministic per seed
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(spec.layer_widths, spec.layer_widths[1:]):
            limit = np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(spec=spec, weights=weights, biases=biases, seed=seed)

    def stacked(self, folds: int) -> "TieredModel":
        """A stack of `folds` copies of this solo model."""
        return TieredModel(self.spec, [np.repeat(w[None], folds, axis=0) for w in self.weights],
                           [np.repeat(b[None, None], folds, axis=0) for b in self.biases],
                           self.seed)

    def fold(self, k: int) -> "TieredModel":
        """Fold k of a stack, as a solo model (views of the stack)."""
        return TieredModel(self.spec, [w[k] for w in self.weights],
                           [b[k, 0] for b in self.biases], self.seed)


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


def check_temperature(temperature: float) -> None:
    """Raise NonPositiveTemperature unless temperature > 0."""
    if temperature <= 0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")


def softmax_t(logits, temperature: float = 1.0) -> np.ndarray:
    """Temperature-softened softmax; rows sum to 1."""
    check_temperature(temperature)
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ce_rows(probs: np.ndarray, labels) -> tuple:
    """Per-row cross-entropy of the true labels, with the log argument
    clamped at 1e-12, and its gradient with respect to the logits the rows
    of `probs` are the T=1 softmax of: (n, classes) with n labels, or a
    stack's (F, n, classes) with (F, n) labels."""
    labels = np.asarray(labels)
    rows = np.arange(labels.shape[-1])
    at = (rows, labels) if labels.ndim == 1 else (
        np.arange(len(labels))[:, None], rows, labels)
    ce = -np.log(np.clip(probs[at], 1e-12, None))
    grad = probs.copy()
    grad[at] -= 1.0
    return ce, grad


def cross_entropy(probs, label: int) -> float:
    """Negative log-likelihood of the true label; log argument clamped at 1e-12."""
    return float(ce_rows(np.asarray(probs, dtype=np.float64)[None], [label])[0][0])


class CELoss:
    """Plain cross-entropy on the hard labels."""

    def value_and_grad(self, logits: np.ndarray, labels: np.ndarray, idx):
        ce, grad = ce_rows(softmax_t(logits, 1.0), labels)
        return ce.sum(axis=-1) / ce.shape[-1], grad / ce.shape[-1]


def grad(model: TieredModel, X, y, loss_spec=None, idx=None):
    """Backpropagated gradients: (loss, dW list, db list). A stacked model
    takes (F, n, in) rows and (F, n) labels and gives a loss per fold."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.size == 0:
        raise EmptyData("empty batch")
    if loss_spec is None:
        loss_spec = CELoss()
    if idx is None:
        idx = np.arange(X.shape[-2])
    logits, activations = _forward_cached(model, X)
    loss, delta = loss_spec.value_and_grad(logits, y, idx)
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = activations[l].swapaxes(-1, -2) @ delta
        grads_b[l] = delta.sum(axis=-2).reshape(model.biases[l].shape)
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


def check_fraction(name: str, value) -> None:
    """Raise ValueError, naming the field, unless 0 <= value < 1."""
    if not 0 <= value < 1:
        raise ValueError(f"{name} must be >= 0 and < 1, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 0.001
    momentum: float = 0.9
    seed: int = 0

    # each checked field's one rule, a check(name, value)
    CHECKS = {"epochs": check_positive, "batch_size": check_positive,
              "learning_rate": check_non_negative, "momentum": check_fraction}

    def __post_init__(self):
        for name, check in self.CHECKS.items():
            check(name, getattr(self, name))


@dataclass
class TrainResult:
    model: TieredModel
    epoch_losses: list = field(default_factory=list)  # (F, epochs) for a stack

    def fold(self, k: int) -> "TrainResult":
        """Fold k of a stacked fit, as the solo fit it equals."""
        return TrainResult(self.model.fold(k), self.epoch_losses[k].tolist())


def train(model: TieredModel, X, y, cfg: TrainConfig,
          loss_spec=None) -> TrainResult:
    """SGD with momentum; deterministic given cfg.seed. The input model is
    not mutated; the trained copy and per-epoch mean losses are returned.

    X is (n, in) with n labels, or a stack of F folds' (F, n, in) rows with
    (F, n) labels. The solo input model is broadcast over the folds, which
    share the permutation and step in lockstep; the result is stacked, and
    each fold is bit-identical to its solo fit, which is the F = 1 case.
    The first epoch whose mean loss is not finite in some fold raises
    NonFiniteLoss, naming the tier and epoch, with the first such fold."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.size == 0:
        raise EmptyData("no training data")
    if loss_spec is None:
        loss_spec = CELoss()
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
        finite = np.isfinite(losses[-1])
        if not finite.all():
            fold = int(np.argmin(finite))
            raise NonFiniteLoss(f"{model.spec.tier} training loss is "
                                f"{float(losses[-1][fold])} at epoch {len(losses)}", fold)
    result = TrainResult(model=model, epoch_losses=np.array(losses).T)
    return result.fold(0) if solo else result


def count_params(model_or_spec) -> int:
    spec = getattr(model_or_spec, "spec", model_or_spec)
    return spec.n_params


def save_model(model: TieredModel, path) -> None:
    """Text checkpoint; floats are written in exact round-trip form."""
    lines = [
        "format=fallcascade-model-v1",
        f"tier={model.spec.tier}",
        f"widths={','.join(str(w) for w in model.spec.layer_widths)}",
        f"seed={model.seed}",
    ]
    for l, (W, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"layer={l}")
        for row in W:
            lines.append("W " + " ".join(repr(float(v)) for v in row))
        lines.append("b " + " ".join(repr(float(v)) for v in b))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_model(path) -> TieredModel:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "format=fallcascade-model-v1":
        raise ValueError(f"{path}: not a model checkpoint")
    n_header = next((i for i, line in enumerate(lines) if line.startswith("layer=")),
                    len(lines))
    header = dict(line.split("=", 1) for line in lines[1:n_header])
    missing = {"tier", "widths", "seed"} - header.keys()
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {sorted(missing)}")
    spec = TierSpec(header["tier"],
                    tuple(int(w) for w in header["widths"].split(",")))
    weights, biases = [], []
    rows = []
    for line in lines[n_header:]:
        if line.startswith("layer="):
            rows = []
        elif line.startswith("W "):
            rows.append([float(v) for v in line[2:].split()])
        elif line.startswith("b "):
            weights.append(np.array(rows))
            biases.append(np.array([float(v) for v in line[2:].split()]))
    shapes = list(zip(spec.layer_widths, spec.layer_widths[1:]))
    if len(weights) != len(shapes):
        raise ShapeMismatch(f"{path}: checkpoint has {len(weights)} layers, "
                            f"widths {spec.layer_widths} need {len(shapes)}")
    for W, b, (fan_in, fan_out) in zip(weights, biases, shapes):
        if W.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            raise ShapeMismatch(f"{path}: checkpoint shapes do not match spec")
    return TieredModel(spec=spec, weights=weights, biases=biases,
                       seed=int(header["seed"]))
