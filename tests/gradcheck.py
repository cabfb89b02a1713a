"""Loss evaluation and central finite-difference gradient checking shared
by the test modules."""
import numpy as np

from fallcascade import nn


def loss_of(model, X, y, loss_spec, idx=None):
    if idx is None:
        idx = np.arange(len(X))
    logits = nn.forward(model, X)
    hard = nn.ce_rows(nn.softmax_t(logits, 1.0), y)
    loss, _ = loss_spec.value_and_grad(logits, hard, idx)
    return loss


def one_row(loss_spec, logits, label: int):
    """A batch loss spec's value on one row of logits, the n = 1 case of a
    batch; (F, classes) logits are a stack of F one-row folds, one value each."""
    logits = np.asarray(logits, dtype=np.float64)[..., None, :]
    hard = nn.ce_rows(nn.softmax_t(logits, 1.0), np.full(logits.shape[:-1], label))
    return loss_spec.value_and_grad(logits, hard, [0])[0][()]


def max_rel_error(model, X, y, loss_spec, h=1e-5):
    """Worst relative error between backprop and central differences, over
    every parameter (the weights and biases are views of `model.params`)."""
    _, g = nn.grad(model, X, y, loss_spec)
    worst = 0.0
    p = model.params
    for ix in np.ndindex(p.shape):
        orig = p[ix]
        p[ix] = orig + h
        hi = loss_of(model, X, y, loss_spec)
        p[ix] = orig - h
        lo = loss_of(model, X, y, loss_spec)
        p[ix] = orig
        fd = (hi - lo) / (2 * h)
        a = g.params[ix]
        rel = abs(a - fd) / max(abs(a) + abs(fd), 1e-4)
        worst = max(worst, rel)
    return worst
