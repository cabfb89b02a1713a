"""Central finite-difference gradient checking shared by the test modules."""
import numpy as np

from fallcascade import nn


def loss_of(model, X, y, loss_spec, idx=None):
    if idx is None:
        idx = np.arange(len(X))
    logits = nn.forward(model, X)
    hard = nn.ce_rows(nn.softmax_t(logits, 1.0), y)
    loss, _ = loss_spec.value_and_grad(logits, hard, idx)
    return loss


def max_rel_error(model, X, y, loss_spec, h=1e-5):
    """Worst relative error between backprop and central differences."""
    _, gw, gb = nn.grad(model, X, y, loss_spec)
    worst = 0.0
    params = [(model.weights, gw), (model.biases, gb)]
    for tensors, grads in params:
        for t, g in zip(tensors, grads):
            it = np.nditer(t, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = t[ix]
                t[ix] = orig + h
                hi = loss_of(model, X, y, loss_spec)
                t[ix] = orig - h
                lo = loss_of(model, X, y, loss_spec)
                t[ix] = orig
                fd = (hi - lo) / (2 * h)
                a = g[ix]
                rel = abs(a - fd) / max(abs(a) + abs(fd), 1e-4)
                worst = max(worst, rel)
    return worst
