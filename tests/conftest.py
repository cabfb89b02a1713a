import numpy as np
import pytest

from fallcascade import dataset as ds
from fallcascade import nn
from fallcascade.preprocess import WindowSpec, extract_window


@pytest.fixture(scope="session")
def small_dataset():
    spec = ds.SynthSpec(n_subjects=3, falls_per_subject=3, adls_per_subject=3,
                        trace_duration_s=2.0, sample_rate_hz=50, seed=7)
    return ds.synth_generate(spec)


@pytest.fixture(scope="session")
def small_windows(small_dataset):
    spec = WindowSpec(ws_f_s=0.6, ws_b_s=0.5)
    return [extract_window(t, spec) for t in small_dataset.traces]


@pytest.fixture(scope="session")
def separable_xy():
    """Linearly separable 2-feature set: two shifted Gaussian blobs."""
    rng = np.random.default_rng(42)
    n = 120
    x0 = rng.normal(loc=(-2.0, -2.0), scale=0.5, size=(n, 2))
    x1 = rng.normal(loc=(2.0, 2.0), scale=0.5, size=(n, 2))
    X = np.vstack([x0, x1])
    y = np.array([0] * n + [1] * n)
    return X, y


@pytest.fixture(scope="session")
def accuracy():
    """The share of rows of X that a model's argmax logit labels as y."""
    def share(model, X, y) -> float:
        logits = nn.forward(model, np.asarray(X, dtype=np.float64))
        return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))
    return share


@pytest.fixture(scope="session")
def write_topology():
    """Writes a perfmodel.Topology in the text form load_topology reads."""
    def write(topology, path) -> None:
        lines = []
        for n, layer in enumerate(topology.layers):
            lines.append(f"layer {n}")
            for node in layer:
                p = node.params
                lines.append(
                    f"node {node.name} parent={node.parent or '-'} "
                    f"s={p.s!r} b={p.b!r} theta={p.theta!r} rho={p.rho!r} phi={p.phi!r}")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
    return write
