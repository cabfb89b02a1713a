"""Analytic performance accounting: per-layer latency, dense/conv FLOPs,
and latency comparisons between cascade runs.

Units are a self-consistent internal system (data units, cycles per unit,
cycles per second, units per second); absolute latencies are only
meaningful relative to one another.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cascade import CascadeReport
from .nn import check_fields, check_non_negative, check_positive, check_unit


HORIZON_S = 1.0  # default routing horizon, seconds


class InvalidLayer(Exception):
    pass


class TopologyMismatch(ValueError):
    pass


@dataclass(frozen=True)
class NodeParams:
    s: float        # task-division fraction processed locally, in [0, 1]
    b: float        # computation demand, cycles per data unit
    theta: float    # computing capacity, cycles per second
    rho: float      # compression ratio of processed data, in [0, 1]
    phi: float      # uplink transmit capacity, units per second
    # the load, which cascade_latency sets from the routed volume
    lam: float = field(default=0.0, kw_only=True)   # arrival rate, units per second
    beta: float = field(default=0.0, kw_only=True)  # volume received from below, units

    # each checked field's one rule, a check(name, value)
    CHECKS = {"s": check_unit, "b": check_non_negative, "theta": check_positive,
              "rho": check_unit, "lam": check_non_negative, "beta": check_non_negative,
              "phi": check_positive}

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Node:
    name: str
    parent: str | None
    params: NodeParams


@dataclass(frozen=True)
class Topology:
    layers: tuple  # tuple of tuples of Node, bottom first

    def __post_init__(self):
        layers = tuple(tuple(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        for n, layer in enumerate(layers):
            if not layer:
                raise ValueError(f"layer {n} has no nodes")
        for n, layer in enumerate(layers[:-1]):
            above = {node.name for node in layers[n + 1]}
            for node in layer:
                if node.parent not in above:
                    raise ValueError(
                        f"node {node.name!r} on layer {n} has no parent in layer {n + 1}")


def check_topology(topology: Topology, n_stations: int) -> None:
    """Raise TopologyMismatch unless the topology has one layer per station."""
    if len(topology.layers) != n_stations:
        raise TopologyMismatch(f"topology has {len(topology.layers)} layers, "
                               f"cascade has {n_stations} stations")


def node_latency(p: NodeParams) -> float:
    """Compute-plus-transmission time contributed by one node."""
    compute = p.s * p.b / p.theta
    transmit = (p.rho * p.s * p.lam + (1.0 - p.s) * p.lam + p.beta) / p.phi
    return compute + transmit


def layer_latency(topology: Topology, n: int) -> float:
    """Total latency of layer n (1-based, bottom first), in seconds."""
    if not (1 <= n <= len(topology.layers)):
        raise InvalidLayer(f"layer {n} out of range 1..{len(topology.layers)}")
    return sum(node_latency(node.params) for node in topology.layers[n - 1])


def flops_fc(n_in: int, n_out: int) -> int:
    """Dense layer FLOPs: (2*in - 1) * out."""
    return (2 * n_in - 1) * n_out


def flops_conv(h: int, w: int, c_in: int, k: int, c_out: int) -> int:
    """Convolution FLOPs: 2 * H * W * (C_in * K^2 + 1) * C_out."""
    return 2 * h * w * (c_in * k * k + 1) * c_out


def model_flops(model_or_spec) -> int:
    spec = getattr(model_or_spec, "spec", model_or_spec)
    widths = spec.layer_widths
    return sum(flops_fc(i, o) for i, o in zip(widths, widths[1:]))


def cascade_latency(report: CascadeReport, topology: Topology,
                    horizon_s: float = HORIZON_S) -> dict:
    """Map per-layer routed volumes onto the latency model: {hop: ms}.

    Topology layers align one-to-one with cascade stations (bottom = edge
    gate). For each station above the gate, the layer's nodes each get
    lam = their share of the processed volume / horizon and beta = that
    share; the hop latency is the layer's layer_latency.
    """
    check_topology(topology, len(report.station_names))
    check_positive("horizon_s", horizon_s)
    names = report.station_names
    loaded = Topology([
        [replace(node, params=replace(node.params, lam=v / len(layer) / horizon_s,
                                      beta=v / len(layer))) for node in layer]
        for layer, v in zip(topology.layers, report.processed_samples)])
    return {f"{names[n - 1]}_to_{names[n]}": layer_latency(loaded, n + 1) * 1000.0
            for n in range(1, len(names))}


def percent_reduction(before: float | None, after: float | None) -> float | None:
    """Percentage by which `after` lies below `before`; None, like an
    undefined metric, when `before` is None or 0 or `after` is None."""
    if before is None or before == 0 or after is None:
        return None
    return 100.0 * (before - after) / before


def uniform_topology(n_layers: int, s: float = 0.5, b: float = 1.0,
                     theta: float = 1e9, rho: float = 0.1,
                     phi: float = 1e6) -> Topology:
    """One node per layer with identical parameters; the load (lam, beta)
    is set by cascade_latency from routed volumes."""
    layers = []
    for n in range(n_layers):
        parent = f"n{n + 1}" if n < n_layers - 1 else None
        layers.append((Node(f"n{n}", parent, NodeParams(s, b, theta, rho, phi)),))
    return Topology(tuple(layers))


# the keys a node line may set, each at most once; its load is not among them
NODE_KEYS = ("parent", "s", "b", "theta", "rho", "phi")


def _node_values(tokens) -> dict:
    """{key: value} of a node line's `key=value` tokens."""
    kv = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"token {token!r} is not key=value")
        if key not in NODE_KEYS:
            raise ValueError(f"unknown key {key!r}; a node sets {', '.join(NODE_KEYS)}, "
                             f"and its load comes from the routed volume")
        if key in kv:
            raise ValueError(f"key {key!r} is set twice")
        kv[key] = value
    return kv


def load_topology(path) -> Topology:
    layers = []
    current = None
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("layer "):
                current = []
                layers.append(current)
            elif line.startswith("node "):
                if current is None:
                    raise ValueError(f"{path}: node before any layer line")
                parts = line.split()
                name = parts[1]
                try:
                    kv = _node_values(parts[2:])
                    params = NodeParams(**{key: float(kv[key]) for key in NODE_KEYS[1:]})
                except KeyError as e:
                    raise ValueError(f"{path}: node {name} lacks {e}") from e
                except ValueError as e:
                    raise ValueError(f"{path}: node {name}: {e}") from e
                parent = None if kv.get("parent", "-") == "-" else kv["parent"]
                current.append(Node(name, parent, params))
            else:
                raise ValueError(f"{path}: unrecognized line {line!r}")
    if not layers:
        raise ValueError(f"{path}: empty topology")
    return Topology(tuple(tuple(layer) for layer in layers))
