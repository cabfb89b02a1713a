"""Analytic performance accounting: per-layer latency, dense/conv FLOPs,
and latency comparisons between cascade runs.

Units are a self-consistent internal system (data units, cycles per unit,
cycles per second, units per second); absolute latencies are only
meaningful relative to one another.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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

    # each checked field's one rule, a check(name, value)
    CHECKS = {"s": check_unit, "b": check_non_negative, "theta": check_positive,
              "rho": check_unit, "phi": check_positive}

    def __post_init__(self):
        check_fields(self)
        # like a config value, each value is finite: b=inf with s=0 makes a NaN hop
        for name in self.CHECKS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class Node:
    name: str
    parent: str | None
    params: NodeParams


@dataclass(frozen=True)
class Topology:
    """A tree of nodes in layers, bottom first: every layer has nodes, their
    names are unique within the layer, and each node names a parent in the
    layer above it, except on the top layer, where no node names one."""

    layers: tuple  # tuple of tuples of Node, bottom first

    def __post_init__(self):
        layers = tuple(tuple(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        for n, layer in enumerate(layers):
            if not layer:
                raise ValueError(f"layer {n} has no nodes")
        for n, layer in enumerate(layers):
            names = [node.name for node in layer]
            for name in names:
                if names.count(name) > 1:
                    raise ValueError(f"node {name!r} is named twice on layer {n}")
            above = {node.name for node in layers[n + 1]} if n + 1 < len(layers) else {None}
            for node in layer:
                if node.parent in above:
                    continue
                if n + 1 == len(layers):
                    raise ValueError(f"node {node.name!r} on the top layer {n} names "
                                     f"parent {node.parent!r}; a top node has none")
                raise ValueError(
                    f"node {node.name!r} on layer {n} has no parent in layer {n + 1}")


def check_topology(topology: Topology, n_stations: int) -> None:
    """Raise TopologyMismatch unless the topology has one layer per station."""
    if len(topology.layers) != n_stations:
        raise TopologyMismatch(f"topology has {len(topology.layers)} layers, "
                               f"cascade has {n_stations} stations")


def node_latency(p: NodeParams, lam: float, beta: float) -> float:
    """Compute-plus-transmission time of one node under the load lam (arrival
    rate, units per second) and beta (volume received from below, units)."""
    compute = p.s * p.b / p.theta
    transmit = (p.rho * p.s * lam + (1.0 - p.s) * lam + beta) / p.phi
    return compute + transmit


def layer_latency(topology: Topology, n: int, volume: float, horizon_s: float) -> float:
    """Total latency of layer n (1-based, bottom first), in seconds, when
    each of its k nodes receives volume / k units over horizon_s seconds."""
    if not (1 <= n <= len(topology.layers)):
        raise InvalidLayer(f"layer {n} out of range 1..{len(topology.layers)}")
    layer = topology.layers[n - 1]
    share = volume / len(layer)
    return sum(node_latency(node.params, share / horizon_s, share) for node in layer)


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
    gate). The hop into each station above the gate is the layer_latency
    of that station's layer under the samples it processed.
    """
    check_topology(topology, len(report.station_names))
    check_positive("horizon_s", horizon_s)
    names = report.station_names
    return {f"{names[n - 1]}_to_{names[n]}":
            layer_latency(topology, n + 1, report.processed_samples[n], horizon_s) * 1000.0
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
    """One node per layer with identical parameters."""
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
    """The topology of a file of `layer` and `node` lines, bottom layer
    first; every error names the file."""
    layers = []
    with open(path) as f:
        try:
            for raw in f:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("layer "):
                    layers.append([])
                elif line.startswith("node "):
                    if not layers:
                        raise ValueError("node before any layer line")
                    parts = line.split()
                    name = parts[1]
                    try:
                        kv = _node_values(parts[2:])
                        params = NodeParams(**{key: float(kv[key]) for key in NODE_KEYS[1:]})
                    except KeyError as e:
                        raise ValueError(f"node {name} lacks {e}") from e
                    except ValueError as e:
                        raise ValueError(f"node {name}: {e}") from e
                    parent = None if kv.get("parent", "-") == "-" else kv["parent"]
                    layers[-1].append(Node(name, parent, params))
                else:
                    raise ValueError(f"unrecognized line {line!r}")
            if not layers:
                raise ValueError("empty topology")
            return Topology(tuple(tuple(layer) for layer in layers))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e
