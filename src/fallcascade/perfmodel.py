"""Analytic performance accounting: per-layer latency, dense/conv FLOPs,
and latency comparisons between cascade runs.

Units are a self-consistent internal system (data units, cycles per unit,
cycles per second, units per second); absolute latencies are only
meaningful relative to one another.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .cascade import CascadeReport


class InvalidLayer(Exception):
    pass


class TopologyMismatch(Exception):
    pass


@dataclass(frozen=True)
class NodeParams:
    s: float        # task-division fraction processed locally, in [0, 1]
    b: float        # computation demand, cycles per data unit
    theta: float    # computing capacity, cycles per second
    rho: float      # compression ratio of processed data, in [0, 1]
    lam: float      # data generation / arrival rate, units per second
    beta: float     # processed-data volume received from below, units
    phi: float      # uplink transmit capacity, units per second

    def __post_init__(self):
        if self.theta <= 0 or self.phi <= 0:
            raise ValueError("theta and phi must be positive")
        if not (0.0 <= self.s <= 1.0) or not (0.0 <= self.rho <= 1.0):
            raise ValueError("s and rho must lie in [0, 1]")


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
        for n, layer in enumerate(layers[:-1]):
            above = {node.name for node in layers[n + 1]}
            for node in layer:
                if node.parent not in above:
                    raise ValueError(
                        f"node {node.name!r} on layer {n} has no parent in layer {n + 1}")


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


@dataclass
class LatencyReport:
    hop_names: list
    hop_ms: list
    volumes_samples: list  # per-station routed volume, in sample counts


def cascade_latency(report: CascadeReport, topology: Topology,
                    horizon_s: float = 1.0) -> LatencyReport:
    """Map per-layer routed volumes onto the latency model.

    Topology layers align one-to-one with cascade stations (bottom = edge
    gate). For each station above the gate, the layer's nodes get
    lam = processed volume / horizon and beta = processed volume, split
    evenly across the layer's nodes; the hop latency is the layer sum.
    """
    if len(topology.layers) != len(report.station_names):
        raise TopologyMismatch(
            f"topology has {len(topology.layers)} layers, "
            f"cascade has {len(report.station_names)} stations")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    volumes = report.processed_samples
    hop_names, hop_ms = [], []
    for n in range(1, len(topology.layers)):
        nodes = topology.layers[n]
        share = volumes[n] / len(nodes)
        total = 0.0
        for node in nodes:
            p = replace(node.params, lam=share / horizon_s, beta=share)
            total += node_latency(p)
        hop_names.append(f"{report.station_names[n - 1]}_to_{report.station_names[n]}")
        hop_ms.append(total * 1000.0)
    return LatencyReport(hop_names=hop_names, hop_ms=hop_ms,
                         volumes_samples=list(volumes))


def percent_reduction(before: float, after: float) -> float:
    """Percentage by which `after` lies below a nonzero `before`."""
    return 100.0 * (before - after) / before


def latency_reduction(before: LatencyReport, after: LatencyReport) -> list:
    """Per-hop percentage reduction of `after` relative to `before`; 0.0 for
    a hop whose `before` latency is 0."""
    if before.hop_names != after.hop_names:
        raise TopologyMismatch("latency reports cover different hops")
    return [percent_reduction(a, b) if a != 0 else 0.0
            for a, b in zip(before.hop_ms, after.hop_ms)]


def uniform_topology(n_layers: int, s: float = 0.5, b: float = 1.0,
                     theta: float = 1e9, rho: float = 0.1,
                     phi: float = 1e6) -> Topology:
    """One node per layer with identical parameters; lam/beta are filled in
    by cascade_latency from routed volumes."""
    layers = []
    for n in range(n_layers):
        parent = f"n{n + 1}" if n < n_layers - 1 else None
        params = NodeParams(s=s, b=b, theta=theta, rho=rho, lam=0.0,
                            beta=0.0, phi=phi)
        layers.append((Node(f"n{n}", parent, params),))
    return Topology(tuple(layers))


def write_topology(topology: Topology, path) -> None:
    lines = []
    for n, layer in enumerate(topology.layers):
        lines.append(f"layer {n}")
        for node in layer:
            p = node.params
            lines.append(
                f"node {node.name} parent={node.parent or '-'} "
                f"s={p.s!r} b={p.b!r} theta={p.theta!r} rho={p.rho!r} "
                f"lambda={p.lam!r} beta={p.beta!r} phi={p.phi!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


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
                kv = dict(p.split("=", 1) for p in parts[2:])
                parent = None if kv.get("parent", "-") == "-" else kv["parent"]
                try:
                    params = NodeParams(
                        s=float(kv["s"]), b=float(kv["b"]), theta=float(kv["theta"]),
                        rho=float(kv["rho"]), lam=float(kv["lambda"]),
                        beta=float(kv["beta"]), phi=float(kv["phi"]))
                except KeyError as e:
                    raise ValueError(f"{path}: node {name} lacks {e}") from e
                current.append(Node(name, parent, params))
            else:
                raise ValueError(f"{path}: unrecognized line {line!r}")
    if not layers:
        raise ValueError(f"{path}: empty topology")
    return Topology(tuple(tuple(layer) for layer in layers))
