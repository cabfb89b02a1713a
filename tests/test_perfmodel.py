from dataclasses import asdict, dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fallcascade import perfmodel as pm
from fallcascade.cascade import CascadeReport
from fallcascade.nn import TierSpec, STUDENT, TA, TEACHER, default_tier_spec


# the worked example's node and its load
NODE = dict(s=0.5, b=2.0, theta=4.0, rho=0.1, phi=2.0)
LOAD = dict(lam=10.0, beta=1.0)


def latency(**overrides):
    """node_latency of the worked example, with some node values or load
    values overridden."""
    values = {**NODE, **LOAD, **overrides}
    lam, beta = values.pop("lam"), values.pop("beta")
    return pm.node_latency(pm.NodeParams(**values), lam, beta)


class TestLayerLatency:
    def test_worked_example(self):
        # 0.5*2/4 + (0.1*0.5*10 + 0.5*10 + 1)/2 = 0.25 + 3.25
        assert latency() == pytest.approx(3.5, abs=1e-9)

    def test_pure_forwarding(self):
        assert latency(s=0.0, beta=0.0) == pytest.approx(10.0 / 2.0)

    def test_infinite_uplink_leaves_compute_term(self):
        assert latency(phi=1e12) == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("key", ["b", "theta", "phi"])
    def test_infinite_value_fails_when_built(self, key):
        # each passes its CHECKS rule; b=inf with s=0 gave a NaN latency
        with pytest.raises(ValueError, match=f"^{key} must be finite, got inf$"):
            pm.NodeParams(**{**NODE, "s": 0.0, key: float("inf")})

    def test_invalid_layer(self):
        topo = pm.Topology(((pm.Node("n0", None, pm.NodeParams(**NODE)),),))
        with pytest.raises(pm.InvalidLayer):
            pm.layer_latency(topo, 2, 1.0, 1.0)

    def test_monotonicity(self):
        base = latency()
        assert latency(lam=20.0) >= base
        assert latency(beta=5.0) >= base
        assert latency(b=4.0) >= base
        assert latency(theta=8.0) <= base
        assert latency(phi=4.0) <= base

    def test_linear_in_beta(self):
        l0 = latency(beta=0.0)
        l1 = latency(beta=1.0)
        l3 = latency(beta=3.0)
        assert l3 - l0 == pytest.approx(3 * (l1 - l0), rel=1e-12)


class TestFlops:
    def test_fc_examples(self):
        assert pm.flops_fc(3, 2) == 10
        assert pm.flops_fc(1, 1) == 1
        assert pm.flops_fc(54, 16) == 1712

    def test_conv_examples(self):
        assert pm.flops_conv(1, 100, 3, 3, 8) == 44800
        assert pm.flops_conv(1, 1, 1, 1, 1) == 4

    def test_conv_matches_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h, w, ci, k, co = (int(v) for v in rng.integers(1, 12, size=5))
            assert pm.flops_conv(h, w, ci, k, co) == 2 * h * w * (ci * k ** 2 + 1) * co

    def test_results_are_ints(self):
        assert isinstance(pm.flops_fc(3, 2), int)
        assert isinstance(pm.flops_conv(1, 2, 3, 4, 5), int)

    def test_model_flops(self):
        assert pm.model_flops(TierSpec(STUDENT, (54, 16, 2))) == 1712 + 62
        assert pm.model_flops(TierSpec(STUDENT, (2, 2))) == 6

    def test_tier_flops_ordering(self):
        s = pm.model_flops(default_tier_spec(STUDENT))
        ta = pm.model_flops(default_tier_spec(TA))
        t = pm.model_flops(default_tier_spec(TEACHER))
        assert t > ta > s


def make_report(processed, window_len=100):
    """A report whose stations receive the `processed` window counts."""
    n = len(processed)
    return CascadeReport(
        station_names=[f"st{i}" for i in range(n)],
        decided_fall=[p - q for p, q in zip(processed, list(processed[1:]) + [0])],
        decided_adl=[0] * n,
        window_len=window_len,
    )


def three_mec_topology():
    """Gate, three mec nodes with unequal values, cc."""
    mec = tuple(pm.Node(f"m{i}", "c", pm.NodeParams(0.5, 1.0 + i, 1e9, 0.1, 1e6 * (i + 1)))
                for i in range(3))
    return pm.Topology(((pm.Node("e", "m0", pm.NodeParams(0.5, 1.0, 1e9, 0.1, 1e6)),),
                        mec, (pm.Node("c", None, pm.NodeParams(0.5, 1.0, 1e9, 0.1, 1e6)),)))


class TestCascadeLatency:
    def test_zero_escalation_floor(self):
        topo = pm.uniform_topology(3, s=0.5, b=2.0, theta=4.0, phi=2.0)
        report = make_report([100, 0, 0])
        lat = pm.cascade_latency(report, topo)
        # compute-only floor: s*b/theta = 0.25 s = 250 ms
        assert lat["st0_to_st1"] == pytest.approx(250.0)
        assert lat["st1_to_st2"] == pytest.approx(250.0)

    def test_transmission_dominated_halving(self):
        topo = pm.uniform_topology(3, s=0.5, b=1e-9, theta=1e9, phi=100.0)
        full = pm.cascade_latency(make_report([100, 40, 20]), topo)
        half = pm.cascade_latency(make_report([100, 40, 10]), topo)
        assert half["st1_to_st2"] / full["st1_to_st2"] == pytest.approx(0.5, rel=1e-6)

    def test_topology_mismatch(self):
        topo = pm.uniform_topology(2)
        with pytest.raises(pm.TopologyMismatch):
            pm.cascade_latency(make_report([10, 5, 2]), topo)

    def test_reduction_percentages(self):
        topo = pm.uniform_topology(3, s=0.0, phi=100.0)
        a = pm.cascade_latency(make_report([100, 40, 20]), topo)
        b = pm.cascade_latency(make_report([100, 40, 10]), topo)
        red = [pm.percent_reduction(a[hop], b[hop]) for hop in a]
        assert red[0] == pytest.approx(0.0)
        assert red[1] == pytest.approx(50.0, rel=1e-9)


UNIT = st.floats(0.0, 1.0)
NON_NEGATIVE = st.floats(0.0, 1e12)
POSITIVE = st.floats(0.0, 1e12, exclude_min=True)


@st.composite
def topologies(draw):
    """1-4 layers of 1-3 nodes, each value inside its NodeParams.CHECKS rule
    and each parent a node of the layer above."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    names = [[f"l{n}n{i}" for i in range(size)] for n, size in enumerate(sizes)]
    layers = []
    for n, layer in enumerate(names):
        above = names[n + 1] if n + 1 < len(names) else [None]
        layers.append(tuple(
            pm.Node(name, draw(st.sampled_from(above)), pm.NodeParams(
                draw(UNIT), draw(NON_NEGATIVE), draw(POSITIVE), draw(UNIT), draw(POSITIVE)))
            for name in layer))
    return pm.Topology(tuple(layers))


class TestTopologyIO:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(topo=topologies())
    def test_round_trip(self, tmp_path, write_topology, topo):
        path = tmp_path / "topo.txt"
        write_topology(topo, path)
        loaded = pm.load_topology(path)
        assert loaded == topo
        # both copies take their load from the same routed volume
        report = make_report([100, 40, 20, 5][:len(topo.layers)])
        before, after = (pm.cascade_latency(report, t) for t in (topo, loaded))
        assert {hop: ms.hex() for hop, ms in after.items()} == {
            hop: ms.hex() for hop, ms in before.items()}

    def test_layer_latency_of_a_loaded_file_is_its_hop(self, tmp_path, write_topology):
        path = tmp_path / "topo.txt"
        write_topology(three_mec_topology(), path)
        loaded = pm.load_topology(path)
        report = make_report([100, 40, 20])
        hops = pm.cascade_latency(report, loaded, 0.37)
        for n, ms in enumerate(hops.values(), start=1):
            volume = report.processed_samples[n]
            assert pm.layer_latency(loaded, n + 1, volume, 0.37) * 1000.0 == ms
            assert ms > 1.0  # the hop is loaded: transmission, not the ns compute floor

    def test_orphan_node_rejected(self):
        with pytest.raises(ValueError):
            pm.Topology((
                (pm.Node("a", "missing", pm.NodeParams(0, 1, 1, 0, 1)),),
                (pm.Node("b", None, pm.NodeParams(0, 1, 1, 0, 1)),),
            ))


@dataclass(frozen=True)
class LoadedParams:
    """A node's values with its load as fields, as NodeParams held them
    before the load became an argument of node_latency."""
    s: float
    b: float
    theta: float
    rho: float
    phi: float
    lam: float = field(default=0.0, kw_only=True)
    beta: float = field(default=0.0, kw_only=True)


def loaded_node_latency(p: LoadedParams) -> float:
    compute = p.s * p.b / p.theta
    transmit = (p.rho * p.s * p.lam + (1.0 - p.s) * p.lam + p.beta) / p.phi
    return compute + transmit


def loaded_cascade_latency(report, topology, horizon_s) -> dict:
    """The oracle: cascade_latency as it was, loading a copy of every layer
    with its even share of the routed volume and summing each loaded layer."""
    names = report.station_names
    loaded = [
        [LoadedParams(**asdict(node.params), lam=v / len(layer) / horizon_s,
                      beta=v / len(layer)) for node in layer]
        for layer, v in zip(topology.layers, report.processed_samples)]
    return {f"{names[n - 1]}_to_{names[n]}":
            sum(loaded_node_latency(p) for p in loaded[n]) * 1000.0
            for n in range(1, len(names))}


class TestLoadArgument:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(topo=topologies(), counts=st.lists(st.integers(0, 10_000), min_size=4, max_size=4),
           window_len=st.integers(1, 1000), horizon_s=st.floats(0.0, 1e6, exclude_min=True))
    # drawn values rarely let the arrival rate's last bit reach the hop; here
    # another order of the two divisions changes the hop into the mec layer
    @example(topo=three_mec_topology(), counts=[100, 37, 20, 0], window_len=56, horizon_s=0.37)
    def test_every_hop_equals_the_loaded_topology_oracle(self, topo, counts, window_len,
                                                         horizon_s):
        report = make_report(sorted(counts, reverse=True)[:len(topo.layers)], window_len)
        hops = pm.cascade_latency(report, topo, horizon_s)
        oracle = loaded_cascade_latency(report, topo, horizon_s)
        assert list(hops) == list(oracle)
        assert [ms.hex() for ms in hops.values()] == [ms.hex() for ms in oracle.values()]
