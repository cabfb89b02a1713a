import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fallcascade import perfmodel as pm
from fallcascade.cascade import CascadeReport
from fallcascade.nn import TierSpec, STUDENT, TA, TEACHER, default_tier_spec


def single_node_topology(**overrides):
    params = dict(s=0.5, b=2.0, theta=4.0, rho=0.1, lam=10.0, beta=1.0, phi=2.0)
    params.update(overrides)
    return pm.Topology(((pm.Node("n0", None, pm.NodeParams(**params)),),))


class TestLayerLatency:
    def test_worked_example(self):
        # 0.5*2/4 + (0.1*0.5*10 + 0.5*10 + 1)/2 = 0.25 + 3.25
        assert pm.layer_latency(single_node_topology(), 1) == pytest.approx(3.5, abs=1e-9)

    def test_pure_forwarding(self):
        topo = single_node_topology(s=0.0, beta=0.0)
        assert pm.layer_latency(topo, 1) == pytest.approx(10.0 / 2.0)

    def test_infinite_uplink_leaves_compute_term(self):
        topo = single_node_topology(phi=1e12)
        assert pm.layer_latency(topo, 1) == pytest.approx(0.25, abs=1e-6)

    def test_invalid_layer(self):
        with pytest.raises(pm.InvalidLayer):
            pm.layer_latency(single_node_topology(), 2)

    def test_monotonicity(self):
        base = pm.layer_latency(single_node_topology(), 1)
        assert pm.layer_latency(single_node_topology(lam=20.0), 1) >= base
        assert pm.layer_latency(single_node_topology(beta=5.0), 1) >= base
        assert pm.layer_latency(single_node_topology(b=4.0), 1) >= base
        assert pm.layer_latency(single_node_topology(theta=8.0), 1) <= base
        assert pm.layer_latency(single_node_topology(phi=4.0), 1) <= base

    def test_linear_in_beta(self):
        l0 = pm.layer_latency(single_node_topology(beta=0.0), 1)
        l1 = pm.layer_latency(single_node_topology(beta=1.0), 1)
        l3 = pm.layer_latency(single_node_topology(beta=3.0), 1)
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

    def test_orphan_node_rejected(self):
        with pytest.raises(ValueError):
            pm.Topology((
                (pm.Node("a", "missing", pm.NodeParams(0, 1, 1, 0, 1)),),
                (pm.Node("b", None, pm.NodeParams(0, 1, 1, 0, 1)),),
            ))
