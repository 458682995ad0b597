"""Topology builders: wiring conventions of the experiment setups."""

import pytest

from repro.dataplane.packet import Packet
from repro.net.topology import (
    hula_fig3_topology,
    leaf_spine,
    linear_chain,
    random_regular_fabric,
)


def switch_edges(net):
    """The switch-to-switch links of ``net`` as a set of name pairs."""
    switches = set(net.switch_names())
    return {frozenset((link.end_a[0], link.end_b[0])) for link in net.links
            if link.end_a[0] in switches and link.end_b[0] in switches}


class TestLinearChain:
    def test_structure(self):
        net, extras = linear_chain(3)
        assert extras["switches"] == ["s1", "s2", "s3"]
        assert net.neighbor_ports("s1") == {2: ("s2", 1)}
        assert net.neighbor_ports("s2") == {1: ("s1", 2), 2: ("s3", 1)}

    def test_end_to_end_delivery(self):
        net, extras = linear_chain(4)
        for name in extras["switches"]:
            net.switch(name).pipeline.add_stage(
                "fwd", lambda ctx: ctx.emit(2 if ctx.ingress_port == 1 else 1))
        extras["src"].send(Packet())
        extras["sim"].run()
        assert len(extras["dst"].received) == 1

    def test_needs_at_least_one_switch(self):
        with pytest.raises(ValueError):
            linear_chain(0)


class TestFig3:
    def test_three_parallel_paths(self):
        net, extras = hula_fig3_topology()
        neighbors = net.neighbor_ports("s1")
        assert neighbors == {2: ("s2", 1), 3: ("s3", 1), 4: ("s4", 1)}
        assert extras["paths"] == {"s2": 2, "s3": 3, "s4": 4}

    def test_mid_switches_reach_s5(self):
        net, _ = hula_fig3_topology()
        for mid in ("s2", "s3", "s4"):
            assert net.neighbor_ports(mid)[2][0] == "s5"

    def test_six_switch_links(self):
        net, _ = hula_fig3_topology()
        assert len(net.switch_names()) == 5
        assert len(switch_edges(net)) == 6


class TestLeafSpine:
    def test_structure(self):
        net, extras = leaf_spine(num_leaves=4, num_spines=2)
        assert len(extras["leaves"]) == 4
        assert len(extras["spines"]) == 2
        assert switch_edges(net) == {  # full bipartite, hence connected
            frozenset((leaf, spine)) for leaf in extras["leaves"]
            for spine in extras["spines"]}

    def test_each_leaf_has_host(self):
        net, extras = leaf_spine(3, 2)
        for leaf in extras["leaves"]:
            assert leaf in extras["hosts"]

    def test_validation(self):
        with pytest.raises(ValueError):
            leaf_spine(num_leaves=1)
        with pytest.raises(ValueError):
            leaf_spine(num_spines=0)


class TestRegularFabricRejections:
    """No d-regular graph on that many switches: a ``ValueError`` that
    names the degree and the switch count, before the factory has built a
    single switch."""

    @staticmethod
    def rejected(build, *args, **kwargs):
        def factory(name, ports):
            raise AssertionError(f"factory called for {name}")

        with pytest.raises(ValueError) as caught:
            build(*args, factory=factory, **kwargs)
        return str(caught.value)

    def test_odd_product_flat(self):
        message = self.rejected(random_regular_fabric, 25, 3, 1)
        assert "no 3-regular graph on 25 switches" in message

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one(self, degree):
        assert "degree" in self.rejected(random_regular_fabric, 10, degree, 1)

    @pytest.mark.parametrize("degree", [4, 5])
    def test_degree_at_or_above_size(self, degree):
        message = self.rejected(random_regular_fabric, 4, degree, 1)
        assert f"no {degree}-regular graph on 4 switches" in message

    def test_even_product_builds(self):
        net, extras = random_regular_fabric(26, 3, 1)
        edges = extras["graph"]
        assert edges == sorted(set(edges)) and len(edges) == 26 * 3 // 2
        assert all(0 <= lo < hi < 26 for lo, hi in edges)
        assert all(len(net.neighbor_ports(name)) == 3
                   for name in extras["switches"])
