"""Topology builders for the paper's experiment setups.

- :func:`linear_chain` — N switches in a row with a host on each end
  (Fig 21's multi-hop probe traversal experiment).
- :func:`hula_fig3_topology` — the 5-switch topology of Fig 3: S1 reaches
  S5 via three parallel paths through S2, S3, and S4.
- :func:`leaf_spine` — a parameterized leaf-spine fabric for load-balancer
  scenarios beyond the paper's minimal topology.
- :func:`random_regular_fabric` — an m-switch random d-regular graph, the
  Table III fabric shape, scalable to the §XI production sizes
  (m=100, m=400) and to one ``fleet_scale`` domain.

All builders return ``(network, extras)`` where ``extras`` is a dict of
the named nodes/ports a caller needs to run the experiment.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.dataplane.switch import DataplaneSwitch
from repro.net.costs import CostModel
from repro.net.network import Network
from repro.net.simulator import EventSimulator

SwitchFactory = Callable[[str, int], DataplaneSwitch]


def _default_factory(name: str, num_ports: int) -> DataplaneSwitch:
    return DataplaneSwitch(name, num_ports=num_ports)


def linear_chain(num_switches: int,
                 factory: Optional[SwitchFactory] = None,
                 costs: Optional[CostModel] = None,
                 telemetry=None
                 ) -> Tuple[Network, Dict[str, object]]:
    """``h_src - s1 - s2 - ... - sN - h_dst``.

    Port convention per switch: port 1 faces the source side, port 2 the
    destination side.
    """
    if num_switches < 1:
        raise ValueError("need at least one switch")
    factory = factory or _default_factory
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim, costs)
    names = [f"s{i}" for i in range(1, num_switches + 1)]
    for name in names:
        net.add_switch(factory(name, 2))
    src = net.add_host("h_src")
    dst = net.add_host("h_dst")
    net.connect("h_src", 1, names[0], 1)
    for left, right in zip(names, names[1:]):
        net.connect(left, 2, right, 1)
    net.connect(names[-1], 2, "h_dst", 1)
    return net, {"sim": sim, "switches": names, "src": src, "dst": dst}


def hula_fig3_topology(factory: Optional[SwitchFactory] = None,
                       costs: Optional[CostModel] = None,
                       telemetry=None
                       ) -> Tuple[Network, Dict[str, object]]:
    """The Fig 3 topology: S1 -> {S2, S3, S4} -> S5, hosts at both ends.

    Port map on S1: port 2 -> S2, port 3 -> S3, port 4 -> S4, port 1 ->
    host.  Port map on S5 mirrors it.  Middle switches use port 1 toward
    S1 and port 2 toward S5.
    """
    factory = factory or _default_factory
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim, costs)
    for name, ports in (("s1", 4), ("s2", 2), ("s3", 2), ("s4", 2), ("s5", 4)):
        net.add_switch(factory(name, ports))
    h1 = net.add_host("h1")
    h5 = net.add_host("h5")
    net.connect("h1", 1, "s1", 1)
    net.connect("h5", 1, "s5", 1)
    for index, mid in enumerate(("s2", "s3", "s4"), start=2):
        net.connect("s1", index, mid, 1)
        net.connect(mid, 2, "s5", index)
    return net, {
        "sim": sim,
        "h1": h1,
        "h5": h5,
        "paths": {"s2": 2, "s3": 3, "s4": 4},  # S1 egress port per mid switch
    }


def leaf_spine(num_leaves: int = 4, num_spines: int = 2,
               factory: Optional[SwitchFactory] = None,
               costs: Optional[CostModel] = None,
               telemetry=None
               ) -> Tuple[Network, Dict[str, object]]:
    """A leaf-spine fabric with one host per leaf.

    Leaf port map: port 1 -> host, ports 2..(1+num_spines) -> spines in
    order.  Spine port map: ports 1..num_leaves -> leaves in order.
    """
    if num_leaves < 2 or num_spines < 1:
        raise ValueError("need >= 2 leaves and >= 1 spine")
    factory = factory or _default_factory
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim, costs)
    leaves = [f"leaf{i}" for i in range(1, num_leaves + 1)]
    spines = [f"spine{i}" for i in range(1, num_spines + 1)]
    for name in leaves:
        net.add_switch(factory(name, 1 + num_spines))
    for name in spines:
        net.add_switch(factory(name, num_leaves))
    hosts = {}
    for index, leaf in enumerate(leaves, start=1):
        host = net.add_host(f"h{index}")
        hosts[leaf] = host
        net.connect(host.name, 1, leaf, 1)
    for leaf_idx, leaf in enumerate(leaves, start=1):
        for spine_idx, spine in enumerate(spines, start=1):
            net.connect(leaf, 1 + spine_idx, spine, leaf_idx)
    return net, {
        "sim": sim,
        "leaves": leaves,
        "spines": spines,
        "hosts": hosts,
    }


def random_regular_fabric(m: int, degree: int = 4, seed: int = 1,
                          factory: Optional[SwitchFactory] = None,
                          costs: Optional[CostModel] = None,
                          telemetry=None
                          ) -> Tuple[Network, Dict[str, object]]:
    """An m-switch fabric wired as a random d-regular graph.

    This is the Table III topology (m=25, d=4 gives exactly the paper's
    n=50 links), parameterized so the batch-throughput experiments can
    scale the same shape to m=100 and m=400.  Switch ``sw<i>`` gets
    ``degree`` ports, assigned to incident edges in sorted-edge order
    (ports 1..degree).  Node/edge iteration is sorted, so the wiring is a
    pure function of ``(m, degree, seed)``; ``extras["graph"]`` is that
    sorted ``(lo, hi)`` edge list.

    Raises ``ValueError``, before any switch is built, when no
    ``degree``-regular graph on ``m`` nodes exists (``m`` not above the
    degree, or an odd ``m * degree``).
    """
    if degree < 1:
        raise ValueError(f"need degree >= 1, got {degree}")
    if m <= degree or (m * degree) % 2:
        raise ValueError(
            f"no {degree}-regular graph on {m} switches (need m > degree "
            f"and m * degree even)")
    factory = factory or _default_factory
    graph = _random_regular_edges(degree, m, seed)
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim, costs)
    names = [f"sw{node}" for node in range(m)]
    for name in names:
        net.add_switch(factory(name, degree))
    next_port = dict.fromkeys(names, 1)
    for a, b in graph:
        name_a, name_b = names[a], names[b]
        net.connect(name_a, next_port[name_a], name_b, next_port[name_b])
        next_port[name_a] += 1
        next_port[name_b] += 1
    return net, {"sim": sim, "graph": graph, "switches": names}


def region_seed(seed: int, index: int) -> int:
    """Graph seed of fleet region ``index`` (a ``fleet_scale`` trial);
    region 0 keeps the caller's seed, so it is the flat fabric."""
    return seed + 7919 * index


def _pairable(edges, leftover) -> bool:
    """Can two leftover nodes still be joined by an edge not in ``edges``?

    networkx's ``_suitable``, quirk included: the swap rebinds the
    *outer* loop's name for the rest of the inner loop, so later pairs
    are tested against the swapped node.  Tidying that up changes which
    attempts are abandoned — ``(degree=4, size=10, seed=14)`` diverges.
    """
    if not leftover:
        return True
    for s1 in leftover:
        for s2 in leftover:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _random_regular_edges(degree: int, size: int,
                          seed: int) -> List[Tuple[int, int]]:
    """Sorted ``(lo, hi)`` edges of a random ``degree``-regular graph on
    ``range(size)``; needs ``0 < degree < size`` and ``size * degree`` even.

    The Steger-Wormald pairing model exactly as networkx 3.x's
    ``random_regular_graph(degree, size, seed=seed)`` runs it — the same
    draws from ``random.Random(seed)``, the same leftover order, the same
    abandoned attempts — so the result equals ``sorted(graph.edges)``
    there and every fabric wired from it, port for port, is the one the
    pinned fingerprints were recorded on
    (``tests/net/test_random_regular.py``).
    """
    rng = random.Random(seed)
    while True:
        edges = set()
        stubs = list(range(size)) * degree
        while stubs:
            # Shuffle the unpaired stubs and pair them off in order; a
            # self-loop or repeated edge puts both ends back for the
            # next round.
            leftover: Dict[int, int] = {}
            rng.shuffle(stubs)
            ends = iter(stubs)
            for s1, s2 in zip(ends, ends):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    leftover[s1] = leftover.get(s1, 0) + 1
                    leftover[s2] = leftover.get(s2, 0) + 1
            if not _pairable(edges, leftover):
                break  # dead end: start over with the generator as it is
            stubs = [node for node, count in leftover.items()
                     for _ in range(count)]
        else:
            return sorted(edges)
