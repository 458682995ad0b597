"""The pairing-model generator is networkx's, draw for draw.

Every fabric, port number and pinned fingerprint behind ``cdp_rw``,
``table3``, ``fleet_scale`` and ``cdp_batch`` was recorded on
``nx.random_regular_graph``; ``_random_regular_edges`` replaced the
call, not the graphs.  A ``fleet_scale`` region draws its graph at
``region_seed(seed, region)``.  This file holds the two side by side wherever
networkx is installed (the ``test`` extra).
"""

from __future__ import annotations

import pytest

from repro.net.topology import _random_regular_edges, region_seed

nx = pytest.importorskip("networkx")


def reference(degree: int, size: int, seed: int):
    return sorted(nx.random_regular_graph(degree, size, seed=seed).edges)


def test_the_suitable_quirk_case():
    """``(4, 10, seed 14)``: networkx's ``_suitable`` rebinds its outer
    loop name inside the inner loop; a port that tidies that up abandons
    a different attempt here and returns another graph."""
    assert _random_regular_edges(4, 10, 14) == reference(4, 10, 14)


@pytest.mark.parametrize("size", [25, 100, 400])
@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
def test_paper_and_bench_shapes(size, seed):
    """Table III (m=25), the §XI fleet sizes and the ``cdp_rw`` fabric."""
    assert _random_regular_edges(4, size, seed) == reference(4, size, seed)


def test_regional_slices():
    """The region graphs of ``fleet_scale`` (regions 0-3 at its default
    m=250) and of eight §XI domains of 25 switches (Table III's m=25 at
    ``region_seed(1, 0..7)``)."""
    for size, regions in ((250, 4), (25, 8)):
        for region in range(regions):
            seed = region_seed(1, region)
            assert (_random_regular_edges(4, size, seed)
                    == reference(4, size, seed))


@pytest.mark.parametrize("degree", [2, 3, 4, 6, 8])
def test_grid(degree):
    cases = 0
    for size in list(range(5, 41)) + [64, 101, 150]:
        if size <= degree or (size * degree) % 2:
            continue
        for seed in range(12):
            assert (_random_regular_edges(degree, size, seed)
                    == reference(degree, size, seed)), (degree, size, seed)
            cases += 1
    assert cases >= 200

