"""Session-wide fixtures: full sweeps are expensive, so run each once."""

from functools import cache

import pytest

from mc_lab.graph_core import edge_mask, enumerate_connected_graphs
from mc_lab.harness import sweep
from mc_lab.solver import mc_exact


@pytest.fixture(scope="session")
def sweep3():
    return sweep(3)


@pytest.fixture(scope="session")
def sweep4():
    return sweep(4)


@pytest.fixture(scope="session")
def sweep5():
    return sweep(5)


@pytest.fixture(scope="session")
def sweep6():
    return sweep(6)


@pytest.fixture(scope="session")
def mc_by_mask():
    """``mc_by_mask(n)``: mc per edge mask of every connected graph on n vertices.

    The mask indexes the lexicographic vertex-pair list, as in
    ``from_edge_mask``; each n is solved once per session.
    """

    @cache
    def values(n):
        return {edge_mask(g): mc_exact(g).value for g in enumerate_connected_graphs(n)}

    return values
