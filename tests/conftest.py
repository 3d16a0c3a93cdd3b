import pytest

from ribbonpoly.generate import exhaustive_connected_maps


@pytest.fixture(scope="session")
def six_edge_family():
    """Every connected map with at most six edges (10,441 maps), built once per run."""
    return exhaustive_connected_maps(6)
