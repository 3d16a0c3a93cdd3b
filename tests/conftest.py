import pytest

from ribbonpoly.generate import cubic_maps, exhaustive_connected_maps


@pytest.fixture(scope="session")
def six_edge_family():
    """Every connected map with at most six edges (10,441 maps), built once per run."""
    return exhaustive_connected_maps(6)


@pytest.fixture(scope="session")
def cubic_census():
    """Connected cubic maps by vertex count, 2 to 10 (483 maps), built once per run."""
    return {v: cubic_maps(v) for v in (2, 4, 6, 8, 10)}
