import random

import pytest

from ribbonpoly.generate import cubic_maps, exhaustive_connected_maps, is_bridgeless


@pytest.fixture(scope="session")
def six_edge_family():
    """Every connected map with at most six edges (10,441 maps), built once per run."""
    return exhaustive_connected_maps(6)


@pytest.fixture(scope="session")
def cubic_census():
    """Connected cubic maps by vertex count, 2 to 10 (483 maps), built once per run."""
    return {v: cubic_maps(v) for v in (2, 4, 6, 8, 10)}


@pytest.fixture(scope="session")
def connect_sum_pairs(cubic_census, six_edge_family):
    """Seeded pairs of bridgeless maps with trivalent vertices, for the connect sums.

    The maps come from the cubic census with v <= 8 and from the 6-edge
    maps; most edge sums of two census maps have more than 13 edges.
    """
    rng = random.Random(139)
    census = [m for v in (4, 6, 8) for m in cubic_census[v] if is_bridgeless(m)]
    six = [
        m
        for m in six_edge_family
        if m.edge_count == 6 and is_bridgeless(m) and any(len(c) == 3 for c in m.vertices)
    ]
    pairs = [(rng.choice(census), rng.choice(census)) for _ in range(5)]
    pairs += [(rng.choice(six), rng.choice(census)) for _ in range(4)]
    pairs += [(rng.choice(six), rng.choice(six)) for _ in range(3)]
    return pairs
