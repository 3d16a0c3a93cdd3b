"""Seeded benchmark inputs as raw rotation and edge lists (standard library only).

Nothing here imports ribbonpoly, so a change to the package cannot change the
inputs.  A map is ``(vertices, edges)``: ``vertices`` lists each vertex's
counterclockwise half-edge cycle and ``edges`` pairs half-edges.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

RawMap = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]

DATA = Path(__file__).resolve().parent / "data"


def rng_for(seed: int, *stream: object) -> random.Random:
    """An independent generator per (seed, stream) so workloads never share draws."""
    return random.Random(":".join(str(part) for part in (seed,) + stream))


def _connected(vertices, edge_count: int) -> bool:
    vertex_of = {h: i for i, cycle in enumerate(vertices) for h in cycle}
    parent = list(range(len(vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(edge_count):
        a, b = find(vertex_of[2 * i]), find(vertex_of[2 * i + 1])
        if a != b:
            parent[a] = b
    return len({find(i) for i in range(len(vertices))}) == 1


def random_map(rng: random.Random, vertex_count: int, edge_count: int) -> RawMap:
    """A connected map with the given size and degrees as even as possible.

    Half-edges are dealt to vertices in a random order (the configuration
    model), which also makes each rotation random.  Loops and parallel edges
    may occur.  Every degree is at least 2 because ``E >= V`` is required,
    so no draw has a degree-1 vertex.
    """
    if edge_count < vertex_count:
        raise ValueError("need at least as many edges as vertices for minimum degree 2")
    total = 2 * edge_count
    degrees = [total // vertex_count + (i < total % vertex_count) for i in range(vertex_count)]
    while True:
        halves = list(range(total))
        rng.shuffle(halves)
        vertices, start = [], 0
        for degree in degrees:
            vertices.append(tuple(halves[start : start + degree]))
            start += degree
        if _connected(vertices, edge_count):
            edges = tuple((2 * i, 2 * i + 1) for i in range(edge_count))
            return tuple(vertices), edges


def graph_map(adjacency: list[list[int]]) -> RawMap:
    """A map of a simple graph; each rotation lists neighbours in the given order."""
    slot: dict[tuple[int, int], int] = {}
    edges = []
    for u, row in enumerate(adjacency):
        for w in row:
            if u < w:
                slot[(u, w)] = 2 * len(edges)
                slot[(w, u)] = 2 * len(edges) + 1
                edges.append((2 * len(edges), 2 * len(edges) + 1))
    vertices = tuple(tuple(slot[(u, w)] for w in row) for u, row in enumerate(adjacency))
    return vertices, tuple(edges)


def complete_graph(n: int) -> RawMap:
    return graph_map([[w for w in range(n) if w != u] for u in range(n)])


def petersen() -> RawMap:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    adjacency = []
    for i in range(5):
        adjacency.append([(i + 1) % 5, i + 5, (i - 1) % 5])
    for i in range(5):
        adjacency.append([5 + (i + 2) % 5, i, 5 + (i - 2) % 5])
    return graph_map(adjacency)


def degrees(raw: RawMap) -> list[int]:
    return [len(cycle) for cycle in raw[0]]


def delete_edge(raw: RawMap, index: int) -> RawMap:
    """Drop one edge and relabel the surviving half-edges to 0..2E-3."""
    vertices, edges = raw
    gone = set(edges[index])
    rank = {h: i for i, h in enumerate(sorted(h for c in vertices for h in c if h not in gone))}
    return (
        tuple(tuple(rank[h] for h in c if h not in gone) for c in vertices),
        tuple((rank[a], rank[b]) for k, (a, b) in enumerate(edges) if k != index),
    )


def rotated(raw: RawMap, rng: random.Random) -> RawMap:
    """The same graph with a fresh random rotation at every vertex."""
    vertices, edges = raw
    return tuple(tuple(rng.sample(c, len(c))) for c in vertices), edges


def flipped(raw: RawMap, rng: random.Random) -> RawMap:
    """Reverse the rotation at a random subset of vertices."""
    vertices, edges = raw
    return tuple(tuple(reversed(c)) if rng.random() < 0.5 else c for c in vertices), edges


def small_cubic_census() -> dict[int, list[RawMap]]:
    """Connected cubic multigraphs on 2, 4 and 6 vertices (2 + 5 + 17 maps).

    Frozen from the package's census at the commit that added this benchmark,
    so later changes to the census code leave these inputs alone.
    """
    data = json.loads((DATA / "cubic_census_small.json").read_text(encoding="utf-8"))
    return {
        int(v): [
            (tuple(tuple(c) for c in m["vertices"]), tuple(tuple(e) for e in m["edges"]))
            for m in maps
        ]
        for v, maps in data.items()
    }
