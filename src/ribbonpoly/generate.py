"""Families of combinatorial maps for oracle tests and censuses.

Exhaustive enumeration works at the scale where every rotation system on a
fixed edge involution can be listed and deduplicated by canonical signature
(at most four edges).  Larger instances come from structured families and a
seeded random model, and cubic multigraphs get their own census built from
degree-constrained adjacency matrices with isomorphism rejection.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence

from .maps import CombMap

POINT = CombMap(((),), ())


def _sigma_cycles(perm: Sequence[int]) -> list[list[int]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        h = start
        while not seen[h]:
            seen[h] = True
            cycle.append(h)
            h = perm[h]
        cycles.append(cycle)
    return cycles


def _exhaustive_by_permutations(max_edges: int) -> list[CombMap]:
    """Brute-force reference enumerator: all rotations on a fixed involution.

    Cost (2e)!, so the usable range is max_edges <= 4.  Kept as the oracle
    for the incremental enumerator below.
    """
    if max_edges > 4:
        raise ValueError("permutation enumeration is limited to 4 edges")
    found: dict = {}
    for e in range(1, max_edges + 1):
        edges = tuple((2 * i, 2 * i + 1) for i in range(e))
        for perm in itertools.permutations(range(2 * e)):
            vertices = tuple(tuple(c) for c in _sigma_cycles(perm))
            m = CombMap(vertices, edges)
            if m.component_count != 1:
                continue
            found.setdefault(m.signature, m)
    return [POINT] + list(found.values())


def _gap_positions(vertices: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    gaps = []
    for vi, cycle in enumerate(vertices):
        for p in range(max(1, len(cycle))):
            gaps.append((vi, p))
    return gaps


def _inserted(vertices: tuple, gap: tuple[int, int], h: int) -> tuple:
    vi, p = gap
    cycle = vertices[vi]
    new_cycle = cycle[:p] + (h,) + cycle[p:]
    return vertices[:vi] + (new_cycle,) + vertices[vi + 1 :]


def exhaustive_connected_maps(max_edges: int) -> list[CombMap]:
    """Every connected map with at most ``max_edges`` edges, up to isomorphism.

    Grows level by level: each connected map with e edges arises from one
    with e - 1 edges by a single edge insertion, because deleting a non-bridge
    edge keeps the map connected, and a map whose edges are all bridges is a
    tree, where deleting a leaf edge works.  Each level inserts the two new
    half-edges into every ordered pair of corner positions (yielding loops
    and cross edges) and into every corner paired with a fresh pendant
    vertex, then deduplicates by canonical signature.
    """
    if max_edges > 7:
        raise ValueError("exhaustive enumeration is limited to 7 edges")
    levels: list[list[CombMap]] = [[POINT]]
    for e in range(1, max_edges + 1):
        found: dict = {}
        h1, h2 = 2 * e - 2, 2 * e - 1
        for parent in levels[e - 1]:
            edges = parent.edges + ((h1, h2),)
            for gap1 in _gap_positions(parent.vertices):
                partial = _inserted(parent.vertices, gap1, h1)
                for gap2 in _gap_positions(partial):
                    child = CombMap(_inserted(partial, gap2, h2), edges)
                    found.setdefault(child.signature, child)
                pendant = CombMap(partial + ((h2,),), edges)
                found.setdefault(pendant.signature, pendant)
        levels.append([found[key] for key in sorted(found)])
    result = [POINT]
    for level in levels[1:]:
        result.extend(level)
    return result


def cycle_map(n: int) -> CombMap:
    """The n-cycle embedded in the sphere."""
    if n == 1:
        return CombMap(((0, 1),), ((0, 1),))
    vertices = []
    for i in range(n):
        incoming = (2 * ((i - 1) % n) + 1, 2 * i)
        vertices.append(incoming)
    edges = tuple((2 * i, 2 * i + 1) for i in range(n))
    return CombMap(tuple(vertices), edges)


def bouquet(pairings: Sequence[tuple[int, int]]) -> CombMap:
    """One vertex whose rotation lists half-edges 0..2e-1 in order.

    ``pairings`` gives the edges as pairs of positions in that rotation.
    """
    count = 2 * len(pairings)
    rotation = tuple(range(count))
    return CombMap((rotation,), tuple(tuple(sorted(p)) for p in pairings))


def dipole(n: int, twist_second_vertex: bool = False) -> CombMap:
    """Two vertices joined by n parallel edges."""
    top = tuple(2 * i for i in range(n))
    bottom = tuple(2 * i + 1 for i in range(n))
    if twist_second_vertex:
        bottom = tuple(reversed(bottom))
    edges = tuple((2 * i, 2 * i + 1) for i in range(n))
    return CombMap((top, bottom), edges)


def complete_map(n: int) -> CombMap:
    """K_n with the rotation induced by placing vertices on a circle."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    slot: dict[tuple[int, int], int] = {}
    for index, (i, j) in enumerate(pairs):
        slot[(i, j)] = 2 * index
        slot[(j, i)] = 2 * index + 1
    vertices = []
    for i in range(n):
        others = [(i + k) % n for k in range(1, n)]
        vertices.append(tuple(slot[(i, j)] for j in others))
    edges = tuple((2 * index, 2 * index + 1) for index in range(len(pairs)))
    return CombMap(tuple(vertices), edges)


def k33_standard() -> CombMap:
    """K_{3,3} drawn with straight lines between two vertical columns.

    Left vertices see the right column bottom-to-top; right vertices see the
    left column top-to-bottom (counterclockwise order of segment directions).
    """
    # edge (n, m) gets half-edges (2e, 2e+1) with e = 3n + m
    left = tuple(tuple(2 * (3 * n + m) for m in range(3)) for n in range(3))
    right = tuple(tuple(2 * (3 * n + m) + 1 for n in (2, 1, 0)) for m in range(3))
    edges = tuple((2 * e, 2 * e + 1) for e in range(9))
    return CombMap(left + right, edges)


def petersen_map() -> CombMap:
    """The Petersen graph with outer/inner pentagon rotations."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    pairs = outer + spokes + inner
    slot: dict[tuple[int, int], int] = {}
    for index, (a, b) in enumerate(pairs):
        slot[(a, b)] = 2 * index
        slot[(b, a)] = 2 * index + 1
    vertices = []
    for i in range(5):
        vertices.append(
            (slot[(i, (i + 1) % 5)], slot[(i, i + 5)], slot[(i, (i - 1) % 5)])
        )
    for i in range(5):
        vertices.append(
            (
                slot[(i + 5, i)],
                slot[(i + 5, (i + 2) % 5 + 5)],
                slot[(i + 5, (i - 2) % 5 + 5)],
            )
        )
    edges = tuple((2 * index, 2 * index + 1) for index in range(len(pairs)))
    return CombMap(tuple(vertices), edges)


def structured_family() -> list[CombMap]:
    """Hand-built connected maps with five or six edges."""
    five_bouquet = bouquet([(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
    six_bouquet = bouquet([(0, 3), (1, 7), (2, 9), (4, 10), (5, 8), (6, 11)])
    theta_plus = dipole(3).subdivide(0).subdivide(1)
    family = [
        cycle_map(5),
        cycle_map(6),
        dipole(5),
        dipole(5, twist_second_vertex=True),
        dipole(6),
        dipole(6, twist_second_vertex=True),
        five_bouquet,
        six_bouquet,
        theta_plus,
        complete_map(4),
    ]
    return family


def random_connected_map(rng: random.Random, edge_count: int) -> CombMap:
    """A uniformly random rotation on 2e half-edges, resampled until connected."""
    labels = list(range(2 * edge_count))
    edges = tuple((2 * i, 2 * i + 1) for i in range(edge_count))
    while True:
        perm = labels[:]
        rng.shuffle(perm)
        vertices = tuple(tuple(c) for c in _sigma_cycles(perm))
        m = CombMap(vertices, edges)
        if m.component_count == 1:
            return m


def random_maps(seed: int, count: int, max_edges: int) -> list[CombMap]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        e = rng.randint(1, max_edges)
        out.append(random_connected_map(rng, e))
    return out


# ---------------------------------------------------------------------------
# Cubic multigraph census.
# ---------------------------------------------------------------------------


Matrix = tuple[tuple[int, ...], ...]


def _cubic_adjacency_solutions(v: int, simple: bool = False) -> Iterator[Matrix]:
    """Symmetric adjacency matrices with all degrees 3 (diagonal = loop count)."""
    matrix = [[0] * v for _ in range(v)]
    remaining = [3] * v

    def fill(i: int, j: int) -> Iterator[Matrix]:
        if i == v:
            yield tuple(tuple(row) for row in matrix)
            return
        if j == v:
            if remaining[i] == 0:
                yield from fill(i + 1, i + 1)
            return
        if i < j:
            cap = 1 if simple else 3
            capacity = sum(min(remaining[c], cap) for c in range(j, v))
            if remaining[i] > capacity:
                return
        if i == j:
            # loops consume two degree slots
            top = 0 if simple else remaining[i] // 2
            for loops in range(top + 1):
                matrix[i][i] = loops
                remaining[i] -= 2 * loops
                yield from fill(i, j + 1)
                remaining[i] += 2 * loops
            matrix[i][i] = 0
            return
        top = min(remaining[i], remaining[j])
        if simple:
            top = min(top, 1)
        for mult in range(top + 1):
            matrix[i][j] = matrix[j][i] = mult
            remaining[i] -= mult
            remaining[j] -= mult
            yield from fill(i, j + 1)
            remaining[i] += mult
            remaining[j] += mult
        matrix[i][j] = matrix[j][i] = 0

    yield from fill(0, 0)


def _refine_partition(matrix: Sequence[Sequence[int]], colors: tuple) -> tuple:
    """Stable coloring refinement; returned ids are sorted by profile."""
    v = len(matrix)
    while True:
        profile = [
            (
                colors[i],
                matrix[i][i],
                tuple(sorted((matrix[i][j], colors[j]) for j in range(v) if j != i)),
            )
            for i in range(v)
        ]
        order = {p: k for k, p in enumerate(sorted(set(profile)))}
        fresh = tuple(order[p] for p in profile)
        if len(set(fresh)) == len(set(colors)):
            return fresh
        colors = fresh


def canonical_form(matrix: Sequence[Sequence[int]]) -> tuple:
    """Canonical upper-triangle string via individualization-refinement.

    The full branching tree is explored (no automorphism pruning), so the
    minimum over discrete leaves is a true isomorphism invariant.
    """
    v = len(matrix)
    best: list = [None]

    def search(colors: tuple) -> None:
        classes = len(set(colors))
        if classes == v:
            perm = sorted(range(v), key=lambda i: colors[i])
            s = tuple(matrix[perm[a]][perm[b]] for a in range(v) for b in range(a, v))
            if best[0] is None or s < best[0]:
                best[0] = s
            return
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min(c for c, n in counts.items() if n > 1)
        for i in range(v):
            if colors[i] != target:
                continue
            branched = tuple(-1 if k == i else colors[k] for k in range(v))
            search(_refine_partition(matrix, branched))

    search(_refine_partition(matrix, (0,) * v))
    return (v,) + best[0]


def _connected(matrix: Sequence[Sequence[int]]) -> bool:
    v = len(matrix)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(v):
            if j not in seen and i != j and matrix[i][j]:
                seen.add(j)
                stack.append(j)
    return len(seen) == v


def _dedupe_matrices(candidates: Iterator[Matrix]) -> list[Matrix]:
    seen: dict[tuple, Matrix] = {}
    for matrix in candidates:
        seen.setdefault(canonical_form(matrix), matrix)
    return list(seen.values())


def cubic_census_bruteforce(v: int) -> list[Matrix]:
    """Connected cubic multigraphs up to isomorphism, by full matrix search.

    Exponential in v; usable through v = 6.  Kept as the oracle for the
    recursive census.
    """
    if v % 2 or v <= 0:
        return []
    return _dedupe_matrices(
        m for m in _cubic_adjacency_solutions(v) if _connected(m)
    )


def _simple_cubic_connected(v: int) -> Iterator[Matrix]:
    """Connected simple cubic graphs, enumerated in BFS-normalized labelings.

    Vertex 0's neighbors are forced to be 1, 2, 3 and later vertices must be
    introduced in increasing order with a neighbor among earlier rows, so each
    isomorphism class appears a bounded number of times instead of once per
    labeling.
    """
    if v < 4:
        return
    matrix = [[0] * v for _ in range(v)]
    for j in (1, 2, 3):
        matrix[0][j] = matrix[j][0] = 1
    remaining = [0, 2, 2, 2] + [3] * (v - 4)

    def fill(i: int, j: int, max_intro: int) -> Iterator[Matrix]:
        if i == v:
            yield tuple(tuple(row) for row in matrix)
            return
        if j == v:
            if remaining[i] == 0 and (i + 1 >= v or remaining[i + 1] < 3):
                yield from fill(i + 1, i + 2, max_intro)
            return
        yield from fill(i, j + 1, max_intro)
        if remaining[i] > 0 and remaining[j] > 0 and j <= max_intro + 1:
            matrix[i][j] = matrix[j][i] = 1
            remaining[i] -= 1
            remaining[j] -= 1
            yield from fill(i, j + 1, max(max_intro, j))
            remaining[i] += 1
            remaining[j] += 1
            matrix[i][j] = matrix[j][i] = 0

    yield from fill(1, 2, 3)


def _edge_sites(matrix: Matrix) -> list[tuple[int, int]]:
    v = len(matrix)
    sites = [(i, i) for i in range(v) if matrix[i][i]]
    sites += [(i, j) for i in range(v) for j in range(i + 1, v) if matrix[i][j]]
    return sites


def _grow(matrix: Matrix, site: tuple[int, int], kind: str) -> Matrix:
    """Expand a cubic multigraph by two vertices at an edge site.

    kind "digon": cut the edge and splice in a doubled-edge pair.
    kind "lollipop": subdivide the edge and hang a loop vertex off the
    new subdivision point.  These invert the two smoothing reductions,
    so together with the simple graphs they exhaust the census.
    """
    x, y = site
    v = len(matrix)
    grown = [list(row) + [0, 0] for row in matrix]
    grown.append([0] * (v + 2))
    grown.append([0] * (v + 2))
    u, w = v, v + 1

    def add(i: int, j: int, amount: int) -> None:
        if i == j:
            grown[i][i] += amount
        else:
            grown[i][j] += amount
            grown[j][i] += amount

    add(x, y, -1)
    if kind == "digon":
        # replace the x..y edge by x-u, u=w doubled, w-y
        add(x, u, 1)
        add(u, w, 2)
        add(w, y, 1)
    else:
        # subdivide x..y at u and hang a loop vertex w off u
        add(x, u, 1)
        add(u, y, 1)
        add(u, w, 1)
        grown[w][w] = 1
    return tuple(tuple(row) for row in grown)


def cubic_multigraph_census(v: int) -> list[Matrix]:
    """Connected cubic multigraphs on v vertices, up to isomorphism.

    Simple graphs come from direct adjacency search; every non-simple
    connected cubic multigraph smooths down (digon contraction or loop
    removal) to one on v-2 vertices, so expanding the smaller census
    recovers all of them.
    """
    if v % 2 or v <= 0:
        return []
    if v == 2:
        theta = ((0, 3), (3, 0))
        dumbbell = ((1, 1), (1, 1))
        return [theta, dumbbell]

    def candidates() -> Iterator[Matrix]:
        yield from _simple_cubic_connected(v)
        for smaller in cubic_multigraph_census(v - 2):
            for site in _edge_sites(smaller):
                yield _grow(smaller, site, "digon")
                yield _grow(smaller, site, "lollipop")

    return _dedupe_matrices(candidates())


def map_from_adjacency(matrix: Sequence[Sequence[int]]) -> CombMap:
    """A combinatorial map for a multigraph, rotations in slot order."""
    v = len(matrix)
    slots: list[list[int]] = [[] for _ in range(v)]
    edges = []
    next_label = 0
    for i in range(v):
        for _ in range(matrix[i][i]):
            edges.append((next_label, next_label + 1))
            slots[i] += [next_label, next_label + 1]
            next_label += 2
        for j in range(i + 1, v):
            for _ in range(matrix[i][j]):
                edges.append((next_label, next_label + 1))
                slots[i].append(next_label)
                slots[j].append(next_label + 1)
                next_label += 2
    return CombMap(tuple(tuple(s) for s in slots), tuple(edges))


def cubic_maps(v: int) -> list[CombMap]:
    return [map_from_adjacency(matrix) for matrix in cubic_multigraph_census(v)]


def is_bridgeless(m: CombMap) -> bool:
    return not any(m.is_bridge(e) for e in range(m.edge_count))
