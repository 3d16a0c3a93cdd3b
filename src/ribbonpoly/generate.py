"""Families of combinatorial maps for oracle tests and censuses.

Every connected map with at most seven edges is grown edge by edge and
deduplicated by canonical signature.  Larger instances come from structured
families and a seeded random model.  Cubic multigraphs get their own census:
simple graphs from a normalized adjacency search, the rest grown from the
census two vertices smaller, with isomorphism rejection by a canonical form
of the adjacency matrix.  Each smaller graph grows once per orbit of its
edge sites under the automorphisms that its canonical search found.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from .brauer import _perm_cycles
from .maps import CombMap, _UnionFind

POINT = CombMap(((),), ())


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


def dipole(n: int) -> CombMap:
    """Two vertices joined by n parallel edges."""
    top = tuple(2 * i for i in range(n))
    bottom = tuple(2 * i + 1 for i in range(n))
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


def random_connected_map(rng: random.Random, edge_count: int) -> CombMap:
    """A uniformly random rotation on 2e half-edges, resampled until connected."""
    labels = list(range(2 * edge_count))
    edges = tuple((2 * i, 2 * i + 1) for i in range(edge_count))
    while True:
        perm = labels[:]
        rng.shuffle(perm)
        vertices = tuple(tuple(c) for c in _perm_cycles(perm))
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


Neighbours = list[list[tuple[int, int]]]


def _refine(
    nbrs: Neighbours, lab: list[int], start: list[int], size: list[int], active: set[int]
) -> None:
    """Split an ordered partition in place until it is equitable.

    Cell p is ``lab[p : p + size[p]]``, and vertex x lies in cell ``start[x]``.
    ``nbrs[j]`` lists (4^(m - 1), x) for each neighbour x joined to j by m
    edges.  Each active cell S splits every cell by the summed weight of its
    edges into S, whose base-4 digits count the edges of each multiplicity
    (exactly while there are at most three, as in a cubic graph; more only
    coarsen the split).  Fragments follow in increasing weight, and all but
    the first largest become active, unless the split cell already was
    (Hopcroft's rule).  Only nonzero neighbours are read, and cells are
    picked by position, so the result does not depend on the vertex labels.
    """
    weight = [0] * len(lab)
    while active:
        s = min(active)
        active.remove(s)
        touched = []
        for j in lab[s : s + size[s]]:
            for w, x in nbrs[j]:
                if not weight[x]:
                    touched.append(x)
                weight[x] += w
        for c in sorted({start[x] for x in touched}):
            n = size[c]
            members = sorted(lab[c : c + n], key=weight.__getitem__)
            key = weight[members[0]]
            if key == weight[members[-1]]:
                continue
            lab[c : c + n] = members
            fragments = []
            p = c
            for q in range(c + 1, c + n):
                if weight[lab[q]] != key:
                    fragments.append((p, q - p))
                    p, key = q, weight[lab[q]]
            fragments.append((p, c + n - p))
            for p, m in fragments:
                size[p] = m
                for x in lab[p : p + m]:
                    start[x] = p
            if c in active:
                active.update(p for p, _m in fragments)
            else:
                largest = max(fragments, key=lambda f: f[1])
                active.update(p for p, _m in fragments if p != largest[0])
        for x in touched:
            weight[x] = 0


def _individualized(
    nbrs: Neighbours, lab: list[int], start: list[int], size: list[int], cell: int, w: int
) -> tuple[list[int], list[int], list[int]]:
    """The refined partition with vertex w split off to the front of its cell."""
    lab, start, size = lab[:], start[:], size[:]
    n = size[cell]
    i = lab.index(w, cell)
    lab[i], lab[cell] = lab[cell], w
    size[cell], size[cell + 1] = 1, n - 1
    for x in lab[cell + 1 : cell + n]:
        start[x] = cell + 1
    _refine(nbrs, lab, start, size, {cell})
    return lab, start, size


def canonical_form(
    matrix: Sequence[Sequence[int]],
    automorphisms: list[list[int]] | None = None,
    leaf_forms: set[tuple] | None = None,
) -> tuple | None:
    """A complete isomorphism invariant of a multigraph adjacency matrix.

    Individualization-refinement (McKay, *Practical graph isomorphism*, 1981;
    McKay-Piperno, *Practical graph isomorphism II*, 2014).  The root is the
    equitable refinement of the loop counts; a node individualizes each
    vertex of its first non-singleton cell in turn and refines.  A discrete
    leaf orders the vertices, and its form is the matrix in that order.  The
    result is the least form over the tree, found with automorphism pruning:

    - a leaf whose form equals that of the first or the best leaf gives an
      automorphism, which maps the explored subtree of their deepest common
      ancestor onto the current one, so the search resumes at that ancestor;
    - a child in the orbit of an explored child is skipped, under the
      automorphisms found so far that fix the node's path pointwise, since
      those map the node onto itself.

    Both rules drop only subtrees that an automorphism maps onto explored
    ones, so the least form is still the least over the whole tree.

    The automorphisms the search found are appended to ``automorphisms`` if
    given, as lists ``g`` with ``g[x]`` the image of vertex x.  They generate
    a subgroup of the automorphism group, not always all of it.

    If ``leaf_forms`` is given, every leaf form the search explores is added
    to it, and a search whose first leaf (the leftmost, never pruned) is
    already there stops at once and returns None.  Two matrices are
    isomorphic exactly when their trees have the same set of leaf forms, so
    a hit proves that ``matrix`` is isomorphic to one searched before with
    the same set.  A search that does not stop is unchanged.
    """
    v = len(matrix)
    nbrs = [
        [(4 ** (m - 1), j) for j, m in enumerate(row) if j != i and m] for i, row in enumerate(matrix)
    ]
    # The first and the best leaf so far, as (path, vertex order, form).
    leaves: list[tuple[list[int], list[int], tuple]] = []
    found: list[list[int]] = []

    def search(lab: list[int], start: list[int], size: list[int], path: list[int]) -> int:
        """Explore the node that ``path`` individualizes; return the level to resume at."""
        level = len(path)
        cell = 0
        while cell < v and size[cell] == 1:
            cell += 1
        if cell == v:
            form = tuple([tuple(map(matrix[a].__getitem__, lab)) for a in lab])
            if leaf_forms is not None:
                if not leaves and form in leaf_forms:
                    return -1
                leaf_forms.add(form)
            for seen_path, seen_lab, seen_form in leaves:
                if form == seen_form:
                    gamma = [0] * v
                    for a, b in zip(seen_lab, lab):
                        gamma[a] = b
                    found.append(gamma)
                    common = 0
                    while path[common] == seen_path[common]:
                        common += 1
                    return common
            if not leaves:
                leaves.extend([(path, lab, form)] * 2)
            elif form < leaves[1][2]:
                leaves[1] = (path, lab, form)
            return level - 1
        # Orbits under the automorphisms that fix the path, joined as they are found.
        explored: list[int] = []
        orbits, applied = _UnionFind(v), 0
        for w in lab[cell : cell + size[cell]]:
            if explored:
                for g in found[applied:]:
                    if all(g[x] == x for x in path):
                        for x, y in enumerate(g):
                            orbits.union(x, y)
                applied = len(found)
                root = orbits._find(w)
                if any(orbits._find(u) == root for u in explored):
                    continue
            explored.append(w)
            resume = search(*_individualized(nbrs, lab, start, size, cell, w), path + [w])
            if resume < level:
                return resume
        return level - 1

    lab = sorted(range(v), key=lambda i: matrix[i][i])
    start, size = [0] * v, [0] * v
    for p, x in enumerate(lab):
        same = p and matrix[x][x] == matrix[lab[p - 1]][lab[p - 1]]
        start[x] = start[lab[p - 1]] if same else p
        size[start[x]] += 1
    _refine(nbrs, lab, start, size, {p for p in range(v) if size[p]})
    search(lab, start, size, [])
    if not leaves:
        return None
    if automorphisms is not None:
        automorphisms.extend(found)
    return (v,) + leaves[1][2]


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


def _orbit_sites(matrix: Matrix, automorphisms: list[list[int]]) -> list[tuple[int, int]]:
    """The first edge site, in ``_edge_sites`` order, of each orbit under ``automorphisms``."""
    sites = _edge_sites(matrix)
    index = {site: k for k, site in enumerate(sites)}
    orbits = _UnionFind(len(sites))
    for g in automorphisms:
        for k, (x, y) in enumerate(sites):
            orbits.union(k, index[min(g[x], g[y]), max(g[x], g[y])])
    first: dict[int, tuple[int, int]] = {}
    for k, site in enumerate(sites):
        first.setdefault(orbits._find(k), site)
    return list(first.values())


def _cubic_classes(v: int) -> list[tuple[Matrix, list[list[int]]]]:
    """The census on v >= 2 vertices, each class with the automorphisms its search found.

    A class is kept as its first candidate.  A smaller class grows only at the
    first site of each orbit of its sites: ``_grow`` is symmetric in the two
    ends of a site, so a later site of an orbit grows a candidate isomorphic
    to one of the same kind earlier in the stream, which would not be kept.
    All searches of a level share one set of leaf forms, so a repeat whose
    first leaf some earlier search reached stops there; any other repeat
    still meets its class by form.
    """
    if v == 2:
        theta = ((0, 3), (3, 0))
        dumbbell = ((1, 1), (1, 1))
        return [(theta, []), (dumbbell, [])]

    def candidates() -> Iterator[Matrix]:
        yield from _simple_cubic_connected(v)
        for smaller, automorphisms in _cubic_classes(v - 2):
            for site in _orbit_sites(smaller, automorphisms):
                yield _grow(smaller, site, "digon")
                yield _grow(smaller, site, "lollipop")

    classes: dict[tuple, tuple[Matrix, list[list[int]]]] = {}
    leaf_forms: set[tuple] = set()
    for matrix in candidates():
        automorphisms: list[list[int]] = []
        form = canonical_form(matrix, automorphisms, leaf_forms)
        if form is not None:
            classes.setdefault(form, (matrix, automorphisms))
    return list(classes.values())


def cubic_multigraph_census(v: int) -> list[Matrix]:
    """Connected cubic multigraphs on v vertices, up to isomorphism.

    Simple graphs come from direct adjacency search; every non-simple
    connected cubic multigraph smooths down (digon contraction or loop
    removal) to one on v-2 vertices, so expanding the smaller census
    recovers all of them.
    """
    if v % 2 or v <= 0:
        return []
    return [matrix for matrix, _automorphisms in _cubic_classes(v)]


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
    return not m.bridges
