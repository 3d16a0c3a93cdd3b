"""Combinatorial maps: graphs with a rotation system in an oriented surface.

A map is stored as half-edges ``0 .. 2m-1``.  Each vertex is the cyclic,
counterclockwise sequence of its half-edges (an empty sequence is an isolated
vertex, which is kept explicitly).  Each edge pairs two distinct half-edges.
Faces are the orbits of ``h -> sigma(alpha(h))``, where ``sigma`` is the
counterclockwise successor at a vertex and ``alpha`` swaps the two half-edges
of every edge.

Edges may carry a half-twist parity mark.  Twisted edges change the face
traversal (the walk switches sides when crossing them), so faces are counted
on the orientation double cover, for every map.

Every surgery that removes vertices and fuses the strands through their
half-edges goes through ``resolve_strands``: the connect sums here and in
``penrose`` by ``_splice``, and the crossing resolutions of ``spatial``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence


class InvalidMapError(ValueError):
    """Raised when half-edge data does not describe a map."""


class ConnectSumError(ValueError):
    """Raised when a connect sum would create a vertex-free circle."""


def diagnose(
    vertices: Sequence[Sequence[int]],
    edges: Sequence[Sequence[int]],
    vertex_signs: Optional[Sequence[int]] = None,
    edge_twists: Optional[Iterable[int]] = None,
) -> list[str]:
    """Check raw map data; return a list of problems (empty when valid)."""
    problems: list[str] = []
    seen: dict[int, int] = {}
    for v_index, cycle in enumerate(vertices):
        for h in cycle:
            if not isinstance(h, int) or h < 0:
                problems.append(f"vertex {v_index}: half-edge {h!r} is not a non-negative integer")
                continue
            if h in seen:
                problems.append(f"half-edge {h} appears at vertices {seen[h]} and {v_index}")
            seen[h] = v_index
    total = len(seen)
    expected = set(range(total))
    if set(seen) != expected:
        problems.append(f"half-edge labels must be exactly 0..{total - 1}")
    if total % 2 != 0:
        problems.append("odd number of half-edges")
    matched: dict[int, int] = {}
    for e_index, pair in enumerate(edges):
        if len(pair) != 2:
            problems.append(f"edge {e_index} must pair exactly two half-edges")
            continue
        a, b = pair
        if a == b:
            problems.append(f"edge {e_index} pairs half-edge {a} with itself")
            continue
        for h in (a, b):
            if h not in seen:
                problems.append(f"edge {e_index} uses unknown half-edge {h}")
            elif h in matched:
                problems.append(f"half-edge {h} used by edges {matched[h]} and {e_index}")
            else:
                matched[h] = e_index
    if not problems and len(matched) != total:
        missing = sorted(set(seen) - set(matched))
        problems.append(f"half-edges {missing} belong to no edge")
    if vertex_signs is not None:
        if len(vertex_signs) != len(vertices):
            problems.append("vertex_signs length differs from vertex count")
        elif any(s not in (1, -1) for s in vertex_signs):
            problems.append("vertex signs must be +1 or -1")
    if edge_twists is not None:
        for t in edge_twists:
            if not isinstance(t, int) or t < 0 or t >= len(edges):
                problems.append(f"twist index {t!r} out of range")
    return problems


@dataclass(frozen=True)
class EulerData:
    vertices: int
    edges: int
    components: int
    first_betti: int
    faces: int
    genus: int


@dataclass(frozen=True)
class CombMap:
    """Immutable combinatorial map.  Construction canonicalizes the data."""

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    vertex_signs: Optional[tuple[int, ...]] = None
    edge_twists: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        problems = diagnose(self.vertices, self.edges, self.vertex_signs, self.edge_twists)
        if problems:
            raise InvalidMapError("; ".join(problems))
        vertices, edges, signs, twists = _canonicalize(
            self.vertices, self.edges, self.vertex_signs, self.edge_twists
        )
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "vertex_signs", signs)
        object.__setattr__(self, "edge_twists", twists)

    # -- basic views ---------------------------------------------------------

    @property
    def half_edge_count(self) -> int:
        return 2 * len(self.edges)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def sigma(self) -> tuple[int, ...]:
        """Counterclockwise successor of each half-edge."""
        out = [0] * self.half_edge_count
        for cycle in self.vertices:
            size = len(cycle)
            for i, h in enumerate(cycle):
                out[h] = cycle[(i + 1) % size]
        return tuple(out)

    @cached_property
    def sigma_inv(self) -> tuple[int, ...]:
        out = [0] * self.half_edge_count
        for h, nxt in enumerate(self.sigma):
            out[nxt] = h
        return tuple(out)

    @cached_property
    def alpha(self) -> tuple[int, ...]:
        out = [0] * self.half_edge_count
        for a, b in self.edges:
            out[a] = b
            out[b] = a
        return tuple(out)

    @cached_property
    def vertex_of(self) -> tuple[int, ...]:
        out = [0] * self.half_edge_count
        for index, cycle in enumerate(self.vertices):
            for h in cycle:
                out[h] = index
        return tuple(out)

    @cached_property
    def edge_of(self) -> tuple[int, ...]:
        out = [0] * self.half_edge_count
        for index, (a, b) in enumerate(self.edges):
            out[a] = index
            out[b] = index
        return tuple(out)

    def degree(self, v: int) -> int:
        return len(self.vertices[v])

    def is_loop(self, e: int) -> bool:
        a, b = self.edges[e]
        return self.vertex_of[a] == self.vertex_of[b]

    def is_twisted(self, e: int) -> bool:
        return e in self.edge_twists

    def edge_index(self, pair: Iterable[int]) -> int:
        key = tuple(sorted(pair))
        for index, edge in enumerate(self.edges):
            if edge == key:
                return index
        raise KeyError(f"no edge {key}")

    # -- surface data ----------------------------------------------------------

    def _vertex_roots(self, skip: int = -1) -> list[int]:
        """Union-find root of each vertex over every edge except ``skip``."""
        parent = list(range(len(self.vertices)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for index, (a, b) in enumerate(self.edges):
            if index != skip:
                ra, rb = find(self.vertex_of[a]), find(self.vertex_of[b])
                if ra != rb:
                    parent[ra] = rb
        return [find(i) for i in range(len(self.vertices))]

    @cached_property
    def component_count(self) -> int:
        return len(set(self._vertex_roots()))

    @cached_property
    def face_count(self) -> int:
        """Boundary components: orbits of the orientation double cover, halved."""
        twisted = [self.edge_of[h] in self.edge_twists for h in range(self.half_edge_count)]
        seen = [[False, False] for _ in range(self.half_edge_count)]
        orbits = 0
        for start_h in range(self.half_edge_count):
            for start_r in (0, 1):
                if seen[start_h][start_r]:
                    continue
                orbits += 1
                h, r = start_h, start_r
                while not seen[h][r]:
                    seen[h][r] = True
                    h2 = self.alpha[h]
                    r = r ^ (1 if twisted[h] else 0)
                    h = self.sigma[h2] if r == 0 else self.sigma_inv[h2]
        assert orbits % 2 == 0
        isolated = sum(1 for cycle in self.vertices if not cycle)
        return orbits // 2 + isolated

    def euler_data(self) -> EulerData:
        v = len(self.vertices)
        e = len(self.edges)
        b0 = self.component_count
        b1 = e - v + b0
        faces = self.face_count
        doubled = 2 * b0 + e - v - faces
        if doubled % 2 != 0:
            raise ValueError("map is non-orientable (odd Euler defect); genus undefined")
        genus = doubled // 2
        return EulerData(v, e, b0, b1, faces, genus)

    def genus(self) -> int:
        return self.euler_data().genus

    # -- local modifications ---------------------------------------------------

    def _twisted_pairs(self) -> set[frozenset[int]]:
        return {frozenset(self.edges[t]) for t in self.edge_twists}

    def delete_edge(self, e: int) -> "CombMap":
        a, b = self.edges[e]
        gone = {a, b}
        vertices = [[h for h in cycle if h not in gone] for cycle in self.vertices]
        edges = [pair for i, pair in enumerate(self.edges) if i != e]
        twisted = {frozenset(self.edges[t]) for t in self.edge_twists if t != e}
        return _rebuild(vertices, edges, self.vertex_signs, twisted)

    def vertex_flip(self, v: int) -> "CombMap":
        """Reverse the rotation at one vertex (twist marks untouched)."""
        vertices = [
            tuple(reversed(cycle)) if i == v else cycle for i, cycle in enumerate(self.vertices)
        ]
        return CombMap(tuple(vertices), self.edges, self.vertex_signs, self.edge_twists)

    def flip_subset(self, subset: Iterable[int]) -> "CombMap":
        chosen = set(subset)
        vertices = [
            tuple(reversed(cycle)) if i in chosen else cycle
            for i, cycle in enumerate(self.vertices)
        ]
        return CombMap(tuple(vertices), self.edges, self.vertex_signs, self.edge_twists)

    def toggle_twist(self, e: int) -> "CombMap":
        twists = set(self.edge_twists) ^ {e}
        return CombMap(self.vertices, self.edges, self.vertex_signs, frozenset(twists))

    def _flip_normalized(self, v: int) -> "CombMap":
        """Flip a vertex disk: reverse rotation and toggle all incident twists."""
        vertices = [
            tuple(reversed(cycle)) if i == v else cycle for i, cycle in enumerate(self.vertices)
        ]
        twists = set(self.edge_twists)
        for h in self.vertices[v]:
            twists ^= {self.edge_of[h]}
        return CombMap(tuple(vertices), self.edges, self.vertex_signs, frozenset(twists))

    def _cycle_from(self, h: int) -> tuple[int, ...]:
        cycle = self.vertices[self.vertex_of[h]]
        k = cycle.index(h)
        return cycle[k:] + cycle[:k]

    def partial_dual(self, e: int) -> "CombMap":
        """Partial dual at one edge.

        For an untwisted edge this exchanges the loop/non-loop status of ``e``
        (joining the endpoints or splitting the vertex).  A twisted loop stays
        a twisted loop: the segment after the second end is reversed and its
        edges pick up twist toggles.
        """
        a, b = self.edges[e]
        twisted = e in self.edge_twists
        if twisted and not self.is_loop(e):
            return self._flip_normalized(self.vertex_of[b]).partial_dual(e)
        twisted_pairs = self._twisted_pairs()
        if not self.is_loop(e):
            # join the two endpoint vertices into (a, u-rest, b, v-rest)
            u_cycle = self._cycle_from(a)
            v_cycle = self._cycle_from(b)
            merged = (a,) + u_cycle[1:] + (b,) + v_cycle[1:]
            keep = [
                cycle
                for i, cycle in enumerate(self.vertices)
                if i not in (self.vertex_of[a], self.vertex_of[b])
            ]
            vertices = [list(merged)] + [list(c) for c in keep]
            return _rebuild(vertices, list(self.edges), None, twisted_pairs)
        cycle = self._cycle_from(a)
        cut = cycle.index(b)
        x_part = cycle[1:cut]
        y_part = cycle[cut + 1 :]
        keep = [c for i, c in enumerate(self.vertices) if i != self.vertex_of[a]]
        if not twisted:
            vertices = [[a] + list(x_part), [b] + list(y_part)] + [list(c) for c in keep]
            return _rebuild(vertices, list(self.edges), None, twisted_pairs)
        # twisted loop: stay one vertex, reverse the y-segment, toggle its twists
        for h in y_part:
            twisted_pairs ^= {frozenset(self.edges[self.edge_of[h]])}
        merged2 = [a] + list(x_part) + [b] + list(reversed(y_part))
        vertices = [merged2] + [list(c) for c in keep]
        return _rebuild(vertices, list(self.edges), None, twisted_pairs)

    def contract(self, e: int) -> "CombMap":
        """Contract an edge: the partial dual at ``e`` with ``e`` deleted."""
        dual = self.partial_dual(e)
        # partial_dual preserves edge half-edge pairs, so e keeps its pair
        pair = self.edges[e]
        return dual.delete_edge(dual.edge_index(pair))

    def geometric_dual(self) -> "CombMap":
        if self.edge_twists:
            raise ValueError("geometric dual is defined here for twist-free maps only")
        seen = [False] * self.half_edge_count
        cycles: list[list[int]] = []
        for start in range(self.half_edge_count):
            if seen[start]:
                continue
            orbit = []
            h = start
            while not seen[h]:
                seen[h] = True
                orbit.append(h)
                h = self.sigma[self.alpha[h]]
            cycles.append(orbit)
        isolated = [[] for cycle in self.vertices if not cycle]
        return _rebuild(cycles + isolated, list(self.edges), None, set())

    def subdivide(self, e: int) -> "CombMap":
        a, b = self.edges[e]
        c, d = self.half_edge_count, self.half_edge_count + 1
        vertices = [list(cycle) for cycle in self.vertices] + [[c, d]]
        edges = [pair for i, pair in enumerate(self.edges) if i != e] + [(a, c), (d, b)]
        twisted = {frozenset(self.edges[t]) for t in self.edge_twists if t != e}
        if e in self.edge_twists:
            twisted.add(frozenset((a, c)))
        signs = None
        if self.vertex_signs is not None:
            signs = self.vertex_signs + (1,)
        return _rebuild(vertices, edges, signs, twisted)

    def disjoint_union(self, other: "CombMap") -> "CombMap":
        shift = self.half_edge_count
        vertices = [list(c) for c in self.vertices]
        vertices += [[h + shift for h in c] for c in other.vertices]
        edges = list(self.edges) + [(a + shift, b + shift) for a, b in other.edges]
        twisted = self._twisted_pairs()
        for t in other.edge_twists:
            a, b = other.edges[t]
            twisted.add(frozenset((a + shift, b + shift)))
        signs = None
        if self.vertex_signs is not None or other.vertex_signs is not None:
            left = self.vertex_signs or tuple([1] * len(self.vertices))
            right = other.vertex_signs or tuple([1] * len(other.vertices))
            signs = left + right
        return _rebuild(vertices, edges, signs, twisted)

    # -- edge classification ---------------------------------------------------

    def is_bridge(self, e: int) -> bool:
        """True when the other edges leave the two ends of ``e`` unjoined."""
        roots = self._vertex_roots(skip=e)
        a, b = self.edges[e]
        return roots[self.vertex_of[a]] != roots[self.vertex_of[b]]

    def is_coloop(self, e: int) -> bool:
        """True when deleting the edge increases the face count."""
        deleted = self.delete_edge(e)
        return deleted.face_count == self.face_count + 1

    def interlaced(self, e: int, f: int) -> bool:
        """Whether two distinct coloops are interlaced.

        Interlaced means ``f`` stops being a coloop once ``e`` is deleted.
        """
        if e == f:
            raise ValueError("interlacement needs two distinct edges")
        if not (self.is_coloop(e) and self.is_coloop(f)):
            raise ValueError("interlacement is defined for coloops")
        deleted = self.delete_edge(e)
        # Deletion compresses half-edge labels; track f's pair through it.
        a, b = self.edges[e]
        fa, fb = (h - (h > a) - (h > b) for h in self.edges[f])
        return not deleted.is_coloop(deleted.edge_index((fa, fb)))

    # -- enumeration -------------------------------------------------------------

    def flippable_vertices(self) -> tuple[int, ...]:
        return tuple(i for i, cycle in enumerate(self.vertices) if len(cycle) >= 3)

    def rotation_variants(self) -> Iterator[tuple[frozenset[int], "CombMap"]]:
        """All vertex-flip combinations; degree <= 2 vertices are no-ops."""
        flippable = self.flippable_vertices()
        for mask in range(1 << len(flippable)):
            subset = frozenset(flippable[i] for i in range(len(flippable)) if mask >> i & 1)
            yield subset, self.flip_subset(subset)

    # -- isomorphism ---------------------------------------------------------------

    @cached_property
    def signature(self) -> tuple:
        """Canonical label-independent code; equal iff maps are isomorphic.

        Isomorphism preserves rotation direction, twist marks, and vertex
        signs.  See ``_canonical_code``.
        """
        n = self.half_edge_count
        signs = self.vertex_signs
        twisted = [1 if self.edge_of[h] in self.edge_twists else 0 for h in range(n)]
        sign_of = [0] * n if signs is None else [signs[v] for v in self.vertex_of]
        isolated = [
            0 if signs is None else signs[i] for i, cycle in enumerate(self.vertices) if not cycle
        ]
        return _canonical_code(self.sigma, self.alpha, twisted, sign_of, isolated)

    def isomorphic(self, other: "CombMap") -> bool:
        return self.signature == other.signature


# ---------------------------------------------------------------------------
# Canonical code, canonicalization and rebuilding helpers.
# ---------------------------------------------------------------------------


def _canonical_code(
    sigma: Sequence[int],
    alpha: Sequence[int],
    twisted: Sequence[int],
    sign_of: Sequence[int],
    isolated: Iterable[int],
) -> tuple:
    """The canonical code of a map given by half-edge arrays.

    ``twisted[h]`` is the twist bit of h's edge and ``sign_of[h]`` the sign
    of h's vertex (0 when unsigned); ``isolated`` holds the signs of the
    isolated vertices.  Each connected component is encoded by the minimal
    breadth-first relabeling code over all starting half-edges.
    """
    n = len(sigma)

    def code_from(start: int, best: Optional[list]) -> tuple[Optional[list], list[int]]:
        # Entry i is final once order[i] is processed: both of its
        # neighbours have labels by then.  So the code is compared with
        # ``best`` as it is emitted, and dropped as soon as it is larger; the
        # prefix equal to ``best`` is copied from it once the code is smaller.
        # The breadth-first order visits exactly the component of ``start``.
        label = [-1] * n
        label[start] = 0
        order = [start]
        count = 1
        out = []
        smaller = best is None
        for i, h in enumerate(order):
            s, a = sigma[h], alpha[h]
            ls = label[s]
            if ls < 0:
                ls = label[s] = count
                count += 1
                order.append(s)
            la = label[a]
            if la < 0:
                la = label[a] = count
                count += 1
                order.append(a)
            entry = (ls, la, twisted[h], sign_of[h])
            if not smaller:
                if entry > best[i]:
                    return None, order
                if entry == best[i]:
                    continue
                smaller = True
                out = best[:i]
            out.append(entry)
        return (out if smaller else None), order

    covered = [False] * n
    comp_codes = []
    for h0 in range(n):
        if covered[h0]:
            continue
        best, members = code_from(h0, None)
        for h in members:
            covered[h] = True
        for start in members[1:]:
            best = code_from(start, best)[0] or best
        comp_codes.append(tuple(best))
    comp_codes.sort()
    return (tuple(comp_codes), tuple(sorted(isolated)))


def _canonicalize(
    vertices: Sequence[Sequence[int]],
    edges: Sequence[Sequence[int]],
    signs: Optional[Sequence[int]],
    twists: Iterable[int],
) -> tuple:
    twisted_pairs = {frozenset(edges[t]) for t in twists}
    rotated: list[tuple[int, ...]] = []
    for cycle in vertices:
        cycle = tuple(cycle)
        if cycle:
            k = cycle.index(min(cycle))
            cycle = cycle[k:] + cycle[:k]
        rotated.append(cycle)
    paired = list(zip(rotated, signs if signs is not None else [None] * len(rotated)))
    nonempty = sorted((p for p in paired if p[0]), key=lambda p: p[0][0])
    empty = sorted((p for p in paired if not p[0]), key=lambda p: (p[1] is None, p[1]))
    ordered = nonempty + empty
    new_vertices = tuple(p[0] for p in ordered)
    new_signs = None if signs is None else tuple(p[1] for p in ordered)
    norm_edges = sorted(tuple(sorted(pair)) for pair in edges)
    new_twists = frozenset(
        i for i, pair in enumerate(norm_edges) if frozenset(pair) in twisted_pairs
    )
    return new_vertices, tuple(norm_edges), new_signs, new_twists


def _rebuild(
    vertex_lists: Sequence[Sequence[int]],
    edge_pairs: Sequence[Sequence[int]],
    signs: Optional[Sequence[int]],
    twisted_pairs: set[frozenset[int]],
) -> CombMap:
    """Construct a map from sparse half-edge labels, compressing to 0..2m-1."""
    survivors = sorted(h for cycle in vertex_lists for h in cycle)
    rank = {h: i for i, h in enumerate(survivors)}
    vertices = tuple(tuple(rank[h] for h in cycle) for cycle in vertex_lists)
    edges = [tuple(sorted((rank[a], rank[b]))) for a, b in edge_pairs]
    remapped = _remap(twisted_pairs, rank)
    twist_indices = [i for i, pair in enumerate(edges) if frozenset(pair) in remapped]
    return CombMap(
        vertices,
        tuple(edges),
        None if signs is None else tuple(signs),
        frozenset(twist_indices),
    )


def _remap(pairs: set[frozenset[int]], rank: dict[int, int]) -> set[frozenset[int]]:
    out = set()
    for pair in pairs:
        mapped = frozenset(rank[h] for h in pair if h in rank)
        if len(mapped) == 2:
            out.add(mapped)
    return out


# ---------------------------------------------------------------------------
# Strand splices and connect sums.
# ---------------------------------------------------------------------------


def resolve_strands(
    alpha: dict[int, int],
    junction: dict[int, int],
    twisted_halves: set[int],
) -> tuple[list[tuple[int, int, int]], int]:
    """Fuse strands through deleted half-edges.

    ``junction`` pairs up the deleted half-edges.  Returns fused edges as
    ``(end1, end2, twist_parity)`` over surviving half-edges, plus the number
    of closed circles that have no surviving half-edge.
    """
    deleted = set(junction)
    visited: set[int] = set()
    fused: list[tuple[int, int, int]] = []
    circles = 0

    def walk(start: int) -> tuple[int, int, bool]:
        """Follow alpha/junction links from a deleted half-edge."""
        parity = 0
        h = start
        while True:
            visited.add(h)
            out = alpha[h]
            parity ^= 1 if h in twisted_halves or out in twisted_halves else 0
            if out not in deleted:
                return out, parity, False
            visited.add(out)
            nxt = junction[out]
            if nxt == start:
                return -1, parity, True
            h = nxt

    for h in sorted(deleted):
        partner = junction[h]
        if h in visited or partner in visited:
            continue
        end1, parity1, closed1 = walk(h)
        if closed1:
            circles += 1
            continue
        end2, parity2, closed2 = walk(partner)
        if closed2:
            circles += 1
            continue
        fused.append((end1, end2, parity1 ^ parity2))
    return fused, circles


def edge_connect_sum(
    m1: CombMap,
    e1: tuple[int, int],
    m2: CombMap,
    e2: tuple[int, int],
) -> CombMap:
    """Connect sum along two oriented edges.

    The designated edges are cut and the four stubs are rejoined first-to-first
    and second-to-second, so the result has ``e1 + e2`` edges.
    """
    shift = m1.half_edge_count
    idx1 = m1.edge_index(e1)
    idx2 = m2.edge_index(e2)
    union = m1.disjoint_union(m2)
    a1, a2 = e1
    b1, b2 = (h + shift for h in e2)
    pairs = [tuple(sorted((a1, a2))), tuple(sorted((b1, b2)))]
    edges = [pair for pair in union.edges if tuple(pair) not in pairs]
    edges += [(a1, b1), (a2, b2)]
    twisted = union._twisted_pairs() - {frozenset(p) for p in pairs}
    if m1.is_twisted(idx1):
        twisted.add(frozenset((a1, b1)))
    if m2.is_twisted(idx2):
        twisted.add(frozenset((a2, b2)))
    vertices = [list(c) for c in union.vertices]
    return _rebuild(vertices, edges, None, twisted)


def vertex_connect_sum(
    m1: CombMap,
    v1: int,
    h1: int,
    m2: CombMap,
    v2: int,
    h2: int,
) -> CombMap:
    """Connect sum along two trivalent vertices with designated half-edges.

    The two vertices are removed and their stubs fused: the designated
    half-edges to each other, and the remaining legs in reversed rotation
    order (the planar pairing; flip one vertex first for the other one).
    """
    if m1.degree(v1) != 3 or m2.degree(v2) != 3:
        raise ConnectSumError("vertex connect sum needs trivalent vertices")
    if m1.vertex_of[h1] != v1 or m2.vertex_of[h2] != v2:
        raise ConnectSumError("designated half-edge not at the designated vertex")
    shift = m1.half_edge_count
    ha, p, q = m1._cycle_from(h1)
    hb, r, s = (h + shift for h in m2._cycle_from(h2))
    junction = {}
    for x, y in ((ha, hb), (p, s), (q, r)):
        junction[x] = y
        junction[y] = x
    return _splice(m1.disjoint_union(m2), junction, None)


def _splice(union: CombMap, junction: dict[int, int], signs: Optional[Sequence[int]]) -> CombMap:
    """Remove the half-edges that ``junction`` pairs up and fuse the strands through them.

    Each vertex whose half-edges all go is dropped, with its entry of
    ``signs``; the result is unsigned when ``signs`` is None.  Untouched
    edges keep their twists and each fused edge takes its strand's parity.
    """
    twisted_halves = {h for t in union.edge_twists for h in union.edges[t]}
    fused, circles = resolve_strands(dict(enumerate(union.alpha)), junction, twisted_halves)
    if circles:
        raise ConnectSumError("connect sum would produce a vertex-free circle")
    kept = [i for i, c in enumerate(union.vertices) if not (c and set(c) <= junction.keys())]
    kept_signs = None if signs is None else [signs[i] for i in kept]
    edges = [(a, b) for a, b in union.edges if a not in junction and b not in junction]
    twisted = union._twisted_pairs()
    for end1, end2, parity in fused:
        edges.append((end1, end2))
        if parity:
            twisted.add(frozenset((end1, end2)))
    return _rebuild([union.vertices[i] for i in kept], edges, kept_signs, twisted)
