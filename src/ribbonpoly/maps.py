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
Surgeries pass edges as ``(end, end, twisted)`` triples, the format of the
fused edges, to ``_rebuild``; it and ``CombMap(...)`` share one canonical
order, ``_settle``, and only ``CombMap(...)``, which takes outside data, runs
``diagnose``.
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


class _UnionFind:
    """Union by size without path compression, so unions undo in reverse order."""

    __slots__ = ("parent", "size", "components")

    def __init__(self, count: int) -> None:
        self.parent = list(range(count))
        self.size = [1] * count
        self.components = count

    def _find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> int:
        """Join the classes of x and y; return the absorbed root, or -1 if already joined."""
        x, y = self._find(x), self._find(y)
        if x == y:
            return -1
        if self.size[x] > self.size[y]:
            x, y = y, x
        self.parent[x] = y
        self.size[y] += self.size[x]
        self.components -= 1
        return x

    def undo(self, root: int) -> None:
        """Reverse the latest union still in force, given the root it returned."""
        if root < 0:
            return
        top = self.parent[root]
        self.parent[root] = root
        self.size[top] -= self.size[root]
        self.components += 1


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
        _settle(self, self.vertices, self._marked_edges(), self.vertex_signs)

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

    @cached_property
    def component_count(self) -> int:
        forest = _UnionFind(len(self.vertices))
        vertex_of = self.vertex_of
        for a, b in self.edges:
            forest.union(vertex_of[a], vertex_of[b])
        return forest.components

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

    def _marked_edges(self) -> list[tuple[int, int, bool]]:
        """Each edge as ``(end, end, twisted)``, the edge format of the surgeries."""
        twists = self.edge_twists
        return [(a, b, i in twists) for i, (a, b) in enumerate(self.edges)]

    def delete_edge(self, e: int) -> "CombMap":
        _check_index(e, self.edge_count)
        a, b = self.edges[e]
        vertices = [[h for h in cycle if h != a and h != b] for cycle in self.vertices]
        edges = [edge for i, edge in enumerate(self._marked_edges()) if i != e]
        return _rebuild(vertices, edges, self.vertex_signs)

    def vertex_flip(self, v: int) -> "CombMap":
        """Reverse the rotation at one vertex (twist marks untouched)."""
        return self.flip_subset((v,))

    def flip_subset(self, subset: Iterable[int]) -> "CombMap":
        chosen = set(subset)
        for v in chosen:
            _check_index(v, self.vertex_count)
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
        _check_index(e, self.edge_count)
        a, b = self.edges[e]
        twisted = e in self.edge_twists
        if twisted and not self.is_loop(e):
            return self._flip_normalized(self.vertex_of[b]).partial_dual(e)
        edges = self._marked_edges()
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
            return _rebuild([merged] + keep, edges, None)
        cycle = self._cycle_from(a)
        cut = cycle.index(b)
        x_part = cycle[1:cut]
        y_part = cycle[cut + 1 :]
        keep = [c for i, c in enumerate(self.vertices) if i != self.vertex_of[a]]
        if not twisted:
            return _rebuild([(a,) + x_part, (b,) + y_part] + keep, edges, None)
        # twisted loop: stay one vertex, reverse the y-segment, toggle its twists
        for h in y_part:
            x, y, mark = edges[self.edge_of[h]]
            edges[self.edge_of[h]] = (x, y, not mark)
        return _rebuild([(a,) + x_part + (b,) + y_part[::-1]] + keep, edges, None)

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
        return _rebuild(cycles + isolated, [(a, b, False) for a, b in self.edges], None)

    def subdivide(self, e: int) -> "CombMap":
        _check_index(e, self.edge_count)
        edges = self._marked_edges()
        a, b, twisted = edges.pop(e)
        c, d = self.half_edge_count, self.half_edge_count + 1
        vertices = [list(cycle) for cycle in self.vertices] + [[c, d]]
        edges += [(a, c, twisted), (d, b, False)]
        signs = None if self.vertex_signs is None else self.vertex_signs + (1,)
        return _rebuild(vertices, edges, signs)

    def disjoint_union(self, other: "CombMap") -> "CombMap":
        shift = self.half_edge_count
        vertices = list(self.vertices) + [[h + shift for h in c] for c in other.vertices]
        edges = self._marked_edges()
        edges += [(a + shift, b + shift, mark) for a, b, mark in other._marked_edges()]
        signs = None
        if self.vertex_signs is not None or other.vertex_signs is not None:
            left = self.vertex_signs or tuple([1] * len(self.vertices))
            right = other.vertex_signs or tuple([1] * len(other.vertices))
            signs = left + right
        return _rebuild(vertices, edges, signs)

    # -- edge classification ---------------------------------------------------

    @cached_property
    def bridges(self) -> frozenset[int]:
        """The edges whose deletion adds a component, from one DFS low-point pass.

        Tarjan (1974): a tree edge into x is a bridge when no edge from the
        subtree of x reaches above x.  The walk skips only the edge id it came
        in by, so a parallel edge closes a cycle, and a loop is never a bridge.
        """
        vertex_of, edge_of, alpha = self.vertex_of, self.edge_of, self.alpha
        order = [0] * len(self.vertices)
        low = [0] * len(self.vertices)
        found = []
        count = 0
        for root in range(len(self.vertices)):
            if order[root]:
                continue
            count += 1
            order[root] = low[root] = count
            stack = [(root, -1, iter(self.vertices[root]))]
            while stack:
                x, via, rest = stack[-1]
                for h in rest:
                    e = edge_of[h]
                    if e == via:
                        continue
                    y = vertex_of[alpha[h]]
                    if not order[y]:
                        count += 1
                        order[y] = low[y] = count
                        stack.append((y, e, iter(self.vertices[y])))
                        break
                    if order[y] < low[x]:
                        low[x] = order[y]
                else:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        if low[x] < low[parent]:
                            low[parent] = low[x]
                        elif low[x] > order[parent]:
                            found.append(via)
        return frozenset(found)

    def is_bridge(self, e: int) -> bool:
        """True when the other edges leave the two ends of ``e`` unjoined."""
        _check_index(e, self.edge_count)
        return e in self.bridges

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

    # -- the plan of the frontier sweep ------------------------------------------

    @cached_property
    def sweep_plan(self) -> tuple[tuple[int, ...], int, int]:
        """Vertex order of ``brauer._sweep``, its width and its state bound,
        planned once per map for every sweep given no order.

        From each start vertex a greedy order places next the vertex that
        leaves the fewest open half-edges, ties going to the one next to the
        most recently placed vertex and then to the smallest label: the least
        rank, an int of growth then recency then label, whose low digit is
        the label.  After step i, w_i half-edges are open, and a ``_Pairings``
        state pairs their 2 w_i points: at most (2 w_i - 1)!! states.  The
        order with the least sum of these bounds is kept, ties going to the
        smaller start; a start is dropped once its running sum, of terms
        >= 1, reaches the best finished one.  The width w is the largest w_i,
        and the state bound is (2w - 1)!!.  ``_Partitions`` states partition
        the w_i open half-edges: at most Bell(w).
        """
        count = len(self.vertices)
        vertex_of, alpha = self.vertex_of, self.alpha
        # the neighbour across each non-loop half-edge, and the open half-edges
        # that placing v first would add
        neighbours = [
            [w for h in cycle if (w := vertex_of[alpha[h]]) != v] for v, cycle in enumerate(self.vertices)
        ]
        growth0 = [len(around) for around in neighbours]
        bound = [1]  # bound[w] = (2w - 1)!!, the pairings of 2w points
        for w in range(1, sum(growth0) + 1):
            bound.append(bound[-1] * (2 * w - 1))
        # rank = growth * stride + (count - 1 - the last step that touched v) * count + v,
        # where a vertex no step has touched takes count for the middle digit
        stride = count * (count + 1)
        rank0 = {v: g * stride + count * count + v for v, g in enumerate(growth0)}
        best_cost, best_width, best_order = 0, 0, []
        for start in range(count):
            growth, rank = growth0[:], rank0.copy()  # rank holds the unplaced vertices
            order: list[int] = []
            open_count = width = cost = 0
            v = start
            for step in range(count):
                if step:
                    v = min(rank.values()) % count
                del rank[v]
                order.append(v)
                open_count += growth[v]
                width = max(width, open_count)
                cost += bound[open_count]
                if start and cost >= best_cost:
                    break
                recent = (count - 1 - step) * count
                for w in neighbours[v]:
                    if w in rank:
                        growth[w] -= 2
                        rank[w] = growth[w] * stride + recent + w
            else:
                best_cost, best_width, best_order = cost, width, order
        return tuple(best_order), best_width, bound[best_width]

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
        signs.  The code is ``_canonical_code`` of the kernel form, tried from
        every half-edge, with the twists and signs as decorations when there
        are any; the isolated vertices add their signs (0 when unsigned).
        """
        sigma, _isolated = _kernel(self)
        signs, twists = self.vertex_signs, self.edge_twists
        decoration = None
        if twists or signs is not None:
            # 3 * twist + sign + 1 tells every (twist, sign) pair apart; sign 0 is unsigned
            sign_of = [0] * len(sigma) if signs is None else [signs[v] for v in self.vertex_of]
            ends = self.edges
            decoration = [
                3 * (x >> 1 in twists) + sign_of[ends[x >> 1][x & 1]] + 1 for x in range(len(sigma))
            ]
        isolated = [0 if signs is None else signs[i] for i, c in enumerate(self.vertices) if not c]
        return _canonical_code(sigma, False, decoration), tuple(sorted(isolated))

    def isomorphic(self, other: "CombMap") -> bool:
        return self.signature == other.signature


# ---------------------------------------------------------------------------
# The kernel form and its canonical code; settling and rebuilding.
# ---------------------------------------------------------------------------


def _kernel(m: CombMap) -> tuple[list[int], int]:
    """The rotation of ``m`` with edge k relabeled (2k, 2k + 1), and its isolated-vertex count.

    S, flow and the chromatic polynomial recurse on this pair, where alpha
    is h -> h ^ 1.  Their minors are never validated or canonicalized; twists
    and vertex signs, which none of the three reads, are dropped here.
    """
    label = [0] * m.half_edge_count
    for k, (a, b) in enumerate(m.edges):
        label[a], label[b] = 2 * k, 2 * k + 1
    sigma = [0] * m.half_edge_count
    for cycle in m.vertices:
        for i, h in enumerate(cycle):
            sigma[label[cycle[i - 1]]] = label[h]
    return sigma, sum(1 for cycle in m.vertices if not cycle)


def _canonical_code(
    sigma: Sequence[int], refined: bool, decoration: Optional[Sequence[int]] = None
) -> tuple:
    """The sorted least breadth-first codes of a kernel's components; equal iff isomorphic.

    The entry of half-edge h packs the labels of ``sigma[h]`` and ``h ^ 1``
    into the one int ``ls * n + la``.  With ``refined``, only the half-edges
    of least (vertex degree, face length) are tried as starts, faces being
    the cycles of h -> sigma[h ^ 1]; that pair is an isomorphism invariant,
    so the code stays canonical (McKay and Piperno's refinement).  Otherwise
    every half-edge is tried.  With ``decoration``, a component's code is
    the least pair (code, decorations in breadth-first order), and the
    decorations are read only for starts whose code is least so far or ties.
    """
    n = len(sigma)

    def code_from(start: int, best: Optional[list[int]]) -> tuple[Optional[list[int]], list[int]]:
        # Entry i is final once order[i] is processed: both of its
        # neighbours have labels by then.  So the code is compared with
        # ``best`` as it is emitted, and dropped (None) as soon as it is
        # larger; the prefix equal to ``best`` is copied from it once the code
        # is smaller, and a tie returns ``best``.  The order is the component.
        label = [-1] * n
        label[start] = 0
        order = [start]
        count = 1
        out: list[int] = []
        smaller = best is None
        for i, h in enumerate(order):
            s = sigma[h]
            ls = label[s]
            if ls < 0:
                ls = label[s] = count
                count += 1
                order.append(s)
            a = h ^ 1
            la = label[a]
            if la < 0:
                la = label[a] = count
                count += 1
                order.append(a)
            entry = ls * n + la
            if not smaller:
                if entry > best[i]:
                    return None, order
                if entry == best[i]:
                    continue
                smaller = True
                out = best[:i]
            out.append(entry)
        return (out if smaller else best), order

    rank = [0] * n
    if refined:
        # rank[h] packs (degree of h's vertex, length of h's face)
        for h in range(n):
            if not rank[h]:
                cycle = [h]
                x = sigma[h]
                while x != h:
                    cycle.append(x)
                    x = sigma[x]
                degree = len(cycle) * (n + 1)
                for x in cycle:
                    rank[x] = degree
        in_face = [False] * n
        for h in range(n):
            if not in_face[h]:
                cycle = [h]
                x = sigma[h ^ 1]
                while x != h:
                    cycle.append(x)
                    x = sigma[x ^ 1]
                length = len(cycle)
                for x in cycle:
                    in_face[x] = True
                    rank[x] += length
    covered = [False] * n
    codes = []
    # the first uncovered half-edge in rank order has its component's least rank
    for h0 in sorted(range(n), key=rank.__getitem__) if refined else range(n):
        if covered[h0]:
            continue
        best, members = code_from(h0, None)
        least = rank[h0]
        for h in members:
            covered[h] = True
        if decoration is None:
            for start in members[1:]:
                if rank[start] == least:
                    best = code_from(start, best)[0] or best
            codes.append(tuple(best))
            continue
        best_marks = [decoration[h] for h in members]
        for start in members[1:]:
            if rank[start] != least:
                continue
            code, order = code_from(start, best)
            if code is not None:
                marks = [decoration[h] for h in order]
                if code is not best or marks < best_marks:
                    best, best_marks = code, marks
        codes.append((tuple(best), tuple(best_marks)))
    return tuple(sorted(codes))


def _settle(
    m: CombMap, vertex_lists: Sequence[Sequence[int]], edges: Iterable[tuple], signs: Optional[Sequence[int]]
) -> None:
    """Set the fields of ``m`` from valid data with labels 0..2m-1 and ``(end, end, twisted)`` edges.

    Each rotation starts at its least half-edge; vertices are ordered by it,
    the empty ones last by sign.  Edges are sorted pairs in sorted order.
    """
    rotated = []
    for cycle in vertex_lists:
        cycle = tuple(cycle)
        if cycle:
            k = cycle.index(min(cycle))
            cycle = cycle[k:] + cycle[:k]
        rotated.append(cycle)
    if signs is None:
        vertices = sorted(c for c in rotated if c)
    else:
        paired = sorted((c, s) for c, s in zip(rotated, signs) if c)
        vertices = [c for c, _ in paired]
        signs = tuple([s for _, s in paired] + sorted(s for c, s in zip(rotated, signs) if not c))
    vertices += [()] * (len(rotated) - len(vertices))
    marked = sorted((a, b, t) if a < b else (b, a, t) for a, b, t in edges)
    object.__setattr__(m, "vertices", tuple(vertices))
    object.__setattr__(m, "edges", tuple((a, b) for a, b, _ in marked))
    object.__setattr__(m, "vertex_signs", signs)
    object.__setattr__(m, "edge_twists", frozenset(i for i, e in enumerate(marked) if e[2]))


def _rebuild(
    vertex_lists: Sequence[Sequence[int]], edges: Iterable[tuple], signs: Optional[Sequence[int]]
) -> CombMap:
    """The map of a surgery: sparse half-edge labels, edges as ``(end, end, twisted)``.

    The labels are compressed by rank to 0..2m-1 and the data is settled
    without ``diagnose``: every caller builds it from a valid map, so only
    ``CombMap(...)``, which takes data from outside the program, validates.
    """
    rank = {h: i for i, h in enumerate(sorted(h for cycle in vertex_lists for h in cycle))}
    m = object.__new__(CombMap)
    vertices = [[rank[h] for h in cycle] for cycle in vertex_lists]
    _settle(m, vertices, [(rank[a], rank[b], t) for a, b, t in edges], signs)
    return m


def _check_index(index: int, count: int) -> None:
    """Refuse an index outside ``range(count)``; a negative one would wrap silently."""
    if not 0 <= index < count:
        raise IndexError(f"index {index} is outside range({count})")


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
    edges = [(a, b, t) for a, b, t in union._marked_edges() if (a, b) not in pairs]
    edges += [(a1, b1, m1.is_twisted(idx1)), (a2, b2, m2.is_twisted(idx2))]
    return _rebuild(union.vertices, edges, None)


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
    _check_index(v1, m1.vertex_count)
    _check_index(v2, m2.vertex_count)
    _check_index(h1, m1.half_edge_count)
    _check_index(h2, m2.half_edge_count)
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
    edges = [(a, b, t) for a, b, t in union._marked_edges() if a not in junction and b not in junction]
    return _rebuild([union.vertices[i] for i in kept], edges + fused, kept_signs)
