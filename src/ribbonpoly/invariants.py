"""Classical polynomial invariants of combinatorial maps.

Every invariant here is computed in exact rational arithmetic.  The two core
polynomials are the flow polynomial (rotation-blind) and its
rotation-sensitive refinement

    S(Q) = sum over edge subsets T of (-1)^|T| Q^(b1(G-T) - genus(G-T)),

together with the four-variable rank polynomial that specializes to S, and a
vertex-count-normalized chromatic polynomial for virtual graphs.  Each comes
with independent engines (state sum and memoized contraction-deletion) so the
test suite can cross-check them term by term.

Contraction-deletion recurses on a bare half-edge form of the map (see
``_kernel``), memoizes integer tallies by doubled exponent under a canonical
code of that form alone, tried only from the half-edges of least (vertex
degree, face length) (see ``_kernel_key``), and builds only the branches that
can be nonzero.  S and flow vanish at a degree-1 vertex, so a
non-loop edge at a degree-2 vertex recurses on its contraction alone.  For the
chromatic polynomial, deleting a pendant edge is contracting it and adding an
isolated vertex, so that edge contributes a factor (t - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .algebra import HalfLaurent, KrushkalPoly
from .maps import CombMap

_S_CACHE: dict = {}
_FLOW_CACHE: dict = {}
_CHROM_CACHE: dict = {}


def clear_caches() -> None:
    """Empty every module memo: S, flow, chromatic, W_sl, Yamada and cyclotomic."""
    from . import algebra, penrose, spatial

    for cache in (
        _S_CACHE,
        _FLOW_CACHE,
        _CHROM_CACHE,
        penrose._W_SL_CACHE,
        spatial._YAMADA_CACHE,
        algebra._CYCLOTOMIC_CACHE,
    ):
        cache.clear()


# ---------------------------------------------------------------------------
# Incremental walks over the 2^E edge subsets and resolutions, and over the
# 2^V vertex flips.
# ---------------------------------------------------------------------------


def _gray_toggles(count: int) -> Iterator[int]:
    """The element toggled at each step of the reflected Gray code on ``count`` bits.

    Starting from the empty set, the 2^count - 1 toggles visit every subset
    exactly once (Knuth, TAOCP 4A, 7.2.1.1).
    """
    for i in range(1, 1 << count):
        yield (i & -i).bit_length() - 1


def _corner_partners(m: CombMap) -> tuple[list[int], int]:
    """Vertex-side partner of each doubled strand point, plus free circles.

    Half-edge h doubles into points 2h and 2h+1; the corner between
    consecutive half-edges h, h' pairs point 2h with point 2h'+1.  Each
    isolated vertex is a free circle.
    """
    partner = [0] * (2 * m.half_edge_count)
    circles = 0
    for cycle in m.vertices:
        if not cycle:
            circles += 1
            continue
        size = len(cycle)
        for i, h in enumerate(cycle):
            succ = cycle[(i + 1) % size]
            partner[2 * h] = 2 * succ + 1
            partner[2 * succ + 1] = 2 * h
    return partner, circles


def _edge_pairing(x: int, y: int, joined: int) -> tuple[int, int, int, int]:
    """Partners of points x, x+1, y, y+1 when x is joined to ``joined``."""
    if joined == y + 1:  # band
        return y + 1, y, x + 1, x
    if joined == y:  # crossed band
        return y, y + 1, x, x + 1
    return x + 1, x, y + 1, y  # cut


class _StrandWalker:
    """Closed strands of a doubled map while single edges switch resolution.

    Half-edge h doubles into points 2h and 2h+1.  The vertex side pairs them
    by corner arcs (``_corner_partners``) and never changes.  Each edge (a, b)
    switches between two of three resolutions, each named by the point it
    joins to 2a: 2b+1 for a band, 2b for a crossed band, 2a+1 for a cut.
    ``resolutions[e]`` gives edge e's starting resolution and its other one.
    Strands are the cycles of the two pairings together; every isolated
    vertex is one more strand.

    Away from edge e, the strands pair its four points by two outer arcs.  A
    resolution closes both arcs into two strands if it joins 2a to the outer
    partner of 2a, and into one strand otherwise, so a switch moves the count
    by [outer == new] - [outer == old] after one trace of the arc from 2a.
    """

    __slots__ = ("vertex_partner", "edge_partner", "edge_of_point", "ends", "pairings", "strands")

    def __init__(self, m: CombMap, resolutions: list[tuple[int, int]]) -> None:
        vertex_partner, circles = _corner_partners(m)
        edge_partner = [0] * len(vertex_partner)
        self.ends = [(2 * a, 2 * b) for a, b in m.edges]
        self.pairings = []
        for (x, y), (start, other) in zip(self.ends, resolutions):
            current = _edge_pairing(x, y, start)
            edge_partner[x], edge_partner[x + 1], edge_partner[y], edge_partner[y + 1] = current
            self.pairings.append((current, _edge_pairing(x, y, other)))
        self.vertex_partner = vertex_partner
        self.edge_partner = edge_partner
        self.edge_of_point = [m.edge_of[p >> 1] for p in range(len(vertex_partner))]
        seen = [False] * len(vertex_partner)
        strands = circles
        for start in range(len(vertex_partner)):
            if seen[start]:
                continue
            strands += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = vertex_partner[p]
                seen[p] = True
                p = edge_partner[p]
        self.strands = strands

    def toggle(self, e: int) -> int:
        """Switch edge ``e`` to its other resolution; return the change in strands."""
        vertex_partner, edge_partner = self.vertex_partner, self.edge_partner
        edge_of_point = self.edge_of_point
        x, y = self.ends[e]
        old, new = self.pairings[e]
        self.pairings[e] = (new, old)
        outer = vertex_partner[x]
        while edge_of_point[outer] != e:
            outer = vertex_partner[edge_partner[outer]]
        edge_partner[x], edge_partner[x + 1], edge_partner[y], edge_partner[y + 1] = new
        change = (outer == new[0]) - (outer == old[0])
        self.strands += change
        return change


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


def _check_doubled(value: int) -> None:
    # Twice a genus, or twice b1 - genus, of a subgraph in an oriented surface.
    if value % 2 or value < 0:
        raise ValueError(f"face count is inconsistent with an oriented surface: doubled value {value}")


def _cut_exponents(m: CombMap, joined: list[int]) -> dict[int, int]:
    """Signed state counts by joined edges + strands - vertices.

    Edge e is either joined by resolution ``joined[e]`` (a band or a crossed
    band) or cut, and a state with c cut edges counts (-1)^c.
    """
    resolutions = [(point, 2 * a + 1) for point, (a, _b) in zip(joined, m.edges)]
    walker = _StrandWalker(m, resolutions)
    cut, sign = 0, 1
    exponent = m.edge_count - m.vertex_count + walker.strands
    tally = {exponent: 1}
    for e in _gray_toggles(m.edge_count):
        cut ^= 1 << e
        exponent += walker.toggle(e) + (-1 if cut >> e & 1 else 1)
        sign = -sign
        tally[exponent] = tally.get(exponent, 0) + sign
    return tally


def _s_exponents(m: CombMap) -> dict[int, int]:
    """Signed subset counts of S by doubled exponent 2(b1 - genus)(G - T).

    With kept edges as bands and deleted ones as cuts, the strands are the
    faces of G - T, an emptied vertex closing into one strand, and
    2(b1 - genus) = kept edges - vertices + faces.
    """
    tally = _cut_exponents(m, [2 * b + 1 for _a, b in m.edges])
    for doubled in tally:
        _check_doubled(doubled)
    return tally


def _flow_exponents(m: CombMap) -> dict[int, int]:
    """Signed subset counts of the flow polynomial by doubled nullity 2 b1(G - T).

    Visits the kept edge sets depth first, adding edges to one union-find and
    undoing them on the way back; the rotation plays no part.
    """
    v, e_total = m.vertex_count, m.edge_count
    ends = [(m.vertex_of[a], m.vertex_of[b]) for a, b in m.edges]
    forest = _UnionFind(v)
    tally: dict[int, int] = {}

    def visit(start: int, kept: int, sign: int) -> None:
        doubled = 2 * (kept - v + forest.components)
        tally[doubled] = tally.get(doubled, 0) + sign
        for j in range(start, e_total):
            root = forest.union(*ends[j])
            visit(j + 1, kept + 1, -sign)
            forest.undo(root)

    visit(0, 0, -1 if e_total % 2 else 1)
    return tally


def _flip_genera(m: CombMap) -> Iterator[tuple[int, int]]:
    """(mask, genus) for every set of flipped vertices, in increasing mask order.

    Bit i of the mask flips ``m.flippable_vertices()[i]``, as in
    ``CombMap.rotation_variants``.  Flipping the disk of v back over after
    reversing its rotation changes no boundary component and puts a
    half-twist on each incident edge end; a loop at v gets two, which cancel.
    So reversing v has the faces of switching each non-loop edge at v between
    band and crossed band in one strand walker, which starts with untwisted
    edges as bands and twisted ones as crossed bands.  Going from mask k - 1
    to k flips the vertices of bits 0..j, j the lowest set bit of k, and so
    switches the edges at an odd number of those vertices.
    """
    flippable = m.flippable_vertices()
    resolutions = [
        (2 * b, 2 * b + 1) if e in m.edge_twists else (2 * b + 1, 2 * b)
        for e, (_a, b) in enumerate(m.edges)
    ]
    walker = _StrandWalker(m, resolutions)
    switched: list[tuple[int, ...]] = []
    edges: set[int] = set()
    for v in flippable:
        edges ^= {m.edge_of[h] for h in m.vertices[v] if not m.is_loop(m.edge_of[h])}
        switched.append(tuple(edges))
    base = 2 * m.component_count + m.edge_count - m.vertex_count
    for mask in range(1 << len(flippable)):
        if mask:
            for e in switched[(mask & -mask).bit_length() - 1]:
                walker.toggle(e)
        doubled = base - walker.strands
        if doubled % 2:
            raise ValueError("map is non-orientable (odd Euler defect); genus undefined")
        yield mask, doubled // 2


def _flip_set(m: CombMap, mask: int) -> frozenset[int]:
    """The vertices that bit mask flips, as in ``CombMap.rotation_variants``."""
    flippable = m.flippable_vertices()
    return frozenset(flippable[i] for i in range(len(flippable)) if mask >> i & 1)


# ---------------------------------------------------------------------------
# The contraction-deletion kernel.
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


def _kernel_key(sigma: list[int], isolated: int) -> tuple:
    """The memo key: a canonical code of the bare kernel, equal exactly for isomorphic kernels.

    Each component is encoded by its least breadth-first code, in which the
    entry of half-edge h packs the labels of ``sigma[h]`` and ``h ^ 1`` into
    the one int ``ls * n + la``.  Only the half-edges with the least (vertex
    degree, face length) are tried as starts, the faces being the cycles of
    h -> sigma[h ^ 1].  That pair is an isomorphism invariant, so the least
    code over these starts is still canonical.  The key is not
    ``CombMap.signature``, but it splits maps into the same classes.
    """
    n = len(sigma)
    # rank[h] orders half-edges by (degree of h's vertex, length of h's face)
    rank = [0] * n
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

    def code_from(start: int, best: Optional[list[int]]) -> tuple[Optional[list[int]], list[int]]:
        # As in maps._canonical_code: entry i is final once order[i] is
        # processed, so the code is dropped at its first entry above ``best``.
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
        return (out if smaller else None), order

    covered = [False] * n
    codes = []
    # the first uncovered half-edge in rank order has its component's least rank
    for h0 in sorted(range(n), key=rank.__getitem__):
        if covered[h0]:
            continue
        best, members = code_from(h0, None)
        least = rank[h0]
        for h in members:
            covered[h] = True
        for start in members[1:]:
            if rank[start] == least:
                best = code_from(start, best)[0] or best
        codes.append(tuple(best))
    codes.sort()
    return tuple(codes), isolated


def _tally_difference(
    plus: dict[int, int], plus_shift: int, minus: dict[int, int], minus_shift: int
) -> dict[int, int]:
    """A new tally: ``plus`` shifted by ``plus_shift`` minus ``minus`` shifted by ``minus_shift``.

    Tallies map doubled exponents to nonzero integer coefficients, so a
    shift by 2 multiplies by the variable.  The inputs are memo values and
    are never changed.
    """
    out = {exp + plus_shift: coeff for exp, coeff in plus.items()}
    for exp, coeff in minus.items():
        exp += minus_shift
        coeff = out.get(exp, 0) - coeff
        if coeff:
            out[exp] = coeff
        else:
            del out[exp]
    return out


def _memoized(
    cache: dict,
    compute: Callable[[list[int], int], dict[int, int]],
    sigma: list[int],
    isolated: int,
) -> dict[int, int]:
    """``compute(sigma, isolated)``, looked up in and stored to ``cache`` by the kernel key."""
    key = _kernel_key(sigma, isolated)
    result = cache.get(key)
    if result is None:
        result = cache[key] = compute(sigma, isolated)
    return result


def _minor(sigma: list[int], isolated: int, k: int, contract: bool) -> tuple[list[int], int]:
    """Delete edge k, or contract it: swap the successors of its ends, then delete.

    The swap joins the two vertices of a non-loop edge and splits the vertex
    of a loop, as ``CombMap.partial_dual`` does for an untwisted edge.  A
    half-edge alone at its vertex leaves an isolated vertex behind; the
    half-edges above edge k move down by 2.
    """
    s = list(sigma)
    a, b = 2 * k, 2 * k + 1
    if contract:
        s[a], s[b] = s[b], s[a]
    for h in (a, b):
        nxt = s[h]
        if nxt == h:
            isolated += 1
        else:
            s[s.index(h)] = nxt
        s[h] = -1
    del s[a : b + 1]
    return [x - 2 if x > b else x for x in s], isolated


def _lone_half_edge(sigma: list[int]) -> int:
    """The half-edge of a degree-1 vertex, or -1 if there is none."""
    for h, nxt in enumerate(sigma):
        if nxt == h:
            return h
    return -1


def _subdivision_edge(sigma: list[int]) -> int:
    """A non-loop edge at a degree-2 vertex, or -1 if there is none.

    Deleting it leaves a degree-1 vertex, where S and flow vanish, so both
    polynomials equal those of the contraction alone.
    """
    for h, nxt in enumerate(sigma):
        if sigma[nxt] == h and nxt != h and nxt != h ^ 1:
            return h >> 1
    return -1


def _preferred_edge(sigma: list[int]) -> tuple[int, bool]:
    """The first non-loop edge, or edge 0 when all are loops, and whether it is a loop.

    Non-loop edges go first: their branches shrink the vertex set too.  S and
    flow take an edge from _subdivision_edge before this one, and
    virtual_chromatic takes a pendant edge first.
    """
    for a in range(0, len(sigma), 2):
        h = sigma[a]
        while h != a and h != a + 1:
            h = sigma[h]
        if h == a:
            return a >> 1, False
    return 0, True


# ---------------------------------------------------------------------------
# Flow polynomial.
# ---------------------------------------------------------------------------


def resolve_engine(m: CombMap, engine: str) -> str:
    """The engine that computes S or flow.

    ``auto`` takes the state sum through 13 edges and contraction-deletion
    beyond; any other name is returned unchanged.
    """
    if engine == "auto":
        return "state-sum" if m.edge_count <= 13 else "contraction-deletion"
    return engine


def flow_poly(m: CombMap, engine: str = "auto") -> HalfLaurent:
    """Flow polynomial; blind to rotations and twists."""
    engine = resolve_engine(m, engine)
    if engine == "state-sum":
        return HalfLaurent.from_dict("Q", _flow_exponents(m))
    if engine == "contraction-deletion":
        return HalfLaurent.from_dict("Q", _flow_cd(*_kernel(m)))
    raise ValueError(f"unknown flow engine {engine!r}")


def _flow_cd(sigma: list[int], isolated: int) -> dict[int, int]:
    return _memoized(_FLOW_CACHE, _flow_cd_compute, sigma, isolated)


def _flow_cd_compute(sigma: list[int], isolated: int) -> dict[int, int]:
    if _lone_half_edge(sigma) >= 0:
        return {}
    if not sigma:
        return {0: 1}
    e = _subdivision_edge(sigma)
    if e >= 0:
        return _flow_cd(*_minor(sigma, isolated, e, True))
    e, loop = _preferred_edge(sigma)
    if loop:
        # (Q - 1) F(G - e)
        deleted = _flow_cd(*_minor(sigma, isolated, e, False))
        return _tally_difference(deleted, 2, deleted, 0)
    contracted = _flow_cd(*_minor(sigma, isolated, e, True))
    deleted = _flow_cd(*_minor(sigma, isolated, e, False))
    return _tally_difference(contracted, 0, deleted, 0)


# ---------------------------------------------------------------------------
# The rotation-sensitive flow polynomial S.
# ---------------------------------------------------------------------------


def s_poly(m: CombMap, engine: str = "auto") -> HalfLaurent:
    """The genus-corrected flow polynomial of a map in an oriented surface."""
    if m.edge_twists:
        raise ValueError(
            "S is defined for twist-free maps; twisted edges are consumed by the Penrose evaluations"
        )
    engine = resolve_engine(m, engine)
    if engine == "state-sum":
        return HalfLaurent.from_dict("Q", _s_exponents(m))
    if engine == "contraction-deletion":
        return HalfLaurent.from_dict("Q", _s_cd(*_kernel(m)))
    if engine == "brauer":
        from .brauer import brauer_evaluate

        return brauer_evaluate(m)
    raise ValueError(f"unknown S engine {engine!r}")


def _s_cd(sigma: list[int], isolated: int) -> dict[int, int]:
    return _memoized(_S_CACHE, _s_cd_compute, sigma, isolated)


def _s_cd_compute(sigma: list[int], isolated: int) -> dict[int, int]:
    if _lone_half_edge(sigma) >= 0:
        return {}
    if not sigma:
        return {0: 1}
    e = _subdivision_edge(sigma)
    if e >= 0:
        return _s_cd(*_minor(sigma, isolated, e, True))
    e, loop = _preferred_edge(sigma)
    contracted = _s_cd(*_minor(sigma, isolated, e, True))
    deleted = _s_cd(*_minor(sigma, isolated, e, False))
    # S(G) = Q S(G/e) - S(G - e) at a loop, S(G/e) - S(G - e) otherwise
    return _tally_difference(contracted, 2 if loop else 0, deleted, 0)


def s_poly_at(m: CombMap, value: Fraction | int) -> Fraction:
    """Evaluate S at a rational point from the integer state-sum tally."""
    if m.edge_twists:
        raise ValueError(
            "S is defined for twist-free maps; twisted edges are consumed by the Penrose evaluations"
        )
    point = Fraction(value)
    total = Fraction(0)
    for doubled, coeff in _s_exponents(m).items():
        exp = doubled // 2
        term = point**exp if point != 0 else Fraction(1 if exp == 0 else 0)
        total += coeff * term
    return total


# ---------------------------------------------------------------------------
# Four-variable rank polynomial and its specialization to S.
# ---------------------------------------------------------------------------


def krushkal_poly(m: CombMap) -> KrushkalPoly:
    """The four-variable rank polynomial of a map in an oriented surface.

    Term for each spanning edge subset: ``X^(b0(G-T)-b0(G)) Y^(b1(G-T))
    A^(2 genus(G-T)) B^(2 dual-genus)``, where the dual genus is the genus of
    the geometric dual restricted to the edges dual to T.
    """
    if m.edge_twists:
        raise ValueError("the rank polynomial needs a twist-free map")
    # A spanning subgraph G|A and the dual subgraph G*|A^c have the same
    # boundary components, so one strand walk serves both genera; each side's
    # components come from a union-find over the edges it keeps.
    dual = m.geometric_dual()
    v, dual_v, e_total = m.vertex_count, dual.vertex_count, m.edge_count
    base_b0 = m.component_count
    # each edge kept as a band or deleted as a cut
    walker = _StrandWalker(m, [(2 * b + 1, 2 * a + 1) for a, b in m.edges])
    kept = [True] * e_total
    primal, dual_forest = _UnionFind(v), _UnionFind(dual_v)
    ends = [
        ((m.vertex_of[a], m.vertex_of[b]), (dual.vertex_of[a], dual.vertex_of[b]))
        for a, b in m.edges
    ]
    data: dict[tuple[int, int, int, int], int] = {}

    def visit(d: int, kept_below: int) -> None:
        # Edges below d are fixed and held in the union-finds.  Edge d takes
        # its current state, then the other one, so consecutive leaves differ
        # by one walker toggle: a reflected Gray code.
        if d == e_total:
            faces = walker.strands
            b0 = primal.components
            genus2 = 2 * b0 + kept_below - v - faces
            dual_genus2 = 2 * dual_forest.components + (e_total - kept_below) - dual_v - faces
            _check_doubled(genus2)
            _check_doubled(dual_genus2)
            key = (b0 - base_b0, kept_below - v + b0, genus2, dual_genus2)
            data[key] = data.get(key, 0) + 1
            return
        primal_ends, dual_ends = ends[d]
        for first in (True, False):
            if kept[d]:
                forest, root = primal, primal.union(*primal_ends)
            else:
                forest, root = dual_forest, dual_forest.union(*dual_ends)
            visit(d + 1, kept_below + kept[d])
            forest.undo(root)
            if first:
                walker.toggle(d)
                kept[d] = not kept[d]

    visit(0, 0)
    return KrushkalPoly.from_dict(data)


def specialize_krushkal_to_s(poly: KrushkalPoly, b1: int) -> HalfLaurent:
    """S(Q) = (-1)^b1 P(-1, -Q, Q^(-1/2), 1)."""
    data: dict[int, Fraction] = {}
    outer = -1 if b1 % 2 else 1
    for (x_exp, y_exp, a_exp, _b_exp), coeff in poly.terms:
        sign = (-1) ** (x_exp + y_exp)
        half_steps = 2 * y_exp - a_exp
        value = outer * sign * coeff
        data[half_steps] = data.get(half_steps, Fraction(0)) + value
    return HalfLaurent.from_dict("Q", data)


# ---------------------------------------------------------------------------
# Chromatic polynomial for virtual graphs.
# ---------------------------------------------------------------------------


def virtual_chromatic(m: CombMap) -> HalfLaurent:
    """Chromatic polynomial, computed through map contraction.

    Deletion-contraction with the loop correction ``t^(-1)``: a loop deletes
    to the plain term and contracts (splitting its vertex) with weight
    ``t^(-1)``; edgeless maps count ``t^(number of vertices)``.  A pendant
    edge is taken first and gives the single branch ``(t - 1) P(G/e)``.
    """
    if m.edge_twists:
        raise ValueError("the chromatic polynomial needs a twist-free map")
    return HalfLaurent.from_dict("t", _chrom_cd(*_kernel(m)))


def _chrom_cd(sigma: list[int], isolated: int) -> dict[int, int]:
    return _memoized(_CHROM_CACHE, _chrom_cd_compute, sigma, isolated)


def _chrom_cd_compute(sigma: list[int], isolated: int) -> dict[int, int]:
    if not sigma:
        return {2 * isolated: 1}
    pendant = _lone_half_edge(sigma)
    if pendant >= 0:
        # G - e is G/e plus an isolated vertex, so P(G) = (t - 1) P(G/e).
        contracted = _chrom_cd(*_minor(sigma, isolated, pendant >> 1, True))
        return _tally_difference(contracted, 2, contracted, 0)
    e, loop = _preferred_edge(sigma)
    deleted = _chrom_cd(*_minor(sigma, isolated, e, False))
    contracted = _chrom_cd(*_minor(sigma, isolated, e, True))
    return _tally_difference(deleted, 0, contracted, -2 if loop else 0)


def chromatic_via_dual(m: CombMap) -> HalfLaurent:
    """The identity route: t^(b0 - genus) * S of the geometric dual."""
    ed = m.euler_data()
    s_dual = s_poly(m.geometric_dual())
    return s_dual.retag("t").shift(2 * (ed.components - ed.genus))


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeReport:
    bound: int
    degree: object
    leading: Fraction
    attained: bool
    monic: bool
    has_coloop: bool
    i_poly: HalfLaurent


def degree_report(m: CombMap, engine: str = "auto") -> DegreeReport:
    """Degree data for S plus the reflected interlacement polynomial."""
    s = s_poly(m, engine=engine)
    ed = m.euler_data()
    bound = ed.first_betti - ed.genus
    degree, leading = s.degree_leading()
    has_coloop = any(m.is_coloop(e) for e in range(m.edge_count))
    i_poly = s.reflect(2 * bound).retag("t")
    return DegreeReport(
        bound=bound,
        degree=degree,
        leading=leading,
        attained=degree == Fraction(bound),
        monic=leading == 1,
        has_coloop=has_coloop,
        i_poly=i_poly,
    )


def g_min(m: CombMap) -> tuple[int, frozenset[int]]:
    """Minimal genus over all vertex flips, with a witness flip set."""
    best: Optional[tuple[int, int]] = None
    for mask, genus in _flip_genera(m):
        if best is None or genus < best[0]:
            best = (genus, mask)
            if genus == 0:
                break
    assert best is not None
    return best[0], _flip_set(m, best[1])


def wedge(m1: CombMap, v1: int, m2: CombMap, v2: int) -> CombMap:
    """One-point union: splice the rotation of v2 after the rotation of v1."""
    from .maps import _rebuild

    shift = m1.half_edge_count
    vertices = [list(c) for i, c in enumerate(m1.vertices) if i != v1]
    vertices += [[h + shift for h in c] for i, c in enumerate(m2.vertices) if i != v2]
    vertices.append(list(m1.vertices[v1]) + [h + shift for h in m2.vertices[v2]])
    edges = list(m1.edges) + [(a + shift, b + shift) for a, b in m2.edges]
    twisted = m1._twisted_pairs() | {
        frozenset(h + shift for h in pair) for pair in m2._twisted_pairs()
    }
    return _rebuild(vertices, edges, None, twisted)


def special_value_checks(m: CombMap, engine: str = "auto") -> dict:
    """The rational special values tying S to the flow polynomial."""
    s = s_poly(m, engine=engine)
    f = flow_poly(m)
    report: dict = {}
    report["s_at_1_is_zero"] = s.evaluate(1) == 0
    report["s_at_0_equals_flow_at_0"] = s.evaluate(0) == f.evaluate(0)
    has_bridge = any(m.is_bridge(e) for e in range(m.edge_count))
    report["bridge_iff_s_zero"] = has_bridge == s.is_zero()
    report["bridge_iff_s0_zero"] = has_bridge == (s.evaluate(0) == 0)
    flip_ok = True
    s4 = s.evaluate(4)
    for v in range(m.vertex_count):
        flipped = s_poly(m.vertex_flip(v), engine=engine)
        want = s4 if m.degree(v) % 2 == 0 else -s4
        if flipped.evaluate(4) != want:
            flip_ok = False
    report["flip_sign_law_at_4"] = flip_ok
    report["passed"] = all(v for k, v in report.items() if k != "passed")
    return report


def connect_sum_checks(
    m1: CombMap,
    e1: tuple[int, int],
    m2: CombMap,
    e2: tuple[int, int],
    v1: Optional[int] = None,
    h1: Optional[int] = None,
    v2: Optional[int] = None,
    h2: Optional[int] = None,
) -> dict:
    """Verify the multiplicative connect-sum identities for S.

    The vertex rule runs when ``v1``, ``h1``, ``v2`` and ``h2`` are all given.
    """
    from .maps import edge_connect_sum, vertex_connect_sum

    if len({x is None for x in (v1, h1, v2, h2)}) > 1:
        raise ValueError("v1, h1, v2 and h2 must be given together")

    q = HalfLaurent.variable("Q")
    one = HalfLaurent.one("Q")
    q1 = q - one
    q2 = q - HalfLaurent.constant("Q", 2)
    s1 = s_poly(m1)
    s2 = s_poly(m2)
    report: dict = {}

    joined = edge_connect_sum(m1, e1, m2, e2)
    report["edge_rule"] = q1 * s_poly(joined) == s1 * s2

    if v1 is not None:
        plain = vertex_connect_sum(m1, v1, h1, m2, v2, h2)
        # a flip keeps the least half-edge of the vertex, so its index stays
        m2_flipped = m2.vertex_flip(v2)
        twisted = vertex_connect_sum(m1, v1, h1, m2_flipped, v2, h2)
        s1f = s_poly(m1.vertex_flip(v1))
        s2f = s_poly(m2_flipped)
        lhs = q1 * q2 * s_poly(twisted) - q1.scale(2) * s_poly(plain)
        rhs = s1 * s2f + s1f * s2
        report["vertex_rule"] = lhs == rhs

    w = wedge(m1, 0, m2, 0)
    report["wedge_rule"] = s_poly(w) == s_poly(m1.disjoint_union(m2))
    report["passed"] = all(v for k, v in report.items() if k != "passed")
    return report

