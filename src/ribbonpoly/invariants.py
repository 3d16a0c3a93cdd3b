"""Classical polynomial invariants of combinatorial maps.

Every invariant here is computed in exact rational arithmetic.  The two core
polynomials are the flow polynomial (rotation-blind) and its
rotation-sensitive refinement

    S(Q) = sum over edge subsets T of (-1)^|T| Q^(b1(G-T) - genus(G-T)),

together with the four-variable rank polynomial that specializes to S, and a
vertex-count-normalized chromatic polynomial for virtual graphs.  S and flow
each have three independent engines, so the test suite can cross-check them
term by term: the state sum, memoized contraction-deletion, and a frontier
sweep of ``brauer`` (over boundary pairings for S, over set partitions for
flow).  ``resolve_engine`` chooses between the state sum and the sweeps
from the edge and vertex counts alone; contraction-deletion runs only by
name.  The chromatic polynomial has two engines: the pairing sweep over the
map itself, which ``auto`` names, and contraction-deletion by name.
``s_poly_at`` evaluates the tally of the engine that ``auto`` picks.  The
rank polynomial has one engine, the ``brauer._Ranks`` sweep over boundary
pairings, dual and primal partitions at once.

Contraction-deletion recurses on a bare half-edge form of the map (see
``maps._kernel``), memoizes integer tallies by doubled exponent under the
canonical code of that form that ``CombMap.signature`` also uses (see
``_kernel_key``), and builds only the branches that can be nonzero.  S and
flow vanish at a degree-1 vertex, so a non-loop edge at a degree-2 vertex
recurses on its contraction alone.  For the chromatic polynomial, deleting a
pendant edge is contracting it and adding an isolated vertex, so that edge
contributes a factor (t - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Optional

from .algebra import HalfLaurent, KrushkalPoly
from .brauer import _chrom_tally, _flow_tally, _rank_tally, _s_tally
from .maps import CombMap, _canonical_code, _kernel, _UnionFind

_S_CACHE: dict = {}
_FLOW_CACHE: dict = {}
_CHROM_CACHE: dict = {}


def clear_caches() -> None:
    """Empty the five module memos: S, flow, chromatic, Yamada and cyclotomic."""
    from . import algebra, spatial

    for cache in (
        _S_CACHE,
        _FLOW_CACHE,
        _CHROM_CACHE,
        spatial._YAMADA_CACHE,
        algebra._CYCLOTOMIC_CACHE,
    ):
        cache.clear()


# ---------------------------------------------------------------------------
# Incremental walks over the 2^E edge subsets and resolutions of S's state
# sum, and over the 2^V vertex flips.
# ---------------------------------------------------------------------------


def _edge_pairing(x: int, y: int, joined: int) -> tuple[int, int, int, int]:
    """Partners of points x, x+1, y, y+1 when x is joined to ``joined``."""
    if joined == y + 1:  # band
        return y + 1, y, x + 1, x
    if joined == y:  # crossed band
        return y, y + 1, x, x + 1
    return x + 1, x, y + 1, y  # cut


class _StrandWalker:
    """Closed strands of a doubled map, with the partner arrays that a walk switches.

    Half-edge h doubles into points 2h and 2h+1.  The vertex side pairs them
    by corner arcs, 2h with 2 sigma(h) + 1, read off ``m.sigma``, and never
    changes.  Each edge (a, b) is resolved by the point it joins to 2a:
    2b+1 for a band, 2b for a crossed band, 2a+1 for a cut; ``joined[e]``
    gives edge e's starting resolution.  Strands are the cycles of the two
    pairings together; every isolated vertex is one more strand.

    Away from edge e, the strands pair its four points by two outer arcs.  A
    resolution closes both arcs into two strands if it joins 2a to the outer
    partner of 2a, and into one strand otherwise, so a switch moves the count
    by [outer == new] - [outer == old] after one trace of the arc from 2a.
    ``_flip_genera`` runs that switch inline, in one loop, on the arrays
    built here.  ``_cut_exponents`` runs it in blocks of Gray steps, and
    inside a block traces the edges that switch on a vertex side compressed
    past the edges that do not.
    """

    __slots__ = ("vertex_partner", "edge_partner", "edge_of_point", "ends", "strands")

    def __init__(self, m: CombMap, joined: list[int]) -> None:
        vertex_partner = [0] * (2 * m.half_edge_count)
        for h, nxt in enumerate(m.sigma):
            vertex_partner[2 * h], vertex_partner[2 * nxt + 1] = 2 * nxt + 1, 2 * h
        edge_partner = [0] * len(vertex_partner)
        edge_of_point = [0] * len(vertex_partner)
        self.ends = [(2 * a, 2 * b) for a, b in m.edges]
        for e, ((x, y), start) in enumerate(zip(self.ends, joined)):
            pairing = _edge_pairing(x, y, start)
            edge_partner[x], edge_partner[x + 1], edge_partner[y], edge_partner[y + 1] = pairing
            edge_of_point[x] = edge_of_point[x + 1] = edge_of_point[y] = edge_of_point[y + 1] = e
        self.vertex_partner = vertex_partner
        self.edge_partner = edge_partner
        self.edge_of_point = edge_of_point
        seen = [False] * len(vertex_partner)
        strands = sum(1 for cycle in m.vertices if not cycle)
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


_BLOCK_BITS = 6


def _ruler(start: int) -> tuple[int, ...]:
    """Gray steps 1..2^_BLOCK_BITS - 1 of a block whose low edges start cut as ``start``.

    Step j switches edge e, the lowest set bit of j; it is 2e + 1 if that
    cuts e, which bit e of ``start`` ^ gray(j) says, and 2e if it joins e.
    """
    steps = []
    for j in range(1, 1 << _BLOCK_BITS):
        e = (j & -j).bit_length() - 1
        steps.append(2 * e + ((start ^ j ^ j >> 1) >> e & 1))
    return tuple(steps)


# blocks start with no low edge cut and with only the top one cut, alternately
_RULERS = (_ruler(0), _ruler(1 << (_BLOCK_BITS - 1)))


def _check_doubled(value: int) -> None:
    # Twice a genus, or twice b1 - genus, of a subgraph in an oriented surface.
    if value % 2 or value < 0:
        raise ValueError(f"face count is inconsistent with an oriented surface: doubled value {value}")


def _cut_exponents(m: CombMap, joined: list[int]) -> dict[int, int]:
    """Signed state counts by joined edges + strands - vertices.

    Edge e is either joined by resolution ``joined[e]`` (a band or a crossed
    band) or cut, and a state with c cut edges counts (-1)^c.  Every one of
    the 2^E states is visited once, in reflected Gray order (Knuth, TAOCP
    4A, 7.2.1.1): step i switches edge e, the lowest set bit of i, with one
    trace of the strand outside e, as ``_StrandWalker`` describes.  Every
    exponent reached is a key of the tally, even where its count is 0.

    The walk runs in blocks of 2^_BLOCK_BITS steps.  The low edges, below
    _BLOCK_BITS, switch inside a block, and a high edge switches between
    blocks, traced on the full arrays.  A block starts with no low edge cut
    or with only the top one cut, alternately, so the two ``_RULERS`` serve
    every block, expanded once per map into records of x, e, x + 1, y,
    y + 1, the new partners, the points whose match adds and takes a
    strand, the change in joined edges and the sign.  When there are high
    edges, each block start sets ``skip[p]`` for every low edge point p
    whose corner arc ends on a high edge: the first low edge point the
    strand reaches from there, past the high edges, which stay fixed inside
    the block.  The trace hops on ``skip``, a copy of the vertex side, and
    meets the points of the switched edge in the same order, so it finds
    the same outer partner.  With at most _BLOCK_BITS edges there is one
    block and nothing to skip.
    """
    walker = _StrandWalker(m, joined)
    vertex_partner, edge_partner = walker.vertex_partner, walker.edge_partner
    edge_of_point = walker.edge_of_point
    # Switch 2e joins edge e and switch 2e + 1 cuts it.  Step i reaches a
    # state of sign (-1)^i, and i is odd exactly when it switches edge 0.
    switches = []
    for e, ((x, y), point) in enumerate(zip(walker.ends, joined)):
        sign = -1 if e == 0 else 1
        switches.append((x, e, x + 1, y, y + 1, _edge_pairing(x, y, point), point, x + 1, 1, sign))
        switches.append((x, e, x + 1, y, y + 1, _edge_pairing(x, y, x + 1), x + 1, point, -1, sign))
    low = min(m.edge_count, _BLOCK_BITS)
    blocks = [list(map(switches.__getitem__, _RULERS[0][: (1 << low) - 1]))]
    skip, low_points = vertex_partner, []
    if m.edge_count > low:
        blocks.append(list(map(switches.__getitem__, _RULERS[1])))
        skip = vertex_partner[:]
        points = [p for x, y in walker.ends[:low] for p in (x, x + 1, y, y + 1)]
        low_points = [p for p in points if edge_of_point[vertex_partner[p]] >= low]
    exponent = m.edge_count - m.vertex_count + walker.strands
    tally = {exponent: 1}
    for block in range(1 << (m.edge_count - low)):
        if block:
            # high edge low + k switches between blocks, traced on the full arrays
            k = (block & -block).bit_length() - 1
            switch = switches[2 * (low + k) + ((block ^ block >> 1) >> k & 1)]
            x, e, x1, y, y1, pairing, plus, minus, joins, sign = switch
            outer = vertex_partner[x]
            while edge_of_point[outer] != e:
                outer = vertex_partner[edge_partner[outer]]
            edge_partner[x], edge_partner[x1], edge_partner[y], edge_partner[y1] = pairing
            exponent += (outer == plus) - (outer == minus) + joins
            tally[exponent] = tally.get(exponent, 0) + sign
        for p in low_points:
            q = vertex_partner[p]
            while edge_of_point[q] >= low:
                q = vertex_partner[edge_partner[q]]
            skip[p] = q
        for x, e, x1, y, y1, pairing, plus, minus, joins, sign in blocks[block & 1]:
            outer = skip[x]
            while edge_of_point[outer] != e:
                outer = skip[edge_partner[outer]]
            edge_partner[x], edge_partner[x1], edge_partner[y], edge_partner[y1] = pairing
            exponent += (outer == plus) - (outer == minus) + joins
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
    band and crossed band on the arrays of one ``_StrandWalker``, which
    starts with untwisted edges as bands and twisted ones as crossed bands.
    Going from mask k - 1 to k flips the vertices of bits 0..j, j the lowest
    set bit of k, and so switches the edges at an odd number of those
    vertices, one strand trace each.
    """
    flippable = m.flippable_vertices()
    joined = [2 * b if e in m.edge_twists else 2 * b + 1 for e, (_a, b) in enumerate(m.edges)]
    walker = _StrandWalker(m, joined)
    vertex_partner, edge_partner = walker.vertex_partner, walker.edge_partner
    edge_of_point, strands = walker.edge_of_point, walker.strands
    switched: list[tuple[tuple[int, int, int], ...]] = []
    edges: set[int] = set()
    for v in flippable:
        edges ^= {m.edge_of[h] for h in m.vertices[v] if not m.is_loop(m.edge_of[h])}
        switched.append(tuple((e, *walker.ends[e]) for e in edges))
    base = 2 * m.component_count + m.edge_count - m.vertex_count
    for mask in range(1 << len(flippable)):
        if mask:
            for e, x, y in switched[(mask & -mask).bit_length() - 1]:
                outer = vertex_partner[x]
                while edge_of_point[outer] != e:
                    outer = vertex_partner[edge_partner[outer]]
                # band and crossed band swap the partners of x and x + 1, and of y and y + 1
                old, new = edge_partner[x], edge_partner[x + 1]
                edge_partner[x], edge_partner[x + 1] = new, old
                edge_partner[y], edge_partner[y + 1] = edge_partner[y + 1], edge_partner[y]
                strands += (outer == new) - (outer == old)
        doubled = base - strands
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


def _kernel_key(sigma: list[int], isolated: int) -> tuple:
    """The memo key: the canonical code of the bare kernel and its isolated-vertex count.

    The code is ``maps._canonical_code`` from the refined starts, with no
    decorations.  ``CombMap.signature`` tries every start, so the values
    differ, but the key and the stripped map's signature split maps into
    the same classes.
    """
    return _canonical_code(sigma, True), isolated


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
# The engine choice for S and flow.
# ---------------------------------------------------------------------------


# The sweep's cost in state-sum subsets, fitted to the crossover table in
# CHANGES.md: _SWEEP_STEP per step (placing a vertex, closing an edge, and
# the final sum) and V^3 / _PLAN_CUBE for _sweep_plan's greedy starts.
_SWEEP_STEP = 10
_PLAN_CUBE = 4


def resolve_engine(m: CombMap, engine: str) -> str:
    """The engine that computes S or flow.

    ``auto`` decides from E and V alone, with the sweep's cost counted in
    subsets of the state sum, which visits all 2^E: the state sum runs while
    2^E <= _SWEEP_STEP (V + E + 1) + V^3 // _PLAN_CUBE, and the frontier
    sweep (``brauer``) beyond.  One rule serves S and flow.  The sweeps take
    over at 7 to 9 edges, later on maps with more vertices.
    Contraction-deletion runs only by name.  Any other name is returned
    unchanged.
    """
    if engine != "auto":
        return engine
    subsets = 1 << m.edge_count
    steps = _SWEEP_STEP * (m.vertex_count + m.edge_count + 1)
    if subsets <= steps + m.vertex_count**3 // _PLAN_CUBE:
        return "state-sum"
    return "brauer"


# ---------------------------------------------------------------------------
# Flow polynomial.
# ---------------------------------------------------------------------------


def flow_poly(m: CombMap, engine: str = "auto") -> HalfLaurent:
    """Flow polynomial; blind to rotations and twists.

    Three independent engines compute it: the state sum over kept edge sets
    with a union-find, memoized contraction-deletion, and the partition
    sweep (``brauer``); ``resolve_engine`` names the one ``auto`` runs.
    """
    engine = resolve_engine(m, engine)
    if engine == "state-sum":
        tally = _flow_exponents(m)
    elif engine == "contraction-deletion":
        tally = _flow_cd(*_kernel(m))
    elif engine == "brauer":
        tally = _flow_tally(m)
    else:
        raise ValueError(f"unknown flow engine {engine!r}")
    return HalfLaurent.from_dict("Q", tally)


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
    """The genus-corrected flow polynomial of a map in an oriented surface.

    Three independent engines compute it: the state sum over edge subsets,
    memoized contraction-deletion, and the frontier sweep of the diagram
    category (``brauer``); ``resolve_engine`` names the one ``auto`` runs.
    """
    return HalfLaurent.from_dict("Q", _s_engine_tally(m, engine))


def _s_engine_tally(m: CombMap, engine: str) -> dict[int, int]:
    """The integer tally of S by doubled exponent, from the engine ``resolve_engine`` names.

    The tally may be a memo value of contraction-deletion, so callers only read it.
    """
    if m.edge_twists:
        raise ValueError(
            "S is defined for twist-free maps; twisted edges are consumed by the Penrose evaluations"
        )
    engine = resolve_engine(m, engine)
    if engine == "state-sum":
        tally = _s_exponents(m)
    elif engine == "contraction-deletion":
        tally = _s_cd(*_kernel(m))
    elif engine == "brauer":
        tally = _s_tally(m)
    else:
        raise ValueError(f"unknown S engine {engine!r}")
    return tally


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
    """Evaluate S at a rational point from the integer tally of the ``auto`` engine."""
    point = Fraction(value)
    total = Fraction(0)
    for doubled, coeff in _s_engine_tally(m, "auto").items():
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

    One frontier sweep, ``brauer._rank_tally``, counts the kept edge sets A
    by |A|, the components c and boundary components f of G|A, and the
    components c* of G*|(E - A).  G|A and G*|(E - A) have the same boundary
    components, so the doubled genera are 2c + |A| - V - f and
    2c* + (E - |A|) - F - f, with F the face count of G.
    """
    if m.edge_twists:
        raise ValueError("the rank polynomial needs a twist-free map")
    ed = m.euler_data()
    data = {}
    for (kept, b0, boundaries, dual_b0), count in _rank_tally(m).items():
        genus2 = 2 * b0 + kept - ed.vertices - boundaries
        dual_genus2 = 2 * dual_b0 + (ed.edges - kept) - ed.faces - boundaries
        _check_doubled(genus2)
        _check_doubled(dual_genus2)
        data[(b0 - ed.components, kept - ed.vertices + b0, genus2, dual_genus2)] = count
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


def virtual_chromatic(m: CombMap, engine: str = "auto") -> HalfLaurent:
    """Chromatic polynomial of a twist-free map, t^(b0 - genus) S(G*).

    Two independent engines compute it.  ``brauer``, which ``auto`` names,
    is one ``_Pairings`` sweep over the map itself (``brauer._chrom_tally``).
    ``contraction-deletion`` runs only by name: deletion-contraction with
    the loop correction ``t^(-1)``, where a loop deletes to the plain term
    and contracts (splitting its vertex) with weight ``t^(-1)``, edgeless
    maps count ``t^(number of vertices)``, and a pendant edge is taken first
    and gives the single branch ``(t - 1) P(G/e)``.
    """
    if m.edge_twists:
        raise ValueError("the chromatic polynomial needs a twist-free map")
    if engine in ("auto", "brauer"):
        tally = _chrom_tally(m)
    elif engine == "contraction-deletion":
        tally = _chrom_cd(*_kernel(m))
    else:
        raise ValueError(f"unknown chromatic engine {engine!r}")
    return HalfLaurent.from_dict("t", tally)


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
    """Minimal genus over all vertex flips, with a witness flip set.

    Flipping every vertex gives the mirror map, and flipping a vertex of
    degree <= 2 changes no face, so a mask and its complement have the same
    genus.  The first mask of least genus, the first genus-0 mask and the
    first that raises therefore all have the top flippable bit clear, and
    only those masks are walked.
    """
    walk = _flip_genera(m)
    flippable = len(m.flippable_vertices())
    if flippable:
        walk = islice(walk, 1 << (flippable - 1))
    best: Optional[tuple[int, int]] = None
    for mask, genus in walk:
        if best is None or genus < best[0]:
            best = (genus, mask)
            if genus == 0:
                break
    assert best is not None
    return best[0], _flip_set(m, best[1])


def wedge(m1: CombMap, v1: int, m2: CombMap, v2: int) -> CombMap:
    """One-point union: splice the rotation of v2 after the rotation of v1."""
    from .maps import _check_index, _rebuild

    _check_index(v1, m1.vertex_count)
    _check_index(v2, m2.vertex_count)
    shift = m1.half_edge_count
    vertices = [list(c) for i, c in enumerate(m1.vertices) if i != v1]
    vertices += [[h + shift for h in c] for i, c in enumerate(m2.vertices) if i != v2]
    vertices.append(list(m1.vertices[v1]) + [h + shift for h in m2.vertices[v2]])
    edges = m1._marked_edges() + [(a + shift, b + shift, t) for a, b, t in m2._marked_edges()]
    return _rebuild(vertices, edges, None)


def special_value_checks(m: CombMap, engine: str = "auto") -> dict:
    """The rational special values tying S to the flow polynomial."""
    s = s_poly(m, engine=engine)
    f = flow_poly(m)
    report: dict = {}
    report["s_at_1_is_zero"] = s.evaluate(1) == 0
    report["s_at_0_equals_flow_at_0"] = s.evaluate(0) == f.evaluate(0)
    has_bridge = bool(m.bridges)
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

