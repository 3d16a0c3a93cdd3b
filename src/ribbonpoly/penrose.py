"""Penrose polynomials of signed maps and the cellular embedding polynomial.

Two scalar invariants live here.  ``w_so`` replaces every vertex with its
cyclic strand diagram and every edge with (straight - crossed), so closed
strands count powers of N; twist marks swap the two edge resolutions and
negate the value.  ``w_sl`` extends the cubic Penrose polynomial to signed
maps through the flip expansion of the S-polynomial: ``w_sl_brauer`` sums
over the sets of reversed vertices and the edge states (each edge joined
or cut), in which each vertex enters with its cyclic or its reversed
corners.  Both are one ``brauer._sweep`` over pairings (``_Pairings``),
which counts an isolated vertex as one closed strand.  The strand walker of
``invariants`` serves the vertex flips of the cellular embedding
polynomial.  The normalization is pinned by the anchor values: an isolated
vertex gives N (so) and 1 + s(v) (sl), a single-vertex loop gives N(N-1),
the planar theta gives N(N-1)(N-2), and subdividing an edge doubles
``w_so``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import HalfLaurent
from .brauer import _join_or_cut, _Pairings, _sweep
from .invariants import _flip_genera, g_min
from .maps import CombMap, ConnectSumError, InvalidMapError, _check_index, _rebuild, _splice

__all__ = [
    "parity_signs",
    "with_signs",
    "w_so",
    "w_so_relation_suite",
    "degree2_connect_sum",
    "so_connect_sum_checks",
    "w_sl_extended",
    "w_sl_brauer",
    "w_sl_relation_suite",
    "sl_connect_sum_checks",
    "so_as_sl_check",
    "theta_sl_value",
    "cellular_embedding_poly",
    "planarity_by_flips",
    "penrose_number_checks",
    "ihx_check",
]


def parity_signs(m: CombMap) -> tuple[int, ...]:
    """The default signing s(v) = (-1)^deg(v)."""
    return tuple(-1 if len(cycle) % 2 else 1 for cycle in m.vertices)


def with_signs(m: CombMap, signs: Optional[Sequence[int]] = None) -> CombMap:
    """Attach a total vertex signing (parity signs when omitted)."""
    chosen = parity_signs(m) if signs is None else tuple(signs)
    return CombMap(m.vertices, m.edges, chosen, m.edge_twists)


def _signs_of(m: CombMap, signs: Optional[Sequence[int]]) -> tuple[int, ...]:
    if signs is not None:
        chosen = tuple(signs)
    elif m.vertex_signs is not None:
        chosen = m.vertex_signs
    else:
        chosen = parity_signs(m)
    if len(chosen) != m.vertex_count or any(s not in (1, -1) for s in chosen):
        raise InvalidMapError("vertex signs must assign +1 or -1 to every vertex")
    return chosen


# ---------------------------------------------------------------------------
# The so(N) polynomial.
# ---------------------------------------------------------------------------


def w_so(m: CombMap) -> HalfLaurent:
    """State sum over the 2^E edge resolutions, in N.

    Each untwisted edge splits into a straight band (+1) and a crossed band
    (-1); a twist mark swaps the two signs.  Every closed strand contributes
    a factor of N, as does every isolated vertex.  Each vertex enters as its
    cyclic strand diagram, and the edge resolutions compose in one
    ``brauer._sweep`` of ``_Pairings``.
    """
    options = [[([cycle], 1, 0)] for cycle in m.vertices]
    closings = []
    for e, (_a, b) in enumerate(m.edges):
        sign = -1 if e in m.edge_twists else 1
        closings.append(((2 * b + 1, sign, 0), (2 * b, -sign, 0)))
    tally = _sweep(m, options, _Pairings(m, closings))
    return HalfLaurent.from_dict("N", {2 * count: coeff for count, coeff in tally.items()})


def w_so_relation_suite(m: CombMap, e: int) -> dict:
    """Check the local rules of ``w_so`` around one edge.

    The contraction rule W(G) = W(G/e) - W((tau_e G)/e) holds for loops and
    non-loops alike; vertex flips scale by (-1)^deg, twists negate, and
    subdivision doubles.
    """
    base = w_so(m)
    contracted = w_so(m.contract(e))
    twisted_contracted = w_so(m.toggle_twist(e).contract(e))
    report = {
        "contraction_rule": base == contracted - twisted_contracted,
        "twist_rule": w_so(m.toggle_twist(e)) == -base,
        "subdivision_rule": w_so(m.subdivide(e)) == base.scale(2),
        "flip_rule": all(
            w_so(m.vertex_flip(v)) == (base if m.degree(v) % 2 == 0 else -base)
            for v in range(m.vertex_count)
        ),
    }
    a, b = m.edges[e]
    if m.is_loop(e) and (m.sigma[a] == b or m.sigma[b] == a):
        n_minus_1 = HalfLaurent.from_dict("N", {2: 1, 0: -1})
        report["adjacent_loop_rule"] = base == n_minus_1 * w_so(m.delete_edge(e))
    report["passed"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# Connect sums.
# ---------------------------------------------------------------------------


def degree2_connect_sum(m1: CombMap, v1: int, m2: CombMap, v2: int) -> CombMap:
    """Connect sum along two degree-2 vertices.

    Both vertices are removed and their stubs fused in reversed rotation
    order by ``maps._splice``, as in ``vertex_connect_sum``.  Vertex signs
    of the survivors are kept.
    """
    _check_index(v1, m1.vertex_count)
    _check_index(v2, m2.vertex_count)
    if m1.degree(v1) != 2 or m2.degree(v2) != 2:
        raise ConnectSumError("degree-2 connect sum needs degree-2 vertices")
    shift = m1.half_edge_count
    p, q = m1.vertices[v1]
    r, s = (h + shift for h in m2.vertices[v2])
    union = m1.disjoint_union(m2)
    return _splice(union, {p: s, s: p, q: r, r: q}, union.vertex_signs)


def so_connect_sum_checks(m1: CombMap, m2: CombMap) -> dict:
    """Multiplicativity of ``w_so`` under degree-2 and degree-3 connect sums."""
    from .maps import vertex_connect_sum

    g1, g2 = m1.subdivide(0), m2.subdivide(0)
    # the subdivision vertex holds the first fresh half-edge
    u1, u2 = g1.vertex_of[m1.half_edge_count], g2.vertex_of[m2.half_edge_count]
    two_sum = degree2_connect_sum(g1, u1, g2, u2)
    scale2 = HalfLaurent.from_dict("N", {4: 2, 2: -2})
    report = {"degree2_rule": scale2 * w_so(two_sum) == w_so(g1) * w_so(g2)}
    t1 = next((v for v in range(m1.vertex_count) if m1.degree(v) == 3), None)
    t2 = next((v for v in range(m2.vertex_count) if m2.degree(v) == 3), None)
    if t1 is not None and t2 is not None:
        three_sum = vertex_connect_sum(m1, t1, m1.vertices[t1][0], m2, t2, m2.vertices[t2][0])
        scale3 = HalfLaurent.from_dict("N", {6: 1, 4: -3, 2: 2})
        report["degree3_rule"] = scale3 * w_so(three_sum) == w_so(m1) * w_so(m2)
    report["passed"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# The extended sl(N) polynomial.
# ---------------------------------------------------------------------------

def w_sl_brauer(m: CombMap, signs: Optional[Sequence[int]] = None) -> HalfLaurent:
    """Flip expansion: sum over W of (prod of s on W) times the diagrams of flip_W.

    Vertices expand as (cyclic + s(v) reversed) / N, untwisted edges as
    (N band - cut), twisted edges as (N crossed - cut); closed strands and
    isolated vertices count powers of N.  Reversing a vertex of degree <= 2
    is a no-op, so those vertices factor out as (1 + s(v)).  The local
    diagrams compose in one frontier sweep, in which each vertex of degree
    >= 3 enters with its cyclic corners (weight 1) or its reversed ones
    (weight s(v)).
    """
    chosen = _signs_of(m, signs)
    prefactor = 1
    for v in range(m.vertex_count):
        if m.degree(v) <= 2:
            prefactor *= 1 + chosen[v]
    # Reversing every rotation swaps points 2h and 2h+1, which keeps bands,
    # crossed bands and cuts, so a flip set W and its complement in
    # ``flippable`` share one tally.  The first flippable vertex enters
    # cyclic only, and the tally is weighed by prod_W s + prod_complement s,
    # which is prod_W s (1 + prod s) since every sign is +1 or -1.
    flippable = m.flippable_vertices()
    if flippable:
        prefactor *= 1 + math.prod(chosen[v] for v in flippable)
    if not prefactor:
        return HalfLaurent.zero("N")
    options = []
    for v, cycle in enumerate(m.vertices):
        cyclic = ([cycle], 1, -1)
        if len(cycle) <= 2 or v == flippable[0]:
            options.append([cyclic])
        else:
            options.append([cyclic, ([cycle[::-1]], chosen[v], -1)])
    # Each edge is cut or joined: by a band, or by a crossed band when
    # twisted.  Joined edges and strands each count a power of N.
    tally = _sweep(m, options, _Pairings(m, _join_or_cut(m)))
    return HalfLaurent.from_dict("N", {2 * k: prefactor * c for k, c in tally.items()})


# Not memoized: a memo key (the signature of the signed map) costs about a
# third of the sweep it would save.
w_sl_extended = w_sl_brauer


def _merge_contract(
    m: CombMap, signs: Sequence[int], e: int, reverse_end: Optional[int]
) -> CombMap:
    """Contract a non-loop edge at the signed level.

    The merged vertex takes the product sign.  ``reverse_end`` optionally
    names the half-edge whose vertex rotation is reversed before merging.
    """
    a, b = m.edges[e]
    if reverse_end is not None:
        m = m.vertex_flip(m.vertex_of[reverse_end])
    ua, ub = m.vertex_of[a], m.vertex_of[b]
    a_cycle = m._cycle_from(a)
    b_cycle = m._cycle_from(b)
    merged = list(a_cycle[1:]) + list(b_cycle[1:])
    vertices = [merged]
    new_signs = [signs[ua] * signs[ub]]
    for i, cycle in enumerate(m.vertices):
        if i in (ua, ub):
            continue
        vertices.append(list(cycle))
        new_signs.append(signs[i])
    edges = [edge for i, edge in enumerate(m._marked_edges()) if i != e]
    return _rebuild(vertices, edges, new_signs)


def _split_contract(m: CombMap, signs: Sequence[int], e: int, sign_pair: tuple[int, int]) -> CombMap:
    """Contract a loop at the signed level: the vertex splits in two."""
    a, b = m.edges[e]
    u = m.vertex_of[a]
    cycle = m._cycle_from(a)
    cut = cycle.index(b)
    x_part, y_part = cycle[1:cut], cycle[cut + 1 :]
    vertices = [list(x_part), list(y_part)]
    new_signs = list(sign_pair)
    for i, c in enumerate(m.vertices):
        if i != u:
            vertices.append(list(c))
            new_signs.append(signs[i])
    edges = [edge for i, edge in enumerate(m._marked_edges()) if i != e]
    return _rebuild(vertices, edges, new_signs)


def _subdivide_signed(m: CombMap, signs: Sequence[int], e: int, a: int) -> CombMap:
    """Subdivide an edge, giving the new vertex sign ``a``."""
    divided = with_signs(m, signs).subdivide(e)
    new_signs = list(divided.vertex_signs)
    new_signs[divided.vertex_of[m.half_edge_count]] = a
    return with_signs(divided, new_signs)


def w_sl_relation_suite(m: CombMap, e: int) -> dict:
    """Check the signed contraction-deletion relations around one edge.

    Non-loop: W(G) = W(G/e) + s(v) W((flip_v G)/e) - W(G - e), merging to
    the product sign.  Loop: W(G) = (N^2/2)(W(split; s, as) +
    W(split; -s, -as)) - W(G - e).  Flips scale by s(v); subdividing with a
    positive vertex doubles and with a negative vertex annihilates.
    """
    if m.edge_twists:
        raise ValueError("the relation suite needs a twist-free map")
    signs = _signs_of(m, None)
    base = w_sl_extended(m, signs)
    a, b = m.edges[e]
    # deletion may empty a vertex and reorder; let the map carry its signs
    deleted = w_sl_extended(with_signs(m, signs).delete_edge(e))
    report: dict = {}
    if not m.is_loop(e):
        sign_u = signs[m.vertex_of[a]]
        sign_v = signs[m.vertex_of[b]]
        plain = _merge_contract(m, signs, e, None)
        flip_b = _merge_contract(m, signs, e, b)
        flip_a = _merge_contract(m, signs, e, a)
        report["edge_rule"] = base == (
            w_sl_extended(plain) + w_sl_extended(flip_b).scale(sign_v) - deleted
        )
        report["edge_rule_other_end"] = base == (
            w_sl_extended(plain) + w_sl_extended(flip_a).scale(sign_u) - deleted
        )
    else:
        sign_u = signs[m.vertex_of[a]]
        split_plus = _split_contract(m, signs, e, (1, sign_u))
        split_minus = _split_contract(m, signs, e, (-1, -sign_u))
        half_nn = (w_sl_extended(split_plus) + w_sl_extended(split_minus)).scale(
            Fraction(1, 2)
        ).shift(4)
        report["loop_rule"] = base == half_nn - deleted
    report["flip_rule"] = all(
        w_sl_extended(m.vertex_flip(v), signs) == base.scale(signs[v])
        for v in range(m.vertex_count)
    )
    report["subdivision_positive"] = w_sl_extended(_subdivide_signed(m, signs, e, 1)) == base.scale(2)
    report["subdivision_negative"] = w_sl_extended(_subdivide_signed(m, signs, e, -1)).is_zero()
    report["passed"] = all(report.values())
    return report


def theta_sl_value(sign: int) -> HalfLaurent:
    """The sl pairing of two degree-3 vertices of equal sign."""
    if sign == 1:
        return HalfLaurent.from_dict("N", {8: 2, 4: -10, 0: 8})
    return HalfLaurent.from_dict("N", {8: 2, 4: -2})


def sl_connect_sum_checks(m1: CombMap, v1: int, m2: CombMap, v2: int) -> dict:
    """Connect-sum relations for ``w_sl`` with parity signs.

    Degree-2 sums happen at positive subdivision vertices; degree-3 sums at
    the designated trivalent vertices, paired against the theta values.
    """
    from .maps import vertex_connect_sum

    if m1.degree(v1) != 3 or m2.degree(v2) != 3:
        raise ConnectSumError("the designated vertices must be trivalent")
    g1, g2 = m1.subdivide(0), m2.subdivide(0)
    # the subdivision vertex holds the first fresh half-edge
    u1, u2 = g1.vertex_of[m1.half_edge_count], g2.vertex_of[m2.half_edge_count]
    two_sum = degree2_connect_sum(with_signs(g1), u1, with_signs(g2), u2)
    # pairing object for degree-2 sums: the doubled edge with two positive
    # vertices, whose value is 4(N^2 - 1)
    pairing = HalfLaurent.from_dict("N", {4: 4, 0: -4})
    report = {
        "degree2_rule": pairing * w_sl_extended(two_sum)
        == w_sl_extended(g1) * w_sl_extended(g2)
    }

    # surviving vertices keep their degrees, so the parity default is the
    # inherited signing
    three_sum = vertex_connect_sum(m1, v1, m1.vertices[v1][0], m2, v2, m2.vertices[v2][0])
    lhs = theta_sl_value(1) * theta_sl_value(-1) * w_sl_extended(three_sum)
    rhs = HalfLaurent.zero("N")
    for a in (1, -1):
        s1 = list(parity_signs(m1))
        s2 = list(parity_signs(m2))
        s1[v1] = a
        s2[v2] = a
        pair = w_sl_extended(m1, s1) * w_sl_extended(m2, s2)
        rhs = rhs + theta_sl_value(-a) * pair
    report["degree3_rule"] = lhs == rhs
    report["passed"] = all(report.values())
    return report


def so_as_sl_check(m: CombMap) -> dict:
    """Twist expansion linking the two Penrose polynomials.

    With the anchor normalization used here, summing (-1)^|S| w_sl over all
    twist patterns S gives 2^V N^(E-V) w_so.
    """
    signs = parity_signs(m)
    total = HalfLaurent.zero("N")
    for mask in range(1 << m.edge_count):
        candidate = m
        flips = 0
        for e in range(m.edge_count):
            if mask >> e & 1:
                candidate = candidate.toggle_twist(e)
                flips += 1
        sign = -1 if flips % 2 else 1
        total = total + w_sl_brauer(candidate, signs).scale(sign)
    expected = w_so(m).scale(2**m.vertex_count).shift(2 * (m.edge_count - m.vertex_count))
    return {"identity": total == expected, "passed": total == expected}


# ---------------------------------------------------------------------------
# Cellular embedding polynomial and planarity.
# ---------------------------------------------------------------------------


def cellular_embedding_poly(m: CombMap) -> HalfLaurent:
    """Signed genus generating function over all vertex flips of a cubic map.

    C(x) = sum over W of (-1)^|W| x^genus(flip_W).  Reversing every rotation
    fixes the genus, so C(1) = 0 whenever a vertex exists.

    Flipping every vertex switches each non-loop edge twice, so W and its
    complement walk the same strands, and a cubic map has an even number of
    vertices, so they also have the same sign.  Only the masks with the top
    bit clear are walked, each counted twice; mask 0 comes first, so a
    non-orientable map still raises.
    """
    if any(m.degree(v) != 3 for v in range(m.vertex_count)):
        raise InvalidMapError("the cellular embedding polynomial needs a cubic map")
    walk, weight = _flip_genera(m), 1
    if m.vertex_count:
        walk, weight = itertools.islice(walk, 1 << (m.vertex_count - 1)), 2
    data: dict[int, int] = {}
    for mask, genus in walk:
        sign = -weight if mask.bit_count() % 2 else weight
        data[2 * genus] = data.get(2 * genus, 0) + sign
    return HalfLaurent.from_dict("x", data)


def planarity_by_flips(m: CombMap) -> dict:
    """Search the flip lattice for a genus-0 rotation system.

    For bridgeless maps the answer is cross-checked against the degree of
    the parity-signed ``w_sl``: maximal degree 2*b1 is equivalent to a
    planar witness.
    """
    genus, flipped = g_min(m)
    witness = flipped if genus == 0 else None
    report: dict = {"planar_somehow": witness is not None, "witness": witness}
    if m.edge_count and not m.bridges:
        b1 = m.euler_data().first_betti
        degree, _ = w_sl_extended(m, parity_signs(m)).degree_leading()
        report["degree_coherent"] = (degree == 2 * b1) == (witness is not None)
    else:
        report["degree_coherent"] = None
    return report


def penrose_number_checks(m: CombMap) -> dict:
    """Evaluations tying w_so, w_sl, and the S-polynomial together.

    Parity signs throughout: w_sl(2) = 2^V S(4) and vanishes for any other
    signing; only even powers appear; the binor route gives
    2^V (-2)^(E-V) w_so(-2) = 2^E w_sl(-2), and a twist negates w_sl(-2).
    """
    from .invariants import s_poly_at

    signs = parity_signs(m)
    sl = w_sl_extended(m, signs)
    so = w_so(m)
    v_count, e_count = m.vertex_count, m.edge_count
    report = {
        "binor_route": 2**v_count * Fraction(-2) ** (e_count - v_count) * so.evaluate(-2)
        == 2**e_count * sl.evaluate(-2),
    }
    if not m.edge_twists:
        # twist marks put odd powers of N into w_sl and take the map outside
        # the domain of S, so these relations only apply twist-free
        report["sl2_is_s4"] = sl.evaluate(2) == 2**v_count * s_poly_at(m, 4)
        report["even_powers_only"] = all(exp % 4 == 0 for exp, _ in sl.terms)
        report["sl_symmetric"] = sl.evaluate(2) == sl.evaluate(-2)
    if e_count:
        report["twist_negates_at_minus2"] = w_sl_brauer(m.toggle_twist(0), signs).evaluate(
            -2
        ) == -sl.evaluate(-2)
    if v_count:
        flipped = list(signs)
        flipped[0] = -flipped[0]
        report["nonparity_vanishes"] = w_sl_extended(m, flipped).evaluate(2) == 0
    report["passed"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# IHX.
# ---------------------------------------------------------------------------


def _closed_diagram(legs_u: tuple[int, int], closure: tuple[tuple[int, int], ...]) -> CombMap:
    """Two trivalent vertices with legs 0-3 joined per the closure pairs.

    Vertex u carries ``legs_u`` and the internal edge half 4; vertex v
    carries half 5 and the remaining legs in ascending order.
    """
    legs_v = tuple(h for h in range(4) if h not in legs_u)
    vertices = ((legs_u[0], legs_u[1], 4), (5,) + legs_v)
    edges = tuple(closure) + ((4, 5),)
    return CombMap(vertices, edges)


def ihx_check() -> dict:
    """The local three-term relation of ``w_so`` on two closures.

    The three diagrams distribute legs (12)(34), (13)(24), (14)(23) over the
    two ends of an internal edge; the first equals the difference of the
    other two however the legs are closed off.
    """
    report = {}
    for name, closure in (
        ("closure_a", ((0, 1), (2, 3))),
        ("closure_b", ((0, 2), (1, 3))),
    ):
        i_term = w_so(_closed_diagram((0, 1), closure))
        h_term = w_so(_closed_diagram((0, 2), closure))
        x_term = w_so(_closed_diagram((0, 3), closure))
        report[name] = i_term == h_term - x_term
    report["passed"] = all(report.values())
    return report
