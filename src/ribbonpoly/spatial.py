"""Virtual spatial graph diagrams and their Yamada-style polynomial invariants.

A diagram is a combinatorial map together with a set of distinguished
4-valent vertices standing for classical crossings; the over-strand at each
crossing is recorded as the pair of opposite half-edges it uses.  Virtual
crossings are never represented: in the abstract-map formalism they carry no
information, so diagrams that differ by purely virtual moves are literally
the same object.

Two polynomial extensions of the Yamada polynomial live here.  Both expand
every crossing into a q-weighted smoothing, a q^{-1}-weighted smoothing and
a flat 4-valent vertex with coefficient -1, then evaluate a polynomial of
each resolved map at Q = q + 2 + q^{-1}:

* variant "s" uses the rotation-sensitive polynomial S; the crossing
  states and the edge states of S are summed in one frontier sweep of
  ``brauer``, with a tally per power of q,
* variant "f" uses the flow polynomial and ignores the embedding; the
  crossing states and the kept edge sets are summed in one partition
  sweep of ``brauer``, with a tally per power of q.

Neither sweep builds the 3^c resolved maps; ``expand_crossings`` still
lists them.  It and ``underlying_map`` fuse the strands through the removed
crossings with ``maps.resolve_strands``, as the connect sums do.

Disagreement of the two certifies that the diagram is not equivalent to a
classical (planar-diagram) spatial graph.  The module also carries a move
engine for property testing, the mod-2 crossing obstruction class with an
integral refinement behind a flag, special-value identities linking the
polynomials of a diagram to those of its underlying ribbon graph, and an
exact golden-ratio identity check over Q(zeta_10).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import (
    CyclotomicElement,
    HalfLaurent,
    eval_cyclotomic,
    substitute_q_shift,
)
from .brauer import _corner_pairs, _frontier_sweep, _join_or_cut, _partition_sweep
from .invariants import flow_poly, s_poly
from .maps import CombMap, InvalidMapError, _rebuild, resolve_strands
from .penrose import planarity_by_flips

__all__ = [
    "Crossing",
    "SpatialDiagram",
    "MoveError",
    "ObstructionClass",
    "NonclassicalityReport",
    "MOVE_KINDS",
    "crossingless_diagram",
    "insert_crossing",
    "expand_crossings",
    "yamada",
    "underlying_map",
    "apply_move",
    "r2_insert",
    "r3_slide",
    "move_iv_insert",
    "curl_insert",
    "forbidden_slide",
    "crossing_change",
    "virtualize",
    "obstruction_z2",
    "obstruction_integral",
    "nonclassicality_report",
    "special_evaluation_checks",
    "golden_identity_values",
    "golden_identity_check",
]


# The q-weighted smoothing joins each over-strand half-edge to its rotation
# predecessor, which is the strand turning left out of the over-strand when
# the rotation is drawn counterclockwise.  The assignment cannot be read off
# a text alone; it was pinned by requiring exact invariance of both
# polynomial variants under R2 insertion and is frozen here.  ``mirror=True``
# on the expansion swaps the two weights, realizing the q <-> q^{-1}
# symmetry.
_Q_JOINS_PREDECESSOR = True


class MoveError(ValueError):
    """A move site does not match the move's local pattern."""


@dataclass(frozen=True)
class Crossing:
    """One classical crossing: a 4-valent vertex plus its over-strand pair."""

    vertex: int
    over_pair: tuple[int, int]

    def __post_init__(self) -> None:
        a, b = self.over_pair
        if a > b:
            object.__setattr__(self, "over_pair", (b, a))


@dataclass(frozen=True)
class SpatialDiagram:
    """A combinatorial map with decorated crossing vertices.

    ``orientations`` optionally assigns +1 or -1 to each strand of the
    underlying graph (in the stable strand order produced by the tracer) and
    is consumed only by the integral obstruction.
    """

    base: CombMap
    crossings: tuple[Crossing, ...] = ()
    orientations: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.base.edge_twists:
            raise InvalidMapError("spatial diagrams require a twist-free base map")
        ordered = tuple(sorted(self.crossings, key=lambda c: c.vertex))
        object.__setattr__(self, "crossings", ordered)
        seen: set[int] = set()
        for c in ordered:
            if not 0 <= c.vertex < self.base.vertex_count:
                raise InvalidMapError(f"crossing vertex {c.vertex} out of range")
            if c.vertex in seen:
                raise InvalidMapError(f"vertex {c.vertex} marked as a crossing twice")
            seen.add(c.vertex)
            cycle = self.base.vertices[c.vertex]
            if len(cycle) != 4:
                raise InvalidMapError("crossing vertices must have degree exactly 4")
            if set(c.over_pair) not in ({cycle[0], cycle[2]}, {cycle[1], cycle[3]}):
                raise InvalidMapError(
                    "over_pair must be two opposite half-edges of the crossing rotation"
                )
        if self.orientations is not None:
            normalized = tuple(int(v) for v in self.orientations)
            if any(v not in (1, -1) for v in normalized):
                raise InvalidMapError("strand orientations must be +1 or -1")
            object.__setattr__(self, "orientations", normalized)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def crossing_vertices(self) -> frozenset[int]:
        return frozenset(c.vertex for c in self.crossings)

    def crossing_at(self, h: int) -> Crossing:
        v = self.base.vertex_of[h]
        for c in self.crossings:
            if c.vertex == v:
                return c
        raise MoveError(f"half-edge {h} is not at a crossing vertex")


def crossingless_diagram(m: CombMap) -> SpatialDiagram:
    """The diagram of a ribbon graph drawn without any classical crossings."""
    return SpatialDiagram(m, ())


# -- strand tracing ----------------------------------------------------------


@dataclass(frozen=True)
class StrandData:
    """Strands of the underlying graph, traced through every crossing.

    Strands are numbered with vertex-ended strands first, in increasing
    order of their smallest endpoint half-edge, followed by closed strands
    in increasing order of their smallest half-edge.  Moves never touch the
    half-edges at genuine graph vertices, so the numbering of vertex-ended
    strands is stable across the move engine.
    """

    count: int
    strand_of_half: tuple[int, ...]
    endpoints: tuple[Optional[tuple[int, int]], ...]
    entered: frozenset[int]


def _pass_junction(d: SpatialDiagram) -> dict[int, int]:
    junction: dict[int, int] = {}
    for c in d.crossings:
        cycle = d.base.vertices[c.vertex]
        for i, h in enumerate(cycle):
            junction[h] = cycle[(i + 2) % 4]
    return junction


def _strand_data(d: SpatialDiagram) -> StrandData:
    base = d.base
    alpha = base.alpha
    crossing_vs = d.crossing_vertices()
    junction = _pass_junction(d)
    total = base.half_edge_count
    at_crossing = [base.vertex_of[h] in crossing_vs for h in range(total)]
    strand_of = [-1] * total
    endpoints: list[Optional[tuple[int, int]]] = []
    entered: set[int] = set()
    sid = 0
    for h in range(total):
        if strand_of[h] >= 0 or at_crossing[h]:
            continue
        strand_of[h] = sid
        cur = h
        while True:
            mate = alpha[cur]
            strand_of[mate] = sid
            if not at_crossing[mate]:
                endpoints.append((h, mate))
                break
            entered.add(mate)
            cur = junction[mate]
            strand_of[cur] = sid
        sid += 1
    for h in range(total):
        if strand_of[h] >= 0:
            continue
        # closed strand running through crossings only
        strand_of[h] = sid
        endpoints.append(None)
        cur = h
        while True:
            entered.add(cur)
            out = junction[cur]
            strand_of[out] = sid
            mate = alpha[out]
            if mate == h:
                break
            strand_of[mate] = sid
            cur = mate
        sid += 1
    return StrandData(sid, tuple(strand_of), tuple(endpoints), frozenset(entered))


def _resolve(base: CombMap, junction: dict[int, int]) -> CombMap:
    """Delete the vertices whose half-edges ``junction`` pairs up, fusing the
    strands through them; closed strands become one-vertex loop components,
    labelled after the base map's half-edges."""
    fused, circles = resolve_strands(dict(enumerate(base.alpha)), junction, set())
    vertices = [c for c in base.vertices if not (c and set(c) <= junction.keys())]
    edges = [(a, b) for a, b in base.edges if a not in junction and b not in junction]
    edges += [(a, b) for a, b, _parity in fused]
    for k in range(base.half_edge_count, base.half_edge_count + 2 * circles, 2):
        vertices.append((k, k + 1))
        edges.append((k, k + 1))
    return _rebuild(vertices, edges, None, set())


def underlying_map(d: SpatialDiagram) -> CombMap:
    """The ribbon graph beneath the diagram: every crossing is removed and
    the strands pass straight through it.  Closed strands that meet no graph
    vertex are kept as one-vertex loop components."""
    return _resolve(d.base, _pass_junction(d))


# -- crossing expansion and the polynomials ----------------------------------

_STATES = ("q", "qbar", "flat")


def _smoothing_pairs(
    cycle: tuple[int, ...], over_pair: tuple[int, int], state: str, mirror: bool
) -> dict[int, int]:
    if cycle[0] in over_pair:
        o1, u1, o2, u2 = cycle
    else:
        o1, u1, o2, u2 = cycle[1], cycle[2], cycle[3], cycle[0]
    pred = {o1: u2, u2: o1, o2: u1, u1: o2}
    succ = {o1: u1, u1: o1, o2: u2, u2: o2}
    q_gets_pred = _Q_JOINS_PREDECESSOR != mirror
    if state == "q":
        return pred if q_gets_pred else succ
    return succ if q_gets_pred else pred


def expand_crossings(
    d: SpatialDiagram, mirror: bool = False
) -> tuple[tuple[HalfLaurent, CombMap], ...]:
    """All 3^c resolutions of the diagram as (coefficient, map) pairs.

    Each crossing independently becomes the q-smoothing, the q^{-1}
    smoothing, or a flat 4-valent vertex with coefficient -1.  Free circles
    produced by smoothing appear in the resolved maps as one-vertex loop
    components, which is exact because both polynomial variants are
    subdivision-invariant.
    """
    base = d.base
    out: list[tuple[HalfLaurent, CombMap]] = []
    for states in itertools.product(_STATES, repeat=len(d.crossings)):
        junction: dict[int, int] = {}
        exponent = 0
        sign = 1
        for c, state in zip(d.crossings, states):
            if state == "flat":
                sign = -sign
                continue
            cycle = base.vertices[c.vertex]
            junction.update(_smoothing_pairs(cycle, c.over_pair, state, mirror))
            exponent += 1 if state == "q" else -1
        coeff = HalfLaurent.monomial("q", 2 * exponent, sign)
        out.append((coeff, _resolve(base, junction)))
    return tuple(out)


_YAMADA_CACHE: dict = {}


def yamada(d: SpatialDiagram, variant: str = "s", mirror: bool = False) -> HalfLaurent:
    """The crossing expansion summed against S (variant "s") or the flow
    polynomial (variant "f") of each resolved map at Q = q + 2 + q^{-1}."""
    variant = variant.lower()
    if variant not in ("s", "f"):
        raise ValueError("variant must be 's' or 'f'")
    key = (d, variant, mirror)
    cached = _YAMADA_CACHE.get(key)
    if cached is None:
        cached = _YAMADA_CACHE[key] = (_rs_sweep if variant == "s" else _rf_sweep)(d, mirror)
    return cached


def _local_states(
    d: SpatialDiagram, mirror: bool
) -> list[list[tuple[list[tuple[int, ...]], int, int]]]:
    """Per vertex, its states as (local vertices, weight, q power).

    A graph vertex is one local vertex.  A crossing is flat, its 4-valent
    vertex with weight -1, or smoothed, two degree-2 vertices joining the
    half-edges that ``_smoothing_pairs`` joins, with one factor q or
    q^{-1}.  The smoothed map is a subdivision of the resolved map of
    ``expand_crossings``, so each crossing state sums to the polynomial of
    that map: S and flow are both subdivision-invariant.
    """
    crossing_of = {c.vertex: c for c in d.crossings}
    states = []
    for v, cycle in enumerate(d.base.vertices):
        crossing = crossing_of.get(v)
        if crossing is None:
            states.append([([cycle], 1, 0)])
            continue
        local = [([cycle], -1, 0)]
        for state, power in (("q", 1), ("qbar", -1)):
            junction = _smoothing_pairs(cycle, crossing.over_pair, state, mirror)
            local.append(([(h, g) for h, g in junction.items() if h < g], 1, power))
        states.append(local)
    return states


def _q_stride(d: SpatialDiagram) -> int:
    """Packing of a sweep key: q power k and Q key j as k * stride + j, with |j| < stride / 2."""
    base = d.base
    return 2 * (base.half_edge_count + base.vertex_count + d.crossing_count) + 1


def _q_polynomial(tally: dict[int, int], stride: int) -> HalfLaurent:
    """Unpack a sweep tally by q power and substitute Q = q + 2 + q^{-1} once per power."""
    by_power: dict[int, dict[int, int]] = {}
    for key, count in tally.items():
        power, half_exp = divmod(key + stride // 2, stride)
        by_power.setdefault(power, {})[half_exp - stride // 2] = count
    total = HalfLaurent.zero("q")
    for power, data in by_power.items():
        total = total + substitute_q_shift(HalfLaurent.from_dict("Q", data)).shift(2 * power)
    return total


def _rs_sweep(d: SpatialDiagram, mirror: bool) -> HalfLaurent:
    """R^S from one frontier sweep over the crossing states and edge states.

    Each local vertex enters as its corners with one factor Q^(-1/2); an
    isolated vertex is one free loop against its own factor.
    """
    stride = _q_stride(d)
    options = [
        [
            (
                [arc for group in groups for arc in _corner_pairs(group)],
                weight,
                power * stride - sum(1 for group in groups if group),
            )
            for groups, weight, power in local
        ]
        for local in _local_states(d, mirror)
    ]
    return _q_polynomial(_frontier_sweep(d.base, options, _join_or_cut(d.base)), stride)


def _rf_sweep(d: SpatialDiagram, mirror: bool) -> HalfLaurent:
    """R^F from one partition sweep over the crossing states and kept edge sets."""
    stride = _q_stride(d)
    options = [
        [(groups, weight, power * stride) for groups, weight, power in local]
        for local in _local_states(d, mirror)
    ]
    return _q_polynomial(_partition_sweep(d.base, options), stride)


# -- the move engine ---------------------------------------------------------

MOVE_KINDS = (
    "i",
    "ii",
    "iii",
    "iv",
    "forbidden",
    "crossing_change",
    "virtualize",
    "virtual",
)


def _rebuilt(
    vertices: Iterable[tuple[int, ...]],
    edges: Iterable[tuple[int, int]],
    over_pairs: Iterable[tuple[int, int]],
    orientations: Optional[tuple[int, ...]],
) -> SpatialDiagram:
    base = CombMap(tuple(tuple(c) for c in vertices), tuple(tuple(sorted(e)) for e in edges))
    crossings = tuple(Crossing(base.vertex_of[a], (a, b)) for a, b in over_pairs)
    return SpatialDiagram(base, crossings, orientations)


def _check_half(d: SpatialDiagram, h: int) -> None:
    if not 0 <= h < d.base.half_edge_count:
        raise MoveError(f"half-edge {h} out of range")


def _opposite(cycle: tuple[int, ...], h: int) -> int:
    return cycle[(cycle.index(h) + 2) % 4]


def r2_insert(
    d: SpatialDiagram, h_first: int, h_second: int, over: str = "first"
) -> SpatialDiagram:
    """Poke the strand of ``h_first``'s edge across the strand of
    ``h_second``'s edge, creating a cancelling pair of crossings.  ``over``
    selects which strand passes over at both new crossings."""
    if over not in ("first", "second"):
        raise MoveError("over must be 'first' or 'second'")
    base = d.base
    _check_half(d, h_first)
    _check_half(d, h_second)
    e1 = base.edge_of[h_first]
    e2 = base.edge_of[h_second]
    if e1 == e2:
        raise MoveError("the poke needs two distinct edges")
    u, w = h_first, base.alpha[h_first]
    s, t = h_second, base.alpha[h_second]
    n0, n1, n2, n3, n4, n5, n6, n7 = range(
        base.half_edge_count, base.half_edge_count + 8
    )
    # First crossing, counterclockwise: second-strand exit, first-strand
    # entry, second-strand entry, first-strand exit.  Second crossing is its
    # mirror; the two cancel.
    vertices = list(base.vertices) + [(n0, n1, n2, n3), (n4, n5, n6, n7)]
    edges = [e for i, e in enumerate(base.edges) if i not in (e1, e2)]
    edges += [(u, n1), (n3, n7), (n5, w), (s, n2), (n0, n6), (n4, t)]
    if over == "first":
        new_overs = [(n1, n3), (n5, n7)]
    else:
        new_overs = [(n0, n2), (n4, n6)]
    over_pairs = [c.over_pair for c in d.crossings] + new_overs
    return _rebuilt(vertices, edges, over_pairs, d.orientations)


def curl_insert(
    d: SpatialDiagram, h: int, chirality: int = 1, over: str = "run"
) -> SpatialDiagram:
    """Insert a kink on the edge of ``h``: the strand crosses itself once.
    This changes the polynomials (it is a framing move) but not the
    obstruction class."""
    if chirality not in (1, -1):
        raise MoveError("chirality must be +1 or -1")
    if over not in ("run", "loop"):
        raise MoveError("over must be 'run' or 'loop'")
    base = d.base
    _check_half(d, h)
    u, w = h, base.alpha[h]
    e = base.edge_of[h]
    n0, n1, n2, n3 = range(base.half_edge_count, base.half_edge_count + 4)
    cycle = (n0, n1, n2, n3) if chirality == 1 else (n0, n3, n2, n1)
    vertices = list(base.vertices) + [cycle]
    edges = [pair for i, pair in enumerate(base.edges) if i != e]
    edges += [(u, n2), (n0, n1), (n3, w)]
    over_pair = (n0, n2) if over == "run" else (n1, n3)
    over_pairs = [c.over_pair for c in d.crossings] + [over_pair]
    return _rebuilt(vertices, edges, over_pairs, d.orientations)


def move_iv_insert(
    d: SpatialDiagram,
    h_vertex: int,
    h_edge: int,
    over: str = "edge",
    side: str = "left",
) -> SpatialDiagram:
    """Slide the strand of ``h_edge``'s edge across the whole vertex of
    ``h_vertex``: afterwards it crosses every leg of the vertex once, all
    with the same local pattern.  ``side`` picks which side of the strand
    the vertex ends up on; the two choices are mirror images."""
    if over not in ("edge", "legs"):
        raise MoveError("over must be 'edge' or 'legs'")
    if side not in ("left", "right"):
        raise MoveError("side must be 'left' or 'right'")
    base = d.base
    _check_half(d, h_vertex)
    _check_half(d, h_edge)
    v = base.vertex_of[h_vertex]
    if v in d.crossing_vertices():
        raise MoveError("the swept vertex must be a graph vertex, not a crossing")
    cyc = base.vertices[v]
    i0 = cyc.index(h_vertex)
    legs = cyc[i0:] + cyc[:i0]
    s, t = h_edge, base.alpha[h_edge]
    if base.vertex_of[s] == v or base.vertex_of[t] == v:
        raise MoveError("the sweeping edge must not be incident to the vertex")
    # The strand meets the legs in clockwise order around the vertex; the
    # mirror sweep meets them counterclockwise with each crossing reflected.
    if side == "left":
        seq = tuple(reversed(legs))
    else:
        seq = legs
    n = len(seq)
    start = base.half_edge_count

    def block(i: int) -> int:
        return start + 4 * i

    removed = {base.edge_of[leg] for leg in legs}
    removed.add(base.edge_of[s])
    vertices = list(base.vertices)
    edges = [pair for i, pair in enumerate(base.edges) if i not in removed]
    over_pairs = [c.over_pair for c in d.crossings]
    pos = {leg: i for i, leg in enumerate(seq)}
    handled: set[int] = set()
    for i, leg in enumerate(seq):
        b = block(i)
        # counterclockwise: strand exit, far leg piece, strand entry, vertex side
        if side == "left":
            vertices.append((b, b + 1, b + 2, b + 3))
        else:
            vertices.append((b, b + 3, b + 2, b + 1))
        edges.append((leg, b + 3))
        over_pairs.append((b, b + 2) if over == "edge" else (b + 1, b + 3))
        e_idx = base.edge_of[leg]
        if e_idx in handled:
            continue
        handled.add(e_idx)
        mate = base.alpha[leg]
        if mate in pos:
            edges.append((b + 1, block(pos[mate]) + 1))
        else:
            edges.append((b + 1, mate))
    edges.append((s, block(0) + 2))
    for i in range(n - 1):
        edges.append((block(i), block(i + 1) + 2))
    edges.append((block(n - 1), t))
    return _rebuilt(vertices, edges, over_pairs, d.orientations)


def r3_slide(d: SpatialDiagram, h_pq: int, h_pr: int, h_qr: int) -> SpatialDiagram:
    """Slide a strand across the crossing of the two strands it passes.

    The site names the three internal arcs of the triangle by half-edges:
    ``h_pq`` and ``h_pr`` sit at the first crossing on the arcs toward the
    other two, and ``h_qr`` sits at the second crossing on the arc toward
    the third.  The strand between the first two crossings must pass the
    other two strands on one level (over both or under both).
    """
    base = d.base
    for h in (h_pq, h_pr, h_qr):
        _check_half(d, h)
    alpha = base.alpha
    by_vertex = {c.vertex: c for c in d.crossings}
    p = base.vertex_of[h_pq]
    if base.vertex_of[h_pr] != p:
        raise MoveError("the first two site halves must share a crossing")
    q_p = alpha[h_pq]
    q = base.vertex_of[q_p]
    if base.vertex_of[h_qr] != q:
        raise MoveError("the third site half must sit at the second crossing")
    r_p = alpha[h_pr]
    r = base.vertex_of[r_p]
    r_q = alpha[h_qr]
    if base.vertex_of[r_q] != r:
        raise MoveError("the triangle arcs do not close up at a third crossing")
    if len({p, q, r}) != 3:
        raise MoveError("the triangle needs three distinct crossings")
    for v in (p, q, r):
        if v not in by_vertex:
            raise MoveError("all three triangle corners must be crossings")

    def adjacent(v: int, x: int, y: int) -> bool:
        cyc = base.vertices[v]
        i = cyc.index(x)
        return cyc[(i + 1) % 4] == y or cyc[(i - 1) % 4] == y

    if not (
        adjacent(p, h_pq, h_pr) and adjacent(q, q_p, h_qr) and adjacent(r, r_p, r_q)
    ):
        raise MoveError("triangle arcs must occupy adjacent half-edges at each corner")
    a_over_p = h_pq in by_vertex[p].over_pair
    a_over_q = q_p in by_vertex[q].over_pair
    if a_over_p != a_over_q:
        raise MoveError("the sliding strand must pass the other two on one level")
    strands = (
        (p, h_pq, q, q_p),
        (p, h_pr, r, r_p),
        (q, h_qr, r, r_q),
    )
    tri_halves = set()
    for x_v, x_arc, y_v, y_arc in strands:
        tri_halves.update(
            (x_arc, _opposite(base.vertices[x_v], x_arc), y_arc, _opposite(base.vertices[y_v], y_arc))
        )
    removals: set[tuple[int, int]] = set()
    additions: list[tuple[int, int]] = []
    for x_v, x_arc, y_v, y_arc in strands:
        x_ext = _opposite(base.vertices[x_v], x_arc)
        y_ext = _opposite(base.vertices[y_v], y_arc)
        u = alpha[x_ext]
        w = alpha[y_ext]
        if u in tri_halves or w in tri_halves:
            raise MoveError("the triangle must have six distinct external legs")
        removals.add(tuple(sorted((u, x_ext))))
        removals.add(tuple(sorted((x_arc, y_arc))))
        removals.add(tuple(sorted((y_ext, w))))
        additions += [(u, y_arc), (y_ext, x_ext), (x_arc, w)]
    edges = [pair for pair in base.edges if pair not in removals]
    edges += additions
    over_pairs = [c.over_pair for c in d.crossings]
    return _rebuilt(base.vertices, edges, over_pairs, d.orientations)


def forbidden_slide(d: SpatialDiagram, h: int) -> SpatialDiagram:
    """Commute two consecutive crossings along a strand.

    ``h`` is the half-edge at the first crossing on the connecting arc.
    Both crossings keep their partners, levels and local patterns; only the
    order along the strand changes.  This is not an isotopy move: it
    preserves the obstruction class and the polynomial values at the
    negligible roots, but not the polynomials themselves.
    """
    base = d.base
    _check_half(d, h)
    alpha = base.alpha
    crossing_vs = d.crossing_vertices()
    x_v = base.vertex_of[h]
    if x_v not in crossing_vs:
        raise MoveError("site must sit at a crossing")
    x_out = h
    y_in = alpha[x_out]
    y_v = base.vertex_of[y_in]
    if y_v not in crossing_vs or y_v == x_v:
        raise MoveError("the arc must connect two distinct crossings")
    x_in = _opposite(base.vertices[x_v], x_out)
    y_out = _opposite(base.vertices[y_v], y_in)
    if alpha[x_in] == y_out:
        raise MoveError("the strand closes straight back; nothing to commute")
    u = alpha[x_in]
    w = alpha[y_out]
    removals = {
        tuple(sorted((u, x_in))),
        tuple(sorted((x_out, y_in))),
        tuple(sorted((y_out, w))),
    }
    edges = [pair for pair in base.edges if pair not in removals]
    edges += [(u, y_in), (y_out, x_in), (x_out, w)]
    over_pairs = [c.over_pair for c in d.crossings]
    return _rebuilt(base.vertices, edges, over_pairs, d.orientations)


def crossing_change(d: SpatialDiagram, h: int) -> SpatialDiagram:
    """Exchange the over- and under-strand at the crossing of ``h``."""
    _check_half(d, h)
    c = d.crossing_at(h)
    cycle = d.base.vertices[c.vertex]
    flipped = tuple(sorted(set(cycle) - set(c.over_pair)))
    crossings = tuple(
        Crossing(k.vertex, flipped) if k.vertex == c.vertex else k for k in d.crossings
    )
    return SpatialDiagram(d.base, crossings, d.orientations)


def virtualize(d: SpatialDiagram, h: int) -> SpatialDiagram:
    """Reverse the rotation at the crossing of ``h``, changing its sign."""
    _check_half(d, h)
    c = d.crossing_at(h)
    vertices = list(d.base.vertices)
    vertices[c.vertex] = tuple(reversed(vertices[c.vertex]))
    over_pairs = [k.over_pair for k in d.crossings]
    return _rebuilt(vertices, d.base.edges, over_pairs, d.orientations)


def insert_crossing(
    d: SpatialDiagram,
    h_first: int,
    h_second: int,
    over: str = "first",
    chirality: int = 1,
) -> SpatialDiagram:
    """Surgery, not a move: make the strands of two distinct edges cross
    once.  Useful for constructing genuinely virtual diagrams."""
    if over not in ("first", "second"):
        raise MoveError("over must be 'first' or 'second'")
    if chirality not in (1, -1):
        raise MoveError("chirality must be +1 or -1")
    base = d.base
    _check_half(d, h_first)
    _check_half(d, h_second)
    e1 = base.edge_of[h_first]
    e2 = base.edge_of[h_second]
    if e1 == e2:
        raise MoveError("crossing insertion needs two distinct edges")
    u, w = h_first, base.alpha[h_first]
    s, t = h_second, base.alpha[h_second]
    n0, n1, n2, n3 = range(base.half_edge_count, base.half_edge_count + 4)
    cycle = (n0, n1, n2, n3) if chirality == 1 else (n0, n3, n2, n1)
    vertices = list(base.vertices) + [cycle]
    edges = [pair for i, pair in enumerate(base.edges) if i not in (e1, e2)]
    edges += [(u, n2), (n0, w), (s, n3), (n1, t)]
    over_pair = (n0, n2) if over == "first" else (n1, n3)
    over_pairs = [c.over_pair for c in d.crossings] + [over_pair]
    return _rebuilt(vertices, edges, over_pairs, d.orientations)


def apply_move(d: SpatialDiagram, move: str, site: Iterable[int] = (), **options) -> SpatialDiagram:
    """Apply a named move at a site given by half-edges.

    Raises :class:`MoveError` when the site does not match the move's local
    pattern.  Purely virtual moves never change the abstract map, so the
    kind ``"virtual"`` returns the diagram unchanged.
    """
    kind = move.lower()
    site = tuple(site)

    def need(count: int) -> None:
        if len(site) != count:
            raise MoveError(f"move {kind!r} needs a site of {count} half-edges")

    if kind == "i":
        need(1)
        return curl_insert(d, site[0], **options)
    if kind == "ii":
        need(2)
        return r2_insert(d, site[0], site[1], **options)
    if kind == "iii":
        need(3)
        return r3_slide(d, site[0], site[1], site[2])
    if kind == "iv":
        need(2)
        return move_iv_insert(d, site[0], site[1], **options)
    if kind == "forbidden":
        need(1)
        return forbidden_slide(d, site[0])
    if kind == "crossing_change":
        need(1)
        return crossing_change(d, site[0])
    if kind == "virtualize":
        need(1)
        return virtualize(d, site[0])
    if kind == "virtual":
        return d
    raise ValueError(f"unknown move kind {move!r}")


# -- the crossing obstruction -------------------------------------------------


@dataclass(frozen=True)
class ObstructionClass:
    """Canonical coset representative of the crossing class.

    The class lives in the space spanned by unordered pairs of underlying
    edges modulo the span of the vertex coboundaries.  ``rep`` lists the
    surviving basis pairs with their coefficients; over GF(2) every
    coefficient is 1.
    """

    modulus: int
    strand_count: int
    rep: tuple[tuple[int, int, int], ...]

    def is_zero(self) -> bool:
        return not self.rep

    def render(self) -> str:
        if not self.rep:
            return "0"
        parts = []
        for i, j, coeff in self.rep:
            head = "" if coeff == 1 else f"{coeff}*"
            parts.append(f"{head}e{i}^e{j}")
        return " + ".join(parts)


def _gf2_reduce(x: int, basis: dict[int, int]) -> int:
    for pivot, row in basis.items():
        if (x >> pivot) & 1:
            x ^= row
    return x


def obstruction_z2(d: SpatialDiagram) -> ObstructionClass:
    """The mod-2 crossing class: the sum of e^f over all crossings between
    distinct underlying edges, reduced to canonical form modulo the
    coboundaries of (vertex, edge) pairs."""
    data = _strand_data(d)
    base = d.base
    n = data.count
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}

    def bit(a: int, b: int) -> int:
        return 1 << index[(a, b) if a < b else (b, a)]

    cls = 0
    for c in d.crossings:
        cycle = base.vertices[c.vertex]
        s1 = data.strand_of_half[cycle[0]]
        s2 = data.strand_of_half[cycle[1]]
        if s1 != s2:
            cls ^= bit(s1, s2)
    crossing_vs = d.crossing_vertices()
    basis: dict[int, int] = {}
    for v in range(base.vertex_count):
        if v in crossing_vs:
            continue
        incident = [data.strand_of_half[h] for h in base.vertices[v]]
        for f in range(n):
            gen = 0
            for s in incident:
                if s != f:
                    gen ^= bit(s, f)
            gen = _gf2_reduce(gen, basis)
            if not gen:
                continue
            pivot = gen.bit_length() - 1
            for key, row in list(basis.items()):
                if (row >> pivot) & 1:
                    basis[key] = row ^ gen
            basis[pivot] = gen
    rep_bits = _gf2_reduce(cls, basis)
    rep = tuple(
        (pairs[i][0], pairs[i][1], 1)
        for i in range(len(pairs))
        if (rep_bits >> i) & 1
    )
    return ObstructionClass(2, n, rep)


def _hermite_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite form (integer, pivots positive) by Euclidean row ops."""
    mat = [row[:] for row in rows if any(row)]
    if not mat:
        return []
    width = len(mat[0])
    result: list[list[int]] = []
    col = 0
    while mat and col < width:
        live = [r for r in mat if r[col] != 0]
        if not live:
            col += 1
            continue
        while True:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            done = True
            for r in live[1:]:
                q = r[col] // pivot[col]
                if q:
                    for k in range(width):
                        r[k] -= q * pivot[k]
                if r[col] != 0:
                    done = False
            live = [pivot] + [r for r in live[1:] if r[col] != 0]
            if done or len(live) == 1:
                break
        pivot = live[0]
        if pivot[col] < 0:
            for k in range(width):
                pivot[k] = -pivot[k]
        result.append(pivot)
        mat = [r for r in mat if r is not pivot and any(r)]
        col += 1
    # reduce entries above each pivot for a canonical staircase
    for i in range(len(result) - 1, -1, -1):
        pcol = next(k for k, val in enumerate(result[i]) if val != 0)
        for j in range(i):
            q = result[j][pcol] // result[i][pcol]
            if q:
                for k in range(len(result[i])):
                    result[j][k] -= q * result[i][k]
    return result


def obstruction_integral(
    d: SpatialDiagram, orientations: Optional[tuple[int, ...]] = None
) -> ObstructionClass:
    """Integral refinement of the crossing class, using strand orientations
    to sign each crossing.  Orientations default to the trace direction; the
    mod-2 class is the supported invariant and this refinement sits behind
    an explicit opt-in."""
    data = _strand_data(d)
    base = d.base
    n = data.count
    if orientations is None:
        orientations = d.orientations or tuple([1] * n)
    if len(orientations) != n:
        raise ValueError(f"expected {n} strand orientations, got {len(orientations)}")
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}

    def slot(a: int, b: int) -> int:
        return index[(a, b) if a < b else (b, a)]

    width = len(pairs)
    cls = [0] * width
    for c in d.crossings:
        cycle = base.vertices[c.vertex]
        s1 = data.strand_of_half[cycle[0]]
        s2 = data.strand_of_half[cycle[1]]
        if s1 == s2:
            continue
        in1 = cycle[0] if cycle[0] in data.entered else cycle[2]
        if orientations[s1] < 0:
            in1 = _opposite(cycle, in1)
        in2 = cycle[1] if cycle[1] in data.entered else cycle[3]
        if orientations[s2] < 0:
            in2 = _opposite(cycle, in2)
        sign = 1 if cycle[(cycle.index(in1) + 1) % 4] == in2 else -1
        cls[slot(s1, s2)] += sign
    crossing_vs = d.crossing_vertices()
    gens: list[list[int]] = []
    head_at: dict[int, list[int]] = {}
    for s, ends in enumerate(data.endpoints):
        if ends is None:
            continue
        start, end = ends
        head = end if orientations[s] > 0 else start
        tail = start if orientations[s] > 0 else end
        head_at.setdefault(base.vertex_of[head], []).append(s)
        head_at.setdefault(base.vertex_of[tail], []).append(~s)
    for v in range(base.vertex_count):
        if v in crossing_vs:
            continue
        marks = head_at.get(v, [])
        for f in range(n):
            gen = [0] * width
            for mark in marks:
                s = mark if mark >= 0 else ~mark
                if s == f:
                    continue
                gen[slot(s, f)] += 1 if mark >= 0 else -1
            if any(gen):
                gens.append(gen)
    hnf = _hermite_rows(gens)
    for row in hnf:
        pcol = next(k for k, val in enumerate(row) if val != 0)
        q = cls[pcol] // row[pcol]
        if q:
            for k in range(width):
                cls[k] -= q * row[k]
    rep = tuple(
        (pairs[i][0], pairs[i][1], cls[i]) for i in range(width) if cls[i] != 0
    )
    return ObstructionClass(0, n, rep)


# -- verdicts and identities ---------------------------------------------------


@dataclass(frozen=True)
class NonclassicalityReport:
    rs: HalfLaurent
    rf: HalfLaurent
    distinct: bool
    cubic: bool
    verdict: str
    detail: str


def _is_cubic_graph_diagram(d: SpatialDiagram, data: StrandData) -> bool:
    base = d.base
    crossing_vs = d.crossing_vertices()
    real = [v for v in range(base.vertex_count) if v not in crossing_vs]
    if not real:
        return False
    if any(base.degree(v) != 3 for v in real):
        return False
    return all(ends is not None for ends in data.endpoints)


def nonclassicality_report(d: SpatialDiagram) -> NonclassicalityReport:
    """Compare the two polynomial variants.  They agree on every diagram of
    a classical spatial graph, so disagreement is a proof of
    non-classicality; agreement proves nothing."""
    rs = yamada(d, "s")
    rf = yamada(d, "f")
    distinct = rs != rf
    cubic = _is_cubic_graph_diagram(d, _strand_data(d))
    if distinct:
        verdict = "nonclassical"
        detail = (
            "the rotation-sensitive and flow-based polynomials disagree, so the"
            " diagram is not equivalent to any classical spatial graph"
        )
        if cubic:
            detail += (
                "; the graph is cubic, so the diagram is not even"
                " pliable-vertex equivalent to a classical one"
            )
    else:
        verdict = "inconclusive"
        detail = (
            "the two polynomials coincide; this happens for every classical"
            " diagram but also for some genuinely virtual ones"
        )
    return NonclassicalityReport(rs, rf, distinct, cubic, verdict, detail)


def special_evaluation_checks(d: SpatialDiagram) -> dict:
    """Exact identities tying the diagram polynomials to the underlying
    ribbon graph.  The two branches that require a vanishing obstruction
    class (or a planar flip witness) report None when their hypothesis
    fails."""
    rs = yamada(d, "s")
    rf = yamada(d, "f")
    beneath = underlying_map(d)
    s = s_poly(beneath)
    f = flow_poly(beneath)
    s_zero = s.evaluate(0)
    f_zero = f.evaluate(0)
    obstruction = obstruction_z2(d)
    checks: dict = {
        "rs_minus_one_equals_s_at_zero": rs.evaluate(-1) == s_zero,
        "rf_minus_one_equals_f_at_zero": rf.evaluate(-1) == f_zero,
        "s_zero_equals_f_zero": s_zero == f_zero,
        "rs_one_equals_s_at_four": rs.evaluate(1) == s.evaluate(4),
        "obstruction_is_zero": obstruction.is_zero(),
    }
    if obstruction.is_zero():
        checks["rf_one_equals_f_at_four"] = rf.evaluate(1) == f.evaluate(4)
        witness = planarity_by_flips(beneath)["witness"]
        if witness is None:
            checks["flip_witness_sign_relation"] = None
        else:
            sign = (-1) ** sum(beneath.degree(v) for v in witness)
            checks["flip_witness_sign_relation"] = rf.evaluate(1) == sign * rs.evaluate(1)
    else:
        checks["rf_one_equals_f_at_four"] = None
        checks["flip_witness_sign_relation"] = None
    return checks


def golden_identity_values(
    d: SpatialDiagram, allow_virtual: bool = False
) -> tuple[CyclotomicElement, CyclotomicElement]:
    """Both sides of the golden identity in Q(zeta_10).

    The left side evaluates the rotation-sensitive polynomial at
    q = zeta_10 and the right side is phi^{|E|} times the square of its
    value at q = zeta_10^8, with phi = zeta_10 + zeta_10^{-1} the golden
    ratio.  The rotation-sensitive variant is used throughout; on classical
    diagrams it agrees with the flow variant.
    """
    data = _strand_data(d)
    if not _is_cubic_graph_diagram(d, data):
        raise InvalidMapError("golden identity requires a cubic spatial graph diagram")
    if not allow_virtual and d.base.genus() != 0:
        raise InvalidMapError(
            "golden identity requires a classical diagram;"
            " pass allow_virtual=True to evaluate it anyway"
        )
    r = yamada(d, "s")
    lhs = eval_cyclotomic(r, 10, 1)
    second = eval_cyclotomic(r, 10, 8, allow_nonprimitive=True)
    phi = CyclotomicElement.root_power(10, 1) + CyclotomicElement.root_power(10, 9)
    rhs = (phi ** data.count) * second * second
    return lhs, rhs


def golden_identity_check(d: SpatialDiagram, allow_virtual: bool = False) -> bool:
    """Whether the golden identity holds for the diagram, exactly."""
    lhs, rhs = golden_identity_values(d, allow_virtual=allow_virtual)
    return lhs == rhs
