"""Brute-force oracles for the incremental state sums, the flip walk, the map
signature and the bridge test, and the contraction-deletion recursions on
validated maps.

Each state-sum oracle rebuilds its per-subset data from scratch and builds its
own corner arcs and strand count, so it shares no code with the strand walker
in ``ribbonpoly``.  The flip oracles build every rotation variant as a
``CombMap`` and read its genus from ``euler_data``; the flip expansions of
``w_sl`` build each flip likewise and take its edge states from S by
contraction-deletion or from the strand walker, apart from the frontier
sweep; the walker oracle of ``w_so`` switches one edge resolution per
state, apart from the sweep as well.  The R^S and R^F oracle sums S or
flow over every crossing resolution that ``expand_crossings`` builds.  The
signature oracle builds every start's full code and takes the minimum, with
no early exit.  The bridge oracle deletes the edge and counts components.  The
contraction-deletion oracles recurse on ``CombMap.contract`` and
``CombMap.delete_edge`` and memoize on ``CombMap.signature``, so they share no
code with the half-edge kernel in ``ribbonpoly.invariants``.  The census
oracles list every rotation on a fixed edge involution, and every cubic
adjacency matrix, and reject isomorphs by a canonical form that walks the full
individualization tree with dense refinement and no pruning.  The Brauer
oracles compose and juxtapose matchings through their sets of pairs and a
neighbour graph, and evaluate the functor one ``HalfLaurent`` term per edge
state, apart from the partner arrays of ``BrauerMatching``.  The face oracle walks the
twist-free face permutation, or joins band sides by union-find, apart from the
double cover of ``CombMap.face_count``.  The surgery oracles are the connect
sums, crossing resolution and signed subdivision as they were before every
strand splice went through ``maps._splice`` or ``spatial._resolve``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from ribbonpoly import spatial as sp
from ribbonpoly.algebra import HalfLaurent, KrushkalPoly, substitute_q_shift
from ribbonpoly.brauer import BrauerMatching
from ribbonpoly.fixtures import BOUQUET2_INT, BRIDGE, LOOP1, THETA_P, THETA_T
from ribbonpoly.generate import POINT, Matrix, _sigma_cycles, bouquet
from ribbonpoly.invariants import _cut_exponents, _gray_toggles, _StrandWalker, flow_poly, s_poly
from ribbonpoly.maps import CombMap, ConnectSumError, _rebuild, resolve_strands
from ribbonpoly.penrose import parity_signs, w_sl_extended, with_signs

# Maps the exhaustive family leaves out or rarely reaches: no edges, isolated
# vertices, degree-1 vertices, adjacent loops and several components.
EDGE_CASES = [
    POINT,
    CombMap(((), ()), ()),
    THETA_P.disjoint_union(POINT),
    BRIDGE,
    CombMap(((0, 2), (1,), (3,)), ((0, 1), (2, 3))),
    bouquet([(0, 1), (2, 3)]),
    LOOP1.disjoint_union(LOOP1),
    THETA_T.disjoint_union(BOUQUET2_INT),
]


def signature_oracle(m: CombMap) -> tuple:
    """``CombMap.signature`` from the minimum of every start's complete code."""
    n = m.half_edge_count
    signs = m.vertex_signs
    twisted = [1 if m.edge_of[h] in m.edge_twists else 0 for h in range(n)]
    comp_of = [-1] * n
    comps: list[list[int]] = []
    for h0 in range(n):
        if comp_of[h0] >= 0:
            continue
        stack, members = [h0], []
        comp_of[h0] = len(comps)
        while stack:
            h = stack.pop()
            members.append(h)
            for nxt in (m.sigma[h], m.alpha[h]):
                if comp_of[nxt] < 0:
                    comp_of[nxt] = len(comps)
                    stack.append(nxt)
        comps.append(members)

    def code_from(start: int) -> tuple:
        label = {start: 0}
        order = [start]
        i = 0
        while i < len(order):
            h = order[i]
            i += 1
            for nxt in (m.sigma[h], m.alpha[h]):
                if nxt not in label:
                    label[nxt] = len(order)
                    order.append(nxt)
        out = []
        for h in order:
            sign = 0
            if signs is not None:
                sign = signs[m.vertex_of[h]]
            out.append((label[m.sigma[h]], label[m.alpha[h]], twisted[h], sign))
        return tuple(out)

    comp_codes = sorted(min(code_from(start) for start in members) for members in comps)
    isolated = sorted(
        0 if signs is None else signs[i] for i, cycle in enumerate(m.vertices) if not cycle
    )
    return (tuple(comp_codes), tuple(isolated))


def is_bridge_oracle(m: CombMap, e: int) -> bool:
    """Whether deleting edge ``e`` adds a component."""
    return m.delete_edge(e).component_count == m.component_count + 1


def face_count_oracle(m: CombMap) -> int:
    """Faces of ``m``, without the orientation double cover.

    A twist-free map counts the orbits of h -> sigma(alpha(h)), the walk that
    ``CombMap.face_count`` took for such maps before it walked the double
    cover for every map.  A twisted map joins the two boundary points at each
    band end by union-find: a corner joins the counterclockwise point of h to
    the clockwise point of sigma(h), and a band joins the points of its two
    ends crosswise, or straight across when it is twisted.
    """
    n = m.half_edge_count
    isolated = sum(1 for cycle in m.vertices if not cycle)
    if not m.edge_twists:
        seen = [False] * n
        count = 0
        for start in range(n):
            if seen[start]:
                continue
            count += 1
            h = start
            while not seen[h]:
                seen[h] = True
                h = m.sigma[m.alpha[h]]
        return count + isolated
    # point 2h is the clockwise side of half-edge h, 2h + 1 the counterclockwise one
    parent = list(range(2 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def join(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for cycle in m.vertices:
        for i, h in enumerate(cycle):
            join(2 * h + 1, 2 * cycle[(i + 1) % len(cycle)])
    for e, (a, b) in enumerate(m.edges):
        straight = 1 if e in m.edge_twists else 0
        join(2 * a + 1, 2 * b + straight)
        join(2 * a, 2 * b + 1 - straight)
    return len({find(x) for x in range(2 * n)}) + isolated


# The strand splices before they shared ``maps._splice``: the two connect
# sums and the crossing resolution each fused their own strands, and signed
# subdivision handed out the signs vertex by vertex.


def map_key(m: CombMap) -> tuple:
    """The canonical data of a map: ``(vertices, edges, vertex_signs, edge_twists)``."""
    return (m.vertices, m.edges, m.vertex_signs, m.edge_twists)


def surgery_outcome(surgery, *args) -> tuple:
    """``map_key`` of the map a surgery returns, or the message of the
    ``ConnectSumError`` it raises."""
    try:
        return map_key(surgery(*args))
    except ConnectSumError as exc:
        return ("refused", str(exc))


def vertex_connect_sum_oracle(
    m1: CombMap, v1: int, h1: int, m2: CombMap, v2: int, h2: int
) -> CombMap:
    """``maps.vertex_connect_sum`` with its own edge and twist bookkeeping."""
    if m1.degree(v1) != 3 or m2.degree(v2) != 3:
        raise ConnectSumError("vertex connect sum needs trivalent vertices")
    if m1.vertex_of[h1] != v1 or m2.vertex_of[h2] != v2:
        raise ConnectSumError("designated half-edge not at the designated vertex")
    shift = m1.half_edge_count
    union = m1.disjoint_union(m2)
    a_cycle = m1._cycle_from(h1)
    b_cycle = tuple(h + shift for h in m2._cycle_from(h2))
    ha, p, q = a_cycle
    hb, r, s = b_cycle
    junction = {}
    for x, y in ((ha, hb), (p, s), (q, r)):
        junction[x] = y
        junction[y] = x
    twisted_halves = set()
    for t in union.edge_twists:
        twisted_halves.update(union.edges[t])
    alpha = {h: union.alpha[h] for h in range(union.half_edge_count)}
    fused, circles = resolve_strands(alpha, junction, twisted_halves)
    if circles:
        raise ConnectSumError("connect sum would produce a vertex-free circle")
    deleted = set(junction)
    # Only the two removed vertices contain deleted half-edges.
    vertices = [list(c) for c in union.vertices if not (c and set(c) <= deleted)]
    union_twisted = {frozenset(union.edges[t]) for t in union.edge_twists}
    edges = []
    twisted_pairs = set()
    for a, b in union.edges:
        if a in deleted or b in deleted:
            continue
        edges.append((a, b))
        if frozenset((a, b)) in union_twisted:
            twisted_pairs.add(frozenset((a, b)))
    for end1, end2, parity in fused:
        edges.append((end1, end2))
        if parity:
            twisted_pairs.add(frozenset((end1, end2)))
    return _rebuild(vertices, edges, None, twisted_pairs)


def degree2_connect_sum_oracle(m1: CombMap, v1: int, m2: CombMap, v2: int) -> CombMap:
    """``penrose.degree2_connect_sum`` with its own edge, twist and sign bookkeeping."""
    if m1.degree(v1) != 2 or m2.degree(v2) != 2:
        raise ConnectSumError("degree-2 connect sum needs degree-2 vertices")
    shift = m1.half_edge_count
    union = m1.disjoint_union(m2)
    p, q = m1.vertices[v1]
    r, s = (h + shift for h in m2.vertices[v2])
    junction = {p: s, s: p, q: r, r: q}
    twisted_halves = set()
    for t in union.edge_twists:
        twisted_halves.update(union.edges[t])
    alpha = {h: union.alpha[h] for h in range(union.half_edge_count)}
    fused, circles = resolve_strands(alpha, junction, twisted_halves)
    if circles:
        raise ConnectSumError("connect sum would produce a vertex-free circle")
    deleted = set(junction)
    vertices = []
    signs: Optional[list[int]] = [] if union.vertex_signs is not None else None
    for i, cycle in enumerate(union.vertices):
        if cycle and set(cycle) <= deleted:
            continue
        vertices.append(list(cycle))
        if signs is not None:
            signs.append(union.vertex_signs[i])
    union_twisted = union._twisted_pairs()
    edges = []
    twisted_pairs = set()
    for a, b in union.edges:
        if a in deleted or b in deleted:
            continue
        edges.append((a, b))
        if frozenset((a, b)) in union_twisted:
            twisted_pairs.add(frozenset((a, b)))
    for end1, end2, parity in fused:
        edges.append((end1, end2))
        if parity:
            twisted_pairs.add(frozenset((end1, end2)))
    return _rebuild(vertices, edges, signs, twisted_pairs)


def resolve_oracle(base: CombMap, junction: dict[int, int], dropped: set[int]) -> CombMap:
    """``spatial._resolve`` by its own strand walk: delete the vertices in
    ``dropped``, rejoining their half-edges by ``junction``; closed strands
    become one-vertex loop components."""
    alpha = base.alpha
    vertex_of = base.vertex_of
    total = base.half_edge_count
    kept_halves = [h for h in range(total) if vertex_of[h] not in dropped]
    keep = set(kept_halves)
    rank = {h: i for i, h in enumerate(kept_halves)}
    used = [False] * total
    fused: list[tuple[int, int]] = []
    for h in kept_halves:
        if used[h]:
            continue
        used[h] = True
        cur = alpha[h]
        while cur not in keep:
            used[cur] = True
            cur = junction[cur]
            used[cur] = True
            cur = alpha[cur]
        used[cur] = True
        fused.append((rank[h], rank[cur]))
    circles = 0
    for h in range(total):
        if used[h]:
            continue
        circles += 1
        cur = h
        while not used[cur]:
            used[cur] = True
            cur = junction[cur]
            used[cur] = True
            cur = alpha[cur]
    vertices = [
        tuple(rank[h] for h in cycle)
        for i, cycle in enumerate(base.vertices)
        if i not in dropped
    ]
    n = len(kept_halves)
    for k in range(circles):
        a, b = n + 2 * k, n + 2 * k + 1
        vertices.append((a, b))
        fused.append((a, b))
    return CombMap(tuple(vertices), tuple(fused))


def subdivide_signed_oracle(m: CombMap, signs: Sequence[int], e: int, a: int) -> CombMap:
    """``penrose._subdivide_signed`` by handing the signs out vertex by vertex."""
    fresh = m.half_edge_count
    divided = m.subdivide(e)
    # isolated vertices are interchangeable; hand their signs out in order
    isolated = [signs[i] for i, cycle in enumerate(m.vertices) if not cycle]
    new_signs = []
    for cycle in divided.vertices:
        if not cycle:
            new_signs.append(isolated.pop(0))
        elif min(cycle) >= fresh:
            new_signs.append(a)
        else:
            # subdivision keeps old labels, so any member locates the vertex
            new_signs.append(signs[m.vertex_of[cycle[0]]])
    return with_signs(divided, new_signs)


def flip_genera_oracle(m: CombMap) -> Iterator[tuple[int, int]]:
    """(mask, genus) of each rotation variant, built as a ``CombMap``."""
    for mask, (_subset, variant) in enumerate(m.rotation_variants()):
        yield mask, variant.genus()


def cellular_embedding_oracle(m: CombMap) -> HalfLaurent:
    """Sum over the rotation variants of (-1)^|W| x^genus (cubic maps)."""
    data: dict[int, int] = {}
    for subset, variant in m.rotation_variants():
        key = 2 * variant.genus()
        data[key] = data.get(key, 0) + (-1 if len(subset) % 2 else 1)
    return HalfLaurent.from_dict("x", data)


def g_min_oracle(m: CombMap) -> tuple[int, frozenset[int]]:
    """The first variant of least genus, stopping at the first planar one."""
    best: Optional[tuple[int, frozenset[int]]] = None
    for subset, variant in m.rotation_variants():
        genus = variant.genus()
        if best is None or genus < best[0]:
            best = (genus, subset)
            if genus == 0:
                break
    assert best is not None
    return best


def planarity_oracle(m: CombMap) -> dict:
    """``planarity_by_flips`` from built variants and the bridge oracle."""
    witness = None
    for subset, variant in m.rotation_variants():
        if variant.genus() == 0:
            witness = subset
            break
    report: dict = {"planar_somehow": witness is not None, "witness": witness}
    if m.edge_count and not any(is_bridge_oracle(m, e) for e in range(m.edge_count)):
        b1 = m.euler_data().first_betti
        degree, _ = w_sl_extended(m, parity_signs(m)).degree_leading()
        report["degree_coherent"] = (degree == 2 * b1) == (witness is not None)
    else:
        report["degree_coherent"] = None
    return report


def subgraph_euler(m: CombMap, removed_mask: int) -> tuple[int, int, int, int]:
    """(components, first betti, faces, genus) after deleting masked edges.

    Vertices are all kept.  The map must be twist-free.
    """
    v = m.vertex_count
    e_total = m.edge_count
    removed = removed_mask
    e = e_total - bin(removed).count("1")

    parent = list(range(v))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for index, (a, b) in enumerate(m.edges):
        if removed >> index & 1:
            continue
        ra, rb = find(m.vertex_of[a]), find(m.vertex_of[b])
        if ra != rb:
            parent[ra] = rb
    b0 = len({find(i) for i in range(v)})
    b1 = e - v + b0

    # reduced rotation: skip half-edges of removed edges
    reduced_next: dict[int, int] = {}
    empty_vertices = 0
    for cycle in m.vertices:
        surviving = [h for h in cycle if not removed >> m.edge_of[h] & 1]
        if not surviving:
            empty_vertices += 1
            continue
        size = len(surviving)
        for i, h in enumerate(surviving):
            reduced_next[h] = surviving[(i + 1) % size]
    faces = empty_vertices
    seen: set[int] = set()
    for start in reduced_next:
        if start in seen:
            continue
        faces += 1
        h = start
        while h not in seen:
            seen.add(h)
            h = reduced_next[m.alpha[h]]
    genus2 = 2 * b0 + e - v - faces
    if genus2 % 2 or genus2 < 0:
        raise ValueError(f"odd or negative Euler defect {genus2}")
    return b0, b1, faces, genus2 // 2


def state_sum_oracles(m: CombMap) -> tuple[HalfLaurent, HalfLaurent, KrushkalPoly]:
    """S, flow and the rank polynomial, with every subset rebuilt from scratch.

    The dual genus is read off the geometric dual restricted to the edges
    dual to the removed set.
    """
    dual = m.geometric_dual()
    base_b0 = m.component_count
    e = m.edge_count
    s_data: dict[int, int] = {}
    flow_data: dict[int, int] = {}
    rank_data: dict[tuple[int, int, int, int], int] = {}
    for mask in range(1 << e):
        b0, b1, _faces, genus = subgraph_euler(m, mask)
        sign = -1 if bin(mask).count("1") % 2 else 1
        s_data[2 * (b1 - genus)] = s_data.get(2 * (b1 - genus), 0) + sign
        flow_data[2 * b1] = flow_data.get(2 * b1, 0) + sign
        # keep exactly the dual edges of the removed set
        dual_mask = ((1 << e) - 1) ^ mask
        _db0, _db1, _dfaces, dual_genus = subgraph_euler(dual, dual_mask)
        key = (b0 - base_b0, b1, 2 * genus, 2 * dual_genus)
        rank_data[key] = rank_data.get(key, 0) + 1
    return (
        HalfLaurent.from_dict("Q", s_data),
        HalfLaurent.from_dict("Q", flow_data),
        KrushkalPoly.from_dict(rank_data),
    )


def _corner_arcs(m: CombMap, reversed_vertices: frozenset[int]) -> list[tuple[int, int]]:
    """Arc (2h, 2h'+1) for each half-edge h and its rotation successor h'.

    A reversed vertex takes its successors from the inverse rotation.
    """
    sigma, sigma_inv, vertex_of = m.sigma, m.sigma_inv, m.vertex_of
    arcs = []
    for h in range(len(sigma)):
        succ = sigma_inv[h] if vertex_of[h] in reversed_vertices else sigma[h]
        arcs.append((2 * h, 2 * succ + 1))
    return arcs


def _resolution_arcs(a: int, b: int, resolution: str) -> list[tuple[int, int]]:
    if resolution == "band":
        return [(2 * a, 2 * b + 1), (2 * a + 1, 2 * b)]
    if resolution == "crossed":
        return [(2 * a, 2 * b), (2 * a + 1, 2 * b + 1)]
    if resolution == "cut":
        return [(2 * a, 2 * a + 1), (2 * b, 2 * b + 1)]
    raise ValueError(resolution)


def strand_count(
    m: CombMap, resolutions: list[str], reversed_vertices: frozenset[int] = frozenset()
) -> int:
    """Closed strands with edge e resolved as ``resolutions[e]``, plus isolated vertices.

    Every point lies on one corner arc and one edge arc, so the strands are
    the connected components of the arc graph, counted here by union-find.
    """
    parent = list(range(2 * m.half_edge_count))
    arcs = _corner_arcs(m, reversed_vertices)
    for (a, b), resolution in zip(m.edges, resolutions):
        arcs += _resolution_arcs(a, b, resolution)
    components = len(parent)
    for x, y in arcs:
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[x] = y
            components -= 1
    return components + sum(1 for cycle in m.vertices if not cycle)


def w_so_oracle(m: CombMap) -> HalfLaurent:
    """``w_so`` with every edge resolution rebuilt and every strand recounted."""
    data: dict[int, int] = {}
    for mask in range(1 << m.edge_count):
        sign = 1
        resolutions = []
        for e in range(m.edge_count):
            crossed = bool(mask >> e & 1)
            resolutions.append("crossed" if crossed else "band")
            if crossed != (e in m.edge_twists):
                sign = -sign
        loops = strand_count(m, resolutions)
        data[2 * loops] = data.get(2 * loops, 0) + sign
    return HalfLaurent.from_dict("N", data)


def w_so_walker_oracle(m: CombMap) -> HalfLaurent:
    """``w_so`` with the edge resolutions walked by the strand walker.

    Every edge starts as a band and the walker switches one edge between
    band and crossed band per state, in Gray-code order.
    """
    # every edge starts as a band, and a twist mark gives the band -1
    walker = _StrandWalker(m, [(2 * b + 1, 2 * b) for _a, b in m.edges])
    sign = -1 if len(m.edge_twists) % 2 else 1
    tally = {walker.strands: sign}
    for e in _gray_toggles(m.edge_count):
        walker.toggle(e)
        sign = -sign
        tally[walker.strands] = tally.get(walker.strands, 0) + sign
    return HalfLaurent.from_dict("N", {2 * count: coeff for count, coeff in tally.items()})


def _flip_prefactor(m: CombMap, signs: Sequence[int]) -> int:
    """prod over the vertices of degree <= 2 of (1 + s(v))."""
    prefactor = 1
    for v in range(m.vertex_count):
        if m.degree(v) <= 2:
            prefactor *= 1 + signs[v]
    return prefactor


def w_sl_brauer_oracle(m: CombMap, signs: list[int]) -> HalfLaurent:
    """``w_sl_brauer`` with every vertex reversal and edge resolution rebuilt.

    Vertices expand as (cyclic + s(v) reversed) / N, untwisted edges as
    (N band - cut), twisted edges as (N crossed - cut); closed strands and
    isolated vertices count powers of N.  A vertex of degree <= 2 reads the
    same reversed, so it factors out as (1 + s(v)).
    """
    prefactor = _flip_prefactor(m, signs)
    data: dict[int, int] = {}
    if not prefactor:
        return HalfLaurent.from_dict("N", data)
    flippable = [v for v in range(m.vertex_count) if m.degree(v) > 2]
    e_count = m.edge_count
    for vmask in range(1 << len(flippable)):
        subset = frozenset(flippable[i] for i in range(len(flippable)) if vmask >> i & 1)
        weight = prefactor
        for v in subset:
            weight *= signs[v]
        for emask in range(1 << e_count):
            resolutions = []
            for e in range(e_count):
                if emask >> e & 1:
                    resolutions.append("cut")
                else:
                    resolutions.append("crossed" if e in m.edge_twists else "band")
            cuts = bin(emask).count("1")
            sign = -1 if cuts % 2 else 1
            loops = strand_count(m, resolutions, subset)
            half_exp = 2 * (e_count - cuts + loops - m.vertex_count)
            data[half_exp] = data.get(half_exp, 0) + sign * weight
    return HalfLaurent.from_dict("N", data)


def substitute_square(poly: HalfLaurent, new_tag: str) -> HalfLaurent:
    """Substitute ``Q := N^2``: every exponent doubles, tag changes."""
    return HalfLaurent.from_dict(new_tag, {2 * exp: coeff for exp, coeff in poly.terms})


def w_sl_flip_oracle(m: CombMap, signs: Sequence[int]) -> HalfLaurent:
    """Flip expansion: sum over W of (prod of s on W) S_{flip_W}(N^2), twist-free.

    Each flip is built with ``CombMap.flip_subset`` and its S taken by
    contraction-deletion.  A vertex of degree <= 2 reads the same reversed,
    so it factors out as (1 + s(v)).
    """
    prefactor = _flip_prefactor(m, signs)
    result = HalfLaurent.zero("N")
    if not prefactor:
        return result
    flippable = m.flippable_vertices()
    for mask in range(1 << len(flippable)):
        subset = [flippable[i] for i in range(len(flippable)) if mask >> i & 1]
        weight = prefactor
        for v in subset:
            weight *= signs[v]
        s = s_poly(m.flip_subset(subset), engine="contraction-deletion")
        result = result + substitute_square(s, "N").scale(weight)
    return result


def w_sl_walker_tally(m: CombMap, flipped: Sequence[int]) -> dict[int, int]:
    """Signed edge-state counts of ``m.flip_subset(flipped)`` by joined edges + strands - vertices.

    Each edge is cut or joined, by a band or, when twisted, by a crossed
    band; the strand walker switches one edge per state.  Flipping keeps the
    half-edge and edge labels, so ``m``'s joins apply.
    """
    joined = [2 * b if e in m.edge_twists else 2 * b + 1 for e, (_a, b) in enumerate(m.edges)]
    return _cut_exponents(m.flip_subset(flipped), joined)


def w_sl_walker_oracle(m: CombMap, signs: Sequence[int]) -> HalfLaurent:
    """Flip expansion with each flip's edge states walked by the strand walker.

    Sums (prod of s on W) times the tally of flip_W over every set W of
    vertices of degree >= 3; a twist joins its edge as a crossed band, so
    twisted maps are covered too.
    """
    prefactor = _flip_prefactor(m, signs)
    if not prefactor:
        return HalfLaurent.zero("N")
    data: dict[int, int] = {}
    flippable = m.flippable_vertices()
    for mask in range(1 << len(flippable)):
        subset = [flippable[i] for i in range(len(flippable)) if mask >> i & 1]
        weight = prefactor
        for v in subset:
            weight *= signs[v]
        for exponent, count in w_sl_walker_tally(m, subset).items():
            data[2 * exponent] = data.get(2 * exponent, 0) + weight * count
    return HalfLaurent.from_dict("N", data)


def yamada_resolution_oracle(
    d: sp.SpatialDiagram, mirror: bool = False, variant: str = "s"
) -> HalfLaurent:
    """R^S (variant "s") or R^F (variant "f") as the sum over all 3^c
    resolutions of coefficient times S or flow at Q = q + 2 + q^{-1}."""
    poly = {"s": s_poly, "f": flow_poly}[variant]
    total = HalfLaurent.zero("q")
    for coeff, resolved in sp.expand_crossings(d, mirror=mirror):
        total = total + coeff * substitute_q_shift(poly(resolved))
    return total


_CD_MEMO: dict = {}


def matching_then_oracle(
    first: BrauerMatching, second: BrauerMatching
) -> tuple[BrauerMatching, int]:
    """``first.then(second)`` by walking a neighbour graph of both pair sets."""
    if first.top != second.bottom:
        raise ValueError("arity mismatch")
    a, b, c = first.bottom, first.top, second.top

    # namespace: first's points as-is; second's point p becomes a + b + p
    neighbors: dict[int, list[int]] = {}

    def add(u: int, v: int) -> None:
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)

    for pair in first.pairs:
        u, v = tuple(pair)
        add(u, v)
    for pair in second.pairs:
        u, v = tuple(pair)
        add(a + b + u, a + b + v)
    # fuse first's top point a+i with second's bottom point i
    for i in range(b):
        add(a + i, a + b + i)

    external = set(range(a)) | {a + b + b + j for j in range(c)}
    seen: set[int] = set()
    new_pairs = []
    for start in sorted(external):
        if start in seen:
            continue
        seen.add(start)
        prev = None
        point = start
        while True:
            if prev is None:
                step = neighbors[point][0]
            else:
                step = next(p for p in neighbors[point] if p != prev)
            prev, point = point, step
            seen.add(point)
            if point in external:
                break
        end = point if point < a else a + (point - (a + b + b))
        first_end = start if start < a else a + (start - (a + b + b))
        new_pairs.append((first_end, end))
    loops = 0
    interior = [p for p in neighbors if p not in seen]
    visited: set[int] = set()
    for start in interior:
        if start in visited:
            continue
        loops += 1
        prev = None
        point = start
        while point not in visited:
            visited.add(point)
            nexts = [p for p in neighbors[point] if p != prev]
            step = nexts[0] if prev is not None else neighbors[point][0]
            prev, point = point, step
    return BrauerMatching.from_pairs(a, c, new_pairs), loops


def matching_tensor_oracle(first: BrauerMatching, second: BrauerMatching) -> BrauerMatching:
    """``first.tensor(second)`` by relabelling each pair."""
    a, b = first.bottom, first.top
    c, d = second.bottom, second.top

    def relabel(p: int) -> int:
        if p < c:
            return a + p
        return a + c + b + (p - c)

    def relabel_first(p: int) -> int:
        if p < a:
            return p
        return a + c + (p - a)

    pairs = [tuple(relabel_first(x) for x in pair) for pair in first.pairs]
    pairs += [tuple(relabel(x) for x in pair) for pair in second.pairs]
    return BrauerMatching.from_pairs(a + c, b + d, pairs)


def phi_evaluate_oracle(m: CombMap) -> HalfLaurent:
    """``phi_evaluate`` with each edge state composed by ``matching_then_oracle``."""
    h2 = 2 * m.half_edge_count
    vertex_side = BrauerMatching.from_pairs(0, h2, _corner_arcs(m, frozenset()))
    circles = sum(1 for cycle in m.vertices if not cycle)
    e_count = m.edge_count
    result = HalfLaurent.zero("Q")
    for mask in range(1 << e_count):
        arcs: list[tuple[int, int]] = []
        for e, (a, b) in enumerate(m.edges):
            arcs += _resolution_arcs(a, b, "cut" if mask >> e & 1 else "band")
        edge_side = BrauerMatching.from_pairs(h2, 0, arcs)
        closed, loops = matching_then_oracle(vertex_side, edge_side)
        assert not closed.pairs
        cut_count = bin(mask).count("1")
        sign = -1 if cut_count % 2 else 1
        half_exponent = (e_count - cut_count) + (loops + circles) - m.vertex_count
        result = result + HalfLaurent.from_dict("Q", {half_exponent: sign})
    return result


def _cd_memo(name: str, m: CombMap, compute) -> HalfLaurent:
    key = (name, m.signature)
    if key not in _CD_MEMO:
        _CD_MEMO[key] = compute(m)
    return _CD_MEMO[key]


def _subdivision_edge(m: CombMap) -> int:
    for cycle in m.vertices:
        if len(cycle) == 2:
            e = m.edge_of[cycle[0]]
            if not m.is_loop(e):
                return e
    return -1


def _preferred_edge(m: CombMap) -> int:
    for e in range(m.edge_count):
        if not m.is_loop(e):
            return e
    return 0


def s_cd_oracle(m: CombMap) -> HalfLaurent:
    """S by contraction-deletion on validated maps."""

    def compute(m: CombMap) -> HalfLaurent:
        if any(len(cycle) == 1 for cycle in m.vertices):
            return HalfLaurent.zero("Q")
        if m.edge_count == 0:
            return HalfLaurent.one("Q")
        e = _subdivision_edge(m)
        if e >= 0:
            return s_cd_oracle(m.contract(e))
        e = _preferred_edge(m)
        contracted = s_cd_oracle(m.contract(e))
        deleted = s_cd_oracle(m.delete_edge(e))
        if m.is_loop(e):
            return contracted.shift(2) - deleted
        return contracted - deleted

    return _cd_memo("s", m, compute)


def flow_cd_oracle(m: CombMap) -> HalfLaurent:
    """The flow polynomial by contraction-deletion on validated maps, twists kept."""

    def compute(m: CombMap) -> HalfLaurent:
        if any(len(cycle) == 1 for cycle in m.vertices):
            return HalfLaurent.zero("Q")
        if m.edge_count == 0:
            return HalfLaurent.one("Q")
        e = _subdivision_edge(m)
        if e >= 0:
            return flow_cd_oracle(m.contract(e))
        e = _preferred_edge(m)
        if m.is_loop(e):
            q_minus_1 = HalfLaurent.from_dict("Q", {2: 1, 0: -1})
            return q_minus_1 * flow_cd_oracle(m.delete_edge(e))
        return flow_cd_oracle(m.contract(e)) - flow_cd_oracle(m.delete_edge(e))

    return _cd_memo("flow", m, compute)


def chromatic_cd_oracle(m: CombMap) -> HalfLaurent:
    """``virtual_chromatic`` by contraction-deletion on validated maps."""

    def compute(m: CombMap) -> HalfLaurent:
        pendant = next((cycle[0] for cycle in m.vertices if len(cycle) == 1), None)
        if m.edge_count == 0:
            return HalfLaurent.monomial("t", 2 * m.vertex_count)
        if pendant is not None:
            t_minus_1 = HalfLaurent.from_dict("t", {2: 1, 0: -1})
            return t_minus_1 * chromatic_cd_oracle(m.contract(m.edge_of[pendant]))
        e = _preferred_edge(m)
        deleted = chromatic_cd_oracle(m.delete_edge(e))
        contracted = chromatic_cd_oracle(m.contract(e))
        if m.is_loop(e):
            return deleted - contracted.shift(-2)
        return deleted - contracted

    return _cd_memo("chrom", m, compute)


# ---------------------------------------------------------------------------
# Census oracles.
# ---------------------------------------------------------------------------


def exhaustive_by_permutations(max_edges: int) -> list[CombMap]:
    """All rotations on a fixed involution, deduplicated by signature.

    Cost (2e)!, so the usable range is max_edges <= 4.  The oracle for
    ``exhaustive_connected_maps``.
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


def cubic_adjacency_solutions(v: int) -> Iterator[Matrix]:
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
            capacity = sum(min(remaining[c], 3) for c in range(j, v))
            if remaining[i] > capacity:
                return
        if i == j:
            # loops consume two degree slots
            for loops in range(remaining[i] // 2 + 1):
                matrix[i][i] = loops
                remaining[i] -= 2 * loops
                yield from fill(i, j + 1)
                remaining[i] += 2 * loops
            matrix[i][i] = 0
            return
        for mult in range(min(remaining[i], remaining[j]) + 1):
            matrix[i][j] = matrix[j][i] = mult
            remaining[i] -= mult
            remaining[j] -= mult
            yield from fill(i, j + 1)
            remaining[i] += mult
            remaining[j] += mult
        matrix[i][j] = matrix[j][i] = 0

    yield from fill(0, 0)


def _refine_partition(matrix: Sequence[Sequence[int]], colors: tuple) -> tuple:
    """Stable coloring refinement over whole rows; returned ids are sorted by profile."""
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


def canonical_form_oracle(matrix: Sequence[Sequence[int]]) -> tuple:
    """Least upper-triangle string over the full individualization-refinement tree.

    No automorphism pruning, so every discrete leaf is visited.
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


def cubic_census_bruteforce(v: int) -> list[Matrix]:
    """Connected cubic multigraphs up to isomorphism, by full matrix search.

    Exponential in v; usable through v = 6.  The oracle for
    ``cubic_multigraph_census``.
    """
    if v % 2 or v <= 0:
        return []
    seen: dict[tuple, Matrix] = {}
    for m in cubic_adjacency_solutions(v):
        if _connected(m):
            seen.setdefault(canonical_form_oracle(m), m)
    return list(seen.values())
