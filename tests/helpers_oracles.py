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
mod-2 obstruction oracle builds the crossing class and its coboundaries
over GF(2) alone, apart from the signed class that ``obstruction_z2`` and
``obstruction_integral`` share.  The signature oracle builds every start's full code and takes the minimum, with
no early exit; the tuple signature oracle is the per-entry tuple code that
``CombMap.signature`` ran before it moved to the kernel form.  The bridge oracle deletes the edge and counts components;
the component oracle is ``CombMap.component_count`` with its own path-halving union-find;
the union-find bridge oracle is ``CombMap.is_bridge`` as it was before the one-pass bridge set:
one union-find over the other edges for each edge.  The
rank polynomial's walker oracle is ``krushkal_poly`` as it was before the
``brauer._Ranks`` sweep: a Gray-code strand walk over the 2^E edge subsets
with a union-find per side.  ``ToggleWalker`` is the strand walker with its
per-edge ``toggle`` method, as the walks ran before ``_cut_exponents`` and
``_flip_genera`` inlined the switch into one loop each; the cut-exponent
and flip-walk oracles, the rank oracle and the walker oracle of ``w_so``
step it once per Gray toggle.  The block walk oracle is ``_cut_exponents``
as it was before it memoized its Gray blocks by their compressed boundary:
it walks every block step by step.  The q-polynomial oracle substitutes
Q = q + 2 + q^{-1} once per power of q through ``substitute_q_shift``, and
the cyclotomic oracle adds one reduced root power per term, as before the
one-pass versions in ``spatial`` and ``algebra``.  The ``Fraction`` oracles
of Q(zeta_n) are the reduction, product and power of ``CyclotomicElement``
as they were before they moved to integer numerators; the cyclotomic
oracle takes its root powers from that reduction.  The ``.vgf`` writer
oracle is ``serialize_vgf`` as it was before it wrote its text directly:
``json.dumps`` with ``indent=1``.  The
contraction-deletion oracles recurse on ``CombMap.contract`` and
``CombMap.delete_edge`` and memoize on ``CombMap.signature``, so they share no
code with the half-edge kernel in ``ribbonpoly.invariants``.  The census
oracles list every rotation on a fixed edge involution, and every cubic
adjacency matrix, and reject isomorphs by a canonical form that walks the full
individualization tree with dense refinement and no pruning.  The unpruned
census oracle is the cubic census as it was before it grew each smaller graph
once per automorphism orbit of its edge sites: it grows at every site.  The
full-search census oracle is ``generate._cubic_classes`` as it was before
the searches of a level shared their leaf forms: every candidate gets a full
search.  The Brauer
oracles compose and juxtapose matchings through their sets of pairs and a
neighbour graph, and evaluate the functor one ``HalfLaurent`` term per edge
state, apart from the partner arrays of ``BrauerMatching``.  The Gram oracles
glue every entry on its own, evaluate entries through ``Fraction`` and
interpolate by divided differences, and average the symmetrized pairing over
the whole conjugacy class, as before the orbit reduction.  The face oracle
walks the twist-free face permutation, or joins band sides by union-find,
apart from the double cover of ``CombMap.face_count``.  The surgery oracles are the connect
sums, crossing resolution and signed subdivision as they were before every
strand splice went through ``maps._splice`` or ``spatial._resolve``; the two
connect-sum oracles build their results by the rebuild oracle, which is
``maps._rebuild`` as it was before surgeries marked their edges: twists as
half-edge pairs carried through the label compression, and a validated
``CombMap`` at the end.  The two sweep oracles are the pairing and partition
sweeps as they were before one loop, ``brauer._sweep``, served both: the
pairing sweep takes arcs in place of local vertices, the partition sweep
labels blocks by first occurrence and drops closed slots at once, and both
record their state count after every closing.  Both keep dict tallies with
their own ``_merge`` and ``_scaled_total``, where ``brauer._sweep`` packs
each tally into one int.  The sweep plan oracle is
``CombMap.sweep_plan`` as it was before each map kept its plan, when the
greedy step took the least rank over a set of the unplaced vertices, and the
greedy order oracle is one start of it before the plan ranked its candidates
by packed ints and dropped starts that could not win.  The dict-tally R^S and
R^F oracle is one of the two sweep oracles over a crossing diagram's local
states, keyed at the q stride the spatial sweeps used before it was fitted.  The engine-choice
oracle is ``invariants.resolve_engine`` as it was when ``auto`` also
compared 2^E with a bound on the sweep's states along the planned order,
the sweep-cost oracle.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from ribbonpoly import spatial as sp
from ribbonpoly.algebra import (
    CyclotomicElement,
    HalfLaurent,
    KrushkalPoly,
    cyclotomic_polynomial,
    substitute_q_shift,
)
from ribbonpoly.brauer import (
    BrauerMatching,
    _bareiss_det,
    _corner_pairs,
    _join_or_cut,
    _perm_cycles,
    _sweep_steps,
    fpf_permutations,
    glue_map,
    glue_pairing,
    partition_permutation,
)
from ribbonpoly.fixtures import BOUQUET2_INT, BRIDGE, LOOP1, THETA_P, THETA_T
from ribbonpoly.generate import (
    POINT,
    Matrix,
    _edge_sites,
    _grow,
    _orbit_sites,
    _simple_cubic_connected,
    bouquet,
    canonical_form,
)
from ribbonpoly.invariants import (
    _BLOCK_BITS,
    _check_doubled,
    _cut_exponents,
    _edge_pairing,
    _RULERS,
    _StrandWalker,
    flow_poly,
    krushkal_poly,
    s_poly,
)
from ribbonpoly.maps import CombMap, ConnectSumError, _UnionFind, resolve_strands
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
    """``CombMap.signature`` from the minimum of every start's complete code.

    A start's code packs the labels of sigma(h) and alpha(h) into
    ``ls * n + la`` for each half-edge in breadth-first order.  On a map with
    twists or signs it is paired with the marks 3 * twist + sign + 1 in the
    same order (sign 0 when unsigned), and the least pair wins.
    """
    n = m.half_edge_count
    signs = m.vertex_signs
    decorated = bool(m.edge_twists) or signs is not None

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
        code = tuple(label[m.sigma[h]] * n + label[m.alpha[h]] for h in order)
        if not decorated:
            return code
        marks = tuple(
            3 * (m.edge_of[h] in m.edge_twists) + 1 + (signs[m.vertex_of[h]] if signs else 0)
            for h in order
        )
        return code, marks

    comp_codes = sorted(min(code_from(start) for start in members) for members in _components(m))
    isolated = sorted(
        0 if signs is None else signs[i] for i, cycle in enumerate(m.vertices) if not cycle
    )
    return (tuple(comp_codes), tuple(isolated))


def tuple_signature_oracle(m: CombMap) -> tuple:
    """The signature as it was computed before the kernel form: one tuple per half-edge.

    Each entry is (label of sigma(h), label of alpha(h), twist bit, sign),
    so the decorations are compared entry by entry, and each component takes
    its least breadth-first code over every start, dropping a start at its
    first entry above the best so far.
    """
    n = m.half_edge_count
    signs = m.vertex_signs
    twisted = [1 if m.edge_of[h] in m.edge_twists else 0 for h in range(n)]
    sign_of = [0] * n if signs is None else [signs[v] for v in m.vertex_of]
    sigma, alpha = m.sigma, m.alpha

    def code_from(start: int, best: Optional[list]) -> tuple[Optional[list], list[int]]:
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

    comp_codes = []
    for members in _components(m):
        best = code_from(members[0], None)[0]
        for start in members[1:]:
            best = code_from(start, best)[0] or best
        comp_codes.append(tuple(best))
    comp_codes.sort()
    isolated = [0 if signs is None else signs[i] for i, cycle in enumerate(m.vertices) if not cycle]
    return (tuple(comp_codes), tuple(sorted(isolated)))


def _components(m: CombMap) -> list[list[int]]:
    """The half-edges of each connected component, found by depth-first search."""
    comp_of = [-1] * m.half_edge_count
    comps: list[list[int]] = []
    for h0 in range(m.half_edge_count):
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
    return comps


def is_bridge_oracle(m: CombMap, e: int) -> bool:
    """Whether deleting edge ``e`` adds a component."""
    return m.delete_edge(e).component_count == m.component_count + 1


def is_bridge_union_find_oracle(m: CombMap, e: int) -> bool:
    """Whether the edges other than ``e`` leave the two ends of ``e`` unjoined."""
    roots = _UnionFind(m.vertex_count)
    for index, (a, b) in enumerate(m.edges):
        if index != e:
            roots.union(m.vertex_of[a], m.vertex_of[b])
    a, b = m.edges[e]
    return roots._find(m.vertex_of[a]) != roots._find(m.vertex_of[b])


def component_count_oracle(m: CombMap) -> int:
    """``CombMap.component_count`` as it was before it shared ``_UnionFind``:
    its own union-find with path halving, counting the distinct roots."""
    parent = list(range(len(m.vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in m.edges:
        ra, rb = find(m.vertex_of[a]), find(m.vertex_of[b])
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(len(m.vertices))})


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


def rebuild_oracle(
    vertex_lists: Sequence[Sequence[int]],
    edge_pairs: Sequence[Sequence[int]],
    signs: Optional[Sequence[int]],
    twisted_pairs: set[frozenset[int]],
) -> CombMap:
    """``maps._rebuild`` by the route it took before surgeries marked their
    edges: compress the labels, carry the twisted pairs through the same
    ranks, and build a validated ``CombMap`` from edge indices."""
    survivors = sorted(h for cycle in vertex_lists for h in cycle)
    rank = {h: i for i, h in enumerate(survivors)}
    vertices = tuple(tuple(rank[h] for h in cycle) for cycle in vertex_lists)
    edges = [tuple(sorted((rank[a], rank[b]))) for a, b in edge_pairs]
    remapped = set()
    for pair in twisted_pairs:
        mapped = frozenset(rank[h] for h in pair if h in rank)
        if len(mapped) == 2:
            remapped.add(mapped)
    twist_indices = [i for i, pair in enumerate(edges) if frozenset(pair) in remapped]
    return CombMap(vertices, tuple(edges), None if signs is None else tuple(signs), frozenset(twist_indices))


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
    return rebuild_oracle(vertices, edges, None, twisted_pairs)


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
    return rebuild_oracle(vertices, edges, signs, twisted_pairs)


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


def gray_toggles(count: int) -> Iterator[int]:
    """The element toggled at each step of the reflected Gray code on ``count`` bits.

    Starting from the empty set, the 2^count - 1 toggles visit every subset
    exactly once (Knuth, TAOCP 4A, 7.2.1.1).
    """
    for i in range(1, 1 << count):
        yield (i & -i).bit_length() - 1


class ToggleWalker(_StrandWalker):
    """The strand walker with one method call per switched edge, as the walks
    ran before ``_cut_exponents`` and ``_flip_genera`` inlined the switch.

    ``resolutions[e]`` gives edge e's starting resolution and its other one,
    each as the point it joins to 2a.
    """

    def __init__(self, m: CombMap, resolutions: list[tuple[int, int]]) -> None:
        super().__init__(m, [start for start, _other in resolutions])
        self.pairings = [
            (_edge_pairing(x, y, start), _edge_pairing(x, y, other))
            for (x, y), (start, other) in zip(self.ends, resolutions)
        ]

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


def cut_exponents_oracle(m: CombMap, joined: list[int]) -> dict[int, int]:
    """``_cut_exponents`` with one ``ToggleWalker.toggle`` call per Gray step."""
    walker = ToggleWalker(m, [(point, 2 * a + 1) for point, (a, _b) in zip(joined, m.edges)])
    cut, sign = 0, 1
    exponent = m.edge_count - m.vertex_count + walker.strands
    tally = {exponent: 1}
    for e in gray_toggles(m.edge_count):
        cut ^= 1 << e
        exponent += walker.toggle(e) + (-1 if cut >> e & 1 else 1)
        sign = -sign
        tally[exponent] = tally.get(exponent, 0) + sign
    return tally


def block_walk_oracle(m: CombMap, joined: list[int], keys: Optional[list] = None) -> dict[int, int]:
    """``_cut_exponents`` as it was before it memoized its Gray blocks: every
    block is walked step by step.

    When ``keys`` is given, each block's key is appended to it: the block's
    parity, and where the high edges route each low edge point whose corner
    arc ends on one.  These are the keys the memo of ``_cut_exponents`` reads.
    """
    walker = _StrandWalker(m, joined)
    vertex_partner, edge_partner = walker.vertex_partner, walker.edge_partner
    edge_of_point = walker.edge_of_point
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
        if keys is not None:
            keys.append((block & 1, tuple(skip[p] for p in low_points)))
        for x, e, x1, y, y1, pairing, plus, minus, joins, sign in blocks[block & 1]:
            outer = skip[x]
            while edge_of_point[outer] != e:
                outer = skip[edge_partner[outer]]
            edge_partner[x], edge_partner[x1], edge_partner[y], edge_partner[y1] = pairing
            exponent += (outer == plus) - (outer == minus) + joins
            tally[exponent] = tally.get(exponent, 0) + sign
    return tally


def flip_genera_walker_oracle(m: CombMap) -> Iterator[tuple[int, int]]:
    """``_flip_genera`` with one ``ToggleWalker.toggle`` call per switched edge."""
    flippable = m.flippable_vertices()
    resolutions = [
        (2 * b, 2 * b + 1) if e in m.edge_twists else (2 * b + 1, 2 * b)
        for e, (_a, b) in enumerate(m.edges)
    ]
    walker = ToggleWalker(m, resolutions)
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


def krushkal_walker_oracle(m: CombMap) -> KrushkalPoly:
    """``krushkal_poly`` as it was before the frontier sweep: a 2^E strand walk.

    Each edge is kept as a band or deleted as a cut, one walker toggle per
    subset in a reflected Gray code, with one union-find per side.
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
    walker = ToggleWalker(m, [(2 * b + 1, 2 * a + 1) for a, b in m.edges])
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


def krushkal_convention(m: CombMap, poly: KrushkalPoly) -> dict[tuple[int, int, int, int], Fraction]:
    """The terms of ``krushkal_poly(m)`` with Y counting dual components, as Krushkal writes it.

    A key (x, y, a, b) gives c = x + b0(G) and |A| = y + V - c, then
    f = c + y - a boundary components and c* = (b + F - (E - |A|) + f) / 2
    components of G*|(E - A).  Y's exponent becomes c* - b0(G*), and G*
    has a component for each component of G.
    """
    ed = m.euler_data()
    terms = {}
    for (x, y, a, b), coeff in poly.terms:
        c = x + ed.components
        kept = y + ed.vertices - c
        f = c + y - a
        doubled = b + ed.faces - (ed.edges - kept) + f
        assert doubled % 2 == 0, (m, (x, y, a, b))
        terms[(x, doubled // 2 - ed.components, a, b)] = coeff
    return terms


def krushkal_dual_terms(m: CombMap) -> dict[tuple[int, int, int, int], Fraction]:
    """P_G*(Y, X, B, A) in Krushkal's convention, which duality makes P_G(X, Y, A, B)."""
    dual = m.geometric_dual()
    return {(y, x, b, a): c for (x, y, a, b), c in krushkal_convention(dual, krushkal_poly(dual)).items()}


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
    walker = ToggleWalker(m, [(2 * b + 1, 2 * b) for _a, b in m.edges])
    sign = -1 if len(m.edge_twists) % 2 else 1
    tally = {walker.strands: sign}
    for e in gray_toggles(m.edge_count):
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


def q_polynomial_oracle(tally: dict[int, int], stride: int) -> HalfLaurent:
    """``spatial._q_polynomial`` as it was before the one integer pass: one
    ``substitute_q_shift`` per power of q, the powers added as ``HalfLaurent``s."""
    by_power: dict[int, dict[int, int]] = {}
    for key, count in tally.items():
        power, half_exp = divmod(key, stride)
        by_power.setdefault(power, {})[half_exp] = count
    total = HalfLaurent.zero("q")
    for power, data in by_power.items():
        total = total + substitute_q_shift(HalfLaurent.from_dict("Q", data)).shift(2 * power)
    return total


def eval_cyclotomic_oracle(
    poly: HalfLaurent, conductor: int, power: int = 1, allow_nonprimitive: bool = False
) -> CyclotomicElement:
    """``eval_cyclotomic`` as it was before it reduced once: one reduced root
    power per term, scaled and added as a ``CyclotomicElement``."""
    if conductor < 1:
        raise ValueError("conductor must be positive")
    if not allow_nonprimitive and math.gcd(power, conductor) != 1:
        raise ValueError(
            f"power {power} is not a primitive residue modulo {conductor}; "
            "pass allow_nonprimitive=True for ring evaluation at a non-primitive power"
        )
    has_half = any(exp % 2 != 0 for exp, _ in poly.terms)
    working = 2 * conductor if has_half else conductor
    result = CyclotomicElement.zero(working)
    for half_exp, coeff in poly.terms:
        if has_half:
            exponent = half_exp * power
        else:
            exponent = (half_exp // 2) * power
        root = [Fraction(0)] * working
        root[exponent % working] = Fraction(1)
        result = result + cyclotomic_reduce_oracle(working, root).scale(coeff)
    return result


def cyclotomic_reduce_oracle(conductor: int, coeffs: Sequence[Fraction]) -> CyclotomicElement:
    """``CyclotomicElement.from_coeff_list`` on ``Fraction`` coefficients: the
    top term cancelled by a multiple of the monic Phi_n, degree by degree."""
    phi = cyclotomic_polynomial(conductor)
    degree = len(phi) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, degree - 1, -1):
        lead = coeffs[i]
        if lead == 0:
            continue
        shift = i - degree
        for j, c in enumerate(phi):
            coeffs[shift + j] -= lead * c
    del coeffs[degree:]
    while len(coeffs) < degree:
        coeffs.append(Fraction(0))
    return CyclotomicElement(conductor, tuple(coeffs))


def cyclotomic_product_oracle(a: CyclotomicElement, b: CyclotomicElement) -> CyclotomicElement:
    """``CyclotomicElement.__mul__`` on ``Fraction`` coefficients."""
    product = [Fraction(0)] * (2 * len(a.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            product[i + j] += x * y
    return cyclotomic_reduce_oracle(a.conductor, product)


def cyclotomic_power_oracle(a: CyclotomicElement, power: int) -> CyclotomicElement:
    """``a ** power`` as ``power`` products with the ``Fraction`` oracle."""
    result = cyclotomic_reduce_oracle(a.conductor, [Fraction(1)])
    for _ in range(power):
        result = cyclotomic_product_oracle(result, a)
    return result


def serialize_vgf_oracle(obj) -> str:
    """``serialize_vgf`` as ``json.dumps`` of the payload with ``indent=1``."""
    if isinstance(obj, sp.SpatialDiagram):
        base, crossings = obj.base, obj.crossings
    else:
        base, crossings = obj, None
    payload: dict[str, object] = {
        "vertices": [list(cycle) for cycle in base.vertices],
        "edges": [list(pair) for pair in base.edges],
    }
    if base.vertex_signs is not None:
        payload["vertex_signs"] = [[i, s] for i, s in enumerate(base.vertex_signs)]
    if base.edge_twists:
        payload["edge_twists"] = sorted(base.edge_twists)
    if crossings is not None:
        payload["crossings"] = [{"vertex": c.vertex, "over": list(c.over_pair)} for c in crossings]
    return json.dumps(payload, indent=1) + "\n"


def obstruction_z2_oracle(d: sp.SpatialDiagram) -> sp.ObstructionClass:
    """``obstruction_z2`` with the class and the coboundaries built over GF(2) alone.

    Each crossing between distinct strands toggles the bit of their pair,
    and the coboundary of a graph vertex v and a strand f toggles (s, f) for
    the strand s of each half-edge at v, with no signs and no orientations.
    """
    data = sp._strand_data(d)
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
            gen = sp._gf2_reduce(gen, basis)
            if not gen:
                continue
            pivot = gen.bit_length() - 1
            for key, row in list(basis.items()):
                if (row >> pivot) & 1:
                    basis[key] = row ^ gen
            basis[pivot] = gen
    rep_bits = sp._gf2_reduce(cls, basis)
    rep = tuple(
        (pairs[i][0], pairs[i][1], 1)
        for i in range(len(pairs))
        if (rep_bits >> i) & 1
    )
    return sp.ObstructionClass(2, n, rep)


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


def _merge(
    states: dict[tuple[int, ...], dict[int, int]],
    state: tuple[int, ...],
    tally: dict[int, int],
    weight: int,
    shift: int,
) -> None:
    """Add ``tally``, times ``weight`` with every key moved by ``shift``, to ``states[state]``.

    The sweep oracles' own dict-tally arithmetic, apart from ``brauer``'s.
    """
    target = states.setdefault(state, {})
    for key, count in tally.items():
        target[key + shift] = target.get(key + shift, 0) + weight * count


def _scaled_total(states: dict[tuple[int, ...], dict[int, int]], weight: int, shift: int) -> dict[int, int]:
    """The tallies of all states summed, times ``weight`` with every key moved by ``shift``."""
    total: dict[int, int] = {}
    for tally in states.values():
        for key, count in tally.items():
            total[key + shift] = total.get(key + shift, 0) + weight * count
    return total


def frontier_sweep_oracle(
    m: CombMap,
    options: Sequence[Sequence[tuple[Sequence[tuple[int, int]], int, int]]],
    closings: Sequence[Sequence[tuple[int, int, int]]],
    order: Sequence[int] | None = None,
    counts: list[int] | None = None,
) -> dict[int, int]:
    """The pairing sweep that ``brauer._sweep`` with ``_Pairings`` replaced:
    options give arcs, not local vertices, and the state count after every
    closing is appended to ``counts``.

    Weighted loop sum over local states, tallied by an integer key.

    Half-edge h doubles into points 2h and 2h+1.  Vertex v enters in one of
    ``options[v]``, each (arcs, weight, shift): arcs pair the points of v's
    half-edges, the weight multiplies and the shift moves the key.  Edge
    e = (a, b) closes once both ends are placed, in one of ``closings[e]``,
    each (point, weight, shift) naming the point paired to 2a: 2b+1 for a
    band and 2b for a crossed band, which pair 2a+1 to the other point of
    b, or 2a+1 for a cut, which pairs 2b to 2b+1.  Each closed loop moves
    the key by 1.  An isolated vertex is one free loop, so it moves the key
    by 1 on top of its option's shift.

    A state pairs the open points by slot: ``state[i]`` is the slot joined
    to slot i through the placed diagrams, and closed slots hold -1 until
    the next vertex drops them.  Equal states merge, each keeping a tally
    of key -> weight.  A vertex with a single option scales every tally
    alike, so its weight and shift are applied once, at the end.  The
    vertices are placed in ``order``, by default ``sweep_plan_oracle``'s.
    """
    if order is None:
        order = sweep_plan_oracle(m)[0]
    edge_of = m.edge_of
    frontier: list[int] = []  # the point in each slot, -1 once closed
    states: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    common_weight, common_shift = 1, 0
    for v, cycle, closing in _sweep_steps(m, order):
        keep = [i for i, point in enumerate(frontier) if point >= 0]
        renumber = [0] * len(frontier)
        for i, old in enumerate(keep):
            renumber[old] = i
        frontier = [frontier[i] for i in keep]
        base = len(frontier)
        frontier += [point for h in cycle for point in (2 * h, 2 * h + 1)]
        slot = {point: i for i, point in enumerate(frontier)}
        entries = []
        for arcs, weight, shift in options[v]:
            tail = [0] * (len(frontier) - base)
            for p, q in arcs:
                tail[slot[p] - base], tail[slot[q] - base] = slot[q], slot[p]
            entries.append((tuple(tail), weight, shift if cycle else shift + 1))
        compact = len(keep) < len(renumber)
        if len(entries) == 1:
            tail, weight, shift = entries[0]
            common_weight *= weight
            common_shift += shift
            if compact or tail:
                states = {
                    (tuple([renumber[state[i]] for i in keep]) if compact else state) + tail: tally
                    for state, tally in states.items()
                }
        else:
            grown: dict[tuple[int, ...], dict[int, int]] = {}
            for state, tally in states.items():
                if compact:
                    state = tuple([renumber[state[i]] for i in keep])
                for tail, weight, shift in entries:
                    _merge(grown, state + tail, tally, weight, shift)
            states = grown
        for h in closing:
            e = edge_of[h]
            a, b = m.edges[e]
            x0, x1, y0, y1 = slot[2 * a], slot[2 * a + 1], slot[2 * b], slot[2 * b + 1]
            ways = [
                (x0, x1, y0, y1, weight, shift)
                if point == 2 * a + 1
                else (x0, slot[point], x1, slot[point ^ 1], weight, shift)
                for point, weight, shift in closings[e]
            ]
            for i in (x0, x1, y0, y1):
                frontier[i] = -1
            closed: dict[tuple[int, ...], dict[int, int]] = {}
            for state, tally in states.items():
                for p1, q1, p2, q2, weight, shift in ways:
                    pairing = list(state)
                    end = pairing[p1]
                    if end == q1:
                        shift += 1
                    else:
                        other = pairing[q1]
                        pairing[end], pairing[other] = other, end
                    end = pairing[p2]
                    if end == q2:
                        shift += 1
                    else:
                        other = pairing[q2]
                        pairing[end], pairing[other] = other, end
                    pairing[x0] = pairing[x1] = pairing[y0] = pairing[y1] = -1
                    _merge(closed, tuple(pairing), tally, weight, shift)
            states = closed
            if counts is not None:
                counts.append(len(states))
    return _scaled_total(states, common_weight, common_shift)


def partition_sweep_oracle(
    m: CombMap,
    options: Sequence[Sequence[tuple[Sequence[Sequence[int]], int, int]]],
    order: Sequence[int] | None = None,
    counts: list[int] | None = None,
) -> dict[int, int]:
    """The partition sweep that ``brauer._sweep`` with ``_Partitions``
    replaced, with blocks labelled by first occurrence; the state count
    after every closing is appended to ``counts``.

    Weighted sum over local states and kept edge sets A, by 2(|A| - |V| + c(A)).

    Vertex v enters in one of ``options[v]``, each (groups, weight, shift):
    the groups partition v's half-edges into local vertices, each of which
    moves the key by -2, the weight multiplies and the shift moves the key.
    Edge e = (a, b) closes once both ends are placed, either joined, which
    merges the blocks of a and b and moves the key by 2, or cut, with
    weight -1.  A block that loses its last open half-edge is a closed
    component and moves the key by 2, so an empty group moves nothing.

    A state gives the block of each open half-edge by slot, blocks labelled
    0, 1, ... in order of first occurrence.  Equal states merge, each
    keeping a tally of key -> weight, and with w open half-edges there are
    at most Bell(w) states.  A vertex with a single option scales every
    tally alike, so its weight and shift are applied once, at the end.
    The vertices are placed in ``order``, by default ``sweep_plan_oracle``'s.
    """
    if order is None:
        order = sweep_plan_oracle(m)[0]
    alpha = m.alpha
    frontier: list[int] = []  # the half-edge in each slot
    states: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    common_weight, common_shift = 1, 0
    for v, cycle, closing in _sweep_steps(m, order):
        frontier += cycle
        entries = []
        for groups, weight, shift in options[v]:
            group_of = {h: i for i, group in enumerate(groups) for h in group}
            first: dict[int, int] = {}
            tail = tuple([first.setdefault(group_of[h], len(first)) for h in cycle])
            entries.append((tail, weight, shift - 2 * sum(1 for group in groups if group)))
        if len(entries) == 1:
            tail, weight, shift = entries[0]
            common_weight *= weight
            common_shift += shift
            if tail:
                grown = {}
                for state, tally in states.items():
                    blocks = max(state) + 1 if state else 0
                    grown[state + tuple([blocks + label for label in tail])] = tally
                states = grown
        else:
            grown = {}
            for state, tally in states.items():
                blocks = max(state) + 1 if state else 0
                for tail, weight, shift in entries:
                    _merge(grown, state + tuple([blocks + label for label in tail]), tally, weight, shift)
            states = grown
        for h in closing:
            i, j = sorted((frontier.index(h), frontier.index(alpha[h])))
            del frontier[j], frontier[i]
            closed: dict[tuple[int, ...], dict[int, int]] = {}
            for state, tally in states.items():
                x, y = state[i], state[j]
                rest = state[:i] + state[i + 1 : j] + state[j + 1 :]
                seen: dict[int, int] = {}
                cut = tuple([seen.setdefault(z, len(seen)) for z in rest])
                ends = (x not in seen) + (y != x and y not in seen)
                _merge(closed, cut, tally, -1, 2 * ends)
                if x == y:
                    _merge(closed, cut, tally, 1, 2 + 2 * ends)
                    continue
                seen = {}
                joined = tuple([seen.setdefault(x if z == y else z, len(seen)) for z in rest])
                _merge(closed, joined, tally, 1, 4 if x not in seen else 2)
            states = closed
            if counts is not None:
                counts.append(len(states))
    return _scaled_total(states, common_weight, common_shift)


def sweep_plan_oracle(m: CombMap) -> tuple[tuple[int, ...], int, int]:
    """Vertex order of the frontier sweep, its width and its state bound.

    From each start vertex a greedy order places next the vertex that
    leaves the fewest open half-edges, ties going to the one next to the
    most recently placed vertex and then to the smallest label.  After step
    i, w_i half-edges are open, and a ``_Pairings`` state pairs their 2 w_i
    points, so there are at most (2 w_i - 1)!! states.  The order with the
    least sum of these bounds is kept, ties going to the smaller start.  The
    width w is the largest w_i, and the state bound is (2w - 1)!!.
    ``_Partitions`` takes the same order; its states partition the w_i open
    half-edges, so there are at most Bell(w) of them.

    Each candidate's rank is one int, growth then recency then label, so
    the greedy step is a ``min`` over ints.  Every term of a sum is at
    least 1, so a start is dropped once its running sum reaches the best
    finished one: it could only end higher, or tie a smaller start.
    """
    count = m.vertex_count
    vertex_of, alpha = m.vertex_of, m.alpha
    # the neighbour across each non-loop half-edge, and the open half-edges
    # that placing v first would add
    neighbours = [
        [w for h in cycle if (w := vertex_of[alpha[h]]) != v] for v, cycle in enumerate(m.vertices)
    ]
    growth0 = [len(around) for around in neighbours]
    bound = [1]  # bound[w] = (2w - 1)!!, the pairings of 2w points
    for w in range(1, sum(growth0) + 1):
        bound.append(bound[-1] * (2 * w - 1))
    # rank = growth * stride + (count - 1 - the last step that touched v) * count + v,
    # where a vertex no step has touched takes count for the middle digit
    stride = count * (count + 1)
    rank0 = [g * stride + count * count + v for v, g in enumerate(growth0)]
    best_cost, best_width, best_order = 0, 0, []
    for start in range(count):
        growth, rank = growth0[:], rank0[:]
        unplaced = set(range(count))
        order: list[int] = []
        open_count = width = cost = 0
        v = start
        for step in range(count):
            if step:
                v = min(unplaced, key=rank.__getitem__)
            unplaced.discard(v)
            order.append(v)
            open_count += growth[v]
            width = max(width, open_count)
            cost += bound[open_count]
            if start and cost >= best_cost:
                break
            recent = (count - 1 - step) * count
            for w in neighbours[v]:
                if w in unplaced:
                    growth[w] -= 2
                    rank[w] = growth[w] * stride + recent + w
        else:
            best_cost, best_width, best_order = cost, width, order
    return tuple(best_order), best_width, bound[best_width]


def yamada_sweep_oracle(d: sp.SpatialDiagram, mirror: bool = False, variant: str = "s") -> HalfLaurent:
    """R^S (variant "s") or R^F (variant "f") from the dict-tally sweep oracles.

    The local states are ``spatial._local_states``, the pairing sweep takes
    them as corner arcs, and the keys are packed at the stride
    2(H + V + C) + 1 that ``spatial._q_stride`` used before it was fitted to
    the Q window.
    """
    base = d.base
    stride = 2 * (base.half_edge_count + base.vertex_count + d.crossing_count) + 1
    local = sp._local_states(d, mirror)
    if variant == "s":
        # each local vertex as its corner arcs, with one factor Q^(-1/2)
        arcs = [
            [
                ([arc for group in groups for arc in _corner_pairs(group)], w, power * stride - len(groups))
                for groups, w, power in states
            ]
            for states in local
        ]
        tally = frontier_sweep_oracle(base, arcs, _join_or_cut(base))
    else:
        options = [[(groups, weight, power * stride) for groups, weight, power in states] for states in local]
        tally = partition_sweep_oracle(base, options)
    return q_polynomial_oracle(tally, stride)


def greedy_order_oracle(m: CombMap, start: int) -> tuple[int, int, list[int]]:
    """One greedy start of ``sweep_plan_oracle`` as it ran before its starts were
    pruned: the order from ``start``, its sum of state bounds and its width,
    each step a ``min`` over (growth, -last touching step, label) tuples."""
    vertex_of, alpha = m.vertex_of, m.alpha
    count = m.vertex_count
    # open half-edges that placing v adds, less those it closes
    growth = [
        sum(1 for h in cycle if vertex_of[alpha[h]] != v) for v, cycle in enumerate(m.vertices)
    ]
    # the last step that placed a neighbour of each vertex
    touched = [-1] * count
    unplaced = set(range(count))
    order: list[int] = []
    open_count = width = cost = 0
    v = start
    for step in range(count):
        if step:
            v = min(unplaced, key=lambda u: (growth[u], -touched[u], u))
        unplaced.discard(v)
        order.append(v)
        open_count += growth[v]
        width = max(width, open_count)
        cost += math.prod(range(2 * open_count - 1, 0, -2))
        for h in m.vertices[v]:
            w = vertex_of[alpha[h]]
            if w in unplaced:
                growth[w] -= 2
                touched[w] = step
    return cost, width, order


# The engine rule's constants as they were when ``auto`` also compared 2^E
# with the sweep's state bound, copied so that the rule oracle does not
# follow a change to the constants of ``invariants``.
_SWEEP_STEP = 10
_PLAN_CUBE = 4
_PAIRING_STATES = 8


def sweep_cost_oracle(m: CombMap, order: Sequence[int]) -> int:
    """A bound on the states ``_sweep`` passes over in ``order``, one option per vertex.

    Each step places a vertex or closes an edge.  After a step, w
    half-edges are open and c edges closed.  A ``_Pairings`` state pairs
    the 2w open points, so there are at most (2w - 1)!! states, and a
    closing at most doubles them, so there are at most 2^c.  The bound sums
    the lesser of the two over every step.  ``_Partitions`` keeps no more:
    its states partition the open half-edges, and Bell(w) <= (2w - 1)!!.
    """
    cap = 1 << m.edge_count
    pairings = [1]  # (2w - 1)!!, capped at 2^E
    for w in range(1, m.half_edge_count + 1):
        pairings.append(min(pairings[-1] * (2 * w - 1), cap))
    open_count = closed = total = 0
    for _v, cycle, closing in _sweep_steps(m, order):
        open_count += len(cycle)
        total += min(pairings[open_count], 1 << closed)
        for _h in closing:
            open_count -= 2
            closed += 1
            total += min(pairings[open_count], 1 << closed)
    return total


def choose_engine_oracle(m: CombMap, engine: str) -> tuple[str, Optional[tuple[int, ...]]]:
    """``invariants.resolve_engine`` as it was with the state bound, and the
    sweep order when ``auto`` planned one.

    The plan is made only when 2^E exceeds the sweep's step and planning
    costs.  Once made, its cost is spent, so the state sum still runs if 2^E
    is at most the step costs plus the bound.
    """
    if engine != "auto":
        return engine, None
    subsets = 1 << m.edge_count
    steps = _SWEEP_STEP * (m.vertex_count + m.edge_count + 1)
    if subsets <= steps + m.vertex_count**3 // _PLAN_CUBE:
        return "state-sum", None
    order = sweep_plan_oracle(m)[0]
    if subsets <= steps + sweep_cost_oracle(m, order) // _PAIRING_STATES:
        return "state-sum", None
    return "brauer", order


def gram_matrix_oracle(n: int) -> list[list[HalfLaurent]]:
    """``gram_matrix`` with every entry glued on its own, with no orbits."""
    basis = fpf_permutations(n)
    return [[glue_pairing(s, t) for t in basis] for s in basis]


def newton_interpolate_oracle(xs: list[int], ys: list[int]) -> HalfLaurent:
    """Newton interpolation in ``Fraction`` divided differences at any distinct xs."""
    count = len(xs)
    coeffs = [Fraction(y) for y in ys]
    for level in range(1, count):
        for i in range(count - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    # expand the Newton form into monomial coefficients
    poly = [Fraction(0)] * count
    acc = [Fraction(1)] + [Fraction(0)] * (count - 1)
    degree = 0
    for level in range(count):
        for d in range(degree + 1):
            poly[d] += coeffs[level] * acc[d]
        if level < count - 1:
            shifted = [Fraction(0)] * count
            for d in range(degree + 1):
                shifted[d + 1] += acc[d]
                shifted[d] -= xs[level] * acc[d]
            acc = shifted
            degree += 1
    return HalfLaurent.from_dict("Q", {2 * d: c for d, c in enumerate(poly)})


def gram_det_oracle(n: int) -> HalfLaurent:
    """``gram_det`` from ``gram_matrix_oracle``, each entry evaluated through
    ``HalfLaurent.evaluate`` at each point, and ``newton_interpolate_oracle``."""
    matrix = gram_matrix_oracle(n)
    bound = 0
    for row in matrix:
        degrees = [entry.degree_leading()[0] for entry in row if not entry.is_zero()]
        if degrees:
            bound += int(max(degrees))
    points = list(range(2, 2 + bound + 1))
    values = []
    for q in points:
        numeric = [[int(entry.evaluate(q)) for entry in row] for row in matrix]
        values.append(_bareiss_det(numeric))
    return newton_interpolate_oracle(points, values)


def sym_pairings_oracle(
    lam: Sequence[int], mu: Sequence[int], q_values: Sequence[int | Fraction]
) -> list[Fraction]:
    """``sym_pairing_at`` at each of q_values, as the plain average over the
    whole class of mu, filtered from every fixed-point-free permutation."""
    n = sum(lam)
    sigma = partition_permutation(lam)
    target = sorted(mu)
    members = [t for t in fpf_permutations(n) if sorted(len(c) for c in _perm_cycles(t)) == target]
    totals = [Fraction(0)] * len(q_values)
    for tau in members:
        pairing = s_poly(glue_map(sigma, tau), engine="state-sum")
        totals = [total + pairing.evaluate(q) for total, q in zip(totals, q_values)]
    return [total / len(members) for total in totals]


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
            vertices = tuple(tuple(c) for c in _perm_cycles(perm))
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


def cubic_census_candidates(v: int) -> list[Matrix]:
    """The census's candidates on v >= 4 vertices, with growth at every site.

    The simple labelings, then both kinds grown at every edge site of every
    class of ``cubic_census_unpruned_oracle(v - 2)``, as the census grew
    before it grew once per orbit of sites.
    """
    candidates = list(_simple_cubic_connected(v))
    for smaller in cubic_census_unpruned_oracle(v - 2):
        for site in _edge_sites(smaller):
            candidates += [_grow(smaller, site, "digon"), _grow(smaller, site, "lollipop")]
    return candidates


def cubic_census_unpruned_oracle(v: int) -> list[Matrix]:
    """``cubic_multigraph_census`` without site-orbit pruning.

    Keeps the first of ``cubic_census_candidates(v)`` in each class of
    ``canonical_form``, in the order the classes first appear.
    """
    if v % 2 or v <= 0:
        return []
    if v == 2:
        return [((0, 3), (3, 0)), ((1, 1), (1, 1))]
    seen: dict[tuple, Matrix] = {}
    for matrix in cubic_census_candidates(v):
        seen.setdefault(canonical_form(matrix), matrix)
    return list(seen.values())


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


def cubic_classes_full_search_oracle(v: int) -> list[tuple[Matrix, list[list[int]]]]:
    """``generate._cubic_classes`` with a full ``canonical_form`` search per candidate.

    Grows the classes of ``cubic_classes_full_search_oracle(v - 2)`` at the
    first site of each orbit and keeps the first candidate of each form, with
    the automorphisms its search found, as the census did before the searches
    of a level shared their leaf forms.
    """
    if v == 2:
        return [(((0, 3), (3, 0)), []), (((1, 1), (1, 1)), [])]
    candidates = list(_simple_cubic_connected(v))
    for smaller, automorphisms in cubic_classes_full_search_oracle(v - 2):
        for site in _orbit_sites(smaller, automorphisms):
            candidates += [_grow(smaller, site, "digon"), _grow(smaller, site, "lollipop")]
    classes: dict[tuple, tuple[Matrix, list[list[int]]]] = {}
    for matrix in candidates:
        automorphisms: list[list[int]] = []
        classes.setdefault(canonical_form(matrix, automorphisms), (matrix, automorphisms))
    return list(classes.values())
