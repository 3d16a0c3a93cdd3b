"""Brauer diagram category over an exact loop parameter.

Diagrams are perfect matchings on bottom/top boundary points; composition
glues boundaries and converts every closed loop into a factor of the loop
variable c.  On top of the raw category sit the pieces this library actually
uses: the functor that evaluates a combinatorial map to its S-polynomial by
doubling edges into bands, the Gramian matrices of the n-point pairing with
their exactly interpolated determinants, and the symmetrized negligible
combinations that give local relations at square integer values of Q.

The functor composes its local diagrams in one frontier sweep, ``_sweep``:
vertices enter one at a time in the map's one ``CombMap.sweep_plan``, edges
close once both ends are placed (``_sweep_steps``, the one schedule of the
sweep), and equal states of the open slots merge.  Its state kind
``_Pairings`` pairs the open points, which also evaluates ``W_so`` and
``W_sl`` (``penrose``) and ``R^S`` (``spatial``), whose vertices enter as
weighted choices of local vertices and whose edges close in weighted
resolutions, and the virtual chromatic polynomial, whose edges close as
bands or cuts of the map itself in place of its dual's.  Flow is not a loop
sum, so flow and ``R^F`` (``spatial``) take the kind ``_Partitions``, set
partitions of the open half-edges.  The four-variable rank polynomial takes
the kind ``_Ranks``, a pairing and two partitions in one state.

Each state's tally of key -> coefficient is one int for ``_Pairings`` and
``_Partitions`` (Kronecker substitution): the coefficient of key k sits at
bit k * B, so moving every key by s is a shift by s * B, a weight of -1 a
negation, and merging equal states one addition.  B is one more than the
bit length of the mass, the product over vertices and edges of the sum of
|weight| over their options and closings.  The mass bounds |coefficient|
of every key in every tally and in the total, so the total is read back
once as balanced digits in [-2^(B - 1), 2^(B - 1)).  The key of ``_Ranks``
packs four counts, which spans far more positions than a tally fills, so
its tallies stay dicts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .algebra import HalfLaurent
from .maps import CombMap


@dataclass(frozen=True)
class BrauerMatching:
    """Perfect matching on bottom points 0..bottom-1, top points bottom..bottom+top-1.

    Point p is paired with ``mate[p]``.
    """

    bottom: int
    top: int
    mate: tuple[int, ...]

    def __post_init__(self) -> None:
        total = self.bottom + self.top
        if total % 2:
            raise ValueError("odd number of boundary points")
        if not isinstance(self.mate, tuple):
            object.__setattr__(self, "mate", tuple(self.mate))
        mate = self.mate
        if len(mate) != total:
            raise ValueError("not a perfect matching on the boundary points")
        for p, q in enumerate(mate):
            if q == p:
                raise ValueError("pairs must have two distinct points")
            if not 0 <= q < total or mate[q] != p:
                raise ValueError("not a perfect matching on the boundary points")

    @staticmethod
    def from_pairs(bottom: int, top: int, pairs: Iterable[Iterable[int]]) -> "BrauerMatching":
        total = bottom + top
        if total % 2:
            raise ValueError("odd number of boundary points")
        ends = [tuple(set(pair)) for pair in pairs]
        if any(len(pair) != 2 for pair in ends):
            raise ValueError("pairs must have two distinct points")
        # an unpaired point keeps -1, which the constructor refuses
        mate = [-1] * total
        for p, q in ends:
            for x, y in ((p, q), (q, p)):
                if x not in range(total) or mate[x] not in (-1, y):
                    raise ValueError("not a perfect matching on the boundary points")
                mate[x] = y
        return BrauerMatching(bottom, top, tuple(mate))

    @staticmethod
    def identity(n: int) -> "BrauerMatching":
        return BrauerMatching.from_pairs(n, n, [(i, n + i) for i in range(n)])

    @staticmethod
    def permutation(perm: Sequence[int]) -> "BrauerMatching":
        n = len(perm)
        return BrauerMatching.from_pairs(n, n, [(i, n + perm[i]) for i in range(n)])

    @staticmethod
    def cup() -> "BrauerMatching":
        """The (0,2) diagram: a strand turning back up."""
        return BrauerMatching.from_pairs(0, 2, [(0, 1)])

    @staticmethod
    def cap() -> "BrauerMatching":
        return BrauerMatching.from_pairs(2, 0, [(0, 1)])

    @property
    def pairs(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset((p, q)) for p, q in enumerate(self.mate) if p < q)

    def partner(self, point: int) -> int:
        if point not in range(len(self.mate)):
            raise KeyError(point)
        return self.mate[point]

    def then(self, other: "BrauerMatching") -> tuple["BrauerMatching", int]:
        """Compose self: a -> b with other: b -> c; returns (diagram, loops).

        Middle point i is self's top point a + i and other's bottom point i.
        Each strand from an outer point alternates between the two diagrams
        through middle points until it leaves at an outer point; the middle
        points it never reaches lie on closed loops.
        """
        if self.top != other.bottom:
            raise ValueError(
                f"arity mismatch: {self.top} outputs composed into {other.bottom} inputs"
            )
        a, b = self.bottom, self.top
        lower, upper = self.mate, other.mate
        # result point a + j is other's top point b + j
        mate = [-1] * (a + other.top)
        reached = bytearray(b)
        for start in range(len(mate)):
            if mate[start] >= 0:
                continue
            in_upper = start >= a
            p = upper[b + start - a] if in_upper else lower[start]
            while True:
                if in_upper:
                    if p >= b:
                        end = a + p - b
                        break
                    reached[p] = 1
                    p = lower[a + p]
                else:
                    if p < a:
                        end = p
                        break
                    p -= a
                    reached[p] = 1
                    p = upper[p]
                in_upper = not in_upper
            mate[start], mate[end] = end, start
        loops = 0
        for i in range(b):
            if reached[i]:
                continue
            loops += 1
            p = i
            while not reached[p]:
                reached[p] = 1
                p = lower[a + p] - a
                reached[p] = 1
                p = upper[p]
        return BrauerMatching(a, other.top, tuple(mate)), loops

    def tensor(self, other: "BrauerMatching") -> "BrauerMatching":
        """Side by side: self's bottom points, then other's, and likewise on top."""
        a, b = self.bottom, self.top
        c, d = other.bottom, other.top
        left = [*range(a), *range(a + c, a + c + b)]
        right = [*range(a, a + c), *range(a + b + c, a + b + c + d)]
        mate = [0] * (a + b + c + d)
        for place, matching in ((left, self.mate), (right, other.mate)):
            for p, q in enumerate(matching):
                mate[place[p]] = place[q]
        return BrauerMatching(a + c, b + d, tuple(mate))


class BrauerVector:
    """Formal combination of matchings with HalfLaurent('c') coefficients."""

    def __init__(self, terms: dict[BrauerMatching, HalfLaurent] | None = None):
        self.terms: dict[BrauerMatching, HalfLaurent] = {}
        if terms:
            for matching, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[matching] = coeff

    @staticmethod
    def of(matching: BrauerMatching, coeff: HalfLaurent | int = 1) -> "BrauerVector":
        if isinstance(coeff, int):
            coeff = HalfLaurent.constant("c", coeff)
        return BrauerVector({matching: coeff})

    def __add__(self, other: "BrauerVector") -> "BrauerVector":
        data = dict(self.terms)
        for matching, coeff in other.terms.items():
            total = data.get(matching)
            data[matching] = coeff if total is None else total + coeff
        return BrauerVector(data)

    def __sub__(self, other: "BrauerVector") -> "BrauerVector":
        return self + other.scale(-1)

    def scale(self, factor: HalfLaurent | int | Fraction) -> "BrauerVector":
        if not isinstance(factor, HalfLaurent):
            factor = HalfLaurent.constant("c", Fraction(factor))
        return BrauerVector({m: c * factor for m, c in self.terms.items()})

    def shift(self, half_steps: int) -> "BrauerVector":
        """Multiply by c^(half_steps/2)."""
        return BrauerVector({m: c.shift(half_steps) for m, c in self.terms.items()})

    def then(self, other: "BrauerVector") -> "BrauerVector":
        data: dict[BrauerMatching, HalfLaurent] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                matching, loops = m1.then(m2)
                coeff = (c1 * c2).shift(2 * loops)
                prior = data.get(matching)
                data[matching] = coeff if prior is None else prior + coeff
        return BrauerVector(data)

    def tensor(self, other: "BrauerVector") -> "BrauerVector":
        out: dict[BrauerMatching, HalfLaurent] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                matching = m1.tensor(m2)
                coeff = c1 * c2
                prior = out.get(matching)
                out[matching] = coeff if prior is None else prior + coeff
        return BrauerVector(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BrauerVector):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms


def br2_basis() -> dict[str, BrauerMatching]:
    ident = BrauerMatching.from_pairs(2, 2, [(0, 2), (1, 3)])
    e = BrauerMatching.from_pairs(2, 2, [(0, 1), (2, 3)])
    x = BrauerMatching.from_pairs(2, 2, [(0, 3), (1, 2)])
    return {"id": ident, "e": e, "x": x}


def br2_idempotent_verify() -> dict:
    basis = br2_basis()
    ident = BrauerVector.of(basis["id"])
    e = BrauerVector.of(basis["e"])
    x = BrauerVector.of(basis["x"])
    half = Fraction(1, 2)
    p1 = e.shift(-2)
    p2 = ident.scale(half) - x.scale(half)
    p3 = ident.scale(half) - e.shift(-2) + x.scale(half)
    idems = [p1, p2, p3]
    report: dict = {}
    for i, p in enumerate(idems, start=1):
        report[f"p{i}_idempotent"] = p.then(p) == p
    for i, j in itertools.combinations(range(3), 2):
        product = idems[i].then(idems[j])
        report[f"p{i + 1}p{j + 1}_zero"] = product.is_zero()
    report["sum_is_identity"] = (p1 + p2 + p3) == ident
    jones_wenzl = p2 + p3
    cup = BrauerVector.of(BrauerMatching.cup())
    cap = BrauerVector.of(BrauerMatching.cap())
    report["jw_kills_cup"] = cup.then(jones_wenzl).is_zero()
    report["jw_kills_cap"] = jones_wenzl.then(cap).is_zero()
    report["passed"] = all(v for k, v in report.items() if k != "passed")
    return report


# ---------------------------------------------------------------------------
# The frontier sweep, and the functor evaluating a closed map to its
# S-polynomial.
# ---------------------------------------------------------------------------


_State = tuple[int, ...]
_States = dict[_State, int] | dict[_State, dict[int, int]]


def _corner_pairs(cycle: Sequence[int]) -> list[tuple[int, int]]:
    """Corner arcs of one rotation: point 2h pairs with 2h'+1, h' the successor of h."""
    size = len(cycle)
    return [(2 * h, 2 * cycle[(i + 1) % size] + 1) for i, h in enumerate(cycle)]


def _sweep_steps(
    m: CombMap, order: Sequence[int]
) -> Iterator[tuple[int, tuple[int, ...], list[int]]]:
    """The one schedule of ``_sweep``: each vertex v of ``order``, its
    rotation, and the half-edges at v whose edges close once v is placed.
    An edge closes when its second end is placed, and a loop closes at its
    larger half-edge."""
    vertex_of, alpha = m.vertex_of, m.alpha
    placed = [False] * m.vertex_count
    for v in order:
        placed[v] = True
        cycle = m.vertices[v]
        yield v, cycle, [
            h for h in cycle if placed[u := vertex_of[alpha[h]]] and (u != v or alpha[h] < h)
        ]


def _sweep(
    m: CombMap,
    options: Sequence[Sequence[tuple[Sequence[Sequence[int]], int, int]]],
    kind: _Pairings | _Partitions | _Ranks,
    order: Sequence[int] | None = None,
) -> dict[int, int]:
    """Weighted sum over local states and edge closings, tallied by an integer key.

    Vertex v enters in one of ``options[v]``, each (groups, weight, shift):
    each group is the rotation of one local vertex, the weight multiplies
    and the shift moves the key.  The state ``kind`` says which points a
    half-edge opens, what a local vertex adds, and how an edge closes.

    A state maps each open slot to another open slot, and closed slots hold
    -1 until the next vertex drops them.  Equal states merge, each keeping a
    tally of key -> weight.  A vertex with a single option scales every
    tally alike, so its weight and shift are applied once, at the end.  The
    vertices are placed in ``order``, by default the map's cached plan's.

    The tallies of ``_Pairings`` and ``_Partitions`` are packed ints with
    B bits per key (see the module docstring), which the kind reads as
    ``kind.bits``.  A vertex with several options moves its least shift
    into the common shift, so no packed shift is negative, and the total is
    unpacked once (``_unpack``).  Equal states merge even when their
    tallies cancel to 0, so the state counts do not depend on the packing.
    ``_Ranks`` keeps dict tallies (``_merge``).
    """
    if order is None:
        order = m.sweep_plan[0]
    frontier: list[int] = []  # the point in each slot
    if kind.packed:
        mass = kind.closing_mass()
        for local in options:
            mass *= sum(abs(weight) for _groups, weight, _shift in local)
        bits = kind.bits = mass.bit_length() + 1
        states: _States = {(): 1}
    else:
        bits = 0
        states = {(): {0: 1}}
    common_weight, common_shift = 1, 0
    for v, cycle, closing in _sweep_steps(m, order):
        # every state holds -1 in the same closed slots
        keep = [i for i, z in enumerate(next(iter(states))) if z >= 0]
        compact = len(keep) < len(frontier)
        renumber = [0] * len(frontier)
        for i, old in enumerate(keep):
            renumber[old] = i
        frontier = [frontier[i] for i in keep]
        base = len(frontier)
        frontier += kind.points(cycle)
        slot = {point: i for i, point in enumerate(frontier)}
        entries = []
        for groups, weight, shift in options[v]:
            tail, local_shift = kind.enter(groups, slot, base)
            entries.append((tail, weight, shift + local_shift))
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
            least = min(shift for _tail, _weight, shift in entries)
            common_shift += least
            entries = [(tail, weight, shift - least) for tail, weight, shift in entries]
            grown: _States = {}
            for state, tally in states.items():
                if compact:
                    state = tuple([renumber[state[i]] for i in keep])
                for tail, weight, shift in entries:
                    if bits:
                        after = state + tail
                        grown[after] = grown.get(after, 0) + (tally << shift * bits) * weight
                    else:
                        _merge(grown, state + tail, tally, weight, shift)
            states = grown
        for h in closing:
            states = kind.close(states, slot, h)
    if bits:
        return _unpack(sum(states.values()) * common_weight, bits, common_shift)
    return _scaled_total(states, common_weight, common_shift)


def _unpack(total: int, bits: int, shift: int) -> dict[int, int]:
    """The nonzero balanced digits of ``total`` in base 2^bits, digit k at key k + ``shift``.

    A run of zero digits is skipped in one step, from the lowest set bit:
    the tallies of the spatial sweeps fill only a few of their keys.
    """
    tally = {}
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    key = shift
    while total:
        digit = total & mask
        if not digit:
            zeros = ((total & -total).bit_length() - 1) // bits
            total >>= zeros * bits
            key += zeros
            continue
        if digit >= half:
            digit -= mask + 1
        tally[key] = digit
        total = (total - digit) >> bits
        key += 1
    return tally


class _Pairings:
    """Pairings of the open points: the loop sums S, ``W_so``, ``W_sl`` and R^S.

    Half-edge h doubles into points 2h and 2h+1, and ``state[i]`` is the
    slot joined to slot i through the placed diagrams.  A local vertex
    enters as its corner arcs (``_corner_pairs``); an empty one is a free
    loop.  Edge e = (a, b) closes in one of ``closings[e]``, each (point,
    weight, shift) naming the point paired to 2a: 2b+1 for a band and 2b
    for a crossed band, which pair 2a+1 to the other point of b, or 2a+1
    for a cut, which pairs 2b to 2b+1.  Each closed loop moves the key by 1.
    No closing shift is negative.  The tallies are packed ints.
    """

    packed = True

    def __init__(self, m: CombMap, closings: Sequence[Sequence[tuple[int, int, int]]]):
        self.edges, self.edge_of, self.closings = m.edges, m.edge_of, closings

    def closing_mass(self) -> int:
        """The product over the edges of the sum of |weight| over their closings."""
        return math.prod(sum(abs(weight) for _point, weight, _shift in ways) for ways in self.closings)

    @staticmethod
    def points(half_edges: Sequence[int]) -> list[int]:
        return [point for h in half_edges for point in (2 * h, 2 * h + 1)]

    @staticmethod
    def enter(groups: Sequence[Sequence[int]], slot: dict[int, int], base: int) -> tuple[_State, int]:
        """The partner slots of the new slots from ``base`` on, and the free loops."""
        tail = [0] * (len(slot) - base)
        for group in groups:
            for p, q in _corner_pairs(group):
                tail[slot[p] - base], tail[slot[q] - base] = slot[q], slot[p]
        return tuple(tail), sum(1 for group in groups if not group)

    def close(self, states: _States, slot: dict[int, int], h: int) -> _States:
        e = self.edge_of[h]
        a, b = self.edges[e]
        x0, x1, y0, y1 = slot[2 * a], slot[2 * a + 1], slot[2 * b], slot[2 * b + 1]
        loop = self.bits
        ways = [
            (x0, x1, y0, y1, weight, shift * loop)
            if point == 2 * a + 1
            else (x0, slot[point], x1, slot[point ^ 1], weight, shift * loop)
            for point, weight, shift in self.closings[e]
        ]
        closed: _States = {}
        for state, tally in states.items():
            for p1, q1, p2, q2, weight, shift in ways:
                pairing = list(state)
                end = pairing[p1]
                if end == q1:
                    shift += loop
                else:
                    other = pairing[q1]
                    pairing[end], pairing[other] = other, end
                end = pairing[p2]
                if end == q2:
                    shift += loop
                else:
                    other = pairing[q2]
                    pairing[end], pairing[other] = other, end
                pairing[x0] = pairing[x1] = pairing[y0] = pairing[y1] = -1
                after = tuple(pairing)
                closed[after] = closed.get(after, 0) + (tally << shift) * weight
        return closed


def _join_or_cut(m: CombMap) -> list[tuple[tuple[int, int, int], ...]]:
    """Closings of ``_Pairings``: each edge joined, moving the key by 1, or cut with weight -1.

    An edge joins by a band, or by a crossed band when it is twisted.
    """
    return [
        ((2 * b if e in m.edge_twists else 2 * b + 1, 1, 1), (2 * a + 1, -1, 0))
        for e, (a, b) in enumerate(m.edges)
    ]


class _Partitions:
    """Set partitions of the open half-edges, keyed by 2(|A| - |V| + c(A)): flow and R^F.

    ``state[i]`` is the least slot of slot i's block.  Each non-empty local
    vertex is one block and moves the key by -2.  Edge e = (a, b) closes
    either joined, which merges the blocks of a and b and moves the key by
    2, or cut, with weight -1.  A block that loses its last open half-edge
    is a closed component and moves the key by 2, so an empty local vertex
    moves nothing; a block whose least slot closes takes its next one.
    The tallies are packed ints.
    """

    packed = True

    def __init__(self, m: CombMap):
        self.alpha = m.alpha
        self.edge_count = m.edge_count

    def closing_mass(self) -> int:
        return 1 << self.edge_count  # each edge joined, with weight 1, or cut, with -1

    @staticmethod
    def points(half_edges: Sequence[int]) -> list[int]:
        return list(half_edges)

    @staticmethod
    def enter(groups: Sequence[Sequence[int]], slot: dict[int, int], base: int) -> tuple[_State, int]:
        """The root slots of the new slots from ``base`` on, and -2 per block."""
        tail = [0] * (len(slot) - base)
        blocks = [[slot[h] for h in group] for group in groups if group]
        for block in blocks:
            root = min(block)
            for i in block:
                tail[i - base] = root
        return tuple(tail), -2 * len(blocks)

    def close(self, states: _States, slot: dict[int, int], h: int) -> _States:
        i, j = slot[h], slot[self.alpha[h]]
        two = 2 * self.bits  # a key move of 2
        closed: _States = {}
        for state, tally in states.items():
            x, y = state[i], state[j]
            rest = list(state)
            rest[i] = rest[j] = -1
            blocks = (x,) if x == y else (x, y)
            roots = []
            for root in blocks:
                if root == i or root == j:
                    if root not in rest:
                        continue
                    root, old = rest.index(root), root
                    rest = [root if z == old else z for z in rest]
                roots.append(root)
            after = tuple(rest)
            closed[after] = closed.get(after, 0) - (tally << two * (len(blocks) - len(roots)))
            if len(roots) == 2:
                low, high = sorted(roots)
                after = tuple([low if z == high else z for z in rest])
            closed[after] = closed.get(after, 0) + (tally << (two if roots else 2 * two))
        return closed


class _Ranks:
    """A pairing and two partitions of the open slots: the rank polynomial.

    Half-edge h opens five slots: points 2h and 2h+1 paired as in
    ``_Pairings``, whose loops count the boundary components f(A); the same
    points in a dual partition, whose blocks count the components c* of
    G*|(E - A); and h in a primal partition as in ``_Partitions``, counting
    c(A).  The key packs (|A|, c, f, c*) as digits in base ``digit``, each
    only counting up.  A local vertex enters as its corner arcs, each also
    one dual block, and as one primal block; an empty one closes one of
    each.  Edge e = (a, b) closes kept, as a band, or cut, both with weight
    1.  Either way the dual partition joins 2a to 2b+1 and 2a+1 to 2b, as
    the faces of G run on along both sides of e; a cut edge also joins the
    two sides, its dual edge being in G*|(E - A), and a kept one merges the
    primal blocks of a and b.  A block with no open slot left is counted.

    The key spans digit^4 values (about 1.5e7 on a 13-edge map), far more
    than a tally fills, so the tallies stay dicts of key -> count.
    """

    packed = False

    def __init__(self, m: CombMap):
        self.edges, self.edge_of = m.edges, m.edge_of
        self.dual, self.primal = 2 * m.half_edge_count, 4 * m.half_edge_count
        self.digit = 2 * m.half_edge_count + m.vertex_count + 2
        # the identity on slots, with -1 for a closed one; close relabels through it
        self.relabel = [*range(5 * m.half_edge_count), -1]

    def points(self, half_edges: Sequence[int]) -> list[int]:
        d, p = self.dual, self.primal
        return [point for h in half_edges for point in (2 * h, 2 * h + 1, d + 2 * h, d + 2 * h + 1, p + h)]

    def enter(self, groups: Sequence[Sequence[int]], slot: dict[int, int], base: int) -> tuple[_State, int]:
        """The slots from ``base`` on, and the key shift of the empty local vertices."""
        tail = [0] * (len(slot) - base)
        dual, primal, digit = self.dual, self.primal, self.digit
        for group in groups:
            for p, q in _corner_pairs(group):
                i, j = slot[p], slot[q]
                tail[i - base], tail[j - base] = j, i
                i, j = slot[dual + p], slot[dual + q]
                tail[i - base] = tail[j - base] = min(i, j)
            block = [slot[primal + h] for h in group]
            for i in block:
                tail[i - base] = block[0]  # the least: the points come in rotation order
        empty = sum(1 for group in groups if not group)
        return tuple(tail), empty * digit * (1 + digit + digit * digit)

    def close(self, states: _States, slot: dict[int, int], h: int) -> _States:
        a, b = self.edges[self.edge_of[h]]
        # the five slots of a, in the order of ``points``, from x on, and of b from y on
        x, y = slot[2 * a], slot[2 * b]
        x1, y1 = x + 1, y + 1
        component = self.digit
        loop = component * component
        dual_component = loop * component
        relabel, shut = self.relabel, (-1,) * 5
        closed: _States = {}
        for state, tally in states.items():
            r0, r1, primal_a = state[x + 2 : x + 5]
            s0, s1, primal_b = state[y + 2 : y + 5]
            for kept in (True, False):
                rest = list(state)
                if kept:
                    shift, p1, q1, p2, q2 = 1, x, y1, x1, y
                else:
                    shift, p1, q1, p2, q2 = 0, x, x1, y, y1
                end = rest[p1]
                if end == q1:
                    shift += loop
                else:
                    other = rest[q1]
                    rest[end], rest[other] = other, end
                end = rest[p2]
                if end == q2:
                    shift += loop
                else:
                    other = rest[q2]
                    rest[end], rest[other] = other, end
                rest[x : x + 5] = rest[y : y + 5] = shut
                moved: list[int] = []
                if kept:
                    if {r0, s1}.isdisjoint((r1, s0)):
                        shift += dual_component * (
                            _rejoin(rest, (r0, s1), relabel, moved) + _rejoin(rest, (r1, s0), relabel, moved)
                        )
                    else:
                        shift += dual_component * _rejoin(rest, (r0, r1, s0, s1), relabel, moved)
                    shift += component * _rejoin(rest, (primal_a, primal_b), relabel, moved)
                else:
                    shift += dual_component * _rejoin(rest, (r0, r1, s0, s1), relabel, moved)
                    shift += component * _rejoin(rest, (primal_a,), relabel, moved)
                    if primal_b != primal_a:
                        shift += component * _rejoin(rest, (primal_b,), relabel, moved)
                after = tuple(map(relabel.__getitem__, rest)) if moved else tuple(rest)
                for r in moved:
                    relabel[r] = r
                _merge(closed, after, tally, 1, shift)
        return closed


def _rejoin(rest: list[int], roots: Sequence[int], relabel: list[int], moved: list[int]) -> int:
    """Join the blocks of ``roots`` in ``rest`` under their least open slot: 1 if there is none.

    The roots that change go into ``relabel`` and ``moved``.
    """
    least = len(rest)
    for r in roots:
        if rest[r] != r:
            if r not in rest:
                continue
            r = rest.index(r, r)
        if r < least:
            least = r
    if least == len(rest):
        return 1
    for r in roots:
        if r != least and relabel[r] == r:
            relabel[r] = least
            moved.append(r)
    return 0


def _scaled_total(states: _States, weight: int, shift: int) -> dict[int, int]:
    """The dict tallies of all states summed, times ``weight`` with every key moved by ``shift``."""
    total: _States = {}
    for tally in states.values():
        _merge(total, (), tally, weight, shift)
    return total.get((), {})


def _merge(states: _States, state: _State, tally: dict[int, int], weight: int, shift: int) -> None:
    """Add ``tally``, times ``weight`` with every key moved by ``shift``, to ``states[state]``.

    The merge of dict tallies, which only ``_Ranks`` keeps; the packed
    tallies of the other kinds merge by one int addition.
    """
    target = states.get(state)
    if target is None:
        states[state] = {key + shift: weight * count for key, count in tally.items()}
        return
    for key, count in tally.items():
        key += shift
        target[key] = target.get(key, 0) + weight * count


def phi_evaluate(m: CombMap) -> HalfLaurent:
    """S-polynomial through the diagram category.

    Every vertex contributes its corner arcs and one factor Q^(-1/2), and
    every edge expands into (band - cut) with a factor Q^(1/2) per band;
    each closed loop, an isolated vertex among them, counts Q^(1/2).  The local
    diagrams compose in one frontier sweep of ``_Pairings``.
    """
    if m.edge_twists:
        raise ValueError("the functor needs a twist-free map")
    return HalfLaurent.from_dict("Q", _s_tally(m))


def _s_tally(m: CombMap) -> dict[int, int]:
    """The tally of ``phi_evaluate`` by doubled exponent."""
    options = [[([cycle], 1, -1)] for cycle in m.vertices]
    return _sweep(m, options, _Pairings(m, _join_or_cut(m)))


def _flow_tally(m: CombMap) -> dict[int, int]:
    """The flow polynomial by doubled nullity, swept by ``_Partitions``.

    Each vertex enters as one local vertex and each edge is kept or cut, so
    the key is 2 b1 of the kept edges and the sign (-1)^(cut edges).  The
    rotation and the twists play no part.
    """
    return _sweep(m, [[([cycle], 1, 0)] for cycle in m.vertices], _Partitions(m))


def _chrom_tally(m: CombMap, order: Sequence[int] | None = None) -> dict[int, int]:
    """The virtual chromatic polynomial by doubled exponent, swept by ``_Pairings`` in ``order``.

    It is t^(b0 - g) S(G*), a sum over the kept edge sets B of G*.  The
    faces of G*|B are the boundary components of G|(E - B), so the sweep
    runs over G itself: an edge of B is cut in G, with weight 1 and shift 1,
    and any other edge is a band, with weight -1.  The loops count those
    faces, and G* has F vertices, so the total moves by 2(b0 - g) - F.
    The map must be twist-free.
    """
    options = [[([cycle], 1, 0)] for cycle in m.vertices]
    closings = [((2 * b + 1, -1, 0), (2 * a + 1, 1, 1)) for a, b in m.edges]
    ed = m.euler_data()
    shift = 2 * (ed.components - ed.genus) - ed.faces
    tally = _sweep(m, options, _Pairings(m, closings), order)
    return {key + shift: count for key, count in tally.items()}


def _rank_tally(m: CombMap) -> dict[tuple[int, int, int, int], int]:
    """Edge subsets A by (|A|, c(A), f(A), c*), swept by ``_Ranks``.

    c(A) counts the components of G|A, f(A) its boundary components and c*
    the components of G*|(E - A).  The map must be twist-free.
    """
    kind = _Ranks(m)
    tally = _sweep(m, [[([cycle], 1, 0)] for cycle in m.vertices], kind)
    d = kind.digit
    return {(key % d, key // d % d, key // d**2 % d, key // d**3): count for key, count in tally.items()}


brauer_evaluate = phi_evaluate


# ---------------------------------------------------------------------------
# Gramians of the n-point pairing.  Conjugating two diagrams by one pi
# relabels the boundary points, so G[pi s pi^-1][pi t pi^-1] = G[s][t] and
# each orbit of pairs is glued once.  The entries are integer polynomials in
# Q, evaluated by Horner's rule in ints; the determinant's values at
# consecutive integers are interpolated by integer Newton differences.
# ---------------------------------------------------------------------------


def fpf_permutations(n: int) -> list[tuple[int, ...]]:
    """Fixed-point-free permutations of 0..n-1 in lexicographic order."""
    return [
        perm
        for perm in itertools.permutations(range(n))
        if all(perm[i] != i for i in range(n))
    ]


def _perm_cycles(perm: Sequence[int]) -> list[list[int]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        point = start
        while not seen[point]:
            seen[point] = True
            cycle.append(point)
            point = perm[point]
        cycles.append(cycle)
    return cycles


def glue_map(sigma: Sequence[int], tau: Sequence[int]) -> CombMap:
    """Closed map pairing two point-diagrams: sigma cycles become vertices,
    tau cycles become vertices with reversed rotation, edges join point i
    on one side to point i on the other."""
    if len(sigma) != len(tau):
        raise ValueError("pairing needs equal point counts")
    n = len(sigma)
    vertices = [tuple(2 * p for p in cycle) for cycle in _perm_cycles(sigma)]
    vertices += [
        tuple(2 * p + 1 for p in reversed(cycle)) for cycle in _perm_cycles(tau)
    ]
    edges = tuple((2 * i, 2 * i + 1) for i in range(n))
    return CombMap(tuple(vertices), edges)


def glue_pairing(sigma: Sequence[int], tau: Sequence[int]) -> HalfLaurent:
    from .invariants import s_poly

    return s_poly(glue_map(sigma, tau))


def _conjugate(pi: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """pi perm pi^-1, which sends pi(x) to pi(perm(x))."""
    image = [0] * len(perm)
    for x, y in enumerate(perm):
        image[pi[x]] = pi[y]
    return tuple(image)


def _orbits(seeds: Iterable[tuple], generators: list[list[int]]) -> Iterator[list[tuple]]:
    """Orbits of the seeds (tuples of permutations) under conjugation, each once."""
    seen: set[tuple] = set()
    for seed in seeds:
        if seed not in seen:
            seen.add(seed)
            orbit = [seed]
            for item in orbit:
                for pi in generators:
                    image = tuple([_conjugate(pi, perm) for perm in item])
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
            yield orbit


def _symmetric_generators(n: int) -> list[list[int]]:
    """A transposition and an n-cycle, which generate S_n for n >= 2."""
    return [[1, 0, *range(2, n)], [*range(1, n), 0]]


def gram_matrix(n: int) -> list[list[HalfLaurent]]:
    """Pairings of the fixed-point-free diagrams on n points, glued once per
    orbit of pairs under S_n; the pairs of an orbit share one entry object."""
    basis = fpf_permutations(n)
    index = {perm: k for k, perm in enumerate(basis)}
    matrix: list[list] = [[None] * len(basis) for _ in basis]
    for orbit in _orbits(itertools.product(basis, repeat=2), _symmetric_generators(n)):
        entry = glue_pairing(*orbit[0])
        for sigma, tau in orbit:
            matrix[index[sigma]][index[tau]] = entry
    return matrix


def _int_coefficients(entry: HalfLaurent) -> list[int]:
    """Integer coefficients of a polynomial in Q, leading term first."""
    if any(exp % 2 or exp < 0 or coeff.denominator != 1 for exp, coeff in entry.terms):
        raise ValueError(f"not an integer polynomial in Q: {entry.render()}")
    coeffs = dict(entry.terms)
    return [int(coeffs.get(2 * d, 0)) for d in range(max(coeffs, default=-2) // 2, -1, -1)]


def _bareiss_det(matrix: list[list[int]]) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _newton_interpolate(start: int, ys: list[int]) -> HalfLaurent:
    """The integer polynomial in Q with the values ys at start, start + 1, ...:
    (count-1)! times it is sum_k D^k ys[0] (count-1)!/k! (Q-start)...(Q-start-k+1)."""
    count = len(ys)
    diffs = list(ys)
    for level in range(1, count):
        for i in range(count - 1, level - 1, -1):
            diffs[i] -= diffs[i - 1]
    scale = math.factorial(count - 1)
    poly: list[int] = []
    for k in range(count - 1, -1, -1):
        poly = [a - (start + k) * b for a, b in zip([0] + poly, poly + [0])]
        poly[0] += diffs[k] * (scale // math.factorial(k))
    if any(c % scale for c in poly):
        raise ValueError("the values do not come from an integer polynomial")
    return HalfLaurent.from_dict("Q", {2 * d: c // scale for d, c in enumerate(poly)})


def gram_det(n: int, allow_long: bool = False) -> HalfLaurent:
    """Determinant of the full pairing Gramian for n boundary points, by
    Bareiss at one more consecutive integer than its degree bound, the sum
    over rows of the largest entry degree."""
    if n < 2 or n > 6:
        raise ValueError("supported range is 2 <= n <= 6")
    if n == 6 and not allow_long:
        raise ValueError("n = 6 runs for a long time; pass allow_long to confirm")
    distinct: dict[HalfLaurent, int] = {}
    layout = [[distinct.setdefault(e, len(distinct)) for e in row] for row in gram_matrix(n)]
    polys = [_int_coefficients(entry) for entry in distinct]
    bound = sum(max([len(polys[k]) - 1 for k in row] + [0]) for row in layout)
    points = ([reduce(lambda v, c: v * q + c, p, 0) for p in polys] for q in range(2, bound + 3))
    values = [_bareiss_det([[at[k] for k in row] for row in layout]) for at in points]
    return _newton_interpolate(2, values)


# ---------------------------------------------------------------------------
# Symmetrized negligible elements.
# ---------------------------------------------------------------------------


def partition_permutation(partition: Sequence[int]) -> tuple[int, ...]:
    """A permutation with the given cycle type (parts must be >= 2)."""
    if any(part < 2 for part in partition):
        raise ValueError("parts below 2 would be fixed points")
    perm = []
    offset = 0
    for part in partition:
        perm.extend([offset + (i + 1) % part for i in range(part)])
        offset += part
    return tuple(perm)


def sym_pairing_at(
    lam: Sequence[int], mu: Sequence[int], q_value: int | Fraction
) -> Fraction:
    """Pairing of symmetrized diagrams with cycle types lam, mu at Q = q_value.

    Averaging over boundary relabelings reduces to averaging glue pairings of
    one sigma of type lam against the class of mu, and so to one pairing per
    orbit of the centralizer of sigma, weighted by the orbit size.  Rotating
    the first cycle of each length and swapping each later equal cycle with
    the one before generate that centralizer.
    """
    from .invariants import s_poly_at

    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("cycle types must partition the same point count")
    sigma = partition_permutation(lam)
    gens = []
    for part, before, offset in zip(lam, (0, *lam), itertools.accumulate(lam, initial=0)):
        block = range(offset, offset + part)
        if part != before:
            gens.append([sigma[p] if p in block else p for p in range(n)])
        else:
            gens.append([p - part if p in block else p + part if p + part in block else p for p in range(n)])
    (members,) = _orbits([(partition_permutation(mu),)], _symmetric_generators(n))
    total = Fraction(0)
    for orbit in _orbits(members, gens):
        total += len(orbit) * s_poly_at(glue_map(sigma, *orbit[0]), q_value)
    return total / len(members)


def partitions_min_two(n: int) -> list[tuple[int, ...]]:
    """Partitions of n with every part at least 2, decreasing parts."""
    out: list[tuple[int, ...]] = []

    def build(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(largest, remaining), 1, -1):
            if remaining - part != 1:
                build(remaining - part, part, prefix + (part,))

    build(n, n, ())
    return out


NEGLIGIBLE_TABLE: dict[int, list[tuple[Fraction, tuple[int, ...]]]] = {
    1: [(Fraction(1), (2,))],
    4: [(Fraction(1), (3,))],
    9: [(Fraction(1), (4,)), (Fraction(-3, 2), (2, 2))],
    16: [(Fraction(1), (5,)), (Fraction(-10, 3), (3, 2))],
    25: [
        (Fraction(1), (6,)),
        (Fraction(-15, 4), (4, 2)),
        (Fraction(-5, 3), (3, 3)),
        (Fraction(25, 8), (2, 2, 2)),
    ],
    36: [
        (Fraction(1), (7,)),
        (Fraction(-21, 5), (5, 2)),
        (Fraction(-7, 2), (4, 3)),
        (Fraction(21, 2), (3, 2, 2)),
    ],
    49: [
        (Fraction(1), (8,)),
        (Fraction(-14, 3), (6, 2)),
        (Fraction(-56, 15), (5, 3)),
        (Fraction(-7, 4), (4, 4)),
        (Fraction(49, 4), (4, 2, 2)),
        (Fraction(98, 9), (3, 3, 2)),
        (Fraction(-343, 48), (2, 2, 2, 2)),
    ],
}


def sym_negligible_verify(
    q_value: int,
    candidate: Sequence[tuple[Fraction, Sequence[int]]] | None = None,
) -> bool:
    """Check a symmetrized combination pairs to zero against every p(mu)."""
    if candidate is None:
        candidate = NEGLIGIBLE_TABLE[q_value]
    sizes = {sum(partition) for _coeff, partition in candidate}
    if len(sizes) != 1:
        raise ValueError("all partitions in a candidate must have equal size")
    n = sizes.pop()
    for mu in partitions_min_two(n):
        total = Fraction(0)
        for coeff, lam in candidate:
            total += coeff * sym_pairing_at(tuple(lam), mu, q_value)
        if total != 0:
            return False
    return True
