"""Brauer diagram category over an exact loop parameter.

Diagrams are perfect matchings on bottom/top boundary points; composition
glues boundaries and converts every closed loop into a factor of the loop
variable c.  On top of the raw category sit the pieces this library actually
uses: the functor that evaluates a combinatorial map to its S-polynomial by
doubling edges into bands, the Gramian matrices of the n-point pairing with
their exactly interpolated determinants, and the symmetrized negligible
combinations that give local relations at square integer values of Q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import HalfLaurent
from .invariants import _corner_partners
from .maps import CombMap


@dataclass(frozen=True)
class BrauerMatching:
    """Perfect matching on bottom points 0..bottom-1, top points bottom..bottom+top-1."""

    bottom: int
    top: int
    pairs: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        total = self.bottom + self.top
        if total % 2:
            raise ValueError("odd number of boundary points")
        touched: set[int] = set()
        for pair in self.pairs:
            if len(pair) != 2:
                raise ValueError("pairs must have two distinct points")
            touched.update(pair)
        if touched != set(range(total)) or len(self.pairs) * 2 != total:
            raise ValueError("not a perfect matching on the boundary points")

    @staticmethod
    def from_pairs(bottom: int, top: int, pairs: Iterable[Iterable[int]]) -> "BrauerMatching":
        return BrauerMatching(bottom, top, frozenset(frozenset(p) for p in pairs))

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

    def partner(self, point: int) -> int:
        for pair in self.pairs:
            if point in pair:
                for other in pair:
                    if other != point:
                        return other
                return point
        raise KeyError(point)

    def then(self, other: "BrauerMatching") -> tuple["BrauerMatching", int]:
        """Compose self: a -> b with other: b -> c; returns (diagram, loops)."""
        if self.top != other.bottom:
            raise ValueError(
                f"arity mismatch: {self.top} outputs composed into {other.bottom} inputs"
            )
        a, b, c = self.bottom, self.top, other.top

        # namespace: self points as-is; other point p becomes a + b + p
        neighbors: dict[int, list[int]] = {}

        def add(u: int, v: int) -> None:
            neighbors.setdefault(u, []).append(v)
            neighbors.setdefault(v, []).append(u)

        for pair in self.pairs:
            u, v = tuple(pair)
            add(u, v)
        for pair in other.pairs:
            u, v = tuple(pair)
            add(a + b + u, a + b + v)
        # fuse self top point a+i with other bottom point i
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
            first = start if start < a else a + (start - (a + b + b))
            new_pairs.append((first, end))
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

    def tensor(self, other: "BrauerMatching") -> "BrauerMatching":
        a, b = self.bottom, self.top
        c, d = other.bottom, other.top

        def relabel(p: int) -> int:
            if p < c:
                return a + p
            return a + c + b + (p - c)

        def relabel_self(p: int) -> int:
            if p < a:
                return p
            return a + c + (p - a)

        pairs = [tuple(relabel_self(x) for x in pair) for pair in self.pairs]
        pairs += [tuple(relabel(x) for x in pair) for pair in other.pairs]
        return BrauerMatching.from_pairs(a + c, b + d, pairs)


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
# The functor evaluating a closed map to its S-polynomial.
# ---------------------------------------------------------------------------


def _vertex_diagram(m: CombMap) -> tuple[BrauerMatching, int]:
    """Corner arcs of all rotations as a (0, 2H) diagram, plus free circles.

    The arcs are ``_corner_partners``': half-edge h doubles into points 2h
    and 2h+1, and rotationless vertices close into free circles.
    """
    partner, circles = _corner_partners(m)
    pairs = [(p, q) for p, q in enumerate(partner) if p < q]
    return BrauerMatching.from_pairs(0, len(partner), pairs), circles


def _edge_arcs(m: CombMap, e: int, cut: bool) -> list[tuple[int, int]]:
    a, b = m.edges[e]
    if cut:
        return [(2 * a, 2 * a + 1), (2 * b, 2 * b + 1)]
    return [(2 * a, 2 * b + 1), (2 * a + 1, 2 * b)]


def phi_evaluate(m: CombMap) -> HalfLaurent:
    """S-polynomial through the diagram category.

    Every edge expands into (band - cut) with a weight of one half power of Q
    per band, each vertex contributes its corner arcs, and closed loops count
    half powers of Q; the aggregate is scaled by Q^(-V/2).
    """
    if m.edge_twists:
        raise ValueError("the functor needs a twist-free map")
    vertex_side, circles = _vertex_diagram(m)
    e_count = m.edge_count
    h2 = 2 * m.half_edge_count
    result = HalfLaurent.zero("Q")
    for mask in range(1 << e_count):
        arcs: list[tuple[int, int]] = []
        for e in range(e_count):
            arcs.extend(_edge_arcs(m, e, cut=bool(mask >> e & 1)))
        edge_side = BrauerMatching.from_pairs(h2, 0, arcs)
        closed, loops = vertex_side.then(edge_side)
        assert not closed.pairs
        cut_count = bin(mask).count("1")
        sign = -1 if cut_count % 2 else 1
        half_exponent = (e_count - cut_count) + (loops + circles) - m.vertex_count
        term = HalfLaurent.from_dict("Q", {half_exponent: sign})
        result = result + term
    return result


brauer_evaluate = phi_evaluate


# ---------------------------------------------------------------------------
# Gramians of the n-point pairing.
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


def gram_matrix(n: int) -> list[list[HalfLaurent]]:
    basis = fpf_permutations(n)
    return [[glue_pairing(s, t) for t in basis] for s in basis]


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


def _newton_interpolate(xs: list[int], ys: list[int]) -> HalfLaurent:
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


def gram_det(n: int, allow_long: bool = False) -> HalfLaurent:
    """Determinant of the full pairing Gramian for n boundary points.

    Exact evaluation at enough integer points followed by Newton
    interpolation; the degree bound is the sum over rows of the maximal
    entry degree.
    """
    if n < 2 or n > 6:
        raise ValueError("supported range is 2 <= n <= 6")
    if n == 6 and not allow_long:
        raise ValueError("n = 6 runs for a long time; pass allow_long to confirm")
    matrix = gram_matrix(n)
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
    return _newton_interpolate(points, values)


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


def _cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted((len(c) for c in _perm_cycles(perm)), reverse=True))


def sym_pairing_at(
    lam: Sequence[int], mu: Sequence[int], q_value: int | Fraction
) -> Fraction:
    """Pairing of symmetrized diagrams with cycle types lam, mu at Q = q_value.

    Averaging over boundary relabelings reduces to averaging glue pairings
    of one fixed diagram of type lam against the full conjugacy class of mu.
    """
    from .invariants import s_poly_at

    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("cycle types must partition the same point count")
    sigma = partition_permutation(lam)
    target = tuple(sorted(mu, reverse=True))
    class_members = [
        perm for perm in fpf_permutations(n) if _cycle_type(perm) == target
    ]
    total = Fraction(0)
    for tau in class_members:
        total += s_poly_at(glue_map(sigma, tau), q_value)
    return total / len(class_members)


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
