"""Matching category, the map functor, Gramians, and negligible elements."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from helpers_oracles import (
    EDGE_CASES,
    matching_tensor_oracle,
    matching_then_oracle,
    phi_evaluate_oracle,
)

from ribbonpoly.algebra import HalfLaurent
from ribbonpoly.brauer import (
    BrauerMatching,
    BrauerVector,
    _corner_pairs,
    _frontier_sweep,
    _greedy_order,
    _join_or_cut,
    _partition_sweep,
    _sweep_plan,
    br2_idempotent_verify,
    brauer_evaluate,
    fpf_permutations,
    glue_pairing,
    gram_det,
    gram_matrix,
    partitions_min_two,
    sym_negligible_verify,
)
from ribbonpoly.fixtures import PETERSEN
from ribbonpoly.generate import complete_map, exhaustive_connected_maps, random_maps
from ribbonpoly.invariants import flow_poly, s_poly


def qpoly(data):
    return HalfLaurent.from_dict("Q", {2 * k: v for k, v in data.items()})


def random_matching(rng, bottom, top):
    points = list(range(bottom + top))
    rng.shuffle(points)
    return BrauerMatching.from_pairs(bottom, top, zip(points[::2], points[1::2]))


class TestMatchings:
    def test_identity_composition(self):
        ident = BrauerMatching.identity(3)
        composed, loops = ident.then(ident)
        assert composed == ident and loops == 0

    def test_cup_cap_loop(self):
        # cup (0 -> 2) followed by cap (2 -> 0) closes one loop.
        cap = BrauerMatching.cap()
        cup = BrauerMatching.cup()
        composed, loops = cup.then(cap)
        assert loops == 1
        assert composed == BrauerMatching.identity(0)
        # The other order is the turn-back element of the two-point algebra.
        element, loops = cap.then(cup)
        assert loops == 0
        assert element == BrauerMatching.from_pairs(2, 2, [(0, 1), (2, 3)])

    def test_crossing_square(self):
        swap = BrauerMatching.permutation((1, 0))
        composed, loops = swap.then(swap)
        assert composed == BrauerMatching.identity(2) and loops == 0

    def test_tensor(self):
        left = BrauerMatching.identity(1)
        assert left.tensor(left) == BrauerMatching.identity(2)

    def test_idempotent_suite(self):
        report = br2_idempotent_verify()
        assert all(bool(v) for v in report.values()), report

    def test_pairs_and_partner_read_the_mate(self):
        rng = random.Random(89)
        for bottom, top in [(0, 0), (0, 4), (3, 1), (2, 6)]:
            matching = random_matching(rng, bottom, top)
            assert BrauerMatching.from_pairs(bottom, top, matching.pairs) == matching
            for p in range(bottom + top):
                assert frozenset((p, matching.partner(p))) in matching.pairs
            with pytest.raises(KeyError):
                matching.partner(bottom + top)
            with pytest.raises(KeyError):
                matching.partner(-1)

    def test_then_matches_oracle(self):
        # Every arity with at most 5 points a side, zeros included; a = c = 0
        # leaves closed diagrams, which only count loops.
        rng = random.Random(97)
        looped = closed = 0
        for a, b, c in itertools.product(range(6), repeat=3):
            if (a + b) % 2 or (b + c) % 2:
                continue
            for _ in range(6):
                first, second = random_matching(rng, a, b), random_matching(rng, b, c)
                got = first.then(second)
                assert got == matching_then_oracle(first, second), (first, second)
                looped += got[1] > 0
                closed += not got[0].mate
        assert looped > 40 and closed == 18

    def test_tensor_matches_oracle(self):
        rng = random.Random(101)
        arities = [(x, y) for x, y in itertools.product(range(5), repeat=2) if (x + y) % 2 == 0]
        for (a, b), (c, d) in itertools.product(arities, repeat=2):
            first, second = random_matching(rng, a, b), random_matching(rng, c, d)
            assert first.tensor(second) == matching_tensor_oracle(first, second), (first, second)

    def test_refusals(self):
        with pytest.raises(ValueError, match="odd number"):
            BrauerMatching(1, 2, (1, 0, 2))
        with pytest.raises(ValueError, match="odd number"):
            BrauerMatching.from_pairs(1, 2, [(0, 1)])
        with pytest.raises(ValueError, match="two distinct"):
            BrauerMatching(1, 1, (0, 1))
        with pytest.raises(ValueError, match="two distinct"):
            BrauerMatching.from_pairs(1, 1, [(0, 0), (1, 1)])
        # 0 -> 1 -> 2: not an involution
        with pytest.raises(ValueError, match="not a perfect matching"):
            BrauerMatching(2, 2, (1, 2, 3, 0))
        with pytest.raises(ValueError, match="not a perfect matching"):
            BrauerMatching.from_pairs(2, 2, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="not a perfect matching"):
            BrauerMatching(2, 2, (1, 0))
        with pytest.raises(ValueError, match="not a perfect matching"):
            BrauerMatching(1, 1, (1, 0, 3, 2))
        with pytest.raises(ValueError, match="not a perfect matching"):
            BrauerMatching(1, 1, (-1, 0))
        with pytest.raises(ValueError, match="not a perfect matching"):
            BrauerMatching.from_pairs(2, 2, [(0, 1)])
        # point 0 lies in two pairs; keeping the last pair of each point
        # would leave the involution (3, 2, 1, 0)
        with pytest.raises(ValueError, match="not a perfect matching"):
            BrauerMatching.from_pairs(2, 2, [(0, 1), (1, 2), (0, 3)])
        # a pair given twice is one pair
        assert BrauerMatching.from_pairs(1, 1, [(0, 1), (1, 0)]) == BrauerMatching.identity(1)
        with pytest.raises(ValueError, match="arity mismatch"):
            BrauerMatching.identity(2).then(BrauerMatching.identity(4))
        with pytest.raises(ValueError, match="arity mismatch"):
            BrauerMatching.cup().then(BrauerMatching.cup())


class TestFunctor:
    def test_agrees_with_s(self):
        family = exhaustive_connected_maps(5) + EDGE_CASES
        family += random_maps(seed=103, count=12, max_edges=10)
        assert max(m.edge_count for m in family) == 10
        for m in family:
            assert brauer_evaluate(m) == s_poly(m, engine="state-sum"), m

    def test_matches_oracle(self):
        family = exhaustive_connected_maps(4) + EDGE_CASES
        family += random_maps(seed=107, count=6, max_edges=8)
        for m in family:
            assert brauer_evaluate(m) == phi_evaluate_oracle(m), m

    def test_refuses_twists(self):
        m = exhaustive_connected_maps(2)[-1].toggle_twist(0)
        with pytest.raises(ValueError, match="twist-free"):
            brauer_evaluate(m)

    def test_sweep_plan(self):
        # (order, width, (2 width - 1)!!), pinned for Petersen and K6
        assert _sweep_plan(PETERSEN) == ((0, 1, 2, 3, 4, 9, 6, 8, 5, 7), 6, 10395)
        assert _sweep_plan(complete_map(6)) == ((0, 1, 2, 3, 4, 5), 9, 34459425)
        for m in EDGE_CASES + random_maps(seed=109, count=12, max_edges=10):
            order, width, bound = _sweep_plan(m)
            assert sorted(order) == list(range(m.vertex_count)), m
            assert width <= m.edge_count
            assert bound == math.prod(range(2 * width - 1, 0, -2))
            # the kept order is the cheapest greedy one, the first among equals
            greedy = [_greedy_order(m, start) for start in range(m.vertex_count)]
            if greedy:
                cheapest = min(cost for cost, _width, _order in greedy)
                first = next(g for g in greedy if g[0] == cheapest)
                assert (first[1], tuple(first[2])) == (width, order), m

    def test_sweep_weights_and_shifts(self):
        # every vertex entering with weight 3 and one more shift scales S and
        # flow by 3^V and Q^(V/2)
        for m in EDGE_CASES + random_maps(seed=113, count=8, max_edges=8):
            options = [[(_corner_pairs(cycle), 3, 0 if cycle else 1)] for cycle in m.vertices]
            tally = _frontier_sweep(m, options, _join_or_cut(m))
            want = brauer_evaluate(m).scale(3**m.vertex_count).shift(m.vertex_count)
            assert HalfLaurent.from_dict("Q", tally) == want, m
            tally = _partition_sweep(m, [[([cycle], 3, 1)] for cycle in m.vertices])
            want = flow_poly(m).scale(3**m.vertex_count).shift(m.vertex_count)
            assert HalfLaurent.from_dict("Q", tally) == want, m


class TestGramian:
    def test_basis_sizes(self):
        assert len(fpf_permutations(2)) == 1
        assert len(fpf_permutations(3)) == 2
        assert len(fpf_permutations(4)) == 9
        assert len(fpf_permutations(5)) == 44
        assert len(gram_matrix(3)) == 2

    def test_det_two(self):
        assert gram_det(2) == qpoly({1: 1, 0: -1})

    def test_det_three(self):
        expected = qpoly({1: 1, 0: -4}) * qpoly({1: 1, 0: -1}) ** 2 * qpoly({1: 1})
        assert gram_det(3) == expected

    def test_long_guard(self):
        with pytest.raises(ValueError):
            gram_det(6)
        with pytest.raises(ValueError):
            gram_det(7, allow_long=True)

    def test_pairing_symmetry(self):
        matrix = gram_matrix(3)
        assert matrix[0][1] == matrix[1][0]


class TestNegligible:
    def test_partitions(self):
        assert partitions_min_two(6) == [(6,), (4, 2), (3, 3), (2, 2, 2)]

    def test_q4_combination(self):
        assert sym_negligible_verify(4)

    def test_q9_combination_and_control(self):
        assert sym_negligible_verify(9)
        # p(4) alone is not negligible at Q = 9; the correction term matters.
        assert not sym_negligible_verify(9, [(Fraction(1), (4,))])

    def test_q36_combination(self):
        assert sym_negligible_verify(36)

    @pytest.mark.slow
    def test_q49_combination(self):
        assert sym_negligible_verify(49)
