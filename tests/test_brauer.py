"""Matching category, the map functor, Gramians, and negligible elements."""

import itertools
import math
import random
from fractions import Fraction
from functools import cached_property

import pytest
from helpers_oracles import (
    EDGE_CASES,
    frontier_sweep_oracle,
    gram_det_oracle,
    gram_matrix_oracle,
    greedy_order_oracle,
    matching_tensor_oracle,
    matching_then_oracle,
    newton_interpolate_oracle,
    partition_sweep_oracle,
    phi_evaluate_oracle,
    sweep_plan_oracle,
    sym_pairings_oracle,
)
from helpers_spatial import seeded_diagram

from ribbonpoly import brauer, penrose
from ribbonpoly import spatial as sp
from ribbonpoly.algebra import HalfLaurent
from ribbonpoly.brauer import (
    NEGLIGIBLE_TABLE,
    BrauerMatching,
    BrauerVector,
    _chrom_tally,
    _corner_pairs,
    _flow_tally,
    _int_coefficients,
    _join_or_cut,
    _newton_interpolate,
    _Pairings,
    _Partitions,
    _s_tally,
    _sweep,
    br2_idempotent_verify,
    brauer_evaluate,
    fpf_permutations,
    glue_pairing,
    gram_det,
    gram_matrix,
    partitions_min_two,
    sym_negligible_verify,
    sym_pairing_at,
)
from ribbonpoly.fixtures import BOUQUET2_INT, PETERSEN
from ribbonpoly.generate import (
    complete_map,
    exhaustive_connected_maps,
    is_bridgeless,
    petersen_map,
    random_connected_map,
    random_maps,
)
from ribbonpoly.invariants import clear_caches, flow_poly, krushkal_poly, s_poly, virtual_chromatic
from ribbonpoly.maps import CombMap
from ribbonpoly.vgf import serialize_vgf


def random_cubic_map(rng, v):
    """A cubic map on v vertices from a random stub pairing and random rotations."""
    stubs = list(range(3 * v))
    rng.shuffle(stubs)
    edges = tuple((stubs[2 * i], stubs[2 * i + 1]) for i in range(3 * v // 2))
    vertices = tuple(tuple(rng.sample(range(3 * k, 3 * k + 3), 3)) for k in range(v))
    return CombMap(vertices, edges)


def bridgeless_cubic_map(rng, v):
    """The first connected bridgeless map that ``random_cubic_map`` draws from ``rng``."""
    while True:
        m = random_cubic_map(rng, v)
        if m.component_count == 1 and is_bridgeless(m):
            return m


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
        m = BOUQUET2_INT.toggle_twist(0)
        with pytest.raises(ValueError, match="twist-free"):
            brauer_evaluate(m)

    def test_sweep_plan(self):
        # (order, width, (2 width - 1)!!), pinned for Petersen and K6
        assert PETERSEN.sweep_plan == ((0, 1, 2, 3, 4, 9, 6, 8, 5, 7), 6, 10395)
        assert complete_map(6).sweep_plan == ((0, 1, 2, 3, 4, 5), 9, 34459425)
        assert CombMap((), ()).sweep_plan == ((), 0, 1)
        rng = random.Random(113)
        cubic = [random_cubic_map(rng, v) for v in (16, 24, 32, 40, 48, 56, 64)]
        for m in EDGE_CASES + random_maps(seed=109, count=12, max_edges=10) + cubic:
            order, width, bound = m.sweep_plan
            assert sorted(order) == list(range(m.vertex_count)), m
            assert width <= m.edge_count
            assert bound == math.prod(range(2 * width - 1, 0, -2))
            # the kept order is the cheapest greedy one, the first among equals
            greedy = [greedy_order_oracle(m, start) for start in range(m.vertex_count)]
            if greedy:
                cheapest = min(cost for cost, _width, _order in greedy)
                first = next(g for g in greedy if g[0] == cheapest)
                assert (first[1], tuple(first[2])) == (width, order), m

    def test_sweep_plan_matches_oracle(self, six_edge_family, cubic_census):
        # the greedy step over a dict of ranks plans as the step over a set did
        rng = random.Random(127)
        family = list(six_edge_family) + [m for v in (2, 4, 6, 8, 10) for m in cubic_census[v]]
        family += [complete_map(n) for n in range(2, 8)]
        family += [random_connected_map(rng, e) for e in range(1, 25) for _ in range(3)]
        for m in family:
            assert m.sweep_plan == sweep_plan_oracle(m), m

    def test_sweep_weights_and_shifts(self):
        # every vertex entering with weight 3 and one more shift scales S and
        # flow by 3^V and Q^(V/2)
        for m in EDGE_CASES + random_maps(seed=113, count=8, max_edges=8):
            options = [[([cycle], 3, 0)] for cycle in m.vertices]
            tally = _sweep(m, options, _Pairings(m, _join_or_cut(m)))
            want = brauer_evaluate(m).scale(3**m.vertex_count).shift(m.vertex_count)
            assert HalfLaurent.from_dict("Q", tally) == want, m
            tally = _sweep(m, [[([cycle], 3, 1)] for cycle in m.vertices], _Partitions(m))
            want = flow_poly(m, engine="state-sum").scale(3**m.vertex_count).shift(m.vertex_count)
            assert HalfLaurent.from_dict("Q", tally) == want, m


def _count_plans(monkeypatch):
    """Every map that ``CombMap.sweep_plan`` plans from now on, in order."""
    planned = []
    plan = CombMap.sweep_plan.func

    def counted(m):
        planned.append(m)
        return plan(m)

    prop = cached_property(counted)
    prop.__set_name__(CombMap, "sweep_plan")
    monkeypatch.setattr(CombMap, "sweep_plan", prop)
    return planned


class TestPlanOnce:
    """Each map plans its sweep once, for every sweep kind that takes no order."""

    def test_one_plan_per_map(self, monkeypatch):
        clear_caches()
        planned = _count_plans(monkeypatch)
        m = petersen_map()
        sweeps = (s_poly, flow_poly, virtual_chromatic, krushkal_poly, penrose.w_so, brauer.phi_evaluate)
        for invariant in sweeps:
            invariant(m)
        assert len(planned) == 1 and planned[0] is m
        # a map equal by value is another object, and plans on its own
        twin = CombMap(m.vertices, m.edges)
        assert twin == m and twin is not m
        assert s_poly(twin) == s_poly(m)
        assert len(planned) == 2 and planned[1] is twin

    def test_one_plan_per_diagram_base(self, monkeypatch):
        clear_caches()
        planned = _count_plans(monkeypatch)
        d = seeded_diagram(random.Random(131), max_edges=6, crossings=3)
        assert d.crossing_count == 3
        for variant in ("s", "f"):
            for mirror in (False, True):
                sp.yamada(d, variant, mirror=mirror)
        clear_caches()
        assert len(planned) == 1 and planned[0] is d.base

    def test_explicit_order_leaves_the_plan_alone(self, monkeypatch):
        planned = _count_plans(monkeypatch)
        rng = random.Random(137)
        for m in random_maps(seed=139, count=6, max_edges=9) + [petersen_map()]:
            order = list(range(m.vertex_count))
            rng.shuffle(order)
            options = [[([cycle], 1, -1)] for cycle in m.vertices]
            want = _nonzero(frontier_sweep_oracle(m, _as_arcs(options), _join_or_cut(m), order))
            assert _sweep(m, options, _Pairings(m, _join_or_cut(m)), order) == want, m
            assert "sweep_plan" not in m.__dict__, m
            # a cached plan that would give a wrong tally is not read
            m.__dict__["sweep_plan"] = ((), 0, 1)
            assert _sweep(m, options, _Pairings(m, _join_or_cut(m)), order) == want, m
            assert m.sweep_plan == ((), 0, 1)
        assert planned == []

    def test_swept_map_equals_a_fresh_copy(self):
        family = [petersen_map(), penrose.with_signs(complete_map(4)), BOUQUET2_INT.toggle_twist(0)]
        family += [m.flip_subset({0}) for m in random_maps(seed=151, count=6, max_edges=10)]
        for m in family:
            fresh = CombMap(m.vertices, m.edges, m.vertex_signs, m.edge_twists)
            penrose.w_so(m)
            if not m.edge_twists:
                s_poly(m, engine="brauer")
                flow_poly(m, engine="brauer")
            assert "sweep_plan" in m.__dict__ and "sweep_plan" not in fresh.__dict__, m
            assert m == fresh and hash(m) == hash(fresh), m
            assert m.signature == fresh.signature, m
            assert serialize_vgf(m) == serialize_vgf(fresh), m


class _Watched:
    """Records the state count after every closing and checks the state encoding:
    closed slots hold -1 and every open slot points to an open slot."""

    def watch(self, m):
        self.mate, self.counts, self.slot, self.closed = m.alpha, [], None, set()

    def close(self, states, slot, h):
        states = super().close(states, slot, h)
        if slot is not self.slot:  # a new vertex dropped the closed slots
            self.slot, self.closed = slot, set()
        self.closed.update(slot[p] for p in self.points((h, self.mate[h])))
        self.counts.append(len(states))
        for state in states:
            assert len(state) == len(slot), state
            assert {i for i, z in enumerate(state) if z < 0} == self.closed, state
            for i, z in enumerate(state):
                if z >= 0:
                    assert state[z] >= 0, state
                    self.check(state, i)
        return states


class WatchedPairings(_Watched, _Pairings):
    def __init__(self, m, closings):
        super().__init__(m, closings)
        self.watch(m)

    @staticmethod
    def check(state, i):
        # a fixed-point-free involution on the open slots
        assert state[i] != i and state[state[i]] == i, state


class WatchedPartitions(_Watched, _Partitions):
    def __init__(self, m):
        super().__init__(m)
        self.watch(m)

    @staticmethod
    def check(state, i):
        # each slot points to the least slot of its block
        assert state[state[i]] == state[i] <= i, state


def _sweep_cases(rng, m):
    """(options, closings) per case; closings of None select ``_Partitions``.

    In the last case both closings of every edge are one band with weight
    -1, so a single key survives with (-2)^E, the whole mass the packed
    tallies are sized for.
    """
    s_options = [[([cycle], 1, -1)] for cycle in m.vertices]
    flippable = m.flippable_vertices()
    sl_options = [
        [([cycle], 1, -1)]
        if len(cycle) <= 2 or v == flippable[0]
        else [([cycle], 1, -1), ([cycle[::-1]], rng.choice((1, -1)), -1)]
        for v, cycle in enumerate(m.vertices)
    ]
    signs = [rng.choice((1, -1)) for _e in m.edges]
    so_closings = [((2 * b + 1, s, 0), (2 * b, -s, 0)) for (_a, b), s in zip(m.edges, signs)]
    twin_bands = [((2 * b + 1, -1, 0), (2 * b + 1, -1, 0)) for _a, b in m.edges]
    return [
        (s_options, _join_or_cut(m)),
        ([[([cycle], 1, 0)] for cycle in m.vertices], so_closings),
        (sl_options, _join_or_cut(m)),
        ([[([cycle], 1, 0)] for cycle in m.vertices], None),
        (sl_options, None),
        (s_options, twin_bands),
    ]


def _nonzero(tally):
    return {key: count for key, count in tally.items() if count}


def _as_arcs(options):
    """Local vertices as the corner arcs the pairing oracle takes."""
    return [
        [([arc for group in groups for arc in _corner_pairs(group)], w, s) for groups, w, s in local]
        for local in options
    ]


class TestSweepKinds:
    """``_sweep`` against the two sweeps it replaced, state count by state count.

    A packed tally holds no zero coefficient, so ``_sweep`` is compared with
    the oracles' nonzero entries; the state counts are compared exactly.
    """

    def check(self, m, options, closings, orders):
        for order in orders:
            counts = []
            if closings is None:
                kind = WatchedPartitions(m)
                want = partition_sweep_oracle(m, options, order, counts)
            else:
                kind = WatchedPairings(m, closings)
                want = frontier_sweep_oracle(m, _as_arcs(options), closings, order, counts)
            assert _sweep(m, options, kind, order) == _nonzero(want), (m, order)
            assert kind.counts == counts, (m, order)

    def orders(self, rng, m):
        shuffled = [list(range(m.vertex_count)) for _ in range(2)]
        for order in shuffled:
            rng.shuffle(order)
        return [m.sweep_plan[0], *shuffled]

    def test_maps(self):
        rng = random.Random(229)
        family = exhaustive_connected_maps(4) + EDGE_CASES
        for m in random_maps(seed=233, count=30, max_edges=10):
            for e in range(m.edge_count):
                if rng.random() < 0.3:
                    m = m.toggle_twist(e)
            family.append(m)
        for m in family:
            orders = self.orders(rng, m)
            for options, closings in _sweep_cases(rng, m):
                self.check(m, options, closings, orders)

    def test_digits_past_a_machine_word(self):
        # 48-edge bridgeless cubic maps of width 9: each packed digit has 50
        # bits, and the chromatic coefficients pass 2^40.  The chromatic
        # closings and total shift are ``_chrom_tally``'s.
        for seed in (0, 1):
            m = bridgeless_cubic_map(random.Random(seed), 32)
            assert m.sweep_plan[1] <= 9, seed
            s = frontier_sweep_oracle(m, _as_arcs([[([c], 1, -1)] for c in m.vertices]), _join_or_cut(m))
            flow = partition_sweep_oracle(m, [[([c], 1, 0)] for c in m.vertices])
            bands_or_cuts = [((2 * b + 1, -1, 0), (2 * a + 1, 1, 1)) for a, b in m.edges]
            chrom = frontier_sweep_oracle(m, _as_arcs([[([c], 1, 0)] for c in m.vertices]), bands_or_cuts)
            ed = m.euler_data()
            shift = 2 * (ed.components - ed.genus) - ed.faces
            assert max(abs(c) for c in chrom.values()) > 1 << 40, seed
            assert _s_tally(m) == _nonzero(s), seed
            assert _flow_tally(m) == _nonzero(flow), seed
            assert _chrom_tally(m) == {k + shift: c for k, c in _nonzero(chrom).items()}, seed

    @pytest.mark.parametrize("mirror", [False, True])
    def test_crossing_states(self, mirror):
        rng = random.Random(239)
        for crossings in (0, 1, 2, 3) * 5:
            d = seeded_diagram(rng, max_edges=5, crossings=crossings)
            m, stride = d.base, sp._q_stride(d)
            local = sp._local_states(d, mirror)
            pairings = [[(g, w, p * stride - len(g)) for g, w, p in states] for states in local]
            partitions = [[(g, w, p * stride) for g, w, p in states] for states in local]
            orders = self.orders(rng, m)
            self.check(m, pairings, _join_or_cut(m), orders)
            self.check(m, partitions, None, orders)


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
        # symmetric, and G[pi s pi^-1][pi t pi^-1] = G[s][t] for every pi
        for n in range(2, 6):
            basis = fpf_permutations(n)
            index = {perm: k for k, perm in enumerate(basis)}
            matrix = gram_matrix(n)
            for i, j in itertools.combinations(range(len(basis)), 2):
                assert matrix[i][j] == matrix[j][i], (basis[i], basis[j])
            for pi in itertools.permutations(range(n)):
                inverse = [pi.index(x) for x in range(n)]
                image = [index[tuple(pi[perm[x]] for x in inverse)] for perm in basis]
                for i, j in itertools.product(range(len(basis)), repeat=2):
                    assert matrix[image[i]][image[j]] == matrix[i][j], (pi, basis[i], basis[j])

    @pytest.mark.parametrize("n, orbits, distinct", [(3, 2, 2), (4, 9, 6), (5, 21, 14), (6, 135, 48)])
    def test_orbit_and_entry_counts(self, monkeypatch, n, orbits, distinct):
        glued = []
        real = brauer.glue_pairing
        monkeypatch.setattr(brauer, "glue_pairing", lambda s, t: glued.append((s, t)) or real(s, t))
        matrix = gram_matrix(n)
        assert len(glued) == orbits
        assert len({id(entry) for row in matrix for entry in row}) == orbits
        assert len({entry for row in matrix for entry in row}) == distinct

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matrix_matches_oracle(self, n):
        matrix, oracle = gram_matrix(n), gram_matrix_oracle(n)
        assert len(matrix) == len(oracle)
        for i, (row, want) in enumerate(zip(matrix, oracle)):
            assert len(row) == len(want)
            for j, (entry, expected) in enumerate(zip(row, want)):
                assert entry == expected, (n, i, j)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_det_matches_oracle(self, n):
        det, oracle = gram_det(n), gram_det_oracle(n)
        assert det == oracle
        assert det.render() == oracle.render()


class TestGramIntegerPath:
    def test_int_coefficients(self):
        assert _int_coefficients(qpoly({3: 2, 1: -5, 0: 7})) == [2, 0, -5, 7]
        assert _int_coefficients(qpoly({0: -1})) == [-1]
        assert _int_coefficients(HalfLaurent.zero("Q")) == []

    @pytest.mark.parametrize(
        "terms",
        [
            ((1, Fraction(1)),),  # Q^(1/2)
            ((4, Fraction(1)), (3, Fraction(-2)), (0, Fraction(1))),  # a half-integer exponent below
            ((-2, Fraction(1)),),  # Q^-1
            ((2, Fraction(1)), (-2, Fraction(3))),  # a negative exponent below
            ((2, Fraction(1, 2)),),  # Q/2
            ((4, Fraction(1)), (0, Fraction(-3, 2))),  # a non-integer constant
        ],
    )
    def test_int_coefficients_refuses(self, terms):
        with pytest.raises(ValueError):
            _int_coefficients(HalfLaurent("Q", terms))

    def test_newton_matches_oracle(self):
        rng = random.Random(20261019)
        for degree in range(31):
            for _ in range(3):
                coeffs = [rng.randint(-10**6, 10**6) for _ in range(degree + 1)]
                start = rng.randint(-5, 5)
                count = degree + 1 + rng.randint(0, 3)
                xs = list(range(start, start + count))
                ys = [sum(c * x**d for d, c in enumerate(coeffs)) for x in xs]
                poly = qpoly(dict(enumerate(coeffs)))
                got = _newton_interpolate(start, ys)
                assert got == newton_interpolate_oracle(xs, ys) == poly, (degree, start, count)

    def test_newton_refuses_non_integer_coefficients(self):
        # Q(Q - 1)/2 takes integer values at integers but has half coefficients
        xs = [2, 3, 4, 5]
        ys = [x * (x - 1) // 2 for x in xs]
        assert newton_interpolate_oracle(xs, ys) == qpoly({2: Fraction(1, 2), 1: Fraction(-1, 2)})
        with pytest.raises(ValueError):
            _newton_interpolate(2, ys)


class TestNegligible:
    def test_partitions(self):
        assert partitions_min_two(6) == [(6,), (4, 2), (3, 3), (2, 2, 2)]

    def test_q4_combination(self):
        assert sym_negligible_verify(4)

    def test_q9_combination_and_control(self):
        assert sym_negligible_verify(9)
        # p(4) alone is not negligible at Q = 9; the correction term matters.
        assert not sym_negligible_verify(9, [(Fraction(1), (4,))])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_sym_pairing_matches_oracle(self, n):
        q_values = sorted(NEGLIGIBLE_TABLE) + [0, 2, Fraction(1, 2)]
        for lam, mu in itertools.product(partitions_min_two(n), repeat=2):
            want = sym_pairings_oracle(lam, mu, q_values)
            assert [sym_pairing_at(lam, mu, q) for q in q_values] == want, (lam, mu)

    def test_sym_pairing_unsorted_cycle_types(self):
        # equal cycles that are not adjacent in lam, and an unsorted mu
        q_values = [0, 2, 9, Fraction(1, 2)]
        for lam, mu in [((2, 3, 2), (3, 2, 2)), ((2, 3, 2), (2, 5)), ((2, 2, 3), (2, 3, 2))]:
            want = sym_pairings_oracle(lam, mu, q_values)
            assert [sym_pairing_at(lam, mu, q) for q in q_values] == want, (lam, mu)

    def test_sym_pairing_refuses_fixed_points(self):
        with pytest.raises(ValueError):
            sym_pairing_at((2, 2), (3, 1), 4)
        with pytest.raises(ValueError):
            sym_pairing_at((2, 2), (3, 2), 4)

    def test_q36_combination(self):
        assert sym_negligible_verify(36)

    @pytest.mark.slow
    def test_q49_combination(self):
        assert sym_negligible_verify(49)
