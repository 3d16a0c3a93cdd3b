"""S, flow, Krushkal, and chromatic polynomials."""

import importlib
import pkgutil
import random
import re
from fractions import Fraction

import pytest
from helpers_oracles import (
    EDGE_CASES,
    ToggleWalker,
    block_walk_oracle,
    choose_engine_oracle,
    chromatic_cd_oracle,
    cut_exponents_oracle,
    flow_cd_oracle,
    gray_toggles,
    krushkal_convention,
    krushkal_dual_terms,
    krushkal_walker_oracle,
    s_cd_oracle,
    state_sum_oracles,
    strand_count,
    subgraph_euler,
)

import ribbonpoly
from ribbonpoly import invariants
from ribbonpoly.algebra import HalfLaurent
from ribbonpoly.brauer import _chrom_tally, brauer_evaluate
from ribbonpoly.fixtures import (
    BOUQUET2_INT,
    BRIDGE,
    K4,
    K33_STD,
    LOOP1,
    THETA_P,
    THETA_T,
    TRIANGLE,
)
from ribbonpoly.generate import (
    POINT,
    complete_map,
    cycle_map,
    exhaustive_connected_maps,
    is_bridgeless,
    petersen_map,
    random_connected_map,
    random_maps,
)
from ribbonpoly.invariants import (
    _CHROM_CACHE,
    _cut_exponents,
    _kernel,
    _kernel_key,
    _lone_half_edge,
    _minor,
    _preferred_edge,
    _s_exponents,
    _subdivision_edge,
    chromatic_via_dual,
    clear_caches,
    connect_sum_checks,
    degree_report,
    flow_poly,
    krushkal_poly,
    resolve_engine,
    s_poly,
    s_poly_at,
    special_value_checks,
    specialize_krushkal_to_s,
    virtual_chromatic,
    wedge,
)
from ribbonpoly.maps import CombMap


def qpoly(data):
    return HalfLaurent.from_dict("Q", {2 * k: v for k, v in data.items()})


Q = HalfLaurent.variable("Q")
ONE = HalfLaurent.one("Q")


def product(*factors):
    result = ONE
    for f in factors:
        result = result * f
    return result


class TestNamedValues:
    def test_theta_planar(self):
        assert s_poly(THETA_P) == product(Q - ONE, Q - ONE.scale(2))

    def test_theta_twisted(self):
        assert s_poly(THETA_T) == (Q - ONE).scale(-2)
        assert s_poly(THETA_T).render() == "-2*Q + 2"

    def test_k33_flow(self):
        expected = product(Q - ONE, Q - ONE.scale(2), qpoly({2: 1, 1: -6, 0: 10}))
        assert flow_poly(K33_STD) == expected

    def test_k33_s(self):
        assert s_poly(K33_STD) == product(Q - ONE, Q - ONE.scale(4), Q + ONE.scale(5))

    def test_loop(self):
        assert s_poly(LOOP1) == Q - ONE
        assert flow_poly(LOOP1) == Q - ONE

    def test_bridge_kills_s(self):
        assert s_poly(BRIDGE).is_zero()
        assert flow_poly(BRIDGE).is_zero()

    def test_bouquet_interlaced(self):
        # By hand: the empty subset has b1 = 2 on the torus (exponent 1), each
        # single loop contributes -Q, the full deletion +1, so S = 1 - Q.
        assert s_poly(BOUQUET2_INT) == qpoly({1: -1, 0: 1})
        # The flow polynomial ignores the embedding: (Q - 1)^2.
        assert flow_poly(BOUQUET2_INT) == qpoly({2: 1, 1: -2, 0: 1})


class TestEngines:
    def test_agreement_small(self):
        for m in exhaustive_connected_maps(3):
            state = s_poly(m, engine="state-sum")
            cd = s_poly(m, engine="contraction-deletion")
            br = brauer_evaluate(m)
            assert state == cd == br, m
            assert flow_poly(m, engine="state-sum") == flow_poly(m, engine="contraction-deletion")

    def test_agreement_random(self):
        for m in random_maps(seed=11, count=20, max_edges=8):
            assert s_poly(m, engine="state-sum") == s_poly(m, engine="contraction-deletion")

    def test_flow_sweep_matches_both_engines(self):
        # the partition sweep, the state sum and contraction-deletion on flow
        rng = random.Random(167)
        family = exhaustive_connected_maps(5) + EDGE_CASES
        family += [random_connected_map(rng, e) for e in range(1, 13) for _ in range(3)]
        assert any(not cycle for m in EDGE_CASES for cycle in m.vertices)
        for m in family:
            want = flow_poly(m, engine="state-sum")
            twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.5)
            twisted = CombMap(m.vertices, m.edges, None, twists)
            for engine in ("brauer", "contraction-deletion"):
                assert flow_poly(m, engine=engine) == want, (m, engine)
                # flow is blind to twists
                assert flow_poly(twisted, engine=engine) == want, (twisted, engine)

    def test_auto_matches_every_engine(self, cubic_census):
        # a family on both sides of the crossover, each engine run by name
        rng = random.Random(173)
        family = exhaustive_connected_maps(3) + EDGE_CASES
        family += [random_connected_map(rng, e) for e in range(4, 15) for _ in range(2)]
        family += [m for m in cubic_census[8] if is_bridgeless(m)][:3]
        family += [complete_map(6), _dipole(6), _dipole(7), cycle_map(8), cycle_map(9)]
        chosen = set()
        for m in family:
            chosen.add(resolve_engine(m, "auto"))
            engines = ("state-sum", "contraction-deletion", "brauer")
            flows = {flow_poly(m, engine=engine) for engine in engines}
            assert flows == {flow_poly(m)}, m
            if not m.edge_twists:
                assert {s_poly(m, engine=engine) for engine in engines} == {s_poly(m)}, m
        assert chosen == {"state-sum", "brauer"}

    def test_twisted_input_rejected(self):
        with pytest.raises(ValueError):
            s_poly(LOOP1.toggle_twist(0))

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            s_poly(LOOP1, engine="magic")


class TestKrushkal:
    def test_loop_rank_polynomial(self):
        poly = krushkal_poly(LOOP1)
        assert specialize_krushkal_to_s(poly, 1) == Q - ONE

    def test_specialization_random(self):
        for m in random_maps(seed=13, count=15, max_edges=7):
            b1 = m.euler_data().first_betti
            assert specialize_krushkal_to_s(krushkal_poly(m), b1) == s_poly(m)

    def test_sweep_matches_walker_oracle(self):
        rng = random.Random(193)
        randoms = random_maps(seed=197, count=40, max_edges=12)
        family = exhaustive_connected_maps(5) + EDGE_CASES + [CombMap((), ())] + randoms
        family += [_relabeled_map(m, rng) for m in randoms]
        for m in family:
            assert krushkal_poly(m) == krushkal_walker_oracle(m), m

    def test_duality(self):
        # P_G(X, Y, A, B) = P_G*(Y, X, B, A) in Krushkal's convention
        family = exhaustive_connected_maps(5) + random_maps(seed=5, count=30, max_edges=10) + EDGE_CASES
        for m in family:
            assert krushkal_convention(m, krushkal_poly(m)) == krushkal_dual_terms(m), m

    def test_twisted_input_rejected(self, monkeypatch):
        def no_sweep(*_args):
            raise AssertionError("the sweep ran on a twisted map")

        monkeypatch.setattr(invariants, "_rank_tally", no_sweep)
        with pytest.raises(ValueError, match="needs a twist-free map"):
            krushkal_poly(LOOP1.toggle_twist(0))


def _relabeled_map(m, rng):
    """m with its half-edges relabelled at random, which also reorders its vertices."""
    perm = list(range(m.half_edge_count))
    rng.shuffle(perm)
    vertices = tuple(tuple(perm[h] for h in cycle) for cycle in m.vertices)
    return CombMap(vertices, tuple((perm[a], perm[b]) for a, b in m.edges))


class TestChromatic:
    def test_loop_vanishes(self):
        assert virtual_chromatic(LOOP1).is_zero()

    def test_triangle(self):
        # t(t-1)(t-2) for the planar triangle.
        t = HalfLaurent.variable("t")
        one = HalfLaurent.one("t")
        assert virtual_chromatic(TRIANGLE) == t * (t - one) * (t - one.scale(2))

    def test_dual_route_identity(self):
        for m in random_maps(seed=17, count=15, max_edges=7):
            assert virtual_chromatic(m) == chromatic_via_dual(m)

    def test_sweep_matches_cd_and_oracle(self, six_edge_family):
        rng = random.Random(163)
        unions = [rng.choice(six_edge_family).disjoint_union(rng.choice(six_edge_family)) for _ in range(30)]
        unions += [m.disjoint_union(POINT) for m in rng.sample(six_edge_family, 10)]
        unions += [POINT.disjoint_union(m) for m in rng.sample(six_edge_family, 10)]
        family = six_edge_family + EDGE_CASES + unions + [CombMap((), ())]
        family += random_maps(seed=167, count=20, max_edges=12)
        for m in family:
            swept = virtual_chromatic(m, engine="brauer")
            assert swept == virtual_chromatic(m, engine="contraction-deletion"), m
            assert swept == chromatic_cd_oracle(m), m
        assert virtual_chromatic(CombMap((), ())) == HalfLaurent.one("t")
        # the sweep agrees with contraction-deletion in any vertex order
        for m in unions[:20]:
            order = list(range(m.vertex_count))
            rng.shuffle(order)
            swept = HalfLaurent.from_dict("t", _chrom_tally(m, order))
            assert swept == virtual_chromatic(m, engine="contraction-deletion"), m

    def test_auto_is_the_sweep(self):
        # contraction-deletion would fill its memo; the sweep keeps none
        clear_caches()
        for m in (K4, K33_STD, complete_map(5)):
            assert virtual_chromatic(m) == chromatic_via_dual(m)
        assert not _CHROM_CACHE
        virtual_chromatic(K4, engine="contraction-deletion")
        assert _CHROM_CACHE

    def test_refusals(self):
        twisted = BOUQUET2_INT.toggle_twist(0)
        for engine in ("auto", "brauer", "contraction-deletion"):
            with pytest.raises(ValueError, match="needs a twist-free map"):
                virtual_chromatic(twisted, engine=engine)
        with pytest.raises(ValueError, match="unknown chromatic engine 'state-sum'"):
            virtual_chromatic(TRIANGLE, engine="state-sum")


class TestSpecialValues:
    def test_s_at_one_vanishes(self):
        for m in random_maps(seed=19, count=15, max_edges=8):
            assert s_poly_at(m, 1) == 0

    def test_s_zero_equals_flow_zero(self):
        for m in random_maps(seed=23, count=15, max_edges=8):
            assert s_poly(m).evaluate(0) == flow_poly(m).evaluate(0)

    def test_checks_bundle(self):
        for m in [LOOP1, THETA_P, THETA_T, K33_STD, BOUQUET2_INT]:
            checks = special_value_checks(m)
            assert all(bool(v) for v in checks.values()), (m, checks)

    def test_flip_sign_law_at_four(self):
        # Flipping a vertex scales S(4) by (-1)^deg(v).
        for m in [THETA_P, K33_STD, BOUQUET2_INT]:
            base = s_poly_at(m, 4)
            for v in range(m.vertex_count):
                sign = -1 if m.degree(v) % 2 else 1
                assert s_poly_at(m.vertex_flip(v), 4) == sign * base

    def test_point_evaluation_matches_polynomial(self):
        for m in [THETA_T, K33_STD]:
            for value in (0, 1, 4, Fraction(5, 2)):
                assert s_poly_at(m, value) == s_poly(m).evaluate(value)


class TestDegree:
    def test_degree_bound_and_monic(self):
        for m in random_maps(seed=29, count=20, max_edges=8):
            report = degree_report(m)
            if s_poly(m).is_zero():
                continue
            degree, _ = s_poly(m).degree_leading()
            assert degree <= report.bound
            if not report.has_coloop:
                assert report.attained and report.monic, m

    def test_subdivision_invariance(self):
        for m in random_maps(seed=31, count=10, max_edges=6):
            assert s_poly(m.subdivide(0)) == s_poly(m)


def _walk_against_oracle(m, names, reversed_vertices=frozenset()):
    """Walk edge e between its resolutions names[e], checking every state's strands.

    The walker runs on the flipped map, which keeps the half-edge and edge
    labels; the oracle reverses the corners of ``reversed_vertices`` itself.
    """

    def point(a, b, name):
        # the point a resolution joins to 2a
        return {"band": 2 * b + 1, "crossed": 2 * b, "cut": 2 * a + 1}[name]

    resolutions = [tuple(point(a, b, name) for name in pair) for (a, b), pair in zip(m.edges, names)]
    flipped = m.flip_subset(reversed_vertices)
    assert flipped.edges == m.edges
    walker = ToggleWalker(flipped, resolutions)
    state = [pair[0] for pair in names]
    assert walker.strands == strand_count(m, state, reversed_vertices), m
    for e in gray_toggles(m.edge_count):
        before = walker.strands
        change = walker.toggle(e)
        state[e] = names[e][1] if state[e] == names[e][0] else names[e][0]
        assert walker.strands == strand_count(m, state, reversed_vertices), (m, state)
        assert change == walker.strands - before


class TestIncrementalWalks:
    def test_walker_faces_per_subset(self):
        for m in exhaustive_connected_maps(5) + EDGE_CASES:
            walker = ToggleWalker(m, [(2 * b + 1, 2 * a + 1) for a, b in m.edges])
            mask = 0
            visited = {mask}
            doubled = m.edge_count - m.vertex_count + walker.strands
            assert walker.strands == subgraph_euler(m, mask)[2], m
            for e in gray_toggles(m.edge_count):
                mask ^= 1 << e
                doubled += walker.toggle(e) + (-1 if mask >> e & 1 else 1)
                visited.add(mask)
                _b0, b1, faces, genus = subgraph_euler(m, mask)
                assert (walker.strands, doubled) == (faces, 2 * (b1 - genus)), (m, mask)
            assert len(visited) == 1 << m.edge_count

    def test_walker_band_crossed_per_state(self):
        family = exhaustive_connected_maps(5) + random_maps(seed=61, count=6, max_edges=8)
        for m in family + EDGE_CASES:
            _walk_against_oracle(m, [("band", "crossed")] * m.edge_count)
            _walk_against_oracle(m, [("crossed", "band")] * m.edge_count)

    def test_walker_cut_reversed_corners_per_state(self):
        rng = random.Random(67)
        family = exhaustive_connected_maps(5) + random_maps(seed=71, count=6, max_edges=8)
        for m in family + EDGE_CASES:
            flippable = m.flippable_vertices()
            for _ in range(3):
                reversed_vertices = frozenset(v for v in flippable if rng.random() < 0.5)
                names = [
                    ("crossed" if rng.random() < 0.5 else "band", "cut") for _e in range(m.edge_count)
                ]
                _walk_against_oracle(m, names, reversed_vertices)

    def test_cut_exponents_match_toggle_walk(self, six_edge_family, monkeypatch):
        # the inlined walk against one toggle call per Gray step, key by key in
        # the order reached, with the keys whose count cancels to 0 kept
        rng = random.Random(73)
        block = invariants._BLOCK_BITS
        # one block short of, at, and one past the block size; then 12-15
        # edges, so the high edges switch between 64 and 512 blocks
        blocks = [
            random_connected_map(random.Random(seed), edges)
            for edges in (block - 1, block, block + 1)
            for seed in range(83, 87)
        ]
        blocks += [cycle_map(block + 1), cycle_map(13), petersen_map(), complete_map(6)]
        blocks += [random_connected_map(random.Random(89 + edges), edges) for edges in (12, 13, 14, 15)]
        assert {block - 1, block, block + 1, 12, 15} <= {m.edge_count for m in blocks}
        mixed = exhaustive_connected_maps(5) + random_maps(seed=79, count=20, max_edges=11) + blocks
        cancelled = 0
        for m in six_edge_family + mixed + EDGE_CASES:
            bands = [2 * b + 1 for _a, b in m.edges]
            want = cut_exponents_oracle(m, bands)
            assert list(_cut_exponents(m, bands).items()) == list(want.items()), m
            cancelled += 0 in want.values()
        assert cancelled
        for m in mixed + EDGE_CASES:
            joined = [2 * b + 1 if rng.random() < 0.5 else 2 * b for _a, b in m.edges]
            want = cut_exponents_oracle(m, joined)
            assert list(_cut_exponents(m, joined).items()) == list(want.items()), m
        # S checks every exponent the walk reaches, a cancelled one included
        seen = []
        monkeypatch.setattr(invariants, "_check_doubled", seen.append)
        for m in mixed + EDGE_CASES:
            seen.clear()
            _s_exponents(m)
            assert seen == list(cut_exponents_oracle(m, [2 * b + 1 for _a, b in m.edges])), m

    @pytest.mark.slow
    def test_cut_exponents_match_block_walk(self, monkeypatch):
        # the walk that memoizes its Gray blocks against one that walks every
        # block, key by key in the order reached, with cancelled keys kept
        rng = random.Random(97)
        family = [random_connected_map(random.Random(101 + edges), edges) for edges in range(16, 21)]
        family += [petersen_map(), complete_map(6), cycle_map(18)]
        # the low edges alone in a component, or meeting the rest at one
        # vertex, so block keys repeat heavily
        family += [cycle_map(6).disjoint_union(complete_map(5)), wedge(complete_map(4), 0, cycle_map(9), 0)]
        # the fewest blocks that memoize, with every block key distinct
        family.append(random_connected_map(random.Random(3), 11))
        seen = []
        monkeypatch.setattr(invariants, "_check_doubled", seen.append)
        repeated = distinct = cancelled = 0
        for m in family:
            bands = [2 * b + 1 for _a, b in m.edges]
            joined = [2 * b + 1 if rng.random() < 0.5 else 2 * b for _a, b in m.edges]
            for start in (bands, joined):
                keys: list = []
                want = block_walk_oracle(m, start, keys)
                if start is bands:
                    # S checks every exponent the walk reaches, a cancelled one included
                    seen.clear()
                    got = _s_exponents(m)
                    assert seen == list(want), m
                else:
                    got = _cut_exponents(m, start)
                assert list(got.items()) == list(want.items()), m
                repeated += len(set(keys)) < len(keys)
                distinct += len(set(keys)) == len(keys) >= invariants._MEMO_BLOCKS
                cancelled += 0 in want.values()
        assert repeated and distinct and cancelled

    def test_state_sum_matches_sweep_at_scale(self):
        # S by the memoized state sum against the frontier sweep, which share
        # no code, on bridgeless maps past the sizes the oracle tests reach
        rng = random.Random(103)
        for edges in (18, 20, 22):
            m = random_connected_map(rng, edges)
            while not is_bridgeless(m):
                m = random_connected_map(rng, edges)
            s = s_poly(m, engine="state-sum")
            assert s == s_poly(m, engine="brauer"), m
            assert s, m

    def test_state_sums_match_oracles(self, six_edge_family):
        family = six_edge_family + random_maps(seed=37, count=12, max_edges=10) + EDGE_CASES
        for m in family:
            s_want, flow_want, rank_want = state_sum_oracles(m)
            assert s_poly(m, engine="state-sum") == s_want, m
            assert flow_poly(m, engine="state-sum") == flow_want, m
            assert krushkal_poly(m) == rank_want, m
            assert s_poly_at(m, 4) == s_want.evaluate(4), m
        for m in random_maps(seed=41, count=4, max_edges=10) + EDGE_CASES[:3]:
            s_want = state_sum_oracles(m)[0]
            for value in (0, 1, Fraction(-3, 2)):
                assert s_poly_at(m, value) == s_want.evaluate(value), m

    def test_flow_ignores_twists(self):
        for m in random_maps(seed=43, count=10, max_edges=8) + EDGE_CASES[3:]:
            twisted = m
            for e in range(0, m.edge_count, 2):
                twisted = twisted.toggle_twist(e)
            assert flow_poly(twisted, engine="state-sum") == state_sum_oracles(m)[1], m

    def test_auto_engine_rule(self):
        # small maps stay on the state sum; a cycle's many vertices push the
        # sweep's turn to 9 edges
        assert resolve_engine(cycle_map(8), "auto") == "state-sum"
        assert resolve_engine(cycle_map(9), "auto") == "brauer"
        assert resolve_engine(K4, "auto") == "state-sum"
        assert resolve_engine(K33_STD, "auto") == "brauer"
        # two vertices with 6 parallel edges stay on the state sum, with 7 the
        # sweep wins; K6 too.  The rule reads only E and V, so the sweep is
        # named even where the plan's bound (2w - 1)!! is far above 2^E.
        assert resolve_engine(_dipole(6), "auto") == "state-sum"
        for m in (_dipole(7), complete_map(6)):
            assert m.sweep_plan[2] > 100 * 2**m.edge_count, m
            assert resolve_engine(m, "auto") == "brauer", m
        # 40 isolated vertices make the sweep's steps alone cost more than 2^9
        crowded = cycle_map(9).disjoint_union(CombMap(((),) * 40, ()))
        assert resolve_engine(crowded, "auto") == "state-sum"
        assert resolve_engine(cycle_map(30), "auto") == "brauer"
        for engine in ("state-sum", "contraction-deletion", "brauer"):
            assert resolve_engine(cycle_map(14), engine) == engine

    def test_auto_engine_matches_bound_rule(self, cubic_census):
        # the rule from E and V alone names the engine that the rule with
        # the sweep's state bound named, on both sides of the crossover
        rng = random.Random(577)
        family = exhaustive_connected_maps(5) + random_maps(seed=1, count=300, max_edges=16)
        family += [m for v in sorted(cubic_census) for m in cubic_census[v]]
        family += [random_connected_map(rng, e) for e in range(3, 25) for _ in range(4)]
        family += [complete_map(n) for n in range(2, 8)]
        family += [_dipole(k) for k in range(2, 10)] + [cycle_map(n) for n in range(3, 31)]
        # isolated vertices, where the planning term V^3 moves the crossover
        for k in (10, 20, 30, 40):
            family += [cycle_map(n).disjoint_union(CombMap(((),) * k, ())) for n in range(6, 15)]
        planned = 0
        for m in family:
            want, order = choose_engine_oracle(m, "auto")
            assert resolve_engine(m, "auto") == want, m
            planned += order is not None
        # many maps reached the bound test, and it named the sweep on each
        assert planned >= 700, planned


def _dipole(k):
    """Two vertices joined by k parallel edges."""
    edges = tuple((2 * i, 2 * i + 1) for i in range(k))
    return CombMap((tuple(range(0, 2 * k, 2)), tuple(range(1, 2 * k, 2))), edges)


def _with_chains(seed, count):
    """Random maps grown to at most 12 edges by subdivision, mostly next to
    earlier subdivisions, so they carry chains of degree-2 vertices."""
    rng = random.Random(seed)
    out = []
    for m in random_maps(seed=seed, count=count, max_edges=8):
        target = rng.randint(m.edge_count + 1, 12)
        while m.edge_count < target:
            chain = [m.edge_of[cycle[0]] for cycle in m.vertices if len(cycle) == 2]
            pool = chain if chain and rng.random() < 0.7 else range(m.edge_count)
            m = m.subdivide(rng.choice(list(pool)))
        out.append(m)
    return out


def _random_tree(rng, edge_count):
    vertices = [[]]
    for i in range(edge_count):
        parent = vertices[rng.randrange(len(vertices))]
        parent.insert(rng.randint(0, len(parent)), 2 * i)
        vertices.append([2 * i + 1])
    return CombMap(tuple(map(tuple, vertices)), tuple((2 * i, 2 * i + 1) for i in range(edge_count)))


def _with_pendants(rng, m):
    for _ in range(rng.randint(1, 3)):
        m = wedge(m, rng.randrange(m.vertex_count), BRIDGE, 0)
    return m


class TestReductions:
    """Each contraction-deletion shortcut against the state sum or the dual route."""

    def test_cd_matches_state_sum(self, six_edge_family):
        for m in six_edge_family + _with_chains(83, 40) + EDGE_CASES:
            assert s_poly(m, engine="contraction-deletion") == s_poly(m, engine="state-sum"), m
            assert flow_poly(m, engine="contraction-deletion") == flow_poly(m, engine="state-sum"), m

    def test_flow_cd_twisted(self):
        rng = random.Random(89)
        for m in _with_chains(97, 30) + random_maps(seed=101, count=10, max_edges=10):
            twisted = m
            for e in range(m.edge_count):
                if rng.random() < 0.5:
                    twisted = twisted.toggle_twist(e)
            assert flow_poly(twisted, engine="contraction-deletion") == flow_poly(m, engine="state-sum"), m

    def test_chromatic_matches_dual_route(self, six_edge_family):
        rng = random.Random(103)
        trees = [_random_tree(rng, n) for n in range(11) for _ in range(3)]
        pendants = [_with_pendants(rng, m) for m in random_maps(seed=107, count=20, max_edges=8)]
        for m in six_edge_family + _with_chains(83, 40) + trees + pendants + EDGE_CASES:
            assert virtual_chromatic(m) == chromatic_via_dual(m), m


def _stripped(m):
    """The same map without twists or vertex signs."""
    return CombMap(m.vertices, m.edges)


def _decorated(seed, count, max_edges):
    """Random maps with random twists and random vertex signs."""
    rng = random.Random(seed)
    out = []
    for m in random_maps(seed=seed, count=count, max_edges=max_edges):
        twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.4)
        signs = tuple(rng.choice((1, -1)) for _ in range(m.vertex_count))
        out.append(CombMap(m.vertices, m.edges, signs, twists))
    return out


def _relabeled_kernel(sigma, rng):
    """The kernel with its edges renumbered, edge ends swapped and vertex cycles rotated.

    Returns the new rotation and the new label of each old half-edge.
    """
    edge_to = list(range(len(sigma) // 2))
    rng.shuffle(edge_to)
    swapped = [rng.randrange(2) for _ in edge_to]
    label = [2 * edge_to[h >> 1] + ((h & 1) ^ swapped[h >> 1]) for h in range(len(sigma))]
    cycles, seen = [], set()
    for h in range(len(sigma)):
        if h not in seen:
            cycle = [h]
            while sigma[cycle[-1]] != h:
                cycle.append(sigma[cycle[-1]])
            seen.update(cycle)
            k = rng.randrange(len(cycle))
            cycles.append(cycle[k:] + cycle[:k])
    rng.shuffle(cycles)
    out = [0] * len(sigma)
    for cycle in cycles:
        for i, h in enumerate(cycle):
            out[label[cycle[i - 1]]] = label[h]
    return out, label


def _kernel_map(sigma, twists, sign_of):
    """The map with rotation ``sigma`` and edges (2k, 2k + 1), twisted on ``twists``.

    Each vertex takes the sign that ``sign_of`` gives its half-edges.
    """
    cycles, seen = [], set()
    for h in range(len(sigma)):
        if h not in seen:
            cycle = [h]
            while sigma[cycle[-1]] != h:
                cycle.append(sigma[cycle[-1]])
            seen.update(cycle)
            cycles.append(tuple(cycle))
    edges = tuple((h, h + 1) for h in range(0, len(sigma), 2))
    return CombMap(tuple(cycles), edges, tuple(sign_of[c[0]] for c in cycles), frozenset(twists))


class TestKernel:
    """The half-edge kernel of contraction-deletion against validated maps."""

    def test_minor_keys_partition_like_signatures(self, six_edge_family):
        # The key tries fewer starts than the signature, so its values differ,
        # but two minors share a key exactly when their stripped maps share a
        # signature.
        keys = {_kernel_key(*_kernel(m)) for m in six_edge_family}
        assert len(keys) == len(six_edge_family)  # pairwise non-isomorphic
        family = exhaustive_connected_maps(5) + EDGE_CASES + _decorated(109, 30, 10)
        signature_of, key_of = {}, {}
        minors = 0

        def record(kernel, plain):
            key, signature = _kernel_key(*kernel), plain.signature
            assert signature_of.setdefault(key, signature) == signature, plain
            assert key_of.setdefault(signature, key) == key, plain

        for m in family:
            plain = _stripped(m)
            sigma, isolated = _kernel(m)
            record((sigma, isolated), plain)
            for e in range(m.edge_count):
                record(_minor(sigma, isolated, e, False), plain.delete_edge(e))
                record(_minor(sigma, isolated, e, True), plain.contract(e))
                minors += 2
        assert minors > 8000
        assert len(signature_of) == len(key_of) > 1000

    def test_key_invariant_under_relabeling(self):
        # The same relabelings keep the signature of the map on kernel labels
        # with random twists and signs.
        rng, marks = random.Random(167), random.Random(173)
        for m in random_maps(seed=163, count=30, max_edges=12):
            sigma, isolated = _kernel(m)
            twists = {k for k in range(m.edge_count) if marks.random() < 0.4}
            vertex_sign = [marks.choice((1, -1)) for _v in m.vertices]
            sign_of = [vertex_sign[m.vertex_of[m.edges[x >> 1][x & 1]]] for x in range(len(sigma))]
            relabeled, label = _relabeled_kernel(sigma, rng)
            edge_to = [label[2 * e] >> 1 for e in range(m.edge_count)]
            assert _kernel_key(relabeled, isolated) == _kernel_key(sigma, isolated), m
            moved_sign = [0] * len(sigma)
            for x, y in enumerate(label):
                moved_sign[y] = sign_of[x]
            signature = _kernel_map(sigma, twists, sign_of).signature
            moved = _kernel_map(relabeled, {edge_to[k] for k in twists}, moved_sign)
            assert moved.signature == signature, m
            for e in range(m.edge_count):
                for contract in (False, True):
                    minor = _minor(sigma, isolated, e, contract)
                    key = _kernel_key(*minor)
                    moved = _minor(relabeled, isolated, edge_to[e], contract)
                    assert _kernel_key(*moved) == key, (m, e)
                    assert _kernel_key(_relabeled_kernel(minor[0], rng)[0], minor[1]) == key, (m, e)

    def test_edge_choices_match_combmap(self):
        for m in exhaustive_connected_maps(4) + EDGE_CASES + _decorated(113, 20, 9):
            sigma, _isolated = _kernel(m)
            degrees = [len(cycle) for cycle in m.vertices]
            assert (_lone_half_edge(sigma) >= 0) == (1 in degrees), m
            e = _subdivision_edge(sigma)
            if e < 0:
                assert not any(
                    len(c) == 2 and not m.is_loop(m.edge_of[c[0]]) for c in m.vertices
                ), m
            else:
                a, b = m.edges[e]
                assert not m.is_loop(e), m
                assert 2 in (degrees[m.vertex_of[a]], degrees[m.vertex_of[b]]), m
            if m.edge_count:
                non_loops = [k for k in range(m.edge_count) if not m.is_loop(k)]
                want = (non_loops[0], False) if non_loops else (0, True)
                assert _preferred_edge(sigma) == want, m

    def test_cd_matches_oracles(self, six_edge_family):
        family = six_edge_family + EDGE_CASES + random_maps(seed=127, count=12, max_edges=10)
        for m in family:
            assert s_poly(m, engine="contraction-deletion") == s_cd_oracle(m), m
            assert flow_poly(m, engine="contraction-deletion") == flow_cd_oracle(m), m
            assert virtual_chromatic(m, engine="contraction-deletion") == chromatic_cd_oracle(m), m
        for m in _decorated(131, 20, 10):
            assert flow_poly(m, engine="contraction-deletion") == flow_cd_oracle(m), m


class TestConnectSumChecks:
    def test_edge_vertex_and_wedge_rules(self, connect_sum_pairs):
        rng = random.Random(157)
        beyond_state_sum = 0
        for m1, m2 in connect_sum_pairs:
            assert not s_poly(m1).is_zero() and not s_poly(m2).is_zero()
            a, b = m1.edges[rng.randrange(m1.edge_count)]
            e1 = (a, b) if rng.random() < 0.5 else (b, a)
            e2 = m2.edges[rng.randrange(m2.edge_count)]
            v1 = rng.choice([v for v in range(m1.vertex_count) if m1.degree(v) == 3])
            v2 = rng.choice([v for v in range(m2.vertex_count) if m2.degree(v) == 3])
            h1, h2 = rng.choice(m1.vertices[v1]), rng.choice(m2.vertices[v2])
            report = connect_sum_checks(m1, e1, m2, e2, v1, h1, v2, h2)
            assert report == {
                "edge_rule": True,
                "vertex_rule": True,
                "wedge_rule": True,
                "passed": True,
            }, (m1, e1, m2, e2, v1, h1, v2, h2)
            beyond_state_sum += m1.edge_count + m2.edge_count > 13
        assert beyond_state_sum >= 4


    def test_vertex_arguments_come_together(self):
        # a missing member of the vertex group raises even under python -O
        e = THETA_P.edges[0]
        h = THETA_P.vertices[0][0]
        for partial in ((0, h, 0, None), (0, None, None, None), (None, h, 0, h)):
            with pytest.raises(ValueError, match="together"):
                connect_sum_checks(THETA_P, e, THETA_P, e, *partial)


class TestWarmMemo:
    def test_warm_memo_agrees_with_cold(self):
        # Memo values are shared between recursions; a combine step that
        # changed one in place would make the warm run differ.
        family = exhaustive_connected_maps(5) + EDGE_CASES
        cd = "contraction-deletion"

        def compute(m):
            if m.edge_twists:
                return None, flow_poly(m, engine=cd), None
            return s_poly(m, engine=cd), flow_poly(m, engine=cd), virtual_chromatic(m, engine=cd)

        clear_caches()
        cold = [compute(m) for m in family]
        warm = [compute(m) for m in reversed(family)][::-1]
        for m, a, b in zip(family, cold, warm):
            assert a == b, m


class TestClearCaches:
    def test_every_memo_emptied(self):
        # every module-level dict named _*_CACHE in the package, found by name
        caches = {}
        for info in pkgutil.iter_modules(ribbonpoly.__path__):
            module = importlib.import_module(f"ribbonpoly.{info.name}")
            for name, value in vars(module).items():
                if re.fullmatch(r"_\w+_CACHE", name) and isinstance(value, dict):
                    caches[f"{info.name}.{name}"] = value
        assert len(caches) == 5, sorted(caches)
        for cache in caches.values():
            cache[object()] = None
        clear_caches()
        assert not any(caches.values()), {name: len(c) for name, c in caches.items()}
