"""Metric Lie algebra graph evaluations and the flip census polynomial."""

import itertools
import random

import pytest
from helpers_oracles import (
    EDGE_CASES,
    cellular_embedding_oracle,
    degree2_connect_sum_oracle,
    flip_genera_oracle,
    flip_genera_walker_oracle,
    g_min_oracle,
    planarity_oracle,
    subdivide_signed_oracle,
    surgery_outcome,
    w_sl_brauer_oracle,
    w_sl_flip_oracle,
    w_sl_walker_oracle,
    w_sl_walker_tally,
    w_so_oracle,
    w_so_walker_oracle,
)

from ribbonpoly.algebra import HalfLaurent
from ribbonpoly.fixtures import BOUQUET2_INT, K4, K33_STD, LOOP1, THETA_P, THETA_T
from ribbonpoly.generate import (
    POINT,
    cubic_maps,
    cycle_map,
    exhaustive_connected_maps,
    is_bridgeless,
    random_maps,
)
from ribbonpoly.invariants import _flip_genera, g_min, s_poly_at
from ribbonpoly.maps import CombMap, ConnectSumError, edge_connect_sum
from ribbonpoly.penrose import (
    _subdivide_signed,
    cellular_embedding_poly,
    degree2_connect_sum,
    ihx_check,
    parity_signs,
    penrose_number_checks,
    planarity_by_flips,
    sl_connect_sum_checks,
    so_as_sl_check,
    so_connect_sum_checks,
    theta_sl_value,
    w_sl_brauer,
    w_sl_extended,
    w_sl_relation_suite,
    w_so,
    w_so_relation_suite,
    with_signs,
)


def npoly(data):
    return HalfLaurent.from_dict("N", {2 * k: v for k, v in data.items()})


def xpoly(data):
    return HalfLaurent.from_dict("x", {2 * k: v for k, v in data.items()})


class TestOrthogonalAnchors:
    def test_point(self):
        assert w_so(POINT) == npoly({1: 1})

    def test_loop(self):
        assert w_so(LOOP1) == npoly({2: 1, 1: -1})

    def test_theta(self):
        # N(N-1)(N-2) for the planar rotation; a vertex flip negates the
        # value through the odd-degree sign law.
        expected = npoly({3: 1, 2: -3, 1: 2})
        assert w_so(THETA_P) == expected
        assert w_so(THETA_T) == expected.scale(-1)

    def test_subdivision_doubles(self):
        for m in [LOOP1, THETA_P]:
            assert w_so(m.subdivide(0)) == w_so(m).scale(2)

    def test_matches_oracle(self, six_edge_family):
        rng = random.Random(53)
        family = six_edge_family + random_maps(seed=59, count=12, max_edges=10) + EDGE_CASES
        for m in family:
            assert w_so(m) == w_so_oracle(m), m
            twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.5)
            twisted = CombMap(m.vertices, m.edges, None, twists)
            assert w_so(twisted) == w_so_oracle(twisted), twisted

    def test_matches_walker_oracle(self):
        rng = random.Random(229)
        for m in exhaustive_connected_maps(5) + EDGE_CASES:
            twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.5)
            for candidate in (m, CombMap(m.vertices, m.edges, None, twists)):
                want = w_so_walker_oracle(candidate)
                assert w_so_oracle(candidate) == want, candidate
                assert w_so(candidate) == want, candidate

    def test_relations(self):
        for m in [THETA_P, BOUQUET2_INT, K4]:
            for e in range(min(2, m.edge_count)):
                suite = w_so_relation_suite(m, e)
                assert all(bool(v) for v in suite.values()), (m, e, suite)


class TestSpecialLinearAnchors:
    def test_theta_values(self):
        assert theta_sl_value(1) == npoly({4: 2, 2: -10, 0: 8})
        assert theta_sl_value(-1) == npoly({4: 2, 2: -2})

    def test_theta_matches_engine(self):
        # Equal sign patterns give the two named values; mixed signs kill it.
        assert w_sl_extended(THETA_P, (1, 1)) == theta_sl_value(1)
        assert w_sl_extended(THETA_P, (-1, -1)) == theta_sl_value(-1)
        assert w_sl_extended(THETA_P, (1, -1)).is_zero()

    def test_at_two_parity_signs(self):
        for m in [LOOP1, THETA_P, THETA_T, BOUQUET2_INT]:
            value = w_sl_extended(m, parity_signs(m)).evaluate(2)
            assert value == (2**m.vertex_count) * s_poly_at(m, 4)

    def test_at_two_other_signs_vanish(self):
        # Flip one sign away from parity: the N = 2 value dies.
        signs = list(parity_signs(THETA_P))
        signs[0] = -signs[0]
        assert w_sl_extended(THETA_P, tuple(signs)).evaluate(2) == 0

    def test_matches_flip_oracle(self, cubic_census):
        rng = random.Random(83)
        for v in (2, 4, 6):
            for m in cubic_census[v]:
                signs = [rng.choice((1, -1)) for _v in range(m.vertex_count)]
                want = w_sl_flip_oracle(m, signs)
                assert w_sl_brauer(m, signs) == want, (m, signs)
                assert w_sl_extended(m, signs) == want, (m, signs)

    def test_contraction_deletion_route(self, cubic_census):
        # 15 edges: the oracle takes each flip's S by contraction-deletion
        rng = random.Random(89)
        census = [m for m in cubic_census[10] if is_bridgeless(m)]
        for m in rng.sample(census, 3):
            assert m.edge_count > 13
            random_signs = [rng.choice((1, -1)) for _v in range(m.vertex_count)]
            for signs in (parity_signs(m), random_signs):
                assert w_sl_extended(m, signs) == w_sl_flip_oracle(m, signs), (m, signs)
            value = w_sl_extended(m, parity_signs(m)).evaluate(2)
            assert value == 2**m.vertex_count * s_poly_at(m, 4), m

    def test_twisted_map_beyond_state_sum_size(self):
        # a 14-edge map with twist marks, against the brute-force oracle
        rng = random.Random(149)
        halves = list(range(28))
        rng.shuffle(halves)
        twists = frozenset(e for e in range(14) if rng.random() < 0.5)
        edges = tuple((2 * k, 2 * k + 1) for k in range(14))
        m = CombMap((tuple(halves[:14]), tuple(halves[14:])), edges, None, twists)
        assert twists and m.edge_count > 13
        signs = parity_signs(m)
        want = w_sl_brauer_oracle(m, signs)
        assert not want.is_zero()
        assert w_sl_brauer(m, signs) == want

    def test_brauer_matches_oracle(self):
        rng = random.Random(73)
        family = exhaustive_connected_maps(4) + EDGE_CASES + random_maps(seed=79, count=4, max_edges=7)
        for m in family:
            twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.5)
            twisted = CombMap(m.vertices, m.edges, None, twists)
            random_signs = [rng.choice((1, -1)) for _v in range(m.vertex_count)]
            all_positive = [1] * m.vertex_count
            for candidate in (m, twisted):
                for signs in (parity_signs(candidate), random_signs, all_positive):
                    want = w_sl_brauer_oracle(candidate, signs)
                    assert w_sl_brauer(candidate, signs) == want, (candidate, signs)
        # a negative vertex of degree <= 2 zeroes the prefactor
        assert w_sl_brauer(LOOP1, (-1,)).is_zero()
        assert w_sl_brauer_oracle(LOOP1, (-1,)).is_zero()
        assert not w_sl_brauer(LOOP1, (1,)).is_zero()

    def test_flip_set_and_complement_share_a_tally(self):
        # Reversing every rotation keeps each edge state's strands, which is
        # why w_sl_brauer sweeps its first flippable vertex cyclic only.
        rng = random.Random(193)
        checked = 0
        for m in exhaustive_connected_maps(5):
            twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.5)
            m = CombMap(m.vertices, m.edges, None, twists)
            flippable = frozenset(m.flippable_vertices())
            for size in range(len(flippable) + 1):
                for subset in itertools.combinations(sorted(flippable), size):
                    flipped = frozenset(subset)
                    tally = w_sl_walker_tally(m, flipped)
                    assert tally == w_sl_walker_tally(m, flippable - flipped), (m, flipped)
                    checked += 1
        assert checked > 2000

    def test_matches_walker_oracle(self):
        # the flip sum with every flip walked, on twisted maps too
        rng = random.Random(197)
        family = exhaustive_connected_maps(5) + EDGE_CASES + random_maps(seed=199, count=8, max_edges=12)
        for m in family:
            twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.5)
            for candidate in (m, CombMap(m.vertices, m.edges, None, twists)):
                signs = [rng.choice((1, -1)) for _v in range(m.vertex_count)]
                want = w_sl_walker_oracle(candidate, signs)
                assert w_sl_brauer(candidate, signs) == want, (candidate, signs)

    def test_relations(self):
        for e in range(3):
            suite = w_sl_relation_suite(THETA_P, e)
            assert all(bool(v) for v in suite.values()), (e, suite)

    def test_signed_subdivision_matches_oracle(self):
        rng = random.Random(197)
        family = [m for m in exhaustive_connected_maps(4) + EDGE_CASES if m.edge_count]
        family += [m.toggle_twist(0) for m in family[::3]]
        for m in family:
            signs = [rng.choice((1, -1)) for _ in m.vertices]
            for e in range(m.edge_count):
                for a in (1, -1):
                    want = surgery_outcome(subdivide_signed_oracle, m, signs, e, a)
                    assert surgery_outcome(_subdivide_signed, m, signs, e, a) == want, (m, e, a)

    def test_so_as_sl(self):
        for m in [LOOP1, THETA_P, BOUQUET2_INT]:
            report = so_as_sl_check(m)
            assert all(bool(v) for v in report.values()), (m, report)


class TestCellularEmbedding:
    def test_theta(self):
        assert cellular_embedding_poly(THETA_P) == xpoly({0: 2, 1: -2})
        assert cellular_embedding_poly(THETA_T) == xpoly({1: 2, 0: -2})

    def test_at_one_vanishes(self):
        for m in cubic_maps(4):
            assert cellular_embedding_poly(m).evaluate(1) == 0

    def test_flip_changes_at_most_sign(self):
        poly = cellular_embedding_poly(K4)
        flipped = cellular_embedding_poly(K4.vertex_flip(0))
        assert flipped == poly or flipped == poly.scale(-1)

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            cellular_embedding_poly(LOOP1)


class TestPlanarity:
    def test_k33_has_no_witness(self):
        report = planarity_by_flips(K33_STD)
        assert not report["planar_somehow"]
        assert report["witness"] is None

    def test_k4_witness(self):
        report = planarity_by_flips(K4)
        assert report["planar_somehow"]
        assert report["witness"] == frozenset()

    def test_loop_trivial_witness(self):
        report = planarity_by_flips(LOOP1)
        assert report["planar_somehow"] and report["witness"] == frozenset()

    def test_degree_coherence(self):
        for m in [K4, K33_STD, THETA_P]:
            report = planarity_by_flips(m)
            assert report["degree_coherent"] is True


def _outcome(call):
    """The value of ``call()``, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return ("ValueError", str(exc))


def _states(genera):
    """Every (mask, genus) a flip walk yields, then its ValueError if it raises one."""
    states = []
    try:
        for state in genera:
            states.append(state)
    except ValueError as exc:
        states.append(("ValueError", str(exc)))
    return states


@pytest.fixture(scope="module")
def flip_family(cubic_census):
    """Maps with flips of every kind: the exhaustive 5-edge family, the edge
    cases, the v <= 8 census under random base flips, and random twists."""
    rng = random.Random(20261018)
    family = exhaustive_connected_maps(5) + EDGE_CASES
    for v in (2, 4, 6, 8):
        for m in cubic_census[v]:
            flips = [u for u in range(m.vertex_count) if rng.random() < 0.5]
            family.append(m.flip_subset(flips))
    for m in random_maps(seed=61, count=40, max_edges=9) + cubic_census[6]:
        twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.3)
        family.append(CombMap(m.vertices, m.edges, None, twists))
    return family


class TestFlipWalk:
    def test_genera_per_state(self, flip_family):
        raised = 0
        for m in flip_family:
            want = _states(flip_genera_oracle(m))
            assert _states(_flip_genera(m)) == want, m
            raised += want[-1][0] == "ValueError"
        assert raised >= 10

    def test_genera_match_toggle_walk(self, flip_family, cubic_census):
        # the inlined switch against one toggle call per switched edge
        family = flip_family + [m for v in (2, 4, 6, 8) for m in cubic_census[v]]
        for m in family:
            assert _states(_flip_genera(m)) == _states(flip_genera_walker_oracle(m)), m

    def test_raise_after_a_yield(self):
        # genus() reads mask 0 alone; the walk yields it, then raises at mask 1,
        # and every flip sum raises there too
        m = cubic_maps(4)[2].toggle_twist(0)
        error = ("ValueError", "map is non-orientable (odd Euler defect); genus undefined")
        assert m.genus() == 1
        assert _states(_flip_genera(m)) == [(0, 1), error]
        for flip_sum in (g_min, cellular_embedding_poly, planarity_by_flips):
            assert _outcome(lambda: flip_sum(m)) == error, flip_sum

    def test_results_match_oracles(self, flip_family):
        for m in flip_family:
            assert _outcome(lambda: g_min(m)) == _outcome(lambda: g_min_oracle(m)), m
            if m.vertex_count <= 6:
                want = _outcome(lambda: planarity_oracle(m))
                assert _outcome(lambda: planarity_by_flips(m)) == want, m
            if m.vertex_count and all(m.degree(v) == 3 for v in range(m.vertex_count)):
                want = _outcome(lambda: cellular_embedding_oracle(m))
                assert _outcome(lambda: cellular_embedding_poly(m)) == want, m


    def test_g_min_half_walk(self, cubic_census):
        # g_min walks only the masks with the top flippable bit clear.  The
        # maps carry random twists, and subdividing an edge adds a vertex of
        # degree 2, which no mask flips.
        rng = random.Random(197)
        maps = [CombMap((), ()), cycle_map(5), LOOP1.toggle_twist(0)]
        for m in [m for v in (2, 4, 6) for m in cubic_census[v]] + random_maps(seed=199, count=40, max_edges=8):
            twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.3)
            twisted = CombMap(m.vertices, m.edges, None, twists)
            maps.append(twisted)
            if m.edge_count:
                maps.append(twisted.subdivide(rng.randrange(m.edge_count)))
        outcomes = set()
        for m in maps:
            want = _outcome(lambda: g_min_oracle(m))
            assert _outcome(lambda: g_min(m)) == want, m
            low_degree = len(m.flippable_vertices()) < m.vertex_count
            outcomes.add((low_degree, "raised" if want[0] == "ValueError" else "value"))
        assert outcomes == {(False, "value"), (False, "raised"), (True, "value"), (True, "raised")}

    def test_cemb_half_walk_on_twisted_census(self, cubic_census):
        # cemb walks only the masks with the top bit clear; twists on a
        # vertex coboundary keep the map orientable, random twists rarely do.
        rng = random.Random(191)
        maps = [m for v in (2, 4, 6) for m in cubic_census[v]] + rng.sample(cubic_census[8], 12)
        outcomes = set()
        for m in maps:
            side = {u for u in range(m.vertex_count) if rng.random() < 0.5}
            cut = frozenset(
                e for e, (a, b) in enumerate(m.edges) if (m.vertex_of[a] in side) != (m.vertex_of[b] in side)
            )
            random_twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.3)
            for twists in (cut, random_twists):
                twisted = CombMap(m.vertices, m.edges, None, twists)
                want = _outcome(lambda: cellular_embedding_oracle(twisted))
                assert _outcome(lambda: cellular_embedding_poly(twisted)) == want, twisted
                outcomes.add((bool(twists), "raised" if isinstance(want, tuple) else "value"))
        assert {(True, "value"), (True, "raised")} <= outcomes
        # With no vertex there is no top bit, and the one mask is walked alone.
        empty = CombMap((), ())
        assert cellular_embedding_poly(empty) == cellular_embedding_oracle(empty) == xpoly({0: 1})


class TestConnectSums:
    def test_degree2_sum_is_an_edge_sum(self, connect_sum_pairs):
        # Summing at the subdivision vertices of edges (a1, b1) and (a2, b2)
        # joins a1 to b2 and b1 to a2, and a twist rides along its path.
        rng = random.Random(163)
        orientation_matters = 0
        for m1, m2 in connect_sum_pairs:
            k1, k2 = rng.randrange(m1.edge_count), rng.randrange(m2.edge_count)
            for base in (m1, m1.toggle_twist(k1)):
                g1, g2 = base.subdivide(k1), m2.subdivide(k2)
                u1, u2 = g1.vertex_count - 1, g2.vertex_count - 1
                assert g1.vertices[u1] == (base.half_edge_count, base.half_edge_count + 1)
                summed = degree2_connect_sum(g1, u1, g2, u2)
                (a1, b1), (a2, b2) = base.edges[k1], m2.edges[k2]
                assert summed.signature == edge_connect_sum(base, (a1, b1), m2, (b2, a2)).signature
                other = edge_connect_sum(base, (a1, b1), m2, (a2, b2))
                orientation_matters += summed.signature != other.signature
        assert orientation_matters >= 10

    def test_degree2_sum_keeps_signs(self, connect_sum_pairs):
        rng = random.Random(173)
        for m1, m2 in connect_sum_pairs:
            g1, g2 = (
                with_signs(m.subdivide(0), [rng.choice((1, -1)) for _ in range(m.vertex_count + 1)])
                for m in (m1, m2)
            )
            summed = degree2_connect_sum(g1, m1.vertex_count, g2, m2.vertex_count)
            assert summed.vertex_signs == g1.vertex_signs[:-1] + g2.vertex_signs[:-1]

    def test_degree2_sum_refusals(self):
        with pytest.raises(ConnectSumError):
            degree2_connect_sum(THETA_P, 0, LOOP1, 0)
        # Two single-loop vertices close into a vertex-free circle.
        with pytest.raises(ConnectSumError):
            degree2_connect_sum(LOOP1, 0, LOOP1, 0)

    def test_degree2_sum_matches_oracle(self, connect_sum_pairs):
        rng = random.Random(199)
        checked = 0
        for m1, m2 in connect_sum_pairs:
            for twist, signed in ((False, False), (True, False), (False, True), (True, True)):
                pair = []
                for m in (m1, m2.disjoint_union(POINT)):
                    g = m.subdivide(rng.randrange(m.edge_count))
                    if twist:
                        g = g.toggle_twist(rng.randrange(g.edge_count))
                    if signed:
                        g = with_signs(g, [rng.choice((1, -1)) for _ in g.vertices])
                    pair.append((g, g.vertex_of[m.half_edge_count]))
                args = (pair[0][0], pair[0][1], pair[1][0], pair[1][1])
                want = surgery_outcome(degree2_connect_sum_oracle, *args)
                assert surgery_outcome(degree2_connect_sum, *args) == want, args
                checked += want[0] != "refused"
        assert checked == 4 * len(connect_sum_pairs)
        for args in ((THETA_P, 0, LOOP1, 0), (LOOP1, 0, LOOP1, 0)):
            want = surgery_outcome(degree2_connect_sum_oracle, *args)
            assert want[0] == "refused"
            assert surgery_outcome(degree2_connect_sum, *args) == want

    def test_so_rules(self, connect_sum_pairs):
        checked = 0
        for m1, m2 in connect_sum_pairs:
            report = so_connect_sum_checks(m1, m2)
            assert report == {"degree2_rule": True, "degree3_rule": True, "passed": True}, (m1, m2)
            checked += 1
        assert checked == 12

    def test_sl_rules(self, connect_sum_pairs):
        rng = random.Random(179)
        checked = 0
        for m1, m2 in connect_sum_pairs:
            for _ in range(2):
                v1 = rng.choice([v for v in range(m1.vertex_count) if m1.degree(v) == 3])
                v2 = rng.choice([v for v in range(m2.vertex_count) if m2.degree(v) == 3])
                report = sl_connect_sum_checks(m1, v1, m2, v2)
                want = {"degree2_rule": True, "degree3_rule": True, "passed": True}
                assert report == want, (m1, v1, m2, v2)
                checked += 1
        assert checked == 24
        with pytest.raises(ConnectSumError):
            sl_connect_sum_checks(LOOP1, 0, THETA_P, 0)


class TestNumberChecks:
    def test_theta(self):
        report = penrose_number_checks(THETA_P)
        assert all(bool(v) for v in report.values()), report

    def test_ihx(self):
        report = ihx_check()
        assert all(bool(v) for v in report.values()), report
