"""Acceptance battery: one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line for
each criterion.  Everything is exact rational or cyclotomic arithmetic; the
few stated runtime budgets are asserted with ``time.monotonic``.
"""

import random
import time
from fractions import Fraction

import pytest

from helpers_oracles import krushkal_convention, krushkal_dual_terms, w_sl_flip_oracle, yamada_resolution_oracle
from helpers_spatial import (
    crossed_diagram,
    forbidden_examples,
    planar_r2,
    random_iv_site,
    random_r2_site,
    seeded_diagram,
    woven_triangle,
)
from ribbonpoly import spatial as sp
from ribbonpoly.algebra import HalfLaurent, eval_cyclotomic
from ribbonpoly.brauer import (
    brauer_evaluate,
    gram_det,
    gram_matrix,
    sym_negligible_verify,
)
from ribbonpoly.fixtures import (
    K4_SPATIAL,
    MAP_FIXTURES,
    SPATIAL_FIXTURES,
    THETA_CURL,
    THETA_P,
    THETA_R2,
    THETA_R2_TWICE,
    THETA_T,
    THETA_T_AS_SPATIAL,
)
from ribbonpoly.generate import (
    complete_map,
    exhaustive_connected_maps,
    is_bridgeless,
    k33_standard,
    random_connected_map,
    random_maps,
)
from ribbonpoly.invariants import (
    chromatic_via_dual,
    degree_report,
    flow_poly,
    krushkal_poly,
    s_poly,
    s_poly_at,
    special_value_checks,
    specialize_krushkal_to_s,
    virtual_chromatic,
)
from ribbonpoly.maps import CombMap
from ribbonpoly.penrose import (
    cellular_embedding_poly,
    parity_signs,
    planarity_by_flips,
    so_as_sl_check,
    theta_sl_value,
    w_sl_extended,
    w_so,
)


def qpoly(data):
    return HalfLaurent.from_dict("Q", {2 * k: v for k, v in data.items()})


def npoly(data):
    return HalfLaurent.from_dict("N", {2 * k: v for k, v in data.items()})


def product_of_roots(factors):
    """Polynomial in Q from (root, multiplicity) pairs."""
    out = HalfLaurent.one("Q")
    for root, mult in factors:
        out = out * (qpoly({1: 1, 0: -root}) ** mult)
    return out


@pytest.fixture(scope="module")
def small_family(six_edge_family):
    return six_edge_family


@pytest.fixture(scope="module")
def random_family():
    return random_maps(seed=20260816, count=200, max_edges=10)


def test_01_named_polynomials_and_k33_rotations():
    start = time.monotonic()
    assert s_poly(THETA_P) == qpoly({2: 1, 1: -3, 0: 2})
    assert s_poly(THETA_T) == qpoly({1: -2, 0: 2})
    k33 = k33_standard()
    assert flow_poly(k33) == product_of_roots([(1, 1), (2, 1)]) * qpoly(
        {2: 1, 1: -6, 0: 10}
    )
    standard = product_of_roots([(1, 1), (4, 1), (-5, 1)])
    assert s_poly(k33) == standard
    seen = set()
    for _subset, variant in k33.rotation_variants():
        seen.add(s_poly(variant, engine="state-sum"))
    expected = {
        standard,
        product_of_roots([(1, 1), (4, 1)]).scale(5),
        -product_of_roots([(1, 1), (4, 1), (5, 1)]),
    }
    assert seen == expected
    assert time.monotonic() - start < 10


def test_02_engine_agreement(small_family, random_family):
    start = time.monotonic()
    for m in small_family + random_family:
        s_state = s_poly(m, engine="state-sum")
        assert s_state == s_poly(m, engine="contraction-deletion")
        assert s_state == brauer_evaluate(m)
        assert flow_poly(m, engine="state-sum") == flow_poly(
            m, engine="contraction-deletion"
        )
    assert time.monotonic() - start < 300


def test_03_gramian_determinants():
    start = time.monotonic()
    expected = {
        2: [(1, 1)],
        3: [(4, 1), (1, 2), (0, 1)],
        4: [(9, 1), (4, 6), (1, 9), (0, 8)],
        5: [(16, 1), (9, 12), (4, 38), (1, 44), (0, 61)],
    }
    sizes = {2: 1, 3: 2, 4: 9, 5: 44}
    for n, factors in expected.items():
        assert len(gram_matrix(n)) == sizes[n]
        assert gram_det(n) == product_of_roots(factors)
    assert time.monotonic() - start < 600


def test_04_negligible_elements():
    start = time.monotonic()
    for q in (1, 4, 9, 16, 25):
        assert sym_negligible_verify(q) is True
    # the top partition alone is not negligible
    assert sym_negligible_verify(9, [(Fraction(1), (4,))]) is False
    assert time.monotonic() - start < 300


def test_05_specialization_identities(small_family, random_family):
    for m in small_family + random_family:
        b1 = m.euler_data().first_betti
        assert specialize_krushkal_to_s(krushkal_poly(m), b1) == s_poly(m)
    for m in small_family + random_family:
        if m.edge_count == 0:
            continue
        ed = m.euler_data()
        dual = m.geometric_dual()
        lhs = virtual_chromatic(m)
        rhs = s_poly(dual).retag("t").shift(2 * (ed.components - ed.genus))
        assert lhs == rhs


def test_06_special_values(small_family):
    for m in small_family:
        s = s_poly(m)
        if m.edge_count:
            assert s.evaluate(1) == 0
        assert s.evaluate(0) == flow_poly(m).evaluate(0)
        has_bridge = any(m.is_bridge(e) for e in range(m.edge_count))
        assert has_bridge == s.is_zero()
        assert has_bridge == (s.evaluate(0) == 0)
        report = degree_report(m)
        bound, degree = report.bound, report.degree
        assert s.is_zero() or degree <= bound
        if not report.has_coloop:
            assert report.attained and report.monic
    for m in MAP_FIXTURES.values():
        checks = special_value_checks(m)
        assert checks["passed"], checks
        s4 = s_poly_at(m, 4)
        for v in range(m.vertex_count):
            want = s4 if m.degree(v) % 2 == 0 else -s4
            assert s_poly_at(m.vertex_flip(v), 4) == want


def test_07_penrose_anchors():
    point = CombMap(((),), ())
    loop = CombMap(((0, 1),), ((0, 1),))
    assert w_so(point) == npoly({1: 1})
    assert w_so(loop) == npoly({2: 1, 1: -1})
    assert w_so(THETA_P) == npoly({3: 1, 2: -3, 1: 2})
    for e in range(THETA_P.edge_count):
        assert w_so(THETA_P.subdivide(e)) == w_so(THETA_P).scale(2)
    assert theta_sl_value(1) == npoly({4: 2, 2: -10, 0: 8})
    assert theta_sl_value(-1) == npoly({4: 2, 2: -2})
    assert w_sl_extended(THETA_P, signs=(1, -1)).is_zero()
    family = exhaustive_connected_maps(4)
    for m in family:
        signs = parity_signs(m)
        value = w_sl_extended(m, signs).evaluate(2)
        assert value == 2**m.vertex_count * s_poly_at(m, 4)
        if m.vertex_count and m.edge_count:
            off = list(signs)
            off[0] = -off[0]
            assert w_sl_extended(m, off).evaluate(2) == 0
        assert so_as_sl_check(m)["passed"]
    for m in exhaustive_connected_maps(5):
        assert w_sl_extended(m) == w_sl_flip_oracle(m, parity_signs(m))


def test_08_cellular_embedding_polynomial(cubic_census):
    assert cellular_embedding_poly(THETA_P) == HalfLaurent.from_dict(
        "x", {0: 2, 2: -2}
    )
    cubic_fixtures = [
        m
        for m in MAP_FIXTURES.values()
        if m.vertex_count and all(m.degree(v) == 3 for v in range(m.vertex_count))
    ]
    assert len(cubic_fixtures) >= 4
    for m in cubic_fixtures:
        assert cellular_embedding_poly(m).evaluate(1) == 0
    census = [m for v in (2, 4, 6, 8) for m in cubic_census[v]]
    bridgeless = [m for m in census if is_bridgeless(m)]
    assert len(bridgeless) >= 20
    for m in bridgeless:
        witness_exists = any(
            variant.genus() == 0 for _subset, variant in m.rotation_variants()
        )
        assert (cellular_embedding_poly(m).evaluate(0) != 0) == witness_exists
        if m.vertex_count <= 6:
            report = planarity_by_flips(m)
            assert (report["witness"] is not None) == witness_exists
            assert report["degree_coherent"] is True


def test_09_diagram_polynomial_moves():
    minus_two = HalfLaurent.from_dict("q", {2: -2, 0: -2, -2: -2})
    assert sp.yamada(THETA_T_AS_SPATIAL, "s") == minus_two
    assert sp.yamada(THETA_T_AS_SPATIAL, "f") == HalfLaurent.from_dict(
        "q", {4: 1, 2: 1, 0: 2, -2: 1, -4: 1}
    )

    instances = 0
    rng = random.Random(20260816)
    while instances < 16:  # pokes across a second strand
        d = seeded_diagram(rng, max_edges=4, crossings=rng.choice([0, 1]))
        site = random_r2_site(d, rng)
        if site is None:
            continue
        moved = sp.apply_move(d, "ii", site, over=rng.choice(["first", "second"]))
        assert sp.yamada(moved, "s") == sp.yamada(d, "s")
        assert sp.yamada(moved, "f") == sp.yamada(d, "f")
        instances += 1
    triangles = 0
    while triangles < 12:  # strand slides across a crossing
        m = random_connected_map(rng, rng.randint(3, 5))
        built = woven_triangle(
            m, rng, a_over=rng.choice([True, False]), r_over_b=rng.choice([True, False])
        )
        if built is None:
            continue
        d, site = built
        moved = sp.apply_move(d, "iii", site)
        assert sp.yamada(moved, "s") == sp.yamada(d, "s")
        assert sp.yamada(moved, "f") == sp.yamada(d, "f")
        triangles += 1
    instances += triangles
    sweeps = 0
    while sweeps < 16:  # strand sweeps across a whole vertex
        d = seeded_diagram(rng, max_edges=4, crossings=rng.choice([0, 1]))
        site = random_iv_site(d, rng)
        if site is None or d.base.degree(d.base.vertex_of[site[0]]) > 4:
            continue
        try:
            moved = sp.apply_move(
                d,
                "iv",
                site,
                over=rng.choice(["edge", "legs"]),
                side=rng.choice(["left", "right"]),
            )
        except sp.MoveError:
            continue
        assert sp.yamada(moved, "s") == sp.yamada(d, "s")
        assert sp.yamada(moved, "f") == sp.yamada(d, "f")
        sweeps += 1
    instances += sweeps
    for _ in range(8):  # purely virtual moves never touch the map
        d = seeded_diagram(rng, max_edges=3, crossings=1)
        assert sp.apply_move(d, "virtual") is d
        instances += 1
    assert instances >= 50

    roots_rs = [(1, 1), (2, 1), (3, 1), (3, 2)]
    roots_rf = roots_rs + [(4, 1), (4, 3)]
    examples = forbidden_examples(20260816, 8)
    assert len(examples) == 8
    for d, h in examples:
        moved = sp.forbidden_slide(d, h)
        for variant, roots in (("s", roots_rs), ("f", roots_rf)):
            before = sp.yamada(d, variant)
            after = sp.yamada(moved, variant)
            for n, k in roots:
                assert eval_cyclotomic(before, n, k, allow_nonprimitive=True) == (
                    eval_cyclotomic(after, n, k, allow_nonprimitive=True)
                )

    battery = [seeded_diagram(rng, max_edges=4, crossings=c) for c in (0, 1, 1, 2, 2)]
    for d in list(SPATIAL_FIXTURES.values()) + battery:
        checks = sp.special_evaluation_checks(d)
        assert checks["rs_minus_one_equals_s_at_zero"] is True
        assert checks["rs_one_equals_s_at_four"] is True
        if checks["obstruction_is_zero"]:
            assert checks["rf_one_equals_f_at_four"] is True


def test_10_golden_identity():
    classical = {
        "theta_plane": sp.crossingless_diagram(THETA_P),
        "k4_plane": K4_SPATIAL,
        "theta_curl": THETA_CURL,
        "theta_poked": THETA_R2,
        "theta_poked_twice": THETA_R2_TWICE,
    }
    poked_k4, _site = planar_r2(K4_SPATIAL)
    assert poked_k4 is not None
    classical["k4_poked"] = poked_k4
    crossing_counts = {d.crossing_count for d in classical.values()}
    assert max(crossing_counts) == 4
    for name, d in classical.items():
        assert d.base.genus() == 0, name
        assert sp.golden_identity_check(d) is True, name
    # a constructed virtual diagram breaks the identity
    assert THETA_T_AS_SPATIAL.base.genus() > 0
    report = sp.nonclassicality_report(THETA_T_AS_SPATIAL)
    assert report.verdict == "nonclassical" and report.cubic
    assert sp.golden_identity_check(THETA_T_AS_SPATIAL, allow_virtual=True) is False


def test_11_census_validation(cubic_census):
    total = 0
    for v in (2, 4, 6, 8, 10):
        for m in cubic_census[v]:
            total += 1
            poly = cellular_embedding_poly(m)
            assert poly.evaluate(1) == 0
            if is_bridgeless(m):
                witness_exists = any(
                    variant.genus() == 0 for _subset, variant in m.rotation_variants()
                )
                assert (poly.evaluate(0) != 0) == witness_exists
            else:
                assert poly.is_zero()
    assert total == 483


def _bridgeless_cubic_map(rng, v):
    """A connected bridgeless cubic map on v vertices: random stub pairing and rotations."""
    while True:
        stubs = list(range(3 * v))
        rng.shuffle(stubs)
        edges = tuple((stubs[2 * i], stubs[2 * i + 1]) for i in range(3 * v // 2))
        vertices = tuple(tuple(rng.sample(range(3 * k, 3 * k + 3), 3)) for k in range(v))
        m = CombMap(vertices, edges)
        if m.component_count == 1 and is_bridgeless(m):
            return m


def test_12_functor_on_large_cubic_maps():
    rng = random.Random(20261018)
    maps = [_bridgeless_cubic_map(rng, v) for v in (16, 16, 18, 18, 20)]
    assert [m.edge_count for m in maps] == [24, 24, 27, 27, 30]
    start = time.monotonic()
    values = [brauer_evaluate(m) for m in maps]
    assert time.monotonic() - start < 1
    # the check is contraction-deletion, which takes seconds per map here
    for m, value in zip(maps, values):
        assert value == s_poly(m, engine="contraction-deletion"), m


def test_12_chromatic_on_large_cubic_maps():
    # auto runs the pairing sweep over the map; contraction-deletion takes
    # seconds on the 30-edge map
    rng = random.Random(20261018)
    maps = [_bridgeless_cubic_map(rng, v) for v in (16, 16, 18, 18, 20)]
    start = time.monotonic()
    values = [virtual_chromatic(m) for m in maps]
    assert time.monotonic() - start < 1
    for m, value in zip(maps, values):
        assert value == chromatic_via_dual(m), m


def test_12_rank_polynomial_on_large_cubic_maps():
    # the rank polynomial runs on the frontier sweep; a 2^E walk would take
    # hours on the 30-edge map
    rng = random.Random(20261018)
    maps = [_bridgeless_cubic_map(rng, v) for v in (16, 16, 18, 18, 20)]
    start = time.monotonic()
    polys = [krushkal_poly(m) for m in maps]
    assert time.monotonic() - start < 2
    # the 24-edge map of test_12_s_poly_at_on_large_maps
    rng = random.Random(181)
    large = [random_connected_map(rng, e) for e in (20, 21, 22, 23, 24)][-1]
    start = time.monotonic()
    polys.append(krushkal_poly(large))
    assert time.monotonic() - start < 1
    for m, poly in zip(maps + [large], polys):
        assert specialize_krushkal_to_s(poly, m.euler_data().first_betti) == s_poly(m), m
    # P_G(X, Y, A, B) = P_G*(Y, X, B, A) in Krushkal's convention
    for m, poly in zip(maps, polys):
        assert krushkal_convention(m, poly) == krushkal_dual_terms(m), m


def test_12_s_poly_at_on_large_maps():
    # s_poly_at takes the engine that auto picks; a 2^E walk would take
    # minutes on the 30-edge map of test_12
    rng = random.Random(20261018)
    maps = [_bridgeless_cubic_map(rng, v) for v in (16, 16, 18, 18, 20)][-1:]
    rng = random.Random(181)
    maps += [random_connected_map(rng, e) for e in (20, 21, 22, 23, 24)]
    for m in maps:
        start = time.monotonic()
        value = s_poly_at(m, 4)
        assert time.monotonic() - start < 1, m
        assert value == s_poly(m).evaluate(4), m
    assert maps[0].edge_count == 30 and any(s_poly_at(m, 4) for m in maps[1:])


def test_13_rs_on_k33_with_seven_crossings():
    d = crossed_diagram(k33_standard(), random.Random(20261018), 7)
    assert d.crossing_count == 7
    start = time.monotonic()
    rs = sp.yamada(d, "s")
    assert time.monotonic() - start <= 1
    s = s_poly(sp.underlying_map(d), engine="state-sum")
    assert rs.evaluate(-1) == s.evaluate(0)  # rs_minus_one_equals_s_at_zero
    assert rs.evaluate(1) == s.evaluate(4)  # rs_one_equals_s_at_four


def test_14_rs_on_k4_with_six_crossings():
    d = crossed_diagram(complete_map(4), random.Random(20261018), 6)
    assert d.crossing_count == 6
    for mirror in (False, True):
        assert sp.yamada(d, "s", mirror=mirror) == yamada_resolution_oracle(d, mirror)
        assert sp.yamada(d, "f", mirror=mirror) == yamada_resolution_oracle(d, mirror, "f")


def test_15_rf_on_k33_with_seven_crossings():
    d = crossed_diagram(k33_standard(), random.Random(20261018), 7)
    assert d.crossing_count == 7
    start = time.monotonic()
    rf = sp.yamada(d, "f")
    assert time.monotonic() - start <= 1
    f = flow_poly(sp.underlying_map(d), engine="state-sum")
    assert rf.evaluate(-1) == f.evaluate(0)  # rf_minus_one_equals_f_at_zero
