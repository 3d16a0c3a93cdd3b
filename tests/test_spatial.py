"""Diagram polynomials, moves, obstruction classes, and verdicts."""

import hashlib
import itertools
import random

import pytest

from helpers_oracles import (
    EDGE_CASES,
    map_key,
    obstruction_z2_oracle,
    q_polynomial_oracle,
    resolve_oracle,
    yamada_resolution_oracle,
    yamada_sweep_oracle,
)
from helpers_spatial import (
    crossed_diagram,
    forbidden_examples,
    random_iv_site,
    random_r2_site,
    seeded_diagram,
    woven_triangle,
)
from ribbonpoly import spatial as sp
from ribbonpoly.algebra import HalfLaurent, eval_cyclotomic, substitute_q_shift
from ribbonpoly.fixtures import (
    BOUQUET2_INT,
    K4,
    K4_SPATIAL,
    LOOP1,
    SPATIAL_FIXTURES,
    THETA_CURL,
    THETA_P,
    THETA_R2,
    THETA_R2_TWICE,
    THETA_T,
    THETA_T_AS_SPATIAL,
    TRIANGLE,
)
from ribbonpoly.generate import POINT, cubic_maps, exhaustive_connected_maps, random_connected_map
from ribbonpoly.invariants import clear_caches, flow_poly, s_poly
from ribbonpoly.maps import CombMap, InvalidMapError

# Evaluation points where the polynomials survive the strand-commuting move:
# roots of unity q = zeta_n^k with Q = q + 2 + q^{-1} in {0, 1, 2, 3}.
ROOTS_RS = [(1, 1), (2, 1), (3, 1), (3, 2)]
ROOTS_RF_EXTRA = [(4, 1), (4, 3)]


def poly(tag, data):
    return HalfLaurent.from_dict(tag, {2 * k: v for k, v in data.items()})


class TestYamadaValues:
    def test_nonclassical_theta_frozen(self):
        assert sp.yamada(THETA_T_AS_SPATIAL, "s") == poly("q", {1: -2, 0: -2, -1: -2})
        assert sp.yamada(THETA_T_AS_SPATIAL, "f") == poly(
            "q", {2: 1, 1: 1, 0: 2, -1: 1, -2: 1}
        )

    def test_loop_both_variants(self):
        d = sp.crossingless_diagram(LOOP1)
        expected = poly("q", {1: 1, 0: 1, -1: 1})
        assert sp.yamada(d, "s") == expected
        assert sp.yamada(d, "f") == expected

    # EDGE_CASES[:3] have isolated vertices, which the sweeps count themselves
    @pytest.mark.parametrize("m", [THETA_P, THETA_T, TRIANGLE, BOUQUET2_INT, K4, *EDGE_CASES[:3]])
    def test_crossingless_is_substituted_plane_polynomial(self, m):
        d = sp.crossingless_diagram(m)
        assert sp.yamada(d, "s") == substitute_q_shift(s_poly(m, engine="state-sum"))
        assert sp.yamada(d, "f") == substitute_q_shift(flow_poly(m, engine="state-sum"))

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            sp.yamada(THETA_CURL, "t")


class TestExpandCrossings:
    def test_state_counts(self):
        assert len(sp.expand_crossings(K4_SPATIAL)) == 1
        assert len(sp.expand_crossings(THETA_CURL)) == 3
        assert len(sp.expand_crossings(THETA_R2)) == 9

    def test_crossingless_expansion_is_identity(self):
        ((coeff, resolved),) = sp.expand_crossings(sp.crossingless_diagram(THETA_P))
        assert coeff == HalfLaurent.one("q")
        assert resolved.isomorphic(THETA_P)

    def test_single_crossing_coefficients(self):
        coeffs = sorted(term[0].render() for term in sp.expand_crossings(THETA_CURL))
        assert coeffs == ["-1", "q", "q^-1"]


def _resolve_battery(cubic_census) -> list:
    """The spatial fixtures, seeded diagrams, and crossed diagrams on census maps
    and on a theta with an isolated vertex."""
    rng = random.Random(229)
    diagrams = list(SPATIAL_FIXTURES.values())
    diagrams += [seeded_diagram(rng, max_edges=5, crossings=c) for c in (0, 1, 2, 3) * 3]
    census = [m for v in (2, 4, 6) for m in cubic_census[v]]
    diagrams += [crossed_diagram(rng.choice(census), rng, c) for c in (1, 2, 3, 4) * 4]
    diagrams += [crossed_diagram(THETA_P.disjoint_union(POINT), rng, c) for c in (1, 2)]
    return diagrams


class TestResolveOracle:
    @pytest.mark.parametrize("mirror", [False, True])
    def test_expansion_matches_oracle(self, mirror, cubic_census):
        circles = 0
        for d in _resolve_battery(cubic_census):
            states = itertools.product(sp._STATES, repeat=d.crossing_count)
            for (_coeff, resolved), state in zip(sp.expand_crossings(d, mirror), states, strict=True):
                junction: dict[int, int] = {}
                dropped: set[int] = set()
                for c, smoothing in zip(d.crossings, state):
                    if smoothing != "flat":
                        dropped.add(c.vertex)
                        cycle = d.base.vertices[c.vertex]
                        junction.update(sp._smoothing_pairs(cycle, c.over_pair, smoothing, mirror))
                want = map_key(resolve_oracle(d.base, junction, dropped))
                assert map_key(resolved) == want, (d, state)
                # each closed strand adds a one-vertex loop component
                circles += resolved.vertex_count - (d.base.vertex_count - len(dropped))
        assert circles >= 40

    def test_underlying_map_matches_oracle(self, cubic_census):
        for d in _resolve_battery(cubic_census):
            dropped = set(d.crossing_vertices())
            want = map_key(resolve_oracle(d.base, sp._pass_junction(d), dropped))
            assert map_key(sp.underlying_map(d)) == want, d


class TestSweep:
    @pytest.mark.parametrize("mirror", [False, True])
    def test_matches_resolution_oracle(self, mirror):
        rng = random.Random(211)
        diagrams = list(SPATIAL_FIXTURES.values())
        diagrams += [seeded_diagram(rng, max_edges=5, crossings=c) for c in (0, 1, 2, 3, 4) * 4]
        assert max(d.crossing_count for d in diagrams) == 4
        for d in diagrams:
            assert sp.yamada(d, "s", mirror=mirror) == yamada_resolution_oracle(d, mirror), d

    @pytest.mark.parametrize("mirror", [False, True])
    def test_rf_matches_resolution_oracle(self, mirror):
        rng = random.Random(223)
        diagrams = list(SPATIAL_FIXTURES.values())
        diagrams += [seeded_diagram(rng, max_edges=5, crossings=c) for c in (0, 1, 2, 3, 4) * 4]
        assert max(d.crossing_count for d in diagrams) == 4
        for d in diagrams:
            want = yamada_resolution_oracle(d, mirror, "f")
            assert sp.yamada(d, "f", mirror=mirror) == want, d

    @pytest.mark.parametrize("seed", [4, 8, pytest.param(5, marks=pytest.mark.slow)])
    def test_twelve_crossings_match_dict_tallies(self, seed):
        # the packed sweeps at the fitted q stride against the dict-tally
        # sweeps at the old one, on diagrams whose packed tallies once lost
        d = seeded_diagram(random.Random(seed), max_edges=14, crossings=12)
        assert d.crossing_count == 12
        for variant in ("s", "f"):
            assert sp.yamada(d, variant) == yamada_sweep_oracle(d, False, variant), variant
        clear_caches()

    def test_q_substitution_matches_per_power_oracle(self, monkeypatch):
        # the one integer pass against one substitute_q_shift per power of q,
        # on the R^S and R^F tallies that the sweeps hand over
        rng = random.Random(229)
        diagrams = [seeded_diagram(rng, max_edges=3, crossings=c) for c in range(13)]
        assert max(d.crossing_count for d in diagrams) == 12
        unpacked = []

        def recording(tally, stride):
            unpacked.append((tally, stride))
            return q_polynomial(tally, stride)

        q_polynomial = sp._q_polynomial
        monkeypatch.setattr(sp, "_q_polynomial", recording)
        clear_caches()
        for d in diagrams:
            for variant in ("s", "f"):
                sp.yamada(d, variant)
        clear_caches()
        assert len(unpacked) == 2 * len(set(diagrams))
        for tally, stride in unpacked:
            assert q_polynomial(tally, stride) == q_polynomial_oracle(tally, stride)
        # the Q window starts at Q^0, and a zero count is skipped
        # (stride 9: key -1 is q^{-1} Q^4, key 3 is Q^{3/2} at q^0)
        outcomes = [
            unpack(tally, 9)
            for tally in ({-1: 1, 3: 2}, {-1: 0, 3: 2})
            for unpack in (q_polynomial, q_polynomial_oracle)
        ]
        kept = substitute_q_shift(HalfLaurent.monomial("Q", 3, 2))
        below = substitute_q_shift(HalfLaurent.monomial("Q", 8)).shift(-2) + kept
        assert outcomes == [below, below, kept, kept]

    def test_partition_sweep_on_plain_maps(self):
        rng = random.Random(227)
        family = exhaustive_connected_maps(5) + EDGE_CASES
        family += [random_connected_map(rng, e) for e in range(6, 13) for _ in range(2)]
        for m in family:
            want = substitute_q_shift(flow_poly(m, engine="state-sum"))
            assert sp.yamada(sp.crossingless_diagram(m), "f") == want, m


class TestMirror:
    @pytest.mark.parametrize("d", [THETA_CURL, THETA_R2, THETA_T_AS_SPATIAL])
    @pytest.mark.parametrize("variant", ["s", "f"])
    def test_mirror_reflects_exponents(self, d, variant):
        assert sp.yamada(d, variant, mirror=True) == sp.yamada(d, variant).reflect(0)

    def test_switching_the_only_crossing_mirrors(self):
        h = next(
            h
            for h in range(THETA_CURL.base.half_edge_count)
            if THETA_CURL.base.vertex_of[h] in THETA_CURL.crossing_vertices()
        )
        switched = sp.crossing_change(THETA_CURL, h)
        assert sp.yamada(switched, "s") == sp.yamada(THETA_CURL, "s", mirror=True)


class TestMoves:
    def test_r2_fixture_pair(self):
        base = sp.crossingless_diagram(THETA_P)
        for d in (THETA_R2, THETA_R2_TWICE):
            for variant in ("s", "f"):
                assert sp.yamada(d, variant) == sp.yamada(base, variant)

    def test_r2_random_instances(self):
        rng = random.Random(11)
        done = 0
        while done < 4:
            d = seeded_diagram(rng, max_edges=4, crossings=rng.choice([0, 1]))
            site = random_r2_site(d, rng)
            if site is None:
                continue
            moved = sp.apply_move(d, "ii", site, over=rng.choice(["first", "second"]))
            assert sp.yamada(moved, "s") == sp.yamada(d, "s")
            assert sp.yamada(moved, "f") == sp.yamada(d, "f")
            assert sp.obstruction_z2(moved).rep == sp.obstruction_z2(d).rep
            done += 1

    def test_r3_random_instances(self):
        rng = random.Random(7)
        done = 0
        while done < 4:
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
            assert sp.obstruction_z2(moved).rep == sp.obstruction_z2(d).rep
            done += 1

    def test_vertex_sweep_random_instances(self):
        rng = random.Random(23)
        done = 0
        while done < 4:
            d = seeded_diagram(rng, max_edges=4, crossings=rng.choice([0, 1]))
            site = random_iv_site(d, rng)
            if site is None:
                continue
            if d.base.degree(d.base.vertex_of[site[0]]) > 4:
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
            done += 1

    def test_virtual_move_is_identity(self):
        assert sp.apply_move(THETA_CURL, "virtual") is THETA_CURL

    def test_virtualize_keeps_obstruction(self):
        d = sp.insert_crossing(sp.crossingless_diagram(THETA_P), 0, 2)
        h = next(
            h
            for h in range(d.base.half_edge_count)
            if d.base.vertex_of[h] in d.crossing_vertices()
        )
        flipped = sp.apply_move(d, "virtualize", (h,))
        assert sp.obstruction_z2(flipped).rep == sp.obstruction_z2(d).rep

    def test_site_arity_errors(self):
        with pytest.raises(sp.MoveError):
            sp.apply_move(THETA_CURL, "ii", (0,))
        with pytest.raises(sp.MoveError):
            sp.apply_move(THETA_CURL, "iii", (0, 1))
        with pytest.raises(ValueError):
            sp.apply_move(THETA_CURL, "nonsense", ())

    def test_r2_rejects_single_edge(self):
        d = sp.crossingless_diagram(THETA_P)
        h = d.base.alpha[0]
        with pytest.raises(sp.MoveError):
            sp.r2_insert(d, 0, h)

    def test_vertex_sweep_rejects_incident_edge(self):
        d = sp.crossingless_diagram(THETA_P)
        with pytest.raises(sp.MoveError):
            sp.move_iv_insert(d, 0, d.base.alpha[0])

    def test_forbidden_needs_crossings(self):
        d = sp.crossingless_diagram(THETA_P)
        with pytest.raises(sp.MoveError):
            sp.forbidden_slide(d, 0)

    def test_r3_rejects_open_triangle(self):
        # two woven crossings only: the site cannot close up
        d = sp.insert_crossing(sp.crossingless_diagram(THETA_P), 0, 2)
        h = next(iter(d.crossing_vertices()))
        halves = d.base.vertices[h]
        with pytest.raises(sp.MoveError):
            sp.r3_slide(d, halves[0], halves[1], halves[2])


class TestForbiddenMove:
    def test_roots_survive_but_polynomial_moves(self):
        examples = forbidden_examples(20260816, 4)
        assert len(examples) == 4
        changed = 0
        for d, h in examples:
            moved = sp.forbidden_slide(d, h)
            rs0, rs1 = sp.yamada(d, "s"), sp.yamada(moved, "s")
            rf0, rf1 = sp.yamada(d, "f"), sp.yamada(moved, "f")
            if rs0 != rs1:
                changed += 1
            for n, k in ROOTS_RS:
                assert eval_cyclotomic(rs0, n, k, allow_nonprimitive=True) == eval_cyclotomic(
                    rs1, n, k, allow_nonprimitive=True
                )
            for n, k in ROOTS_RS + ROOTS_RF_EXTRA:
                assert eval_cyclotomic(rf0, n, k, allow_nonprimitive=True) == eval_cyclotomic(
                    rf1, n, k, allow_nonprimitive=True
                )
            assert sp.obstruction_z2(moved).rep == sp.obstruction_z2(d).rep
            assert sp.obstruction_integral(moved).rep == sp.obstruction_integral(d).rep
        assert changed >= 1


class TestObstruction:
    def test_zero_examples(self):
        assert sp.obstruction_z2(sp.crossingless_diagram(THETA_P)).is_zero()
        assert sp.obstruction_z2(THETA_CURL).is_zero()
        assert sp.obstruction_z2(THETA_R2).is_zero()
        assert sp.obstruction_z2(sp.crossingless_diagram(THETA_P)).render() == "0"

    def test_single_crossing_class(self):
        d = sp.insert_crossing(sp.crossingless_diagram(THETA_P), 0, 2)
        cls = sp.obstruction_z2(d)
        assert not cls.is_zero()
        assert cls.modulus == 2
        assert cls.render() == "e0^e1"

    def test_integral_refinement(self):
        assert sp.obstruction_integral(THETA_R2).is_zero()
        assert sp.obstruction_integral(THETA_CURL).is_zero()
        d = sp.insert_crossing(sp.crossingless_diagram(THETA_P), 0, 2)
        assert not sp.obstruction_integral(d).is_zero()

    def test_matches_gf2_oracle(self):
        # random crossings as in the benchmark's diagrams: 0-6 crossings
        # between random distinct edges of flipped census maps, v <= 6
        census = [m for v in (2, 4, 6) for m in cubic_maps(v)]
        rng = random.Random(233)
        diagrams = list(SPATIAL_FIXTURES.values())
        for _ in range(300):
            m = rng.choice(census)
            m = m.flip_subset([v for v in range(m.vertex_count) if rng.random() < 0.5])
            diagrams.append(crossed_diagram(m, rng, rng.randint(0, 6)))
        digest = hashlib.sha256()
        for d in diagrams:
            assert sp.obstruction_z2(d).rep == obstruction_z2_oracle(d).rep, d
            digest.update(sp.obstruction_integral(d).render().encode() + b"\n")
        assert sum(not obstruction_z2_oracle(d).is_zero() for d in diagrams) == 183
        # pins the rendered integral class of every diagram
        assert digest.hexdigest() == "d245785cebac9f6ec582275b415c1964a84b2b3bd9b96dec289c537e64b97b6d"

    def test_integral_orientation_arity(self):
        with pytest.raises(ValueError):
            sp.obstruction_integral(THETA_CURL, orientations=(1,) * 99)


class TestSpecialEvaluations:
    FIXED = [
        "rs_minus_one_equals_s_at_zero",
        "rf_minus_one_equals_f_at_zero",
        "s_zero_equals_f_zero",
        "rs_one_equals_s_at_four",
        "obstruction_is_zero",
    ]

    @pytest.mark.parametrize("d", [THETA_R2, THETA_CURL, K4_SPATIAL])
    def test_classical_diagrams(self, d):
        checks = sp.special_evaluation_checks(d)
        assert all(checks[k] is True for k in self.FIXED)
        assert checks["rf_one_equals_f_at_four"] is True
        assert checks["flip_witness_sign_relation"] is True

    def test_nonclassical_theta_sign_relation(self):
        # The flip witness has one degree-3 vertex, so the two variants at
        # q = 1 differ by a sign; the identity still closes exactly.
        checks = sp.special_evaluation_checks(THETA_T_AS_SPATIAL)
        assert checks["obstruction_is_zero"] is True
        assert checks["rs_one_equals_s_at_four"] is True
        assert checks["rf_one_equals_f_at_four"] is True
        assert checks["flip_witness_sign_relation"] is True

    def test_random_woven_diagrams(self):
        rng = random.Random(5)
        for _ in range(6):
            d = seeded_diagram(rng, max_edges=4, crossings=rng.choice([1, 2]))
            checks = sp.special_evaluation_checks(d)
            assert all(checks[k] is True for k in self.FIXED[:4])
            if checks["obstruction_is_zero"]:
                assert checks["rf_one_equals_f_at_four"] is True
            else:
                assert checks["rf_one_equals_f_at_four"] is None
                assert checks["flip_witness_sign_relation"] is None


class TestNonclassicality:
    def test_nonclassical_cubic_diagram(self):
        report = sp.nonclassicality_report(THETA_T_AS_SPATIAL)
        assert report.verdict == "nonclassical"
        assert report.distinct and report.cubic
        assert "cubic" in report.detail
        assert report.rs == sp.yamada(THETA_T_AS_SPATIAL, "s")
        assert report.rf == sp.yamada(THETA_T_AS_SPATIAL, "f")

    def test_classical_diagram_is_inconclusive(self):
        report = sp.nonclassicality_report(sp.crossingless_diagram(THETA_P))
        assert report.verdict == "inconclusive"
        assert not report.distinct

    def test_noncubic_diagram_reports_cubic_flag(self):
        report = sp.nonclassicality_report(sp.crossingless_diagram(BOUQUET2_INT))
        assert report.cubic is False


class TestGoldenIdentity:
    @pytest.mark.parametrize(
        "d", [K4_SPATIAL, THETA_CURL, THETA_R2, THETA_R2_TWICE]
    )
    def test_classical_cubic_diagrams(self, d):
        assert sp.golden_identity_check(d) is True

    def test_crossingless_theta(self):
        assert sp.golden_identity_check(sp.crossingless_diagram(THETA_P)) is True

    def test_virtual_diagram_fails(self):
        assert sp.golden_identity_check(THETA_T_AS_SPATIAL, allow_virtual=True) is False

    def test_virtual_diagram_needs_opt_in(self):
        with pytest.raises(InvalidMapError):
            sp.golden_identity_check(THETA_T_AS_SPATIAL)

    def test_noncubic_rejected(self):
        with pytest.raises(InvalidMapError):
            sp.golden_identity_check(sp.crossingless_diagram(LOOP1))

    def test_values_agree_on_classical(self):
        lhs, rhs = sp.golden_identity_values(K4_SPATIAL)
        assert lhs == rhs


class TestUnderlyingMap:
    def test_moves_do_not_change_the_graph(self):
        assert sp.underlying_map(THETA_CURL).isomorphic(THETA_P)
        assert sp.underlying_map(THETA_R2).isomorphic(THETA_P)
        assert sp.underlying_map(THETA_T_AS_SPATIAL).isomorphic(THETA_T)

    def test_inserted_crossing_resolves_away(self):
        d = sp.insert_crossing(sp.crossingless_diagram(THETA_P), 0, 2)
        assert sp.underlying_map(d).isomorphic(THETA_P)


class TestDiagramValidation:
    def test_twisted_base_rejected(self):
        twisted = CombMap(THETA_P.vertices, THETA_P.edges, edge_twists=(0,))
        with pytest.raises(InvalidMapError):
            sp.SpatialDiagram(twisted, ())

    def test_crossing_degree(self):
        with pytest.raises(InvalidMapError):
            sp.SpatialDiagram(THETA_P, (sp.Crossing(0, (0, 2)),))

    def test_over_pair_must_be_opposite(self):
        d = THETA_CURL
        c = d.crossings[0]
        cycle = d.base.vertices[c.vertex]
        with pytest.raises(InvalidMapError):
            sp.SpatialDiagram(d.base, (sp.Crossing(c.vertex, (cycle[0], cycle[1])),))

    def test_duplicate_crossing_vertex(self):
        d = THETA_CURL
        with pytest.raises(InvalidMapError):
            sp.SpatialDiagram(d.base, d.crossings + d.crossings)

    def test_orientation_values(self):
        with pytest.raises(InvalidMapError):
            sp.SpatialDiagram(THETA_P, (), orientations=(2, 1, 1))
