"""Combinatorial map structure, surgeries, and canonical forms."""

import random

import pytest
from helpers_oracles import (
    EDGE_CASES,
    face_count_oracle,
    is_bridge_oracle,
    signature_oracle,
    surgery_outcome,
    vertex_connect_sum_oracle,
)

from ribbonpoly.algebra import HalfLaurent
from ribbonpoly.generate import POINT, dipole, exhaustive_connected_maps, random_maps
from ribbonpoly.invariants import flow_poly
from ribbonpoly.maps import (
    CombMap,
    ConnectSumError,
    InvalidMapError,
    diagnose,
    edge_connect_sum,
    resolve_strands,
    vertex_connect_sum,
)

LOOP1 = CombMap(((0, 1),), ((0, 1),))
BOUQUET2_INT = CombMap(((0, 2, 1, 3),), ((0, 1), (2, 3)))
BRIDGE = CombMap(((0,), (1,)), ((0, 1),))
THETA_P = dipole(3) if dipole(3).genus() == 0 else dipole(3).vertex_flip(1)
THETA_T = THETA_P.vertex_flip(1)


def oracle_face_count(m: CombMap) -> int:
    """Independent orbit count of h -> sigma(alpha(h)) for twist-free maps.

    Built straight from the raw vertex and edge tuples so it shares nothing
    with the CombMap traversal code.
    """
    assert not m.edge_twists
    succ = {}
    for cycle in m.vertices:
        for i, h in enumerate(cycle):
            succ[h] = cycle[(i + 1) % len(cycle)]
    mate = {}
    for a, b in m.edges:
        mate[a] = b
        mate[b] = a
    seen = set()
    faces = 0
    for start in succ:
        if start in seen:
            continue
        faces += 1
        h = start
        while h not in seen:
            seen.add(h)
            h = succ[mate[h]]
    return faces + sum(1 for cycle in m.vertices if not cycle)


class TestStructure:
    def test_loop1(self):
        data = LOOP1.euler_data()
        assert (data.vertices, data.edges, data.faces, data.genus) == (1, 1, 2, 0)

    def test_bouquet2_interlaced(self):
        data = BOUQUET2_INT.euler_data()
        assert (data.faces, data.genus) == (1, 1)
        assert BOUQUET2_INT.interlaced(0, 1)

    def test_face_oracle_agreement(self):
        family = [LOOP1, BOUQUET2_INT, BRIDGE, THETA_P, THETA_T]
        family += random_maps(seed=7, count=25, max_edges=8)
        for m in family:
            assert m.face_count == oracle_face_count(m), m

    def test_face_count_matches_oracle(self):
        rng = random.Random(181)
        twisted = []
        for m in random_maps(seed=181, count=120, max_edges=8):
            if m.edge_count:
                mask = rng.getrandbits(m.edge_count) or 1
                chosen = frozenset(e for e in range(m.edge_count) if mask >> e & 1)
                twisted.append(CombMap(m.vertices, m.edges, None, chosen))
        twisted += [m.disjoint_union(POINT) for m in twisted[:10]]
        for m in exhaustive_connected_maps(5) + EDGE_CASES + twisted:
            assert m.face_count == face_count_oracle(m), m
        # an odd Euler defect: the walk also counts faces of non-orientable maps
        assert sum(1 for m in twisted if (m.edge_count - m.vertex_count - m.face_count) % 2) >= 10

    def test_theta_pair_genera(self):
        assert THETA_P.genus() == 0
        assert THETA_T.genus() == 1

    def test_component_count(self):
        two = LOOP1.disjoint_union(BRIDGE)
        assert two.component_count == 2
        assert two.euler_data().first_betti == 1


class TestCanonicalization:
    def test_relabeled_cycle_rotation(self):
        a = CombMap(((1, 0),), ((0, 1),))
        assert a == LOOP1

    def test_vertex_order(self):
        a = CombMap(((1,), (0,)), ((0, 1),))
        assert a == BRIDGE

    def test_isomorphic_with_different_labels(self):
        relabeled = CombMap(((3, 1, 2, 0),), ((3, 2), (1, 0)))
        assert relabeled.isomorphic(BOUQUET2_INT)

    def test_signature_separates(self):
        plain = CombMap(((0, 1, 2, 3),), ((0, 1), (2, 3)))
        assert plain.signature != BOUQUET2_INT.signature
        assert plain.genus() == 0

    def test_signature_matches_oracle(self):
        # The early exit must keep the exact values: the exhaustive family is
        # sorted by signature, and the census deduplicates on it.
        for m in exhaustive_connected_maps(5) + EDGE_CASES:
            assert m.signature == signature_oracle(m), m
        rng = random.Random(73)
        for m in random_maps(seed=79, count=40, max_edges=12):
            signs = tuple(rng.choice((1, -1)) for _v in m.vertices)
            twists = frozenset(e for e in range(m.edge_count) if rng.random() < 0.4)
            for variant in (CombMap(m.vertices, m.edges, signs, twists), m.delete_edge(0)):
                assert variant.signature == signature_oracle(variant), variant

    def test_diagnose_messages(self):
        assert diagnose(((0, 1), (1,)), ((0, 1),))[0] == "half-edge 1 appears at vertices 0 and 1"
        with pytest.raises(InvalidMapError):
            CombMap(((0, 3),), ((0, 3),))
        with pytest.raises(InvalidMapError):
            CombMap(((0, 1),), ((0, 0),))


class TestSurgery:
    def test_delete_edge(self):
        assert BOUQUET2_INT.delete_edge(1).isomorphic(LOOP1)
        # Deleting the loop of LOOP1 leaves an isolated vertex.
        assert LOOP1.delete_edge(0).vertex_count == 1
        assert LOOP1.delete_edge(0).edge_count == 0

    def test_subdivide(self):
        divided = LOOP1.subdivide(0)
        assert (divided.vertex_count, divided.edge_count) == (2, 2)
        assert divided.genus() == 0

    def test_vertex_flip_involution(self):
        assert THETA_T.vertex_flip(1) == THETA_P
        for m in random_maps(seed=9, count=10, max_edges=6):
            assert m.vertex_flip(0).vertex_flip(0) == m

    def test_vertex_flip_keeps_vertex_index(self):
        # canonical order sorts vertices by their least half-edge, which a flip keeps
        family = exhaustive_connected_maps(5) + random_maps(seed=191, count=40, max_edges=9)
        for m in family:
            for v in range(m.vertex_count):
                assert sorted(m.vertex_flip(v).vertices[v]) == sorted(m.vertices[v]), (m, v)

    def test_partial_dual_involution(self):
        for m in [LOOP1, BOUQUET2_INT, THETA_P, THETA_T]:
            for e in range(m.edge_count):
                assert m.partial_dual(e).partial_dual(e).isomorphic(m)

    def test_partial_dual_swaps_loop_and_coloop(self):
        assert LOOP1.partial_dual(0).isomorphic(BRIDGE)
        assert BOUQUET2_INT.is_coloop(0) and BOUQUET2_INT.is_coloop(1)
        assert not LOOP1.is_coloop(0)

    def test_geometric_dual(self):
        dual = LOOP1.geometric_dual()
        assert dual.edge_count == 1 and dual.genus() == 0
        assert THETA_P.geometric_dual().geometric_dual().isomorphic(THETA_P)

    def test_contract_loop_splits_vertex(self):
        contracted = LOOP1.contract(0)
        assert contracted.vertex_count == 2 and contracted.edge_count == 0

    def test_contract_ordinary_edge(self):
        contracted = BRIDGE.contract(0)
        assert contracted.vertex_count == 1 and contracted.edge_count == 0

    def test_edge_classification(self):
        assert LOOP1.is_loop(0) and not LOOP1.is_bridge(0)
        assert BRIDGE.is_bridge(0)
        assert THETA_P.is_coloop(0) is False

    def test_bridge_matches_oracle(self, cubic_census):
        family = exhaustive_connected_maps(5) + EDGE_CASES
        family += [m for v in sorted(cubic_census) for m in cubic_census[v]]
        bridges = 0
        for m in family:
            for e in range(m.edge_count):
                assert m.is_bridge(e) == is_bridge_oracle(m, e), (m, e)
                bridges += m.is_bridge(e)
        assert bridges >= 100


class TestTwists:
    def test_toggle_twist_changes_faces(self):
        twisted = LOOP1.toggle_twist(0)
        assert twisted.edge_twists == frozenset({0})
        assert twisted.face_count != LOOP1.face_count

    def test_double_toggle_restores(self):
        assert LOOP1.toggle_twist(0).toggle_twist(0) == LOOP1

    def test_twist_survives_canonicalization(self):
        m = CombMap(((0, 1, 2), (3, 4, 5)), ((0, 3), (1, 4), (2, 5)), None, frozenset({2}))
        assert m.edge_twists == frozenset({2})


class TestRotationVariants:
    def test_flip_census_size(self):
        variants = list(THETA_P.rotation_variants())
        assert len(variants) == 4
        genera = sorted(v.genus() for _, v in variants)
        assert genera == [0, 0, 1, 1]


Q_MINUS_1 = HalfLaurent.variable("Q") - HalfLaurent.one("Q")
Q_MINUS_2 = HalfLaurent.variable("Q") - HalfLaurent.constant("Q", 2)


def _trivalent(m):
    return [v for v in range(m.vertex_count) if m.degree(v) == 3]


class TestConnectSums:
    """Edge and vertex connect sums: sizes, and the flow polynomial across 2- and 3-edge cuts."""

    def test_edge_sum(self, connect_sum_pairs):
        rng = random.Random(149)
        for m1, m2 in connect_sum_pairs:
            for _ in range(2):
                a, b = m1.edges[rng.randrange(m1.edge_count)]
                e2 = m2.edges[rng.randrange(m2.edge_count)]
                e1 = (a, b) if rng.random() < 0.5 else (b, a)
                joined = edge_connect_sum(m1, e1, m2, e2)
                # No half-edge is lost, so the labels stay; the stubs join first to first.
                shift = m1.half_edge_count
                for x, y in zip(e1, e2):
                    assert tuple(sorted((x, y + shift))) in joined.edges
                assert joined.edge_count == m1.edge_count + m2.edge_count
                assert joined.vertex_count == m1.vertex_count + m2.vertex_count
                assert joined.component_count == 1
                assert Q_MINUS_1 * flow_poly(joined) == flow_poly(m1) * flow_poly(m2), (m1, e1, m2, e2)

    def test_vertex_sum(self, connect_sum_pairs):
        rng = random.Random(151)
        for m1, m2 in connect_sum_pairs:
            v1, v2 = rng.choice(_trivalent(m1)), rng.choice(_trivalent(m2))
            h1 = rng.choice(m1.vertices[v1])
            for h2 in m2.vertices[v2]:
                joined = vertex_connect_sum(m1, v1, h1, m2, v2, h2)
                assert joined.edge_count == m1.edge_count + m2.edge_count - 3
                assert joined.vertex_count == m1.vertex_count + m2.vertex_count - 2
                want = flow_poly(m1) * flow_poly(m2)
                assert Q_MINUS_1 * Q_MINUS_2 * flow_poly(joined) == want, (m1, v1, h1, m2, v2, h2)

    def test_vertex_sum_refusals(self):
        # a loop and a pendant edge at a trivalent vertex
        lollipop = CombMap(((0, 1, 2), (3,)), ((0, 1), (2, 3)))
        with pytest.raises(ConnectSumError, match="vertex-free circle"):
            vertex_connect_sum(lollipop, 0, 2, lollipop, 0, 2)
        with pytest.raises(ConnectSumError, match="trivalent"):
            vertex_connect_sum(lollipop, 1, 3, lollipop, 0, 2)
        with pytest.raises(ConnectSumError, match="designated half-edge"):
            vertex_connect_sum(lollipop, 0, 3, lollipop, 0, 2)

    def test_vertex_sum_matches_oracle(self, connect_sum_pairs):
        rng = random.Random(193)
        checked = 0
        for m1, m2 in connect_sum_pairs:
            twists = [frozenset(e for e in range(m.edge_count) if rng.random() < 0.3) for m in (m1, m2)]
            variants = [
                (m1, m2),
                tuple(CombMap(m.vertices, m.edges, None, t) for m, t in zip((m1, m2), twists)),
                tuple(CombMap(m.vertices, m.edges, [rng.choice((1, -1)) for _ in m.vertices]) for m in (m1, m2)),
                (m1.disjoint_union(POINT), m2),
            ]
            for g1, g2 in variants:
                v1, v2 = rng.choice(_trivalent(g1)), rng.choice(_trivalent(g2))
                h1 = rng.choice(g1.vertices[v1])
                for h2 in g2.vertices[v2]:
                    args = (g1, v1, h1, g2, v2, h2)
                    want = surgery_outcome(vertex_connect_sum_oracle, *args)
                    assert surgery_outcome(vertex_connect_sum, *args) == want, args
                    checked += 1
        assert checked == 4 * 3 * len(connect_sum_pairs)
        lollipop = CombMap(((0, 1, 2), (3,)), ((0, 1), (2, 3)))
        for args in ((0, 2, lollipop, 0, 2), (1, 3, lollipop, 0, 2), (0, 3, lollipop, 0, 2)):
            want = surgery_outcome(vertex_connect_sum_oracle, lollipop, *args)
            assert want[0] == "refused"
            assert surgery_outcome(vertex_connect_sum, lollipop, *args) == want

    def test_resolve_strands(self):
        alpha = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
        # 1 and 2 are fused: the strand runs 0 - 1 = 2 - 3.
        assert resolve_strands(alpha, {1: 2, 2: 1}, set()) == ([(0, 3, 0)], 0)
        assert resolve_strands(alpha, {1: 2, 2: 1}, {2, 3}) == ([(0, 3, 1)], 0)
        # Two twists on one strand cancel; a chain runs through two junctions.
        chain = {1: 2, 2: 1, 3: 4, 4: 3}
        assert resolve_strands(alpha, chain, {0, 1, 4, 5}) == ([(0, 5, 0)], 0)
        # Fusing both ends of one edge closes it into a circle.
        assert resolve_strands(alpha, {2: 3, 3: 2}, set()) == ([], 1)
