"""Map families, censuses, and the random model."""

import hashlib
import random

import pytest
from helpers_oracles import (
    canonical_form_oracle,
    cubic_census_bruteforce,
    cubic_census_candidates,
    cubic_census_unpruned_oracle,
    cubic_classes_full_search_oracle,
    exhaustive_by_permutations,
)

from ribbonpoly import generate
from ribbonpoly.generate import (
    POINT,
    bouquet,
    canonical_form,
    complete_map,
    cubic_maps,
    cubic_multigraph_census,
    cycle_map,
    dipole,
    exhaustive_connected_maps,
    is_bridgeless,
    k33_standard,
    petersen_map,
    random_maps,
)
from ribbonpoly.invariants import flow_poly, s_poly
from ribbonpoly.algebra import HalfLaurent


class TestExhaustive:
    def test_matches_permutation_oracle(self):
        fast = exhaustive_connected_maps(3)
        slow = exhaustive_by_permutations(3)
        assert {m.signature for m in fast} == {m.signature for m in slow}
        assert len(fast) == len(slow) == 28

    def test_level_counts(self):
        # 1 + 2 + 5 + 20 + 107 connected maps with at most four edges.
        family = exhaustive_connected_maps(4)
        assert len(family) == 135
        by_edges = {}
        for m in family:
            by_edges[m.edge_count] = by_edges.get(m.edge_count, 0) + 1
        assert by_edges == {0: 1, 1: 2, 2: 5, 3: 20, 4: 107}

    def test_all_connected_and_distinct(self):
        family = exhaustive_connected_maps(4)
        assert all(m.component_count == 1 for m in family)
        assert len({m.signature for m in family}) == len(family)

    def test_cap(self):
        with pytest.raises(ValueError):
            exhaustive_connected_maps(8)

    def test_order_digest(self):
        # Each level is sorted by signature, and fixtures such as
        # connect_sum_pairs draw from this order, so it is pinned as first
        # recorded.
        family = exhaustive_connected_maps(5)
        digest = hashlib.sha256(repr([(m.vertices, m.edges) for m in family]).encode()).hexdigest()
        assert digest == "09c4495ff56c98b4560603799f955bcc73389beb6b665aaf2fdfae0e0027bf02"


class TestNamedFamilies:
    def test_point(self):
        assert POINT.vertex_count == 1 and POINT.edge_count == 0

    def test_cycle(self):
        m = cycle_map(5)
        assert (m.vertex_count, m.edge_count, m.genus()) == (5, 5, 0)
        q_minus_1 = HalfLaurent.from_dict("Q", {2: 1, 0: -1})
        assert flow_poly(m) == q_minus_1

    def test_bouquet(self):
        m = bouquet(((0, 1), (2, 3)))
        assert m.vertex_count == 1 and m.edge_count == 2

    def test_dipole_pair(self):
        plain = dipole(3)
        assert {plain.genus(), plain.vertex_flip(1).genus()} == {0, 1}

    def test_complete_map(self):
        m = complete_map(4)
        assert (m.vertex_count, m.edge_count) == (4, 6)
        assert all(m.degree(v) == 3 for v in range(4))

    def test_k33(self):
        m = k33_standard()
        assert (m.vertex_count, m.edge_count) == (6, 9)
        assert all(m.degree(v) == 3 for v in range(6))
        # Bipartite: no loops, S(4) = 0 certifies nonplanarity via the flip law.
        assert not any(m.is_loop(e) for e in range(9))

    def test_petersen(self):
        m = petersen_map()
        assert (m.vertex_count, m.edge_count) == (10, 15)
        assert is_bridgeless(m)


class TestRandomModel:
    def test_deterministic(self):
        a = random_maps(seed=42, count=12, max_edges=9)
        b = random_maps(seed=42, count=12, max_edges=9)
        assert a == b

    def test_constraints(self):
        for m in random_maps(seed=5, count=30, max_edges=9):
            assert m.component_count == 1
            assert 1 <= m.edge_count <= 9
            assert not m.edge_twists


class TestCubicCensus:
    def test_counts(self, cubic_census):
        # Connected cubic multigraphs with loops allowed: OEIS A005967.
        counts = {v: len(maps) for v, maps in cubic_census.items()}
        assert counts == {2: 2, 4: 5, 6: 17, 8: 71, 10: 388}

    def test_count_at_twelve(self):
        # OEIS A005967; the digest pins the matrices and their order.
        census = cubic_multigraph_census(12)
        assert len(census) == 2592
        digest = hashlib.sha256(repr(census).encode()).hexdigest()
        assert digest == "24cc3d8e55b1571f5ee9f41e1a6f6c6ecf9e0dd5f3a5e61deb16b7bf0257ccf6"

    def test_equals_full_search_oracle(self):
        # Stopping repeats at their first leaf keeps every class, its first
        # matrix and the automorphisms its search found.
        for v in range(2, 11, 2):
            assert generate._cubic_classes(v) == cubic_classes_full_search_oracle(v), v

    def test_repeats_stop_at_first_leaf(self, monkeypatch):
        # At v = 8, 113 of the 184 candidates repeat a class, and every one
        # of them stops at its first leaf rather than falling back to its form.
        outcomes = []

        def counted(matrix, automorphisms=None, leaf_forms=None):
            form = canonical_form(matrix, automorphisms, leaf_forms)
            if len(matrix) == 8:
                outcomes.append(form)
            return form

        monkeypatch.setattr(generate, "canonical_form", counted)
        generate._cubic_classes(8)
        forms = [form for form in outcomes if form is not None]
        assert (len(outcomes), len(forms), len(set(forms))) == (184, 71, 71)

    def test_relabeled_copy_stops_at_first_leaf(self):
        rng = random.Random(27)
        for matrix in (m for v in (2, 4, 6, 8) for m in cubic_multigraph_census(v)):
            leaf_forms = set()
            assert canonical_form(matrix, None, leaf_forms) is not None
            for _ in range(2):
                assert canonical_form(_relabeled(matrix, rng), None, set(leaf_forms)) is None, matrix

    def test_classes_never_stop(self):
        # Distinct classes share no leaf form, so none of them stops.
        leaf_forms = set()
        for matrix in cubic_multigraph_census(8):
            assert canonical_form(matrix, None, leaf_forms) is not None, matrix
        assert len(leaf_forms) >= 71

    def test_leaf_forms_keep_forms_and_automorphisms(self):
        # The census classes share one set; each symmetric graph gets its own.
        shared_set = set()
        census = [(m, shared_set) for v in (2, 4, 6, 8) for m in cubic_multigraph_census(v)]
        symmetric = [(m, set()) for m in _symmetric_graphs().values()]
        for matrix, leaf_forms in census + symmetric:
            plain, shared = [], []
            form = canonical_form(matrix, plain)
            assert canonical_form(matrix, shared, leaf_forms) == form
            assert shared == plain, matrix

    def test_bruteforce_agreement(self):
        # Classes by the unpruned oracle form, apart from canonical_form.
        for v in (2, 4, 6):
            fast = [canonical_form_oracle(m) for m in cubic_multigraph_census(v)]
            slow = {canonical_form_oracle(m) for m in cubic_census_bruteforce(v)}
            assert len(set(fast)) == len(fast) and set(fast) == slow

    def test_equals_unpruned_oracle(self):
        # Growing once per site orbit keeps the same matrices in the same order.
        for v in range(2, 11, 2):
            assert cubic_multigraph_census(v) == cubic_census_unpruned_oracle(v), v

    def test_same_classes_as_oracle(self):
        # Every candidate list of the unpruned growth, for v = 4, 6, 8.
        batches = [cubic_census_candidates(v) for v in (4, 6, 8)]
        assert sorted(len(batch[0]) for batch in batches) == [4, 6, 8]
        assert sum(len(batch) for batch in batches) > 300

        def classes(batch, form):
            first: dict = {}
            return [first.setdefault(form(m), i) for i, m in enumerate(batch)]

        for batch in batches:
            assert classes(batch, canonical_form) == classes(batch, canonical_form_oracle)

    def test_reported_automorphisms(self):
        symmetric = _symmetric_graphs()
        census = [m for v in (2, 4, 6, 8) for m in cubic_multigraph_census(v)]
        for matrix in list(symmetric.values()) + census:
            automorphisms = []
            assert canonical_form(matrix, automorphisms) == canonical_form(matrix)
            v = len(matrix)
            for g in automorphisms:
                assert sorted(g) == list(range(v))
                assert all(matrix[g[i]][g[j]] == matrix[i][j] for i in range(v) for j in range(v))
        # On the edge-transitive graphs the census grows at one site only.
        for name in ("K4", "K33", "petersen"):
            automorphisms = []
            canonical_form(symmetric[name], automorphisms)
            assert len(generate._orbit_sites(symmetric[name], automorphisms)) == 1, name

    def test_invariant_under_relabeling(self):
        rng = random.Random(20261018)
        census = cubic_multigraph_census(10)
        forms = [canonical_form(m) for m in census]
        assert len(set(forms)) == len(census) == 388
        for matrix, form in zip(census, forms):
            for _ in range(3):
                assert canonical_form(_relabeled(matrix, rng)) == form, matrix

    def test_symmetric_graphs(self):
        # Large automorphism groups exercise the orbit pruning and the backjumps.
        graphs = _symmetric_graphs()
        rng = random.Random(3)
        forms = {}
        for name, matrix in graphs.items():
            forms[name] = canonical_form(matrix)
            for _ in range(10):
                assert canonical_form(_relabeled(matrix, rng)) == forms[name], name
        assert len(set(forms.values())) == len(graphs)

    def test_all_cubic_connected(self):
        for m in cubic_maps(6):
            assert all(m.degree(v) == 3 for v in range(m.vertex_count))
            assert m.component_count == 1

    def test_bridgeless_flag(self):
        theta = dipole(3)
        dumbbell = None
        for m in cubic_maps(2):
            if any(m.is_loop(e) for e in range(m.edge_count)):
                dumbbell = m
        assert is_bridgeless(theta)
        assert dumbbell is not None and not is_bridgeless(dumbbell)


def _relabeled(matrix, rng):
    order = list(range(len(matrix)))
    rng.shuffle(order)
    return tuple(tuple(matrix[i][j] for j in order) for i in order)


def _symmetric_graphs():
    def ring(n, step):
        return [(i, (i + step) % n) for i in range(n)]

    def prism(n, step):
        # an n-cycle and an n-cycle of the given step, joined by spokes
        inner = [(i + n, j + n) for i, j in ring(n, step)]
        return _adjacency(2 * n, ring(n, 1) + inner + [(i, i + n) for i in range(n)])

    return {
        "K4": _adjacency(4, ring(4, 1) + ring(4, 2)[:2]),
        "K33": _adjacency(6, [(i, j) for i in range(3) for j in range(3, 6)]),
        "prism": prism(3, 1),
        "petersen": prism(5, 2),
        "5-prism": prism(5, 1),
        "necklace": _adjacency(8, ring(8, 1) + ring(8, 1)[::2]),
    }


def _adjacency(v, edges):
    matrix = [[0] * v for _ in range(v)]
    for i, j in edges:
        matrix[i][j] += 1
        if i != j:
            matrix[j][i] += 1
    assert all(sum(row) + row[k] == 3 for k, row in enumerate(matrix))
    return tuple(tuple(row) for row in matrix)
