"""The four workloads: their ops, and the checks that verify every output.

An op is one call into the public ribbonpoly API on one input.  Ops look up
the function on its module at call time, so the tracer's wrappers see them.
``setup`` does all input preparation (it is part of ``setup_s``); ``ops``
then yields the op list lazily, because the census ops depend on the maps
returned by the census itself.

Where the op order does not change the work, the seed and the pass index
order the ops, so each pass visits them in another order.  A short op runs
slower first in a pass or right after a large op (gram_det(3): 1.5 ms, there
1.7 ms); with one order per seed, that moved the median op from seed to seed,
while a median over passes in several orders does not.  Labels name inputs, not
positions, so an op keeps its label in every pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import ribbonpoly
from ribbonpoly import algebra, brauer, generate, invariants, maps, penrose, spatial, vgf

import inputs

WORKLOADS = ("state_sums", "contraction_deletion", "census", "gramian")

# Spatial fixtures shipped with the package; all but theta_t_as_spatial are
# classical diagrams (planar diagrams reached by Reidemeister-type moves).
SPATIAL_FIXTURES = ("theta_t_as_spatial", "theta_r2", "theta_r2_twice", "theta_curl", "k4_spatial")
CLASSICAL_FIXTURES = frozenset(SPATIAL_FIXTURES[1:])

# Known Gram determinants: (root, multiplicity) factors of det in Q.
GRAM_DET_ROOTS = {
    2: [(1, 1)],
    3: [(4, 1), (1, 2), (0, 1)],
    4: [(9, 1), (4, 6), (1, 9), (0, 8)],
}
CENSUS_SIZES = {2: 2, 4: 5, 6: 17, 8: 71}


@dataclass
class Op:
    label: str
    kind: str
    subject: Any
    call: Callable[[], Any]


def comb_map(raw: inputs.RawMap) -> maps.CombMap:
    return maps.CombMap(*raw)


def roundtrip(d: spatial.SpatialDiagram) -> spatial.SpatialDiagram:
    """The .vgf round-trip every diagram op starts with."""
    parsed = vgf.parse_vgf(vgf.serialize_vgf(d))
    vgf.input_hash(parsed)
    return parsed


# ---------------------------------------------------------------------------
# Workload definitions.
# ---------------------------------------------------------------------------

STATE_SUM_EDGES = (9, 10, 11, 12, 13)
DIAGRAM_PLAN = ((4, 2), (2, 3), (2, 4))  # (base cubic vertex count, crossings)
WSL_V6_SAMPLE = 1


def _random_diagram(rng, census, base_vertices: int, crossings: int) -> spatial.SpatialDiagram:
    base = inputs.flipped(rng.choice(census[base_vertices]), rng)
    d = spatial.crossingless_diagram(comb_map(base))
    for _ in range(crossings):
        e1, e2 = rng.sample(range(d.base.edge_count), 2)
        d = spatial.insert_crossing(
            d,
            rng.choice(d.base.edges[e1]),
            rng.choice(d.base.edges[e2]),
            over=rng.choice(("first", "second")),
            chirality=rng.choice((1, -1)),
        )
    return d


def setup_state_sums(seed: int, pass_index: int) -> Callable[[], Iterator[Op]]:
    # One fixed draw of inputs, ordered per pass.  Op latencies here
    # span 0.1 ms to 0.6 s, so a seeded draw moved the median and tail op by
    # more than any bound, and no state-sum op reuses another input's work.
    draw = inputs.rng_for(0, "state_sums_inputs")
    random_maps = [comb_map(inputs.random_map(draw, 2 * e // 3, e)) for e in STATE_SUM_EDGES]
    petersen = comb_map(inputs.petersen())
    census = inputs.small_cubic_census()
    wsl_maps = [comb_map(inputs.flipped(raw, draw)) for v in (2, 4) for raw in census[v]]
    wsl_maps += [comb_map(inputs.flipped(raw, draw)) for raw in draw.sample(census[6], WSL_V6_SAMPLE)]
    diagrams = [(f"random{i}", _random_diagram(draw, census, v, c)) for i, (v, c) in enumerate(DIAGRAM_PLAN)]
    fixture_dir = Path(ribbonpoly.__file__).parent / "fixtures"
    diagrams += [(name, vgf.parse_vgf_file(fixture_dir / f"{name}.vgf")) for name in SPATIAL_FIXTURES]
    rng = inputs.rng_for(seed, "state_sums", pass_index)
    random_maps = rng.sample(list(enumerate(random_maps)), len(random_maps))
    wsl_maps = rng.sample(list(enumerate(wsl_maps)), len(wsl_maps))
    rng.shuffle(diagrams)

    def ops() -> Iterator[Op]:
        for i, m in random_maps:
            tag = f"map{i}/E{m.edge_count}"
            yield Op(f"s_poly/{tag}", "s_poly", m, lambda m=m: invariants.s_poly(m))
            yield Op(f"flow_poly/{tag}", "flow_poly", m, lambda m=m: invariants.flow_poly(m))
            yield Op(f"w_so/{tag}", "w_so", m, lambda m=m: penrose.w_so(m))
            yield Op(f"krushkal_poly/{tag}", "krushkal_poly", m, lambda m=m: invariants.krushkal_poly(m))
            if m.edge_count <= 10:
                yield Op(f"brauer_evaluate/{tag}", "s_poly", m, lambda m=m: brauer.brauer_evaluate(m))
        yield Op(
            "s_poly_state_sum/petersen",
            "s_poly",
            petersen,
            lambda: invariants.s_poly(petersen, engine="state-sum"),
        )
        for i, m in wsl_maps:
            tag = f"cubic{i}/V{m.vertex_count}"
            yield Op(f"w_sl_extended/{tag}", "w_sl_extended", m, lambda m=m: penrose.w_sl_extended(m))
            yield Op(f"planarity_by_flips/{tag}", "planarity", m, lambda m=m: penrose.planarity_by_flips(m))
        for name, d in diagrams:
            tag = f"{name}/c{d.crossing_count}"
            subject = (name, d)
            yield Op(
                f"nonclassicality/{tag}",
                "nonclassicality",
                subject,
                lambda d=d: spatial.nonclassicality_report(roundtrip(d)),
            )
            yield Op(f"obstruction_z2/{tag}", "obstruction", subject, lambda d=d: spatial.obstruction_z2(roundtrip(d)))
            yield Op(
                f"obstruction_integral/{tag}",
                "obstruction",
                subject,
                lambda d=d: spatial.obstruction_integral(roundtrip(d)),
            )
            yield Op(
                f"golden/{tag}",
                "golden",
                subject,
                lambda d=d: spatial.golden_identity_check(roundtrip(d), allow_virtual=True),
            )

    return ops


# Contraction-deletion cost varies several-fold between random maps of one
# size, and op latencies here range from under 1 ms (a deletion whose minors
# are memoized) to about 0.5 s, so which maps are drawn moves every metric.
# The unrelated maps and the family are therefore one fixed draw, and the
# seed draws only the rotation system of K6, whose ops all sit at the top of
# the latency range, so no other op changes rank.  The op order is fixed too:
# it decides which op fills the memo and which op hits it.
CD_DRAW = "contraction_deletion_maps"
CD_UNRELATED = 4
CD_UNRELATED_SIZE = (12, 15)  # (vertices, edges)
CD_BASE_SIZE = (10, 15)
CD_DELETIONS = 3


def _deletable(raw: inputs.RawMap) -> list[int]:
    """Non-loop edges whose deletion leaves every degree at least 2."""
    vertex_of = {h: i for i, c in enumerate(raw[0]) for h in c}
    degree = inputs.degrees(raw)
    return [
        k
        for k, (a, b) in enumerate(raw[1])
        if vertex_of[a] != vertex_of[b] and min(degree[vertex_of[a]], degree[vertex_of[b]]) >= 3
    ]


def setup_contraction_deletion(seed: int, pass_index: int) -> Callable[[], Iterator[Op]]:
    draw = inputs.rng_for(0, CD_DRAW)
    unrelated = [(f"random{i}", comb_map(inputs.random_map(draw, *CD_UNRELATED_SIZE))) for i in range(CD_UNRELATED)]
    base = inputs.random_map(draw, *CD_BASE_SIZE)
    deleted = sorted(draw.sample(_deletable(base), CD_DELETIONS))
    family = [("family/base", comb_map(base))]
    family += [(f"family/del{k}", comb_map(inputs.delete_edge(base, k))) for k in deleted]

    rng = inputs.rng_for(seed, "contraction_deletion")
    named = [
        ("k6", comb_map(inputs.rotated(inputs.complete_graph(6), rng))),
        ("petersen", comb_map(inputs.petersen())),
    ]

    def ops() -> Iterator[Op]:
        for name, m in named + unrelated + family:
            tag = f"{name}/E{m.edge_count}"
            yield Op(f"s_poly/{tag}", "s_poly_cd", m, lambda m=m: invariants.s_poly(m))
            yield Op(f"flow_poly/{tag}", "flow_poly_cd", m, lambda m=m: invariants.flow_poly(m))
            yield Op(
                f"virtual_chromatic/{tag}", "virtual_chromatic", m, lambda m=m: invariants.virtual_chromatic(m)
            )

    return ops


CENSUS_VERTICES = (2, 4, 6, 8)


def setup_census(seed: int, pass_index: int) -> Callable[[], Iterator[Op]]:
    rng = inputs.rng_for(seed, "census", pass_index)

    def ops() -> Iterator[Op]:
        found: dict[int, list] = {}
        for v in CENSUS_VERTICES:
            yield Op(f"cubic_maps/v{v}", "cubic_maps", v, lambda v=v: found.setdefault(v, generate.cubic_maps(v)))
        order = [(v, i) for v in CENSUS_VERTICES for i in range(len(found.get(v, ())))]
        rng.shuffle(order)
        for v, i in order:
            m = found[v][i]
            tag = f"v{v}/{i}"
            yield Op(f"cemb/{tag}", "cemb", m, lambda m=m: penrose.cellular_embedding_poly(m))
            yield Op(f"g_min/{tag}", "g_min", m, lambda m=m: invariants.g_min(m))
            yield Op(f"is_bridgeless/{tag}", "bridgeless", m, lambda m=m: generate.is_bridgeless(m))

    return ops


# gram_det(5) (12 s), gram_matrix(5) (1 s) and sym_negligible_verify(25)
# (1.5 s) are left out.  gram_det(5) alone left two passes per run, too few
# for a steady median on a shared host, and the other two are state sums, not
# the Fraction evaluation and Bareiss loop this workload is for.  The ops left
# share no memoized work, so their order does not change the work.
GRAM_NEGLIGIBLE_Q = (1, 4, 9, 16)


def setup_gramian(seed: int, pass_index: int) -> Callable[[], Iterator[Op]]:
    rng = inputs.rng_for(seed, "gramian", pass_index)
    plan = [("gram_det", n) for n in GRAM_DET_ROOTS]
    plan += [("negligible", q) for q in GRAM_NEGLIGIBLE_Q]
    rng.shuffle(plan)
    calls = {
        "gram_det": lambda n: brauer.gram_det(n),
        "negligible": lambda q: brauer.sym_negligible_verify(q),
    }

    def ops() -> Iterator[Op]:
        for kind, arg in plan:
            yield Op(f"{kind}/{arg}", kind, arg, lambda kind=kind, arg=arg: calls[kind](arg))

    return ops


def setup_selftest(seed: int, pass_index: int) -> Callable[[], Iterator[Op]]:
    """Fixed inputs whose span counts have closed forms (run.py --selftest)."""
    rng = inputs.rng_for(seed, "selftest")
    state_maps = [comb_map(inputs.random_map(rng, e - 2, e)) for e in range(4, 9)]
    fixture_dir = Path(ribbonpoly.__file__).parent / "fixtures"
    diagrams = [vgf.parse_vgf_file(fixture_dir / f"{name}.vgf") for name in SPATIAL_FIXTURES]

    def ops() -> Iterator[Op]:
        for i, m in enumerate(state_maps):
            yield Op(f"s_poly/{i}", "s_poly", m, lambda m=m: invariants.s_poly(m, engine="state-sum"))
        for i, d in enumerate(diagrams):
            yield Op(f"expand_crossings/{i}", "expand", d, lambda d=d: spatial.expand_crossings(d))

    ops.expected_counts = {
        "subgraph_euler": sum(2**m.edge_count for m in state_maps),
        "resolutions": sum(3**d.crossing_count for d in diagrams),
    }
    return ops


SETUPS = {
    "state_sums": setup_state_sums,
    "contraction_deletion": setup_contraction_deletion,
    "census": setup_census,
    "gramian": setup_gramian,
    "selftest": setup_selftest,
}


def sanity_rows() -> dict[str, float]:
    """The ROADMAP baseline rows, each timed once with the memo caches cleared."""
    import time

    petersen = comb_map(inputs.petersen())
    rows = {}

    def timed(name: str, call: Callable[[], Any]) -> Any:
        invariants.clear_caches()
        start = time.perf_counter()
        out = call()
        rows[name] = time.perf_counter() - start
        return out

    timed("s_poly state-sum, Petersen", lambda: invariants.s_poly(petersen, engine="state-sum"))
    timed("s_poly contraction-deletion, Petersen", lambda: invariants.s_poly(petersen, engine="contraction-deletion"))
    timed("gram_det(5)", lambda: brauer.gram_det(5))
    census = timed("cubic_maps(8)", lambda: generate.cubic_maps(8))
    timed("cellular_embedding_poly over cubic_maps(8)", lambda: [penrose.cellular_embedding_poly(m) for m in census])
    return rows


# ---------------------------------------------------------------------------
# Rendering for output digests.
# ---------------------------------------------------------------------------


def render(value: Any) -> str:
    """Canonical text of an op output, stable across runs with the same hash seed."""
    if hasattr(value, "render"):
        return value.render()
    if isinstance(value, maps.CombMap):
        return vgf.serialize_vgf(value)
    if is_dataclass(value):
        return "{" + ", ".join(f"{f.name}: {render(getattr(value, f.name))}" for f in fields(value)) + "}"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {render(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(render(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render(v) for v in value) + "]"
    return repr(value)


# ---------------------------------------------------------------------------
# Independent cross-checks.  Each returns an error message or None.
# ---------------------------------------------------------------------------


def _q(data: dict[int, int]) -> algebra.HalfLaurent:
    return algebra.HalfLaurent.from_dict("Q", {2 * k: v for k, v in data.items()})


def _root_product(factors) -> algebra.HalfLaurent:
    out = algebra.HalfLaurent.one("Q")
    for root, mult in factors:
        out = out * (_q({1: 1, 0: -root}) ** mult)
    return out


def _raw_has_bridge(m: maps.CombMap) -> bool:
    """Bridge test by deletion and union-find, written independently of the package."""
    vertex_of = {h: i for i, c in enumerate(m.vertices) for h in c}
    ends = [(vertex_of[a], vertex_of[b]) for a, b in m.edges]

    def components(skip: int) -> int:
        parent = list(range(len(m.vertices)))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for k, (u, w) in enumerate(ends):
            if k != skip and find(u) != find(w):
                parent[find(u)] = find(w)
        return len({find(i) for i in range(len(parent))})

    whole = components(-1)
    return any(components(k) > whole for k in range(len(ends)))


class Verifier:
    """Runs the independent route for each op kind; caches shared results."""

    def __init__(self, seed: int, ops: list[Op]):
        self.seed = seed
        self._s_cd: dict = {}
        # The state sum costs about 1 s per 15-edge map, so one seeded
        # contraction-deletion input gets it; the others get cheaper identities.
        cd_maps = [op.subject for op in ops if op.kind == "s_poly_cd"]
        self.state_sum_map = inputs.rng_for(seed, "state_sum_check").choice(cd_maps) if cd_maps else None

    def s_cd(self, m: maps.CombMap) -> algebra.HalfLaurent:
        key = (m.vertices, m.edges)
        if key not in self._s_cd:
            self._s_cd[key] = invariants.s_poly(m, engine="contraction-deletion")
        return self._s_cd[key]

    def check(self, op: Op, out: Any) -> str | None:
        return getattr(self, "check_" + op.kind)(op.subject, out)

    # state_sums ------------------------------------------------------------
    def check_s_poly(self, m, out):
        if out != self.s_cd(m):
            return "S differs from contraction-deletion"
        return None

    def check_flow_poly(self, m, out):
        if out != invariants.flow_poly(m, engine="contraction-deletion"):
            return "flow differs from contraction-deletion"
        return None

    def check_krushkal_poly(self, m, out):
        b1 = m.edge_count - m.vertex_count + m.component_count
        if invariants.specialize_krushkal_to_s(out, b1) != self.s_cd(m):
            return "rank polynomial does not specialize to S"
        return None

    def check_w_so(self, m, out):
        # Every edge flips the sign of half the states, so W_so(1) = 0.
        if m.edge_count and out.evaluate(1) != 0:
            return "W_so(1) != 0"
        return None

    def check_w_sl_extended(self, m, out):
        if out != penrose.w_sl_brauer(m):
            return "w_sl_extended differs from w_sl_brauer"
        return None

    def check_planarity(self, m, out):
        if out["degree_coherent"] not in (True, None):
            return "flip witness disagrees with the degree of w_sl"
        if out["witness"] is not None and m.flip_subset(out["witness"]).genus() != 0:
            return "planarity witness is not planar"
        return None

    def check_nonclassicality(self, subject, out):
        name, d = subject
        beneath = spatial.underlying_map(d)
        s_under = self.s_cd(beneath)
        f_under = invariants.flow_poly(beneath, engine="contraction-deletion")
        if out.rs.evaluate(-1) != s_under.evaluate(0) or out.rs.evaluate(1) != s_under.evaluate(4):
            return "R^S special values disagree with S of the underlying map"
        if out.rf.evaluate(-1) != f_under.evaluate(0):
            return "R^F(-1) disagrees with the flow polynomial of the underlying map"
        if out.distinct != (out.rs != out.rf):
            return "distinct flag inconsistent"
        if name in CLASSICAL_FIXTURES and out.distinct:
            return "classical fixture reported nonclassical"
        return None

    def check_obstruction(self, subject, out):
        name, _d = subject
        if name in CLASSICAL_FIXTURES and not out.is_zero():
            return "classical fixture has a nonzero obstruction"
        return None

    def check_golden(self, subject, out):
        name, _d = subject
        if name in CLASSICAL_FIXTURES and out is not True:
            return "golden identity fails on a classical fixture"
        return None

    # contraction_deletion --------------------------------------------------
    def check_s_poly_cd(self, m, out):
        if out.evaluate(1) != 0:
            return "S(1) != 0"
        if out.evaluate(0) != invariants.flow_poly(m).evaluate(0):
            return "S(0) != F(0)"
        if m is self.state_sum_map and out != invariants.s_poly(m, engine="state-sum"):
            return "S differs from the state sum"
        return None

    def check_flow_poly_cd(self, m, out):
        if out.evaluate(1) != 0:
            return "F(1) != 0"
        if m is self.state_sum_map and out != invariants.flow_poly(m, engine="state-sum"):
            return "flow differs from the state sum"
        return None

    def check_virtual_chromatic(self, m, out):
        if out != invariants.chromatic_via_dual(m):
            return "virtual chromatic differs from the dual route"
        return None

    # census ------------------------------------------------------------------
    def check_cubic_maps(self, v, out):
        if len(out) != CENSUS_SIZES[v]:
            return f"census has {len(out)} maps, expected {CENSUS_SIZES[v]}"
        if any(len(c) != 3 for m in out for c in m.vertices) or any(
            m.vertex_count != v or m.component_count != 1 for m in out
        ):
            return "census map is not a connected cubic map on v vertices"
        return None

    def check_cemb(self, m, out):
        if out.evaluate(1) != 0:
            return "C(1) != 0"
        return None

    def check_g_min(self, m, out):
        genus, witness = out
        if m.flip_subset(witness).genus() != genus:
            return "g_min witness has another genus"
        if genus > m.genus():
            return "g_min above the genus of the unflipped rotation"
        return None

    def check_bridgeless(self, m, out):
        if out == _raw_has_bridge(m):
            return "bridge test disagrees with an independent union-find"
        return None

    # gramian -----------------------------------------------------------------
    def check_gram_det(self, n, out):
        if out != _root_product(GRAM_DET_ROOTS[n]):
            return "Gram determinant differs from its known factorization"
        return None

    def check_negligible(self, q, out):
        if out is not True:
            return f"negligible element at Q={q} does not pair to zero"
        return None


def load_expected(path: Path) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
