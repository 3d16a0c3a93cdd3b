"""The names the benchmark tracer reads from the package.

``perfbench/tracer.py`` wraps functions and methods by name and reads the
contraction-deletion memos by name.  A renamed span drops its per-layer
numbers, and a missing memo drops ``invariants.memo_entries``, without any
error.  This test runs the tracer's own ``install`` against the package and
fails on either.
"""

import types
from pathlib import Path

import ribbonpoly  # noqa: F401  (the tracer finds the modules in sys.modules)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Spans whose targets were removed before the tracer was last updated.
STALE_SPANS = {"invariants.subgraph_euler", "algebra.substitute_square"}


def _load_tracer() -> types.ModuleType:
    # compiled from the source text, so nothing is written under perfbench/
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_finds_its_spans_and_memos():
    tracer = _load_tracer()
    traced = tracer.Tracer()
    traced.install()
    try:
        assert set(traced.missing) <= STALE_SPANS, traced.missing
        assert tracer._memo_size() is not None
    finally:
        traced.uninstall()


def test_state_sum_walks_once_per_call(monkeypatch):
    # A selftest can count the state sum by its ``_cut_exponents`` calls,
    # with a closed form of one call per ``s_poly(..., engine="state-sum")``.
    from ribbonpoly import invariants
    from ribbonpoly.generate import complete_map, cycle_map, petersen_map
    from ribbonpoly.maps import CombMap

    walk = invariants._cut_exponents
    calls = []

    def counted(m, joined):
        calls.append(m)
        return walk(m, joined)

    monkeypatch.setattr(invariants, "_cut_exponents", counted)
    for m in (CombMap((), ()), cycle_map(3), complete_map(4), cycle_map(7), petersen_map()):
        calls.clear()
        invariants.s_poly(m, engine="state-sum")
        assert calls == [m], m
