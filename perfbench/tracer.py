"""Spans around calls into ribbonpoly's public functions, installed from outside.

``install()`` replaces each listed function or method with a wrapper that
counts calls and measures self time: the span's duration minus the time of
traced spans it encloses.  Spans are kept in memory as per-name totals and
read once at the end.  The package source is not modified; ``uninstall()``
puts every original back.

The program is single-threaded and has no queues, so no layer ever waits on
another: the per-layer numbers have no wait-time component.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (metric name, module, attribute path).  Several attributes may share one
# metric name; their calls and self times are summed.
SPANS = [
    ("maps.construct", "maps", "CombMap.__post_init__"),
    ("maps.signature", "maps", "CombMap.signature"),
    ("maps.contract", "maps", "CombMap.contract"),
    ("maps.delete_edge", "maps", "CombMap.delete_edge"),
    ("maps.flip_subset", "maps", "CombMap.flip_subset"),
    ("maps.euler_data", "maps", "CombMap.euler_data"),
    ("invariants.subgraph_euler", "invariants", "subgraph_euler"),
    ("invariants.s_poly", "invariants", "s_poly"),
    ("invariants.flow_poly", "invariants", "flow_poly"),
    ("invariants.virtual_chromatic", "invariants", "virtual_chromatic"),
    ("invariants.s_poly_at", "invariants", "s_poly_at"),
    ("invariants.krushkal_poly", "invariants", "krushkal_poly"),
    ("invariants.g_min", "invariants", "g_min"),
    ("algebra.arith", "algebra", "HalfLaurent.__add__"),
    ("algebra.arith", "algebra", "HalfLaurent.__sub__"),
    ("algebra.arith", "algebra", "HalfLaurent.__mul__"),
    ("algebra.arith", "algebra", "HalfLaurent.scale"),
    ("algebra.arith", "algebra", "HalfLaurent.shift"),
    ("algebra.from_dict", "algebra", "HalfLaurent.from_dict"),
    ("algebra.evaluate", "algebra", "HalfLaurent.evaluate"),
    ("algebra.substitute", "algebra", "substitute_q_shift"),
    ("algebra.substitute", "algebra", "substitute_square"),
    ("algebra.cyclotomic", "algebra", "eval_cyclotomic"),
    ("algebra.cyclotomic", "algebra", "CyclotomicElement.__add__"),
    ("algebra.cyclotomic", "algebra", "CyclotomicElement.__mul__"),
    ("algebra.cyclotomic", "algebra", "CyclotomicElement.__pow__"),
    ("brauer.phi_evaluate", "brauer", "phi_evaluate"),
    ("brauer.matching_then", "brauer", "BrauerMatching.then"),
    ("brauer.glue_map", "brauer", "glue_map"),
    ("brauer.gram_matrix", "brauer", "gram_matrix"),
    ("brauer.gram_det", "brauer", "gram_det"),
    ("brauer.sym_pairing_at", "brauer", "sym_pairing_at"),
    ("penrose.w_so", "penrose", "w_so"),
    ("penrose.w_sl_extended", "penrose", "w_sl_extended"),
    ("penrose.cellular_embedding_poly", "penrose", "cellular_embedding_poly"),
    ("penrose.planarity_by_flips", "penrose", "planarity_by_flips"),
    ("spatial.expand_crossings", "spatial", "expand_crossings"),
    ("spatial.yamada", "spatial", "yamada"),
    ("spatial.obstruction", "spatial", "obstruction_z2"),
    ("spatial.obstruction", "spatial", "obstruction_integral"),
    ("spatial.nonclassicality", "spatial", "nonclassicality_report"),
    ("spatial.golden", "spatial", "golden_identity_check"),
    ("generate.cubic_maps", "generate", "cubic_maps"),
    ("generate.canonical_form", "generate", "canonical_form"),
    ("generate.is_bridgeless", "generate", "is_bridgeless"),
    ("vgf.parse", "vgf", "parse_vgf"),
    ("vgf.serialize", "vgf", "serialize_vgf"),
    ("vgf.serialize", "vgf", "input_hash"),
]

MODULES = ("maps", "invariants", "algebra", "brauer", "penrose", "spatial", "generate", "vgf")

# Memo dicts whose growth is reported as invariants.memo_entries.
MEMO_DICTS = ("_S_CACHE", "_FLOW_CACHE", "_CHROM_CACHE")


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.resolutions = 0
        self._stack: list[float] = []
        self._undo: list[Callable[[], None]] = []
        self._memo_start: int | None = None
        self.memo_entries: int | None = None
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        count_resolutions = name == "spatial.expand_crossings"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if count_resolutions:
                self.resolutions += len(result)
            return result

        return span

    def install(self) -> None:
        """Wrap every listed attribute; a renamed or removed one is recorded as missing."""
        package = [m for key, m in sys.modules.items() if key == "ribbonpoly" or key.startswith("ribbonpoly.")]
        for name, module_name, path in SPANS:
            owner = sys.modules.get(f"ribbonpoly.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{module_name}.{path}")
            elif outer:
                self._wrap_method(name, owner, attr)
            else:
                self._wrap_function(name, getattr(owner, attr), package)
        self._memo_start = _memo_size()

    def _wrap_function(self, name: str, original: Callable, package: list) -> None:
        wrapped = self._wrap(name, original)
        # Replace every reference, including names imported into other modules.
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(functools.partial(setattr, module, attr, original))

    def _wrap_method(self, name: str, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, functools.cached_property):
            wrapped: Any = functools.cached_property(self._wrap(name, original.func))
            wrapped.__set_name__(cls, attr)
        elif isinstance(original, staticmethod):
            wrapped = staticmethod(self._wrap(name, original.__func__))
        else:
            wrapped = self._wrap(name, original)
        setattr(cls, attr, wrapped)
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self) -> None:
        self.memo_entries = None if self._memo_start is None else _memo_delta(self._memo_start)
        while self._undo:
            self._undo.pop()()

    # -- report ----------------------------------------------------------------

    def report(self, wall_s: float) -> dict[str, Any]:
        """Per-span counts and self times, per-module self time, and shares of wall time."""
        modules = {m: 0.0 for m in MODULES}
        for name, seconds in self.self_s.items():
            modules[name.split(".")[0]] += seconds
        traced = sum(modules.values())
        return {
            "calls": dict(sorted(self.calls.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "module_self_s": modules,
            "untraced_s": wall_s - traced,
            "resolutions": self.resolutions,
            "memo_entries": self.memo_entries,
            "missing_spans": self.missing,
            "shares": {
                name: seconds / wall_s
                for name, seconds in sorted(self.self_s.items(), key=lambda kv: -kv[1])
            },
        }


def _memo_size() -> int | None:
    invariants = sys.modules["ribbonpoly.invariants"]
    dicts = [getattr(invariants, name, None) for name in MEMO_DICTS]
    if any(not isinstance(d, dict) for d in dicts):
        return None
    return sum(len(d) for d in dicts)


def _memo_delta(start: int) -> int | None:
    now = _memo_size()
    return None if now is None else now - start
