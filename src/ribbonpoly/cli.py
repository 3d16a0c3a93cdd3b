"""Command-line front end.

Parses ``.vgf`` files, dispatches the polynomial engines, and emits canonical
text or JSON.  Exit codes: 0 success, 1 computation or input error, 2 usage
error.  Every subcommand that reads a file accepts ``--json`` to emit a report
``{"input_hash", "engine", "polynomials", "verdicts"}`` whose bytes are stable
for fixed input and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .brauer import brauer_evaluate, fpf_permutations, gram_det
from .fixtures import MAP_FIXTURES, bundled_fixture_paths
from .generate import cubic_maps, is_bridgeless
from .invariants import flow_poly, resolve_engine, s_poly, virtual_chromatic
from .maps import CombMap, InvalidMapError
from .penrose import cellular_embedding_poly, w_sl_extended, w_so
from .spatial import (
    MoveError,
    SpatialDiagram,
    crossingless_diagram,
    golden_identity_check,
    nonclassicality_report,
    obstruction_integral,
    obstruction_z2,
    yamada,
)
from .vgf import VgfError, input_hash, parse_vgf_file

_ENGINES = ("auto", "state-sum", "contraction-deletion", "brauer")


class CliError(Exception):
    """Computation-level failure: message on stderr, exit code 1."""


def _load(path: str) -> CombMap | SpatialDiagram:
    try:
        return parse_vgf_file(path)
    except VgfError as exc:
        raise CliError(str(exc)) from exc


def _load_map(path: str) -> CombMap:
    obj = _load(path)
    if isinstance(obj, SpatialDiagram):
        raise CliError(
            f"{path}: holds a spatial diagram; use the yamada, classify, golden or obstruction subcommand"
        )
    return obj


def _load_diagram(path: str) -> SpatialDiagram:
    obj = _load(path)
    if isinstance(obj, SpatialDiagram):
        return obj
    try:
        return crossingless_diagram(obj)
    except InvalidMapError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _report(obj, engine: str, polynomials: dict, verdicts: dict) -> str:
    payload = {
        "input_hash": None if obj is None else input_hash(obj),
        "engine": engine,
        "polynomials": polynomials,
        "verdicts": verdicts,
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def _cmd_invariant(args) -> int:
    m = _load_map(args.file)
    engine = args.engine
    if args.poly in ("s", "f"):
        used = resolve_engine(m, engine)
        poly = s_poly(m, used) if args.poly == "s" else flow_poly(m, used)
    else:
        if engine != "auto":
            raise CliError(f"--engine applies to --poly s or f, not {args.poly}")
        if args.poly == "chrom":
            poly, used = virtual_chromatic(m, engine="contraction-deletion"), "contraction-deletion"
        elif args.poly == "wso":
            poly, used = w_so(m), "corner-pairing"
        elif args.poly == "wsl":
            poly, used = w_sl_extended(m), "corner-pairing"
        else:
            poly, used = cellular_embedding_poly(m), "flip-sum"
    if args.json:
        print(_report(m, used, {args.poly: poly.render()}, {}))
    else:
        print(poly.render())
    return 0


def _cmd_yamada(args) -> int:
    d = _load_diagram(args.file)
    poly = yamada(d, variant=args.variant, mirror=args.mirror)
    if args.json:
        name = f"r{args.variant}"
        print(_report(d, "crossing-expansion", {name: poly.render()}, {}))
    else:
        print(poly.render())
    return 0


def _cmd_gramian(args) -> int:
    if not 2 <= args.n <= 6:
        raise CliError("supported range is 2 <= n <= 6")
    if args.det:
        poly = gram_det(args.n, allow_long=args.allow_long)
        if args.json:
            print(_report(None, "newton-interpolation", {"gram_det": poly.render()}, {}))
        else:
            print(poly.render())
        return 0
    size = len(fpf_permutations(args.n))
    if args.json:
        print(_report(None, "glue-pairing", {}, {"basis_size": size}))
    else:
        print(f"n={args.n} basis={size}")
    return 0


def _cmd_classify(args) -> int:
    d = _load_diagram(args.file)
    report = nonclassicality_report(d)
    if args.json:
        print(
            _report(
                d,
                "crossing-expansion",
                {"rs": report.rs.render(), "rf": report.rf.render()},
                {"verdict": report.verdict, "distinct": report.distinct, "cubic": report.cubic},
            )
        )
    else:
        print(report.verdict)
        print(f"rs: {report.rs.render()}")
        print(f"rf: {report.rf.render()}")
        print(report.detail)
    return 0


def _cmd_golden(args) -> int:
    d = _load_diagram(args.file)
    try:
        holds = golden_identity_check(d, allow_virtual=args.allow_virtual)
    except (InvalidMapError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    if args.json:
        print(_report(d, "cyclotomic", {}, {"golden": holds}))
    else:
        print("true" if holds else "false")
    return 0


def _cmd_obstruction(args) -> int:
    d = _load_diagram(args.file)
    cls = obstruction_integral(d) if args.integral else obstruction_z2(d)
    if args.json:
        engine = "hermite" if args.integral else "gf2-echelon"
        print(_report(d, engine, {"obstruction": cls.render()}, {"zero": cls.is_zero()}))
    else:
        print(cls.render())
    return 0


def _cmd_check(args) -> int:
    failures = []
    lines = []
    for name in sorted(MAP_FIXTURES):
        m = MAP_FIXTURES[name]
        s_state = s_poly(m, engine="state-sum")
        s_cd = s_poly(m, engine="contraction-deletion")
        s_br = brauer_evaluate(m)
        f_state = flow_poly(m, engine="state-sum")
        f_cd = flow_poly(m, engine="contraction-deletion")
        ok = s_state == s_cd == s_br and f_state == f_cd
        lines.append(f"{name}: {'ok' if ok else 'MISMATCH'}")
        if not ok:
            failures.append(name)
    verdicts = {"agree": not failures, "fixtures": len(lines)}
    if args.json:
        print(_report(None, "state-sum/contraction-deletion/brauer", {}, verdicts))
    else:
        for line in lines:
            print(line)
        print(f"{'ok' if not failures else 'MISMATCH'}: {len(lines)} fixtures")
    return 1 if failures else 0


def _cmd_enumerate(args) -> int:
    if not args.cubic:
        raise CliError("only the cubic census is implemented; pass --cubic")
    if args.max_vertices < 1:
        raise CliError("--max-vertices must be positive")
    if args.max_vertices > 8 and not args.allow_long:
        raise CliError("census beyond 8 vertices runs for a while; pass --allow-long")
    for v in range(2, args.max_vertices + 1, 2):
        for i, m in enumerate(cubic_maps(v)):
            poly = cellular_embedding_poly(m)
            bridgeless = "bridgeless" if is_bridgeless(m) else "bridged"
            print(f"v={v} i={i} {bridgeless} C(x) = {poly.render()}")
    return 0


def _cmd_fixtures(args) -> int:
    for name, path in bundled_fixture_paths().items():
        print(f"{name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonpoly",
        description="Exact polynomial invariants of maps in oriented surfaces and their spatial diagrams.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("invariant", help="polynomial of a plain map")
    p.add_argument("--poly", required=True, choices=("s", "f", "chrom", "wso", "wsl", "cemb"))
    p.add_argument(
        "--engine",
        default="auto",
        choices=_ENGINES,
        help="engine for --poly s or f; auto takes the state sum or the frontier sweep (brauer), "
        "whichever its cost estimate says is cheaper",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("yamada", help="spatial diagram polynomial")
    p.add_argument("--variant", required=True, choices=("s", "f"))
    p.add_argument("--mirror", action="store_true", help="swap the two smoothing coefficients")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_yamada)

    p = sub.add_parser("gramian", help="pairing Gramian of the point algebra")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--det", action="store_true")
    p.add_argument("--allow-long", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gramian)

    p = sub.add_parser("classify", help="classicality verdict for a spatial diagram")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("golden", help="check the golden evaluation identity")
    p.add_argument("--allow-virtual", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_golden)

    p = sub.add_parser("obstruction", help="crossing-parity cohomology class")
    p.add_argument("--integral", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("check", help="engine agreement on the bundled fixtures")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="stream census polynomials")
    p.add_argument("--cubic", action="store_true")
    p.add_argument("--max-vertices", required=True, type=int)
    p.add_argument("--allow-long", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("fixtures", help="list the bundled fixture files")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidMapError, MoveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - direct execution hook
    sys.exit(main())
