"""Record the output corpus: one sha256 per CLI call and per library call.

``tests/test_output_corpus.py`` recomputes every digest with ``corpus()``
and names the first call whose output differs from
``tests/data/output_corpus.json``.  Run this script to rewrite that file:

    PYTHONPATH=src python tests/data/record_output_corpus.py

Only a change that says it changes the command line (its bytes, exit codes
or ``--json`` reports) or the library's rendered outputs may rerun it, and
it must say so where it records the change.  Every other change leaves the
file as it is, and the test shows which bytes it moved.

CLI rows run ``cli.main`` in-process over the bundled fixtures and record
stdout, stderr and the exit code, with the fixture directory written as
``<fixtures>``.  ``--help`` text depends on argparse, so those rows are kept
apart with the Python version that recorded them.  Library rows render S,
flow and the chromatic polynomial under every engine name, and the
``ValueError`` text of unknown engines and twisted inputs, each row over one
family of maps.  The spatial rows record the ``.vgf`` text and ``input_hash``
of every bundled fixture and 20 seeded diagrams, and the ``repr`` of both
sides of the golden identity on the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path[:0] = [str(DATA.parent), str(DATA.parent.parent / "src")]

from helpers_oracles import EDGE_CASES  # noqa: E402
from helpers_spatial import crossed_diagram, seeded_diagram  # noqa: E402

from ribbonpoly import cli  # noqa: E402
from ribbonpoly.fixtures import ALL_FIXTURES, LOOP1, TRIANGLE, bundled_fixture_paths, fixture_dir  # noqa: E402
from ribbonpoly.generate import cubic_maps, exhaustive_connected_maps, random_connected_map  # noqa: E402
from ribbonpoly.invariants import (  # noqa: E402
    flow_poly,
    resolve_engine,
    s_poly,
    s_poly_at,
    virtual_chromatic,
)
from ribbonpoly.maps import CombMap  # noqa: E402
from ribbonpoly.spatial import SpatialDiagram, crossingless_diagram, golden_identity_values  # noqa: E402
from ribbonpoly.vgf import input_hash, serialize_vgf  # noqa: E402

CORPUS = DATA / "output_corpus.json"

ENGINES = ("auto", "state-sum", "contraction-deletion", "brauer")
CHROMATIC_ENGINES = ("auto", "brauer", "contraction-deletion")
UNKNOWN = ("magic", "", "Brauer")
SUBCOMMANDS = (
    "invariant",
    "yamada",
    "gramian",
    "classify",
    "golden",
    "obstruction",
    "check",
    "enumerate",
    "fixtures",
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str]) -> str:
    """stdout, stderr and exit code of one ``cli.main`` call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    where = str(fixture_dir())
    return json.dumps([out.getvalue().replace(where, "<fixtures>"), err.getvalue().replace(where, "<fixtures>"), code])


def _file_calls(name: str) -> list[list[str]]:
    calls = []
    for poly in ("s", "f"):
        calls += [["invariant", "--poly", poly, "--engine", engine] for engine in ENGINES]
    calls += [["invariant", "--poly", poly] for poly in ("chrom", "wso", "wsl", "cemb")]
    calls += [["invariant", "--poly", "chrom", "--engine", "contraction-deletion"]]
    for variant in ("s", "f"):
        calls += [["yamada", "--variant", variant], ["yamada", "--variant", variant, "--mirror"]]
    calls += [["classify"], ["golden"], ["golden", "--allow-virtual"]]
    calls += [["obstruction"], ["obstruction", "--integral"]]
    return [call + flags + [name] for call in calls for flags in ([], ["--json"])]


def cli_calls() -> list[list[str]]:
    """Every recorded CLI call but ``--help``; file arguments are fixture names."""
    calls = [call for name in bundled_fixture_paths() for call in _file_calls(name)]
    calls += [["check"], ["check", "--json"], ["fixtures"], ["enumerate", "--cubic", "--max-vertices", "6"]]
    for n in ("2", "3", "4"):
        for det in ([], ["--det"]):
            calls += [["gramian", "--n", n, *det], ["gramian", "--n", n, *det, "--json"]]
    return calls


def help_calls() -> list[list[str]]:
    return [["--help"]] + [[sub, "--help"] for sub in SUBCOMMANDS]


def _cli_rows(calls: list[list[str]]) -> dict[str, str]:
    paths = bundled_fixture_paths()
    rows = {}
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "100"  # argparse wraps help to the terminal width
    try:
        for call in calls:
            argv = [str(paths[arg]) if arg in paths else arg for arg in call]
            rows[" ".join(call)] = _digest(_run(argv))
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return rows


def library_family() -> list[CombMap]:
    """Every connected map with at most 4 edges, ``EDGE_CASES`` and 10 seeded random maps."""
    rng = random.Random(2024)
    randoms = [random_connected_map(rng, rng.randint(5, 12)) for _ in range(10)]
    return exhaustive_connected_maps(4) + EDGE_CASES + randoms


def spatial_family() -> list:
    """Every bundled fixture, then 20 seeded diagrams with 0 to 10 crossings.

    The even draws cross edges of a cubic census map, so the golden identity
    evaluates them; the odd draws cross a random connected map.
    """
    rng = random.Random(33)
    cubic = cubic_maps(4) + cubic_maps(6)
    diagrams = []
    for i in range(20):
        crossings = i * 10 // 19
        if i % 2:
            diagrams.append(seeded_diagram(rng, max_edges=6, crossings=crossings))
        else:
            diagrams.append(crossed_diagram(rng.choice(cubic), rng, crossings))
    return [ALL_FIXTURES[name] for name in sorted(ALL_FIXTURES)] + diagrams


def _outcome(compute) -> str:
    try:
        value = compute()
    except ValueError as exc:
        return f"ValueError: {exc}"
    return value if isinstance(value, str) else str(value)


def _library_rows() -> dict[str, str]:
    family = library_family()
    twisted = [m.toggle_twist(0) for m in family if m.edge_count]
    polys = {"s_poly": s_poly, "flow_poly": flow_poly}
    rows: dict[str, str] = {}

    def row(label, maps, compute):
        rows[label] = _digest("\n".join(_outcome(lambda m=m: compute(m)) for m in maps))

    row("resolve_engine auto", family, lambda m: resolve_engine(m, "auto"))
    for value in (4, -2):
        row(f"s_poly_at {value}", family, lambda m, value=value: s_poly_at(m, value))
    for name, poly in polys.items():
        for engine in ENGINES:
            row(f"{name} engine={engine}", family, lambda m, poly=poly, engine=engine: poly(m, engine).render())
            row(f"{name} engine={engine} twisted", twisted, lambda m, poly=poly, engine=engine: poly(m, engine).render())
        for engine in UNKNOWN:
            row(f"{name} engine={engine!r}", [LOOP1, TRIANGLE], lambda m, poly=poly, engine=engine: poly(m, engine).render())
            row(f"{name} engine={engine!r} twisted", twisted[:3], lambda m, poly=poly, engine=engine: poly(m, engine).render())
    for engine in CHROMATIC_ENGINES + ("state-sum",) + UNKNOWN:
        compute = lambda m, engine=engine: virtual_chromatic(m, engine).render()  # noqa: E731
        if engine in CHROMATIC_ENGINES:
            row(f"virtual_chromatic engine={engine}", family, compute)
        else:
            row(f"virtual_chromatic engine={engine!r}", [LOOP1, TRIANGLE], compute)
        row(f"virtual_chromatic engine={engine!r} twisted", twisted, compute)
    spatial = spatial_family()
    diagrams = [d if isinstance(d, SpatialDiagram) else crossingless_diagram(d) for d in spatial]
    row("serialize_vgf", spatial, serialize_vgf)
    row("input_hash", spatial, input_hash)
    for allow in (False, True):
        row(f"golden_identity_values allow_virtual={allow}", diagrams, lambda d, allow=allow: golden_identity_values(d, allow))
    return rows


def corpus() -> dict:
    """The digests of every call, grouped as ``output_corpus.json`` holds them."""
    return {
        "python": "{}.{}".format(*sys.version_info[:2]),
        "cli": _cli_rows(cli_calls()),
        "help": _cli_rows(help_calls()),
        "library": _library_rows(),
    }


def main() -> None:
    CORPUS.write_text(json.dumps(corpus(), indent=1) + "\n")
    print(f"wrote {CORPUS}")


if __name__ == "__main__":
    main()
