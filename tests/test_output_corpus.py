"""The output corpus: every recorded CLI call and library call keeps its bytes.

``tests/data/record_output_corpus.py`` says which calls are recorded and
when the file may be rewritten.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("record_output_corpus", DATA / "record_output_corpus.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

RECORDED = json.loads(record.CORPUS.read_text())


@pytest.fixture(scope="module")
def computed():
    return record.corpus()


def _first_difference(want: dict, got: dict):
    for call, digest in want.items():
        if got.get(call) != digest:
            return call
    return next((call for call in got if call not in want), None)


@pytest.mark.parametrize("section", ["cli", "library"])
def test_outputs_unchanged(computed, section):
    call = _first_difference(RECORDED[section], computed[section])
    assert call is None, f"{section} output changed first at: {call}"


def test_help_unchanged(computed):
    if RECORDED["python"] != computed["python"]:
        pytest.skip(f"help text was recorded under Python {RECORDED['python']}")
    call = _first_difference(RECORDED["help"], computed["help"])
    assert call is None, f"help output changed first at: {call}"


def test_corpus_covers_every_engine_choice():
    # an engine that --engine offers but no row runs would go unrecorded
    choices = next(a.choices for a in _subparser("invariant")._actions if a.dest == "engine")
    rows = RECORDED["cli"]
    for engine in choices:
        for poly in ("s", "f"):
            assert f"invariant --poly {poly} --engine {engine} petersen" in rows, (poly, engine)


def _subparser(name):
    parser = record.cli.build_parser()
    sub = next(a for a in parser._actions if a.choices and name in a.choices)
    return sub.choices[name]
