"""Reading and writing ``.vgf`` graph files.

A ``.vgf`` file is UTF-8 JSON text describing a combinatorial map, optionally
decorated with crossings:

* ``vertices``: list of cyclic half-edge lists (counterclockwise order);
* ``edges``: list of two-element half-edge lists;
* ``vertex_signs`` (optional): association list of ``[vertex_index, sign]``;
* ``edge_twists`` (optional): list of edge indices (into this file's ``edges``);
* ``crossings`` (optional): list of ``{"vertex": index, "over": [h_i, h_j]}``.

Half-edge ids must cover ``0 .. 2m-1`` exactly once across the vertex lists.
The presence of a ``crossings`` key, even an empty one, marks the file as a
spatial diagram; without it the file parses to a plain map.

Serialization is canonical and bit-exact: vertex cycles are rotated so the
minimal half-edge comes first and listed in increasing order of that minimum,
edges are sorted pairs in sorted order, and crossings are sorted by vertex
index.  ``parse_vgf(serialize_vgf(x))`` returns an object equal to ``x``.
The writer lays the text out itself, exactly as ``json.dumps`` with
``indent=1`` would, and the parser leaves the map checks to ``CombMap``, so
each document is validated once.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Union

from .maps import CombMap, InvalidMapError, diagnose
from .spatial import Crossing, SpatialDiagram

GraphObject = Union[CombMap, SpatialDiagram]

_KNOWN_FIELDS = ("vertices", "edges", "vertex_signs", "edge_twists", "crossings")


class VgfError(ValueError):
    """Raised when a .vgf document is malformed or inconsistent."""


def _expect_int_list(value: object, where: str) -> list[int]:
    if not isinstance(value, list) or any(not isinstance(h, int) or isinstance(h, bool) for h in value):
        raise VgfError(f"{where} must be a list of integers")
    return value


def parse_vgf(text: str) -> GraphObject:
    """Parse .vgf text into a map, or a spatial diagram when crossings appear."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise VgfError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise VgfError("top level must be a JSON object")
    unknown = sorted(set(data) - set(_KNOWN_FIELDS))
    if unknown:
        raise VgfError(f"unknown fields: {', '.join(unknown)}")
    for required in ("vertices", "edges"):
        if required not in data:
            raise VgfError(f"missing required field {required!r}")

    raw_vertices = data["vertices"]
    if not isinstance(raw_vertices, list):
        raise VgfError("vertices must be a list of half-edge lists")
    vertices = [tuple(_expect_int_list(cycle, f"vertex {i}")) for i, cycle in enumerate(raw_vertices)]

    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise VgfError("edges must be a list of half-edge pairs")
    edges = [tuple(_expect_int_list(pair, f"edge {i}")) for i, pair in enumerate(raw_edges)]

    signs = None
    if "vertex_signs" in data:
        assoc = data["vertex_signs"]
        if not isinstance(assoc, list):
            raise VgfError("vertex_signs must be an association list of [vertex_index, sign]")
        dense = [1] * len(vertices)
        for entry in assoc:
            pair = _expect_int_list(entry, "vertex_signs entry")
            if len(pair) != 2:
                raise VgfError("vertex_signs entries must be [vertex_index, sign]")
            index, sign = pair
            if not 0 <= index < len(vertices):
                raise VgfError(f"vertex_signs index {index} out of range")
            if sign not in (1, -1):
                raise VgfError(f"vertex sign for vertex {index} must be +1 or -1")
            dense[index] = sign
        signs = dense

    twists = []
    if "edge_twists" in data:
        twists = _expect_int_list(data["edge_twists"], "edge_twists")

    if any(not 0 <= t < len(edges) for t in twists):
        # CombMap would see the twists as a set; the message lists them in file order
        raise VgfError("; ".join(diagnose(vertices, edges, signs, twists)))
    try:
        base = CombMap(tuple(vertices), tuple(edges), None if signs is None else tuple(signs), frozenset(twists))
    except InvalidMapError as exc:
        raise VgfError(str(exc)) from exc

    if "crossings" not in data:
        return base

    raw_crossings = data["crossings"]
    if not isinstance(raw_crossings, list):
        raise VgfError("crossings must be a list of {vertex, over} records")
    crossings = []
    for i, record in enumerate(raw_crossings):
        if not isinstance(record, dict) or set(record) != {"vertex", "over"}:
            raise VgfError(f"crossing {i} must be an object with exactly the fields vertex, over")
        v_index = record["vertex"]
        if not isinstance(v_index, int) or isinstance(v_index, bool) or not 0 <= v_index < len(vertices):
            raise VgfError(f"crossing {i}: vertex index {v_index!r} out of range")
        over = _expect_int_list(record["over"], f"crossing {i} over pair")
        if len(over) != 2:
            raise VgfError(f"crossing {i}: over pair must list two half-edges")
        cycle = vertices[v_index]
        if not cycle:
            raise VgfError(f"crossing {i}: vertex {v_index} is isolated")
        # File vertex order may differ from the canonical order; resolve through
        # a half-edge, whose labels construction never changes.
        crossings.append(Crossing(base.vertex_of[cycle[0]], (over[0], over[1])))
    try:
        return SpatialDiagram(base, tuple(crossings))
    except InvalidMapError as exc:
        raise VgfError(str(exc)) from exc


def parse_vgf_file(path: str | Path) -> GraphObject:
    """Parse the file at ``path``; errors are prefixed with the file name."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise VgfError(f"{path}: {exc}") from exc
    try:
        return parse_vgf(text)
    except VgfError as exc:
        raise VgfError(f"{path.name}: {exc}") from exc


# The layout of ``json.dumps(payload, indent=1)``: a top-level value at one
# space, its items at two, and their items at three.  Numbers are written as
# decimal ints, so a map holding ``True`` for 1 writes the text of its equal.
_PAIR = "[\n   %d,\n   %d\n  ]"
_CROSSING = '{\n   "vertex": %d,\n   "over": [\n    %d,\n    %d\n   ]\n  }'


def _listed(items: list[str]) -> str:
    """A top-level list of the already laid-out ``items``."""
    return "[\n  " + ",\n  ".join(items) + "\n ]" if items else "[]"


def serialize_vgf(obj: GraphObject) -> str:
    """Canonical .vgf text for a map or spatial diagram.

    The text is written directly: byte for byte what
    ``json.dumps(payload, indent=1)`` and a final newline give for the same
    payload of ints, without the pure-Python encoder that ``json.dumps``
    falls back to whenever it indents.  Equal objects get equal text.
    """
    if isinstance(obj, SpatialDiagram):
        base = obj.base
        crossings = obj.crossings
        spatial = True
    elif isinstance(obj, CombMap):
        base = obj
        crossings = ()
        spatial = False
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    rows = ["[\n   " + ",\n   ".join(map(int.__repr__, row)) + "\n  ]" if row else "[]" for row in base.vertices]
    parts = ['{\n "vertices": ', _listed(rows), ',\n "edges": ', _listed([_PAIR % e for e in base.edges])]
    if base.vertex_signs is not None:
        parts += [',\n "vertex_signs": ', _listed([_PAIR % p for p in enumerate(base.vertex_signs)])]
    if base.edge_twists:
        parts += [',\n "edge_twists": ', _listed([str(e) for e in sorted(base.edge_twists)])]
    if spatial:
        parts += [',\n "crossings": ', _listed([_CROSSING % (c.vertex, *c.over_pair) for c in crossings])]
    parts.append("\n}\n")
    return "".join(parts)


def input_hash(obj: GraphObject) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_vgf(obj).encode("utf-8")).hexdigest()
