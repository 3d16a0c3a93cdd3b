"""Bundled example maps and spatial diagrams.

Every object here also ships as a ``fixtures/*.vgf`` data file; the file names
are the lower-cased constant names.  Tests assert that the shipped files parse
back to these exact objects, so the two views cannot drift apart.
"""

from __future__ import annotations

from pathlib import Path

from .generate import complete_map, cycle_map, dipole, k33_standard, petersen_map
from .maps import CombMap
from .penrose import planarity_by_flips
from .spatial import SpatialDiagram, apply_move, crossingless_diagram


def _theta_pair() -> tuple[CombMap, CombMap]:
    plain = dipole(3)
    flipped = plain.vertex_flip(1)
    if plain.genus() == 0:
        return plain, flipped
    return flipped, plain


def _planar_k4() -> CombMap:
    m = complete_map(4)
    witness = planarity_by_flips(m)["witness"]
    if witness:
        m = m.flip_subset(witness)
    return m


# Plain maps.
THETA_P, THETA_T = _theta_pair()
LOOP1 = CombMap(((0, 1),), ((0, 1),))
BOUQUET2_INT = CombMap(((0, 2, 1, 3),), ((0, 1), (2, 3)))
BRIDGE = CombMap(((0,), (1,)), ((0, 1),))
TRIANGLE = cycle_map(3)
K4 = _planar_k4()
K33_STD = k33_standard()
PETERSEN = petersen_map()

# Spatial diagrams.  THETA_T_AS_SPATIAL is a crossingless diagram whose base
# map has genus one, so it is not classical; the others are planar diagrams
# built by stabilization moves from crossingless planar maps.
THETA_T_AS_SPATIAL = crossingless_diagram(THETA_T)
THETA_R2 = apply_move(crossingless_diagram(THETA_P), "ii", (0, 4), over="first")
THETA_R2_TWICE = apply_move(THETA_R2, "ii", (0, 4), over="first")
THETA_CURL = apply_move(crossingless_diagram(THETA_P), "i", (0,), chirality=1, over="run")
K4_SPATIAL = crossingless_diagram(K4)

MAP_FIXTURES: dict[str, CombMap] = {
    "theta_p": THETA_P,
    "theta_t": THETA_T,
    "loop1": LOOP1,
    "bouquet2_int": BOUQUET2_INT,
    "bridge": BRIDGE,
    "triangle": TRIANGLE,
    "k4": K4,
    "k33_std": K33_STD,
    "petersen": PETERSEN,
}

SPATIAL_FIXTURES: dict[str, SpatialDiagram] = {
    "theta_t_as_spatial": THETA_T_AS_SPATIAL,
    "theta_r2": THETA_R2,
    "theta_r2_twice": THETA_R2_TWICE,
    "theta_curl": THETA_CURL,
    "k4_spatial": K4_SPATIAL,
}

ALL_FIXTURES: dict[str, CombMap | SpatialDiagram] = {**MAP_FIXTURES, **SPATIAL_FIXTURES}


def fixture_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    path = fixture_dir() / f"{name}.vgf"
    if not path.exists():
        raise KeyError(f"no bundled fixture named {name!r}")
    return path


def bundled_fixture_paths() -> dict[str, Path]:
    return {path.stem: path for path in sorted(fixture_dir().glob("*.vgf"))}
