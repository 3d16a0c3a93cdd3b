"""Shared builders for spatial diagram batteries.

Used by both the module tests and the acceptance suite: seeded random
diagrams with crossings, a standard woven-triangle site for slide moves, and
site scanners for the stabilization and forbidden moves.
"""

from __future__ import annotations

import random

from ribbonpoly import spatial as sp
from ribbonpoly.generate import random_connected_map
from ribbonpoly.maps import CombMap


def seeded_diagram(rng: random.Random, max_edges: int = 4, crossings: int = 1) -> sp.SpatialDiagram:
    """Random connected diagram with up to the requested crossing count."""
    m = random_connected_map(rng, rng.randint(max(1, min(2, max_edges)), max_edges))
    d = sp.crossingless_diagram(m)
    placed = 0
    tries = 0
    while placed < crossings and tries < 40:
        tries += 1
        half_count = d.base.half_edge_count
        h1, h2 = rng.randrange(half_count), rng.randrange(half_count)
        if d.base.edge_of[h1] == d.base.edge_of[h2]:
            continue
        d = sp.insert_crossing(
            d, h1, h2, over=rng.choice(["first", "second"]), chirality=rng.choice([1, -1])
        )
        placed += 1
    return d


def crossed_diagram(m: CombMap, rng: random.Random, crossings: int) -> sp.SpatialDiagram:
    """Crossings inserted one by one between two random distinct edges of m."""
    d = sp.crossingless_diagram(m)
    for _ in range(crossings):
        e1, e2 = rng.sample(range(d.base.edge_count), 2)
        d = sp.insert_crossing(
            d,
            rng.choice(d.base.edges[e1]),
            rng.choice(d.base.edges[e2]),
            over=rng.choice(["first", "second"]),
            chirality=rng.choice([1, -1]),
        )
    return d


def woven_triangle(m: CombMap, rng: random.Random, a_over: bool = True, r_over_b: bool = True):
    """Cut three edges of m and wire in the standard slide-ready triangle.

    Returns (diagram, site) where site feeds the triangle slide, or None when
    m has fewer than three edges.
    """
    if m.edge_count < 3:
        return None
    cut = rng.sample(range(m.edge_count), 3)
    (u1, w1), (u2, w2), (u3, w3) = (m.edges[e] for e in cut)
    base_count = m.half_edge_count
    n = list(range(base_count, base_count + 12))
    vertices = list(m.vertices) + [
        (n[0], n[1], n[2], n[3]),
        (n[4], n[5], n[6], n[7]),
        (n[8], n[9], n[10], n[11]),
    ]
    edges = [pair for i, pair in enumerate(m.edges) if i not in cut]
    edges += [(n[2], u1), (n[3], u2), (n[4], w1), (n[7], u3), (n[8], w2), (n[9], w3)]
    edges += [(n[0], n[6]), (n[1], n[10]), (n[5], n[11])]
    over_p = (n[0], n[2]) if a_over else (n[1], n[3])
    over_q = (n[4], n[6]) if a_over else (n[5], n[7])
    over_r = (n[8], n[10]) if r_over_b else (n[9], n[11])
    base = CombMap(tuple(vertices), tuple(tuple(sorted(e)) for e in edges))
    crossings = tuple(sp.Crossing(base.vertex_of[a], (a, b)) for a, b in (over_p, over_q, over_r))
    return sp.SpatialDiagram(base, crossings), (n[0], n[1], n[5])


def random_r2_site(d: sp.SpatialDiagram, rng: random.Random):
    half_count = d.base.half_edge_count
    for _ in range(40):
        h1, h2 = rng.randrange(half_count), rng.randrange(half_count)
        if d.base.edge_of[h1] != d.base.edge_of[h2]:
            return h1, h2
    return None


def random_iv_site(d: sp.SpatialDiagram, rng: random.Random):
    base = d.base
    crossing_vertices = d.crossing_vertices()
    for _ in range(60):
        hv = rng.randrange(base.half_edge_count)
        hf = rng.randrange(base.half_edge_count)
        v = base.vertex_of[hv]
        if v in crossing_vertices:
            continue
        if base.vertex_of[hf] == v or base.vertex_of[base.alpha[hf]] == v:
            continue
        return hv, hf
    return None


def forbidden_sites(d: sp.SpatialDiagram) -> list[int]:
    """All half-edges where the strand-under-strand slide pattern matches."""
    sites = []
    for h in range(d.base.half_edge_count):
        try:
            sp.forbidden_slide(d, h)
        except sp.MoveError:
            continue
        sites.append(h)
    return sites


def forbidden_examples(seed: int, count: int):
    """Diagrams with two woven crossings admitting a forbidden slide."""
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count and tries < 500:
        tries += 1
        d = seeded_diagram(rng, max_edges=4, crossings=2)
        if d.crossing_count < 2:
            continue
        sites = forbidden_sites(d)
        if sites:
            out.append((d, rng.choice(sites)))
    return out


def planar_r2(d: sp.SpatialDiagram):
    """First stabilization-free poke: an R2 insertion keeping genus zero."""
    half_count = d.base.half_edge_count
    for h1 in range(half_count):
        for h2 in range(half_count):
            if d.base.edge_of[h1] == d.base.edge_of[h2]:
                continue
            for over in ("first", "second"):
                candidate = sp.r2_insert(d, h1, h2, over=over)
                if candidate.base.genus() == 0:
                    return candidate, (h1, h2, over)
    return None, None
