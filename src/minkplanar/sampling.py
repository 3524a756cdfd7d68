"""Seeded random instances for stress tests and oracle comparisons.

Drawings come from random polyline routes between anchors on a circle,
converted geometrically and filtered by the validator, so every sample is
an honestly drawable configuration rather than a synthetic planarization.
"""

from __future__ import annotations

import itertools
import random

from .drawings import Drawing, is_min_k_planar
from .errors import GeometryError, InputError, MinkplanarError
from .geometry import Scene, on_circle, scene_to_drawing
from .graphs import AnchoredGraph, Graph

RADIUS = 3.0
MAX_ANCHORS = 8  # random_anchored_graph's vertex cap, unless edges need more
ATTEMPTS = 400  # scenes random_min1_drawing draws before it gives up


def random_anchored_graph(rng: random.Random, n_edges: int = 5) -> AnchoredGraph:
    """Random chord system: every vertex an anchor, edges distinct pairs."""
    lo = 4
    while lo * (lo - 1) // 2 < n_edges:
        lo += 1
    n = rng.randint(lo, max(lo, MAX_ANCHORS))
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), n_edges)
    g = Graph(tuple(range(n)), tuple(sorted(pairs)))
    return AnchoredGraph(g, tuple(range(n)))


def _random_scene(rng: random.Random) -> Scene:
    n = rng.randint(4, 7)
    m = rng.randint(2, 5)
    positions = {
        i: on_circle(RADIUS, 90.0 - 360.0 * i / n) for i in range(n)
    }
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), m)
    g = Graph(tuple(range(n)), tuple(sorted(pairs)))
    routes = {}
    for e, (u, v) in enumerate(g.edges):
        bends = (0, 1, 1, 2)[rng.randrange(4)]
        mid = []
        for _ in range(bends):
            r = 0.75 * RADIUS * (rng.random() ** 0.5)
            mid.append(on_circle(r, rng.uniform(0.0, 360.0)))
        routes[e] = tuple([positions[u], *mid, positions[v]])
    return Scene(g, positions, routes, anchors=tuple(range(n)), radius=RADIUS)


def random_min1_drawing(rng: random.Random) -> Drawing:
    """Rejection-sample a valid anchored min-1-planar drawing."""
    for _ in range(ATTEMPTS):
        scene = _random_scene(rng)
        try:
            d, _ = scene_to_drawing(scene)
        except (GeometryError, InputError):
            continue
        if is_min_k_planar(d, 1):
            return d
    raise MinkplanarError(f"no min-1 drawing in {ATTEMPTS} sampled scenes")
