"""The biclique crossing gadget: two edges amplified m-fold, drawn so that
every copy of one crosses every copy of the other exactly once.

It is the fixture of acceptance criterion 06 and of the construction,
obstruction, frame and interchange tests.  The gadget is certified against
its own claims before it is returned, as the package's constructions are.
"""

from __future__ import annotations

from dataclasses import dataclass

from minkplanar.constructions import Claims, certify
from minkplanar.drawings import Drawing, crossing_profile, is_min_k_planar
from minkplanar.errors import InputError
from minkplanar.geometry import Point, Scene, scene_to_drawing
from minkplanar.graphs import EdgeClassMap, Graph, t_amplify


@dataclass(frozen=True)
class BicliqueGadget:
    """Two amplified edges drawn so the copy bundles cross completely."""

    graph: Graph
    classes: EdgeClassMap
    drawing: Drawing
    k: int
    m: int


def _spread(m: int, lo: float, hi: float) -> list[float]:
    if m == 1:
        return [(lo + hi) / 2.0]
    return [lo + (hi - lo) * i / (m - 1) for i in range(m)]


def build_biclique_gadget(k: int, m: int) -> BicliqueGadget:
    """Two edges amplified m-fold, every copy of one crossing every copy
    of the other exactly once.

    The copies of the horizontal edge run as stacked horizontal lanes, the
    copies of the vertical edge as side-by-side columns; the lanes and
    columns overlap in a central m-by-m grid of crossings, and the fan
    segments near the four endpoints stay clear of everything.  The long
    lane/column halves therefore carry m crossings each: the drawing is
    min-k-planar exactly when m <= k.
    """
    if m < 1:
        raise InputError("need at least one copy per class")
    if k < 0:
        raise InputError("k must be nonnegative")
    base = Graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    amplified, classes = t_amplify(base, m)

    positions: dict[int, Point] = {
        0: (-6.0, 0.0),
        1: (6.0, 0.0),
        2: (0.0, 6.0),
        3: (0.0, -6.0),
    }
    routes: dict[int, tuple[Point, ...]] = {}
    lanes = _spread(m, -1.0, 1.0)
    cols = _spread(m, -0.8, 0.8)
    for i, dbl in enumerate(classes.by_edge[0]):
        mid = (-1.6, lanes[i])
        positions[dbl.midpoint] = mid
        routes[dbl.halves[0]] = (positions[0], mid)
        routes[dbl.halves[1]] = (mid, (1.6, lanes[i]), positions[1])
    for j, dbl in enumerate(classes.by_edge[1]):
        mid = (cols[j], 1.6)
        positions[dbl.midpoint] = mid
        routes[dbl.halves[0]] = (positions[2], mid)
        routes[dbl.halves[1]] = (mid, (cols[j], -1.6), positions[3])

    scene = Scene(amplified, positions, routes)
    drawing, _ = scene_to_drawing(scene)
    gadget = BicliqueGadget(
        graph=amplified,
        classes=classes,
        drawing=drawing,
        k=k,
        m=m,
    )
    certify("gadget", _gadget_claims(gadget))
    return gadget


def _gadget_claims(gadget: BicliqueGadget) -> Claims:
    """Every lane copy crosses every column copy once, m*m crossings in
    all, so the drawing is min-k-planar exactly when m <= k."""
    k, m = gadget.k, gadget.m
    prof = crossing_profile(gadget.drawing)
    yield "crossing-count", prof.total == m * m
    by_edge = gadget.classes.by_edge
    yield "each-copy-pair-crosses-once", all(
        sum(prof.per_pair.get((min(a, b), max(a, b)), 0)
            for a in lane.halves for b in col.halves) == 1
        for lane in by_edge[0]
        for col in by_edge[1]
    )
    yield (f"min-{k}-planar" if m <= k else f"not-min-{k}-planar",
           is_min_k_planar(gadget.drawing, k).ok == (m <= k))
