"""Annular scaffolding graphs whose drawings pin every wheel edge down.

The frame around an anchored graph is built from a double wheel: a rim
cycle of d vertices, an inner hub joined to every rim vertex, and an
outer hub likewise, where the outer hub is then split into one vertex
per anchor so the frame can take the anchored graph's place on the
boundary.  On top of the wheel sit its two face-dual rings together
with every vertex-face incidence link, and that dual-plus-incidence
"web" is amplified: each web edge becomes t parallel length-two paths.

Drawn the natural radial way, the web stays crossing free while every
wheel edge is crossed exactly once per copy of one web bundle, i.e.
exactly t times in total.  Each double-edge half carries at most one
crossing, so the bundled drawing is anchored, simple and min-1-planar;
with t large the wheel edges are pinned: any rerouted wheel edge would
still have to pierce the web cycle that separates its endpoints.

Only the frame at t = 1 goes through ``scene_to_drawing``.  The t
copies of a double are drawn as nested parallel curves, so the crossings
and chains at t are read off the drawing at t = 1: each crossing of a
wheel edge becomes a run of t crossings.  The scene at t gives the side
copy 0 runs on, and every rotation is read off the scene's angles by the
converter's own rule, so the result is the converter's drawing of that
scene, id for id.

``compose`` then glues a certified disk drawing of the source graph
into the outer region of the frame drawing, identifying anchors, which
yields an unanchored drawing of the union with the two crossing
families untouched and disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .constructions import Claims, CounterexampleBundle, certify
from .drawings import (
    Crossing,
    Drawing,
    crossing_profile,
    is_min_k_planar,
    is_simple,
    mirror,
    restrict,
    validate,
)
from .errors import GeometryError, InputError
from .graphs import (
    AnchoredGraph,
    EdgeClassMap,
    Graph,
    _id,
    max_finite_anchor_distance,
    t_amplify,
)
from .geometry import (
    Point,
    Scene,
    _rotations,
    on_circle,
    scene_to_drawing,
)

FRAME_RADIUS = 3.2

# radii of the concentric layers, inside out
_R_HUB_MID = 0.7     # midpoints of hub-to-inner-ring doubles
_R_INNER_DIP = 1.33  # top of the inner ring chord dip band
_R_INNER = 1.4       # inner dual ring
_R_INNER_FOOT = 1.7  # midpoints of inner-ring-to-rim doubles
_R_RIM = 2.0         # the wheel rim
_R_LINK = 2.3        # midpoints of ring-to-ring doubles, and outer feet
_R_OUTER_DIP = 2.48  # top of the outer ring chord dip band
_R_OUTER = 2.6       # outer dual ring
_R_FAN_MID = 2.7     # midpoints of the anchor fan doubles
_R_LANE_LO = 2.78    # cruising band for curves leaving an anchor
_R_LANE_HI = 3.12

_DIP_SPAN = 0.10     # radial depth of a nested stack of ring chord dips
_DIP_OFF = 0.05      # ring chord dips sit this far past the spoke ray (steps)


# ------------------------------------------------------------ the bundle


class FrameParams(NamedTuple):
    """Provenance numbers of a frame: d = a * (2*k*ell + 2*k + 1)."""

    a: int
    k: int
    ell: int
    d: int
    t: int


@dataclass(frozen=True)
class FrameBundle:
    """A frame graph with its certified bundled drawing.

    ``core_edges`` are the ids of the kept wheel edges (rim, hub spokes,
    anchor spokes); ``classes`` maps each web edge of the unamplified
    skeleton graph to its t double edges in ``graph``.
    """

    source: AnchoredGraph
    graph: Graph
    anchors: tuple[int, ...]
    drawing: Drawing
    core_edges: tuple[int, ...]
    classes: EdgeClassMap
    params: FrameParams


# --------------------------------------------------- skeleton edge plan
#
# Vertex ids: hub 0, rim r_j = 1+j, inner ring m_j = 1+d+j, outer ring
# o_j = 1+2d+j, anchors A_i = 1+3d+i.  Ring vertex j sits between rim
# positions j and j+1.  Edge ids come in blocks of d:
#
#   block 0   rim         (r_j, r_j+1)        core
#   block 1   hub spoke   (hub, r_j)          core
#   block 2   anchor spoke(A_j//q, r_j)       core
#   block 3   inner cycle (m_j, m_j+1)        web
#   block 4   outer cycle (o_j, o_j+1)        web
#   block 5   ring link   (m_j, o_j)          web
#   block 6   hub link    (hub, m_j)          web
#   block 7   inner foot  (m_j, r_j)          web
#   block 8   inner foot  (m_j, r_j+1)        web
#   block 9   outer foot  (o_j, r_j)          web
#   block 10  outer foot  (o_j, r_j+1)        web
#   block 11  anchor fan  (A_own(j), o_j)     web
#
# The outer ring vertex o_j fans to the anchor owning rim position j+1,
# so each anchor collects the q faces around its own spoke block.


def _skeleton(a: int, q: int) -> tuple[Graph, tuple[int, ...]]:
    d = a * q
    hub = 0
    r = lambda j: 1 + j % d
    m = lambda j: 1 + d + j % d
    o = lambda j: 1 + 2 * d + j % d
    anchor = lambda i: 1 + 3 * d + i

    edges: list[tuple[int, int]] = []
    edges += [(r(j), r(j + 1)) for j in range(d)]
    edges += [(hub, r(j)) for j in range(d)]
    edges += [(anchor(j // q), r(j)) for j in range(d)]
    edges += [(m(j), m(j + 1)) for j in range(d)]
    edges += [(o(j), o(j + 1)) for j in range(d)]
    edges += [(m(j), o(j)) for j in range(d)]
    edges += [(hub, m(j)) for j in range(d)]
    edges += [(m(j), r(j)) for j in range(d)]
    edges += [(m(j), r(j + 1)) for j in range(d)]
    edges += [(o(j), r(j)) for j in range(d)]
    edges += [(o(j), r(j + 1)) for j in range(d)]
    edges += [(anchor(((j + 1) // q) % a), o(j)) for j in range(d)]

    verts = tuple(range(1 + 3 * d + a))
    return Graph(verts, tuple(edges)), tuple(anchor(i) for i in range(a))


# ------------------------------------------------------------- geometry


def _pos(d: int, radius: float, u: float) -> Point:
    """Point at the given radius, u rim-steps clockwise from the top."""
    return on_circle(radius, -u * 360.0 / d)


def _lane_walk(
    d: int, apex: Point, lane: float, s: float, target: float, w: float
) -> list[Point]:
    """Polyline from the apex along a cruising radius to the target angle.

    Waypoints every w steps keep the chords hugging the lane circle, so
    curves on different lanes stay radially separated no matter how far
    around the block they travel.
    """
    pts = [apex]
    side = 1.0 if target > s else -1.0
    x = s + side * w
    while (target - x) * side > 1e-9:
        pts.append(_pos(d, lane, x))
        x += side * w
    pts.append(_pos(d, lane, target))
    return pts


def _frame_scene(
    amplified: Graph,
    classes: EdgeClassMap,
    anchors: tuple[int, ...],
    a: int,
    q: int,
    t: int,
) -> Scene:
    d = a * q
    P = lambda rad, u: _pos(d, rad, u)

    positions: dict[int, Point] = {0: (0.0, 0.0)}
    for j in range(d):
        positions[1 + j] = P(_R_RIM, j)
        positions[1 + d + j] = P(_R_INNER, j + 0.5)
        positions[1 + 2 * d + j] = P(_R_OUTER, j + 0.5)
    for i in range(a):
        positions[1 + 3 * d + i] = P(FRAME_RADIUS, i * q + (q - 1) // 2)

    # Midpoints of the doubles, fan class aside (that one is routed with
    # the anchor spokes below).  The two ring chord classes dip inward
    # past the next spoke ray: every copy dips at the same angle but to
    # its own nested radius, which keeps the copies disjoint while every
    # copy's first half still spans the ray it is due to cross.  The
    # radially monotone classes fan their midpoints out by a small
    # per-copy angle instead; side-by-side offsets cannot make curves
    # that never double back in radius meet.
    def eps(c: int) -> float:
        return (c + 1) / (8.0 * (t + 1))

    def dip(c: int, top: float) -> float:
        return top - _DIP_SPAN * (c + 1) / t

    for old_e, c, de in classes.double_edges():
        kind, j = divmod(old_e - 3 * d, d)
        if kind == 0:    # inner cycle (m_j, m_j+1)
            p = P(dip(c, _R_INNER_DIP), j + 1 + _DIP_OFF)
        elif kind == 1:  # outer cycle (o_j, o_j+1)
            p = P(dip(c, _R_OUTER_DIP), j + 1 + _DIP_OFF)
        elif kind == 2:  # ring link (m_j, o_j)
            p = P(_R_LINK, j + 0.5 + eps(c))
        elif kind == 3:  # hub link (hub, m_j)
            p = P(_R_HUB_MID, j + 0.5 + eps(c))
        elif kind == 4:  # inner foot (m_j, r_j)
            p = P(_R_INNER_FOOT, j + 0.25 + 0.3 * eps(c))
        elif kind == 5:  # inner foot (m_j, r_j+1)
            p = P(_R_INNER_FOOT, j + 0.75 + 0.3 * eps(c))
        elif kind == 6:  # outer foot (o_j, r_j)
            p = P(_R_LINK, j + 0.25 + 0.3 * eps(c))
        elif kind == 7:  # outer foot (o_j, r_j+1)
            p = P(_R_LINK, j + 0.75 + 0.3 * eps(c))
        else:
            continue
        positions[de.midpoint] = p

    routes: dict[int, tuple[Point, ...]] = {}
    for j in range(d):  # rim and hub spokes, straight
        routes[j] = (positions[1 + j], positions[1 + (j + 1) % d])
        routes[d + j] = (positions[0], positions[1 + j])

    # The outer region.  All curves out of an anchor cruise through the
    # lane band and drop radially at their own descent angle.  On each
    # side of an apex, curves to nearer targets get lower lanes; a curve
    # only descends at an angle every lower-lane curve is already done
    # with, so descents cross nothing but the o-ring chords below, and
    # those only at the spoke angles.  Fan copies of one edge descend at
    # slightly staggered angles, farther from the apex on higher lanes.
    for i in range(a):
        s = i * q + (q - 1) // 2
        apex_v = 1 + 3 * d + i
        apex = positions[apex_v]
        routes[2 * d + s] = (apex, positions[1 + s])
        for side in (1, -1):
            items: list[tuple[float, int, int, int]] = []
            for p in range(i * q, i * q + q):
                if (p - s) * side > 0:
                    items.append((abs(p - s), 0, -1, p))
            for j in range(i * q - 1, i * q + q - 1):
                if ((j + 0.5) - s) * side > 0:
                    fan_e = 3 * d + 8 * d + (j % d)
                    for u_idx in range(t):
                        items.append((abs(j + 0.5 - s), u_idx, fan_e, j))
            if not items:
                continue
            items.sort()
            spacing = (_R_LANE_HI - _R_LANE_LO) / len(items)
            w = 0.5
            while _R_LANE_HI * (1.0 - math.cos(math.pi * w / d)) > 0.35 * spacing:
                w *= 0.5
            for rank, (_, u_idx, fan_e, j) in enumerate(items):
                lane = _R_LANE_LO + (rank + 0.5) * spacing
                if fan_e < 0:
                    walk = _lane_walk(d, apex, lane, s, j, w)
                    routes[2 * d + j] = tuple(walk + [positions[1 + j]])
                else:
                    mu = 0.4 * (t - u_idx) / (t + 1.0)
                    down_at = j + 0.5 - side * mu
                    de = classes.by_edge[fan_e][u_idx]
                    mid = P(_R_FAN_MID, down_at)
                    positions[de.midpoint] = mid
                    walk = _lane_walk(d, apex, lane, s, down_at, w)
                    routes[de.halves[0]] = tuple(walk + [mid])
                    routes[de.halves[1]] = (mid, positions[1 + 2 * d + (j % d)])

    for old_e, c, de in classes.double_edges():
        if old_e >= 11 * d:
            continue
        for h in de.halves:
            u, v = amplified.edges[h]
            routes[h] = (positions[u], positions[v])

    return Scene(amplified, positions, routes, anchors=anchors, radius=FRAME_RADIUS)


# -------------------------------------------------------- amplification
#
# The t copies of a double are nested parallel curves: they leave its
# first end side by side, cross the same wheel edges and arrive side by
# side, and nothing lies between two neighbours.  So the drawing at t is
# the drawing at t = 1 with every double replaced by its copies: each
# crossing of a wheel edge with a half becomes a run of t crossings.
# Which way a run goes follows from the side copy 0 is on: if it leaves
# the first end left of copy 1, a wheel edge that passes the half from
# its left meets the copies in increasing order.  The scene at t is read
# for that side, and for the directions every rotation is sorted by.


def _amplify(drawing: Drawing, one: EdgeClassMap, classes: EdgeClassMap,
             scene: Scene) -> Drawing:
    """The frame drawing at t, amplified from ``drawing`` at t = 1.

    ``one`` and ``classes`` are the class maps at t = 1 and at t, and
    ``scene`` is the frame scene at t.  Crossings and chains come out as
    ``scene_to_drawing(scene)`` gives them, crossings numbered by wheel
    edge and then along it, and every rotation is read off the scene's
    angles by the converter's own rule (``geometry._rotations``).
    """
    t = classes.t
    graph, routes = scene.graph, scene.routes
    chains1, rot1 = drawing.chains, drawing.rotation
    kept = {one.kept_edge_map[s]: e for s, e in classes.kept_edge_map.items()}
    copies: dict[int, list[int]] = {}  # half at t = 1 -> its copies
    left: dict[int, bool] = {}         # half at t = 1 -> copy 0 is left
    for s, (de,) in one.by_edge.items():
        mine = classes.by_edge[s]
        (ux, uy), (ax, ay) = routes[mine[0].halves[0]][:2]
        bx, by = routes[mine[1].halves[0]][1]
        ccw = (bx - ux) * (ay - uy) > (by - uy) * (ax - ux)
        for i in (0, 1):
            copies[de.halves[i]] = [c.halves[i] for c in mine]
            left[de.halves[i]] = ccw

    # crossing x of wheel edge w and half h becomes a run of t crossings;
    # w passes h from its right when h's in-arm follows w's clockwise
    chains: dict[int, tuple[int, ...]] = {}
    crossings: list[Crossing] = []
    runs: dict[int, list[int]] = {}  # crossing at t = 1 -> its copies' ids
    spot: list[tuple[int, int]] = []  # per crossing, its place in both chains
    xid = max(graph.vertices) + 1
    for w1 in sorted(kept, key=kept.get):
        w = kept[w1]
        u, *xs, v = chains1[w1]
        first = xid
        for p, x in enumerate(xs):
            r = rot1[x]
            h, s = r[(r.index((w1, p)) + 1) % 4]
            ph = chains1[h].index(x)
            from_right = s == ph - 1
            run = runs[x] = [0] * t
            for c in range(t) if left[h] != from_right else range(t - 1, -1, -1):
                run[c] = xid
                crossings.append(Crossing(xid, (w, copies[h][c])))
                spot.append((xid - first + 1, ph))
                xid += 1
        chains[w] = (u, *range(first, xid), v)
    for h, cs in copies.items():
        u, v = zip(*map(graph.edges.__getitem__, cs))
        chains.update(zip(cs, zip(u, *map(runs.get, chains1[h][1:-1]), v)))
    chains = {e: chains[e] for e in range(graph.m)}

    # every route point, route e the rows start[e] to start[e + 1] - 1,
    # and each tip's way out of its vertex along its terminal piece
    lines = list(map(routes.__getitem__, range(graph.m)))
    start = np.zeros(graph.m + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, lines), np.int64, graph.m), out=start[1:])
    points = np.fromiter(chain.from_iterable(chain.from_iterable(lines)),
                         float, 2 * int(start[-1])).reshape(-1, 2)
    u, v = start[:-1], start[1:] - 1
    way = np.stack((points[u + 1] - points[u], points[v - 1] - points[v]),
                   axis=1).reshape(-1, 2)
    ids = np.arange(xid - len(crossings), xid)
    xe = np.array([x.edges for x in crossings], dtype=np.int64).T
    tail, head = _crossing_arms(points, start, xe)
    # each crossing's places on its second edge and on its first, and its
    # arms along each, on and back
    spot = np.array(spot, dtype=np.int64).T
    arms = np.array((head - tail, tail - head))[:, ::-1].reshape(2, -1, 2)
    anchors = scene.anchors
    rotation = _rotations(
        graph, anchors, np.array([scene.positions[a] for a in anchors]),
        np.arctan2(way[:, 1], way[:, 0]), ids, xe[::-1].ravel(),
        spot[::-1].ravel(), np.arctan2(arms[..., 1], arms[..., 0]))
    return Drawing(graph, tuple(crossings), chains, rotation, anchors)


def _crossing_arms(points: np.ndarray, start: np.ndarray,
                   pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pieces where the two routes of each column of ``pairs`` cross,
    which they must do once: their tails and their heads, each of shape
    (2, pairs, 2) with the first route's piece in row 0.  Route e is the
    rows ``start[e]`` to ``start[e + 1] - 1`` of ``points``."""
    first, second = pairs
    ne = start[first + 1] - start[first] - 1
    nf = start[second + 1] - start[second] - 1
    # every piece of the first route against every piece of the second
    row = np.repeat(np.arange(first.size), ne * nf)
    i = np.arange(row.size) - np.repeat(np.cumsum(ne * nf) - ne * nf, ne * nf)
    se, sf = start[first][row], start[second][row]
    one = points[np.stack((se, se + 1)) + i // nf[row]]
    two = points[np.stack((sf, sf + 1)) + i % nf[row]]

    def apart(seg: np.ndarray, other: np.ndarray) -> np.ndarray:
        (x, y), (dx, dy) = seg[0].T, (seg[1] - seg[0]).T
        turn = [dx * (p[:, 1] - y) - dy * (p[:, 0] - x) for p in other]
        return turn[0] * turn[1] < 0.0

    hit = apart(one, two) & apart(two, one)
    if not np.array_equal(row[hit], np.arange(first.size)):
        raise GeometryError("frame scene does not cross where its drawing does")
    return (np.stack((one[0, hit], two[0, hit])),
            np.stack((one[1, hit], two[1, hit])))


# ------------------------------------------------------------ the build


def build_frame(g: AnchoredGraph, k: int, t: int | None = None) -> FrameBundle:
    """Frame for an anchored graph, with its certified bundled drawing.

    The rim length is d = a * (2*k*ell + 2*k + 1) where a counts the
    anchors and ell is the largest finite anchor distance in g.  Each of
    the 9d web edges is amplified into t doubles (default 2k+2); the
    3d wheel edges are kept single.  The frame scene is converted at
    t = 1, and its crossings and chains amplified to t with every
    rotation read off the scene at t (see ``_amplify``); the returned
    bundle is certified against ``frame_claims``.
    """
    k = _id(k, "k")
    if k < 1:
        raise InputError("frame needs k >= 1")
    t = 2 * k + 2 if t is None else _id(t, "t")
    if t < 1:
        raise InputError("frame needs t >= 1")
    if not g.graph.simple:
        raise InputError("frame construction expects a simple source graph")
    a = len(g.anchors)

    ell = max_finite_anchor_distance(g)
    q = 2 * k * ell + 2 * k + 1
    d = a * q

    skeleton, anchors = _skeleton(a, q)
    core = tuple(range(3 * d))
    web = range(3 * d, 12 * d)
    graph, classes = t_amplify(skeleton, 1, amplify_edges=web)
    drawing, _ = scene_to_drawing(_frame_scene(graph, classes, anchors, a, q, 1))
    if t > 1:
        one = classes
        graph, classes = t_amplify(skeleton, t, amplify_edges=web)
        drawing = _amplify(drawing, one, classes,
                           _frame_scene(graph, classes, anchors, a, q, t))
    fr = FrameBundle(
        source=g,
        graph=graph,
        anchors=anchors,
        drawing=drawing,
        core_edges=core,
        classes=classes,
        params=FrameParams(a, k, ell, d, t),
    )
    certify("frame", frame_claims(fr))
    return fr


def frame_claims(fr: FrameBundle) -> Claims:
    """Lemma 5's claims on a frame: its size, every wheel edge crossed
    exactly t times and every double-edge half at most once, and a drawing
    that is anchored, simple and min-1-planar.  Separation is checked
    apart, by ``separation_property_check``."""
    p = fr.params
    core = fr.core_edges
    yield ("kept-wheel-edge-ids",
           all(fr.classes.kept_edge_map[e] == e for e in core))
    yield "drawing-valid", validate(fr.drawing) == []
    yield "anchored", fr.drawing.anchored
    yield "vertex-count", fr.graph.n == 1 + 3 * p.d + p.a + 9 * p.d * p.t
    yield "edge-count", fr.graph.m == 3 * p.d + 18 * p.d * p.t
    prof = crossing_profile(fr.drawing)
    yield "crossing-count", prof.total == 3 * p.d * p.t
    yield ("each-wheel-edge-crossed-t-times",
           all(prof.per_edge[e] == p.t for e in core))
    yield ("each-half-crossed-at-most-once",
           all(prof.per_edge[h] <= 1 for h in fr.classes.half_ids()))
    yield "simple", is_simple(fr.drawing).ok
    yield "min-1-planar", is_min_k_planar(fr.drawing, 1).ok


# ------------------------------------------------------------ separation


def separation_property_check(frame: FrameBundle) -> bool:
    """Does the web cage every wheel edge's endpoints apart?

    Looks at the sub-drawing on the double edges alone, which must be
    crossing free, and computes its faces.  A wheel edge passes when both
    endpoints are web vertices whose face stars are disjoint: then the
    boundary of either star is web material separating u from v, so any
    curve between them has to cross the web.  Returns True only when
    every wheel edge passes.
    """
    halves = frame.classes.half_ids()
    if not halves:
        return False
    sub, _ = restrict(frame.drawing, halves)
    if sub.crossings:
        return False

    # forget the disk boundary: the web's own plane structure decides
    sub = replace(sub, anchors=None)
    pm = sub.planarization
    star: dict[int, set[int]] = {v: set() for v in sub.graph.vertices}
    for fi, orbit in enumerate(pm.faces):
        for dart in orbit:
            star[pm.tail(dart)].add(fi)

    present = set(sub.graph.vertices)
    for e in frame.core_edges:
        u, v = frame.graph.edges[e]
        if u not in present or v not in present:
            return False
        if star[u] & star[v]:
            return False
    return True


# ------------------------------------------------------------- composing


def compose(frame: FrameBundle, bundle: CounterexampleBundle) -> Drawing:
    """Glue a certified disk drawing into the frame, identifying anchors.

    The frame must have been built for the bundle's anchored graph.  The
    glued drawing occupies the region outside the frame's anchor circle,
    so it enters as its ``mirror``: its rotations reverse.  Crossings of
    the two parts stay disjoint; the result is certified against
    ``composition_claims`` before it is returned.
    """
    if bundle.anchored_graph != frame.source:
        raise InputError("frame was not built for this anchored graph")

    gd = mirror(bundle.drawing)
    G = bundle.anchored_graph.graph
    off = frame.graph.m

    nmap: dict[int, int] = {}
    for i, ga in enumerate(bundle.anchored_graph.anchors):
        nmap[ga] = frame.anchors[i]
    nxt = 1 + max(x.id for x in frame.drawing.crossings)
    interiors = [v for v in G.vertices if v not in nmap]
    for v in interiors:
        nmap[v] = nxt
        nxt += 1
    for x in gd.crossings:
        nmap[x.id] = nxt
        nxt += 1

    vertices = tuple(frame.graph.vertices) + tuple(nmap[v] for v in interiors)
    edges = tuple(frame.graph.edges) + tuple(
        (nmap[u], nmap[v]) for (u, v) in G.edges
    )
    graph = Graph(vertices, edges, simple=False)

    crossings = tuple(frame.drawing.crossings) + tuple(
        Crossing(nmap[x.id], (x.edges[0] + off, x.edges[1] + off))
        for x in gd.crossings
    )

    chains = dict(frame.drawing.chains)
    for e, ch in gd.chains.items():
        chains[off + e] = tuple(nmap[n] for n in ch)

    ganchors = set(bundle.anchored_graph.anchors)
    fanchors = set(frame.anchors)
    rotation = {
        n: refs
        for n, refs in frame.drawing.rotation.items()
        if n not in fanchors
    }
    for n, refs in gd.rotation.items():
        if n in ganchors:
            continue
        rotation[nmap[n]] = tuple((e + off, s) for (e, s) in refs)
    for i, ga in enumerate(bundle.anchored_graph.anchors):
        fa = frame.anchors[i]
        mine = frame.drawing.rotation.get(fa, ())
        theirs = tuple((e + off, s) for (e, s) in gd.rotation.get(ga, ()))
        rotation[fa] = tuple(mine) + theirs

    out = Drawing(graph, crossings, chains, rotation, anchors=None)
    certify("composition", composition_claims(out, frame, bundle))
    return out


def composition_claims(out: Drawing, frame: FrameBundle,
                       bundle: CounterexampleBundle) -> Claims:
    """Theorem 1's claims on a composed drawing: valid, min-k-planar for
    the bundle's claimed k, and no crossing gained or lost in the glue."""
    mk = bundle.claimed_min_k
    yield "drawing-valid", validate(out) == []
    yield f"min-{mk}-planar", is_min_k_planar(out, mk).ok
    yield ("crossings-additive", len(out.crossings)
           == len(frame.drawing.crossings) + len(bundle.drawing.crossings))
