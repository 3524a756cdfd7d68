"""Scene conversion tests: coordinates in, combinatorial drawings out."""

import hashlib
import itertools
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from minkplanar.errors import GeometryError, InputError, MinkplanarError
from minkplanar.graphs import Graph
from minkplanar import geometry
from minkplanar.geometry import (
    Scene, _overlapping_boxes, on_circle, scene_to_drawing,
)
from minkplanar.drawings import crossing_profile, validate
from minkplanar.jsonio import drawing_text, drawing_to_json

from test_drawings import crossing_chords, double_crossing


def test_on_circle():
    x, y = on_circle(2.0, 90.0)
    assert abs(x) < 1e-12 and abs(y - 2.0) < 1e-12


def test_crossing_chords_from_coordinates():
    g = Graph((0, 1, 2, 3), ((0, 2), (1, 3)))
    pos = {
        0: on_circle(1.0, 90.0),
        1: on_circle(1.0, 0.0),
        2: on_circle(1.0, -90.0),
        3: on_circle(1.0, 180.0),
    }
    scene = Scene(
        g, pos,
        routes={0: (pos[0], pos[2]), 1: (pos[1], pos[3])},
        anchors=(0, 1, 2, 3),
    )
    d, pts = scene_to_drawing(scene)
    assert drawing_text(d) == drawing_text(crossing_chords())
    assert len(pts) == 1
    (x, y) = pts[4]
    assert abs(x) < 1e-12 and abs(y) < 1e-12


def test_double_crossing_from_coordinates():
    g = Graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    pos = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (1.0, 1.0), 3: (3.0, 1.0)}
    scene = Scene(
        g, pos,
        routes={
            0: (pos[0], pos[1]),
            1: (pos[2], (2.0, -1.0), pos[3]),
        },
    )
    d, pts = scene_to_drawing(scene)
    assert drawing_text(d) == drawing_text(double_crossing())
    assert sorted(pts) == [4, 5]
    assert pts[4][0] < pts[5][0]  # ids follow the order along edge 0


def test_conversion_is_deterministic():
    g = Graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    pos = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (1.0, 1.0), 3: (3.0, 1.0)}
    routes = {0: (pos[0], pos[1]), 1: (pos[2], (2.0, -1.0), pos[3])}
    d1, _ = scene_to_drawing(Scene(g, pos, routes))
    d2, _ = scene_to_drawing(Scene(g, pos, routes))
    assert d1.chains == d2.chains and d1.rotation == d2.rotation


# ------------------------------------------------- degenerate input guard


def line_graph():
    return Graph((0, 1, 2, 3), ((0, 1), (2, 3)))


def test_an_end_arriving_at_angle_pi_starts_its_vertex_rotation():
    # edge 0 arrives at vertex 0 from the left along the x-axis, so its end
    # points at angle +pi (not -pi), the largest, and is listed first
    g = Graph((0, 1, 2, 3), ((1, 0), (0, 2), (0, 3)))
    pos = {0: (0.0, 0.0), 1: (-1.0, 0.0), 2: (0.0, 1.0), 3: (1.0, -1.0)}
    routes = {e: (pos[u], pos[v]) for e, (u, v) in enumerate(g.edges)}
    d, _ = scene_to_drawing(Scene(g, pos, routes))
    assert d.rotation[0] == ((0, 0), (1, 0), (2, 0))


def test_rejects_overlapping_segments():
    g = line_graph()
    pos = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (1.0, 1.0), 3: (3.0, 1.0)}
    routes = {0: (pos[0], pos[1]), 1: (pos[2], (1.5, 0.0), (2.5, 0.0), pos[3])}
    with pytest.raises(GeometryError, match="run along a shared segment"):
        scene_to_drawing(Scene(g, pos, routes))


def test_rejects_touch_without_crossing():
    g = line_graph()
    pos = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (1.0, 1.0), 3: (3.0, 1.0)}
    routes = {0: (pos[0], pos[1]), 1: (pos[2], (2.0, 0.0), pos[3])}
    with pytest.raises(GeometryError,
                       match=r"edges 0 and 1 touch without crossing near \(2\.0, 0\.0\)"):
        scene_to_drawing(Scene(g, pos, routes))


def test_rejects_route_through_vertex():
    g = Graph((0, 1, 2, 3, 4), ((0, 1), (2, 3)))
    base = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (1.0, 1.0), 3: (3.0, 1.0)}
    # an isolated vertex on edge 1, then one 1e-8 (under 16 tol) beside it;
    # last, edge 1 crosses edge 0 and ends 1e-8 past it, so edge 0 passes
    # through a vertex that ends only one of the two crossing edges
    for moved, edge, vertex in (
        ({4: (2.0, 1.0)}, 1, 4),
        ({4: (2.0, 1.0 + 1e-8)}, 1, 4),
        ({2: (2.0, 1.0), 3: (2.0, -1e-8), 4: (5.0, 5.0)}, 0, 3),
    ):
        pos = {**base, **moved}
        routes = {0: (pos[0], pos[1]), 1: (pos[2], pos[3])}
        with pytest.raises(
                GeometryError,
                match=f"route of edge {edge} passes through vertex {vertex}"):
            scene_to_drawing(Scene(g, pos, routes))


def test_rejects_crossing_near_vertex():
    # both edges leave vertex 0.  Edge 1's route starts 1.5e-9 below the
    # vertex and is snapped onto it, which leaves a first piece 5e-10
    # long; its second piece then crosses edge 0 5e-9 from the vertex
    g = Graph((0, 1, 2), ((0, 1), (0, 2)))
    pos = {0: (2.0, 0.0), 1: (4.0, 0.0), 2: (12.0, -1.0 + 5e-10)}
    routes = {0: (pos[0], pos[1]),
              1: ((2.0, -1.5e-9), (2.0, 5e-10), pos[2])}
    with pytest.raises(GeometryError, match="edges 0 and 1 cross too close to vertex 0"):
        scene_to_drawing(Scene(g, pos, routes))
    # a terminal piece at most TOL long is part of its end: away from edge
    # 0, the second piece passes as close to the vertex and is accepted
    pos[2] = (12.0, 1.0 + 5e-10)
    routes[1] = routes[1][:2] + (pos[2],)
    d, _ = scene_to_drawing(Scene(g, pos, routes))
    assert d.crossings == ()
    # two such crossings: the one of the lower pieces is reported, though
    # the sweep meets the other, 20 to its left, first
    g = Graph(tuple(range(6)), ((0, 1), (0, 2), (3, 4), (3, 5)))
    pos = {0: (22.0, 0.0), 1: (24.0, 0.0), 2: (32.0, -1.0 + 5e-10),
           3: (2.0, 0.0), 4: (4.0, 0.0), 5: (12.0, -1.0 + 5e-10)}
    routes = {0: (pos[0], pos[1]), 1: ((22.0, -1.5e-9), (22.0, 5e-10), pos[2]),
              2: (pos[3], pos[4]), 3: ((2.0, -1.5e-9), (2.0, 5e-10), pos[5])}
    with pytest.raises(GeometryError,
                       match="edges 0 and 1 cross too close to vertex 0"):
        scene_to_drawing(Scene(g, pos, routes))


def test_rejects_route_back_at_its_own_end_vertex():
    # edge 1 leaves vertex 0, comes back and crosses edge 0 a hair's
    # breadth (1e-8) from the vertex: its third piece passes through it
    g = Graph((0, 1, 2), ((0, 1), (0, 2)))
    pos = {0: (2.0, 0.0), 1: (4.0, 0.0), 2: (4.0 + 2e-8, -2.0)}
    routes = {0: (pos[0], pos[1]), 1: (pos[0], (0.0, 1.0), (0.0, 2.0), pos[2])}
    with pytest.raises(GeometryError,
                       match="route of edge 1 passes through vertex 0"):
        scene_to_drawing(Scene(g, pos, routes))
    # alone, meeting no other edge, the route still passes through it
    g = Graph((0, 2), ((0, 2),))
    with pytest.raises(GeometryError,
                       match="route of edge 0 passes through vertex 0"):
        scene_to_drawing(Scene(g, pos, {0: routes[1]}))


def test_the_corpus_scene_whose_route_returns_to_its_vertex_is_rejected():
    # scene 575 of the pinned corpus: edge 5 leaves vertex 0, and its
    # middle piece crosses back over edge 2 within 16 TOL of the vertex.
    # Its crossings there read as touches at a shared vertex, and the
    # drawing failed validation instead
    rng = random.Random(13)
    for i in range(576):
        scene = _corpus_scene(rng, _CORPUS_KINDS[i % len(_CORPUS_KINDS)])
    with pytest.raises(GeometryError,
                       match="route of edge 5 passes through vertex 0"):
        scene_to_drawing(scene)


def test_rejects_self_crossing_route():
    g = Graph((0, 1), ((0, 1),))
    pos = {0: (0.0, 0.0), 1: (3.0, 0.0)}
    route = (pos[0], (2.0, 1.0), (1.0, 1.0), (2.5, -1.0), pos[1])
    with pytest.raises(GeometryError, match="edge 0 crosses itself"):
        scene_to_drawing(Scene(g, pos, {0: route}))


@pytest.mark.parametrize("per_slice", [1, 7, 1 << 16])
def test_a_self_crossing_is_reported_before_an_earlier_touch(monkeypatch,
                                                              per_slice):
    # edge 1 touches edge 0 at its bend (2, 0); edge 2 crosses itself at
    # (1, 4).  The touch's pair comes from the box of edge 0, which has the
    # least left edge, so with small slices it is classified a slice
    # before the self-crossing, which still wins
    monkeypatch.setattr(geometry, "_SWEEP_SLICE", per_slice)
    g = Graph(tuple(range(6)), ((0, 1), (2, 3), (4, 5)))
    pos = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (1.0, 1.0), 3: (3.0, 1.0),
           4: (0.0, 3.0), 5: (0.0, 5.0)}
    routes = {0: (pos[0], pos[1]), 1: (pos[2], (2.0, 0.0), pos[3]),
              2: (pos[4], (2.0, 5.0), (2.0, 3.0), pos[5])}
    with pytest.raises(GeometryError, match="edge 2 crosses itself"):
        scene_to_drawing(Scene(g, pos, routes))
    # without edge 2 the touch is reported
    g = Graph(tuple(range(6)), g.edges[:2])
    del routes[2]
    with pytest.raises(GeometryError, match="edges 0 and 1 touch"):
        scene_to_drawing(Scene(g, pos, routes))

    # edge 1 runs along edge 0 over [0.5, 1.5], a pair from the left box of
    # edge 0; edge 2 passes through the lone vertex 6 further right, a
    # pair of a later slice, which still wins
    g = Graph(tuple(range(7)), ((0, 1), (2, 3), (4, 5)))
    pos = {0: (0.0, 0.0), 1: (2.0, 0.0), 2: (1.0, -1.0), 3: (1.0, 1.0),
           4: (5.0, 1.0), 5: (5.0, -1.0), 6: (5.0, 0.0)}
    overlap = (pos[2], (0.5, 0.0), (1.5, 0.0), pos[3])
    routes = {0: (pos[0], pos[1]), 1: overlap, 2: (pos[4], pos[5])}
    with pytest.raises(GeometryError,
                       match="route of edge 2 passes through vertex 6"):
        scene_to_drawing(Scene(g, pos, routes))
    # edge 2 crosses itself on the left and edges 0 and 1 overlap on the
    # right, in a later slice: the overlap wins
    pos = {0: (5.0, 0.0), 1: (7.0, 0.0), 2: (6.0, -1.0), 3: (6.0, 1.0),
           4: (0.0, 3.0), 5: (0.0, 5.0), 6: (9.0, 9.0)}
    overlap = (pos[2], (5.5, 0.0), (6.5, 0.0), pos[3])
    routes = {0: (pos[0], pos[1]), 1: overlap,
              2: (pos[4], (2.0, 5.0), (2.0, 3.0), pos[5])}
    with pytest.raises(GeometryError,
                       match="edges 0 and 1 run along a shared segment"):
        scene_to_drawing(Scene(g, pos, routes))


def test_rejects_route_doubling_back():
    # the second piece runs back over [1, 3] of the first; consecutive
    # pieces are never paired as candidates, so this needs its own check
    g = Graph((0, 1), ((0, 1),))
    pos = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    route = (pos[0], (3.0, 0.0), pos[1])
    with pytest.raises(GeometryError, match="route of edge 0 doubles back on itself"):
        scene_to_drawing(Scene(g, pos, {0: route}))
    # a straight bend, both pieces in one direction, is fine
    scene_to_drawing(Scene(g, pos, {0: (pos[0], (0.5, 0.0), pos[1])}))


def test_an_empty_route_collapses_to_a_point():
    g = Graph((0, 1), ((0, 1),))
    pos = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    with pytest.raises(GeometryError,
                       match="route of edge 0 collapses to a point"):
        scene_to_drawing(Scene(g, pos, {0: ()}))


@pytest.mark.parametrize("nv", [3, 4])
def test_an_empty_route_collapses_among_more_vertices(nv):
    # the scene has no piece at all, but more vertex items than two
    g = Graph(tuple(range(nv)), ((0, 1),))
    pos = {v: (float(v), 0.0) for v in range(nv)}
    with pytest.raises(GeometryError,
                       match="route of edge 0 collapses to a point"):
        scene_to_drawing(Scene(g, pos, {0: ()}))


@pytest.mark.parametrize("nv", [0, 1, 2, 3, 4])
def test_an_edgeless_scene_converts(nv):
    g = Graph(tuple(range(nv)), ())
    pos = {v: (float(v), 0.0) for v in range(nv)}
    drawing, points = scene_to_drawing(Scene(g, pos, {}))
    assert drawing.crossings == () and points == {}
    assert drawing.rotation == dict.fromkeys(range(nv), ())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_bend_is_rejected(bad):
    # edge 1, a vertical chord, would cross edge 0 at its bend
    g = line_graph()
    pos = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 1.0), 3: (0.5, -1.0)}
    routes = {0: (pos[0], (0.5, bad), pos[1]), 1: (pos[2], pos[3])}
    with pytest.raises(GeometryError, match=(
            rf"route of edge 0 has a non-finite point \(0\.5, -?{bad}\)")):
        scene_to_drawing(Scene(g, pos, routes))


def test_a_non_finite_vertex_position_is_rejected():
    g = line_graph()
    pos = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (math.nan, 1.0), 3: (0.5, -1.0)}
    routes = {0: (pos[0], pos[1]), 1: (pos[2], pos[3])}
    with pytest.raises(GeometryError,
                       match=r"vertex 2 has a non-finite position \(nan, 1\.0\)"):
        scene_to_drawing(Scene(g, pos, routes))


def test_rejects_anchor_off_circle():
    g = Graph((0, 1), ((0, 1),))
    pos = {0: on_circle(1.0, 90.0), 1: (0.5, 0.0)}
    with pytest.raises(GeometryError,
                       match="anchor 1 does not sit on the boundary circle"):
        scene_to_drawing(Scene(g, pos, {0: (pos[0], pos[1])}, anchors=(0, 1)))


_CHORDS = {v: on_circle(1.0, 90.0 - 90.0 * v) for v in range(4)}
_CHORD_ROUTES = {0: (_CHORDS[0], _CHORDS[2]), 1: (_CHORDS[1], _CHORDS[3])}


@pytest.mark.parametrize("change, message", [
    # each was a TypeError or a ValueError from sorting the keys, reading
    # or reshaping the coordinates or comparing the radius
    ({"routes": {0: _CHORD_ROUTES[0], "1": _CHORD_ROUTES[1]}},
     "routes must cover exactly the edge ids"),
    ({"routes": {0: _CHORD_ROUTES[0],
                 1: (_CHORDS[1], (0.5, "x"), _CHORDS[3])}},
     r"route of edge 1 has a point that is not two numbers: \(0.5, 'x'\)"),
    ({"routes": {0: _CHORD_ROUTES[0],
                 1: (_CHORDS[1], (0.5, 0.1, 0.0), _CHORDS[3])}},
     r"route of edge 1 has a point that is not two numbers: "
     r"\(0.5, 0.1, 0.0\)"),
    ({"routes": {0: _CHORD_ROUTES[0],
                 1: (_CHORDS[1], (0.0, 0.0, None))}},
     r"route of edge 1 has a point that is not two numbers: "
     r"\(0.0, 0.0, None\)"),
    ({"routes": {0: _CHORD_ROUTES[0], 1: None}},
     "route of edge 1 is no sequence of points: None"),
    ({"radius": "1.0"}, "the radius '1.0' is no number"),
    ({"positions": {**_CHORDS, "x": (0.0, 0.0)}},
     "the positions must be keyed by vertex ids"),
    ({"positions": {**_CHORDS, 2: None}},
     "the position of vertex 2 is not two numbers: None"),
], ids=["route keys of mixed types", "a coordinate that is no number",
        "a point of three coordinates",
        "a last point with a third coordinate None", "a route that is None",
        "a radius that is a string", "position keys of mixed types",
        "a position that is None"])
def test_a_malformed_scene_raises_an_input_error(change, message):
    scene = {"graph": Graph((0, 1, 2, 3), ((0, 2), (1, 3))),
             "positions": _CHORDS, "routes": _CHORD_ROUTES,
             "anchors": (0, 1, 2, 3), **change}
    with pytest.raises(InputError, match=f"^{message}$"):
        scene_to_drawing(Scene(**scene))


@pytest.mark.parametrize("anchors, message", [
    ((0, True), "anchors/1: expected a non-negative integer"),
    ((0, 1.0), "anchors/1: expected a non-negative integer"),
    ((0, 99), "no position for anchor 99"),
])
def test_rejects_anchors_that_are_no_ids_or_have_no_position(anchors,
                                                             message):
    # True and 1.0 look up vertex 1's position like 1 does, and would
    # reach the drawing, and its JSON, as they are
    g = Graph((0, 1), ((0, 1),))
    pos = {0: on_circle(1.0, 90.0), 1: on_circle(1.0, -90.0)}
    scene = Scene(g, pos, {0: (pos[0], pos[1])}, anchors=anchors)
    with pytest.raises(InputError, match=f"^{message}$"):
        scene_to_drawing(scene)


def test_the_drawing_carries_the_checked_anchor_ids():
    g = Graph((0, 1), ((0, 1),))
    pos = {0: on_circle(1.0, 90.0), 1: on_circle(1.0, -90.0)}
    d, _ = scene_to_drawing(Scene(g, pos, {0: (pos[0], pos[1])},
                                  anchors=(np.int64(0), np.int64(1))))
    assert [type(a) for a in d.anchors] == [int, int]
    assert json.loads(drawing_text(d))["outer_face"] == [0, 1]


_ARMS = ((1.0, 0.0), (0.0, 1.0))


def _read_off(tip_way, arms=_ARMS):
    """``geometry._rotations`` on edges 0-1, 1-3 and 2-0 of the vertices 0
    to 3 and the isolated 9, their tips leaving along ``tip_way``,
    anchors 1 (at the top of the unit circle) and 2 (at the bottom), and
    one crossing 10 of edges 0 and 2 whose pieces run along the two
    ``arms``."""
    g = Graph((0, 1, 2, 3, 9), ((0, 1), (1, 3), (2, 0)))
    x, y = np.array(tip_way, dtype=float).T
    head = np.array(arms, dtype=float)[::-1]
    way = np.array((head - (0.0 - head), (0.0 - head) - head))
    # the crossing lies first on edges 2 and 0, its arms on, then back
    return geometry._rotations(
        g, (1, 2), np.array([(0.0, 1.0), (0.0, -1.0)]), np.arctan2(y, x),
        np.array([10]), np.array([2, 0]), np.array([1, 1]),
        np.arctan2(way[..., 1], way[..., 0]))


# out of 0 along edge 0, into 1; out of 1 along edge 1, into 3; out of 2
# along edge 2, into 0: both anchors' ends point into the disk
_TIPS = [(1, 0), (0, -1), (-1, -1), (1, 1), (0, 1), (-1, 0)]


def test_every_rotation_is_read_off_in_the_converters_order():
    rot = _read_off(_TIPS)
    # crossings, then vertices as the edges first reach them, anchors in
    # order and isolated vertices; each by falling angle, an anchor's by
    # its turn from the tangent, clockwise from the top
    assert list(rot) == [10, 0, 3, 1, 2, 9]
    assert rot[10] == ((0, 0), (2, 1), (0, 1), (2, 0))
    assert rot[0] == ((2, 1), (0, 0))
    assert rot[1] == ((0, 1), (1, 0))
    assert rot[2] == ((2, 0),) and rot[3] == ((1, 0),) and rot[9] == ()


@pytest.mark.parametrize("change, arms, message", [
    # a crossing before a vertex, a vertex before any anchor, the first
    # anchor with a fault, and at one anchor an end leaving the disk
    # before a tangential one
    ({0: (1, 1), 5: (1, 1)}, ((1.0, 0.0), (2.0, 0.0)),
     "tangential curves at node 10"),
    ({0: (1, 1), 5: (1, 1), 4: (0, -1)}, _ARMS,
     "tangential curves at node 0"),
    ({1: (-1, -1), 4: (0, -1)}, _ARMS, "tangential curves at anchor 1"),
    ({1: (0, 1), 2: (0, 2), 4: (0, -1)}, _ARMS,
     "curve leaves the disk at anchor 1"),
    ({4: (1, 0)}, _ARMS, "curve leaves the disk at anchor 2"),
])
def test_read_off_faults_go_in_the_converters_order(change, arms, message):
    tips = [change.get(i, way) for i, way in enumerate(_TIPS)]
    with pytest.raises(GeometryError, match=f"^{message}$"):
        _read_off(tips, arms)


def test_rejects_counterclockwise_anchor_listing():
    g = Graph((0, 1, 2), ((0, 1),))
    pos = {
        0: on_circle(1.0, 90.0),
        1: on_circle(1.0, -30.0),
        2: on_circle(1.0, 210.0),
    }
    scene = Scene(g, pos, {0: (pos[0], pos[1])}, anchors=(0, 2, 1))
    with pytest.raises(GeometryError, match="not listed in clockwise circular order"):
        scene_to_drawing(scene)


def test_rejects_route_leaving_disk():
    g = Graph((0, 1), ((0, 1),))
    pos = {0: on_circle(1.0, 90.0), 1: on_circle(1.0, -90.0)}
    route = (pos[0], (1.4, 0.0), pos[1])
    with pytest.raises(GeometryError, match="route of edge 0 leaves the boundary disk"):
        scene_to_drawing(Scene(g, pos, {0: route}, anchors=(0, 1)))


# ------------------------------------------------------ randomised chords


def chords_interleave(c1, c2):
    """Whether two boundary chords, given by anchor indices, must cross."""
    (a, b), (c, d) = sorted(c1), sorted(c2)
    if len({a, b, c, d}) < 4:
        return False
    return (a < c < b) != (a < d < b)


def test_random_chord_diagrams_match_interleaving_count():
    # straight chords of a circle cross exactly when their endpoints
    # interleave, which gives an independent count to compare against
    rng = random.Random(20240817)
    for trial in range(25):
        n = rng.randrange(5, 11)
        angles = sorted(rng.uniform(0.0, 360.0) for _ in range(n))
        angles.reverse()  # clockwise listing
        if min(a - b for a, b in zip(angles, angles[1:])) < 2.0:
            continue
        pos = {i: on_circle(1.0, angles[i]) for i in range(n)}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rng.randrange(2, min(8, len(pairs)))
        edges = tuple(sorted(rng.sample(pairs, m)))
        g = Graph(tuple(range(n)), edges)
        scene = Scene(
            g, pos,
            routes={e: (pos[edges[e][0]], pos[edges[e][1]]) for e in range(m)},
            anchors=tuple(range(n)),
        )
        try:
            d, _ = scene_to_drawing(scene)
        except GeometryError:
            continue  # a three way concurrence got unlucky; skip the trial
        assert validate(d) == []
        want = sum(
            1
            for x in range(m)
            for y in range(x + 1, m)
            if chords_interleave(edges[x], edges[y])
        )
        assert crossing_profile(d).total == want


# ------------------------------------------- property test against oracle


@pytest.mark.parametrize("per_slice", [1, 5, 1 << 21])
def test_box_sweep_finds_every_overlapping_pair(monkeypatch, per_slice):
    monkeypatch.setattr(geometry, "_SWEEP_SLICE", per_slice)
    rng = random.Random(per_slice)
    # one strip, and inputs cut into several y-strips
    for per_strip in (1 << 11, 7, 1):
        monkeypatch.setattr(geometry, "_SWEEP_STRIP", per_strip)
        for _ in range(20):
            n = rng.randrange(1, 40)
            # coarse integer corners, so boxes often share edges and corners
            lo = [(rng.randrange(10), rng.randrange(10)) for _ in range(n)]
            hi = [(x + rng.randrange(4), y + rng.randrange(4)) for x, y in lo]
            tags = [(rng.randrange(30), rng.randrange(30)) for _ in range(n)]
            overlap = [
                (i, j) for i in range(n) for j in range(i + 1, n)
                if lo[i][0] <= hi[j][0] and lo[j][0] <= hi[i][0]
                and lo[i][1] <= hi[j][1] and lo[j][1] <= hi[i][1]
            ]
            lo_a, hi_a = np.array(lo, dtype=float), np.array(hi, dtype=float)
            got = _joined_slices(lo_a, hi_a, np.arange(2 * n).reshape(2, n))
            assert sorted(zip(got[0].tolist(), got[1].tolist())) == overlap
            # boxes that share a tag are not paired
            got = _joined_slices(lo_a, hi_a, np.array(tags).T)
            assert sorted(zip(got[0].tolist(), got[1].tolist())) == [
                (i, j) for i, j in overlap if not set(tags[i]) & set(tags[j])]


def _joined_slices(lo, hi, tags):
    """The pairs of ``_overlapping_boxes``, its slices joined, checking
    that a slice holds at most ``_SWEEP_SLICE`` pairs unless they are the
    pairs of a single box."""
    slices = list(_overlapping_boxes(lo, hi, tags))
    for pairs in slices:
        assert pairs.shape[1] <= geometry._SWEEP_SLICE or set.intersection(
            *({i, j} for i, j in pairs.T.tolist()))
    return np.concatenate(slices, axis=1)


# ------------------------------------------------ pieces at a shared vertex


@pytest.mark.parametrize("leaving", [True, False])
def test_collinear_edges_at_a_vertex_run_along_a_shared_segment(leaving):
    # both edges leave vertex 0 along the x-axis (or both arrive there)
    g = Graph((0, 1, 2), ((0, 1), (0, 2)) if leaving else ((1, 0), (2, 0)))
    pos = {0: (0.0, 0.0), 1: (2.0, 0.0), 2: (1.0, 1.0)}
    routes = {0: (pos[0], pos[1]), 1: (pos[0], (1.0, 0.0), pos[2])}
    if not leaving:
        routes = {e: r[::-1] for e, r in routes.items()}
    with pytest.raises(GeometryError,
                       match="edges 0 and 1 run along a shared segment"):
        scene_to_drawing(Scene(g, pos, routes))


def test_straight_parallel_edges_run_along_a_shared_segment():
    g = Graph((0, 1), ((0, 1), (0, 1)), simple=False)
    pos = {0: (0.0, 0.0), 1: (1.0, 2.0)}
    routes = {0: (pos[0], pos[1]), 1: (pos[0], pos[1])}
    with pytest.raises(GeometryError,
                       match="edges 0 and 1 run along a shared segment"):
        scene_to_drawing(Scene(g, pos, routes))


def test_edges_either_side_of_angle_zero_run_along_a_shared_segment():
    # edges 0 and 1 leave vertex 0 at +1e-10 and -1e-10 rad, angles that
    # fall at either end of [0, pi) once taken modulo pi.  The window of
    # nearly parallel pairs wraps around to pair them.  Unpaired, only
    # edge 1's bend at distance 1, 1e-10 from edge 0, would be seen, as a
    # touch
    g = Graph((0, 1, 2), ((0, 1), (0, 2)))
    pos = {0: (0.0, 0.0), 1: (2.0 * math.cos(1e-10), 2.0 * math.sin(1e-10)),
           2: (1.0, -1.0)}
    routes = {0: (pos[0], pos[1]),
              1: (pos[0], (math.cos(-1e-10), math.sin(-1e-10)), pos[2])}
    with pytest.raises(GeometryError,
                       match="edges 0 and 1 run along a shared segment"):
        scene_to_drawing(Scene(g, pos, routes))


@pytest.mark.parametrize("angle", [1.5e-4, math.pi - 1.5e-4, 1e-6])
def test_pieces_at_a_shallow_angle_at_their_vertex_are_accepted(angle):
    # the first two angles lie just outside the window of nearly parallel
    # pairs, the last inside it; each pair only touches at vertex 0, the
    # two edges arriving there and leaving it
    g = Graph((0, 1, 2), ((1, 0), (0, 2)))
    pos = {0: (0.5, 0.5), 1: (10.5, 0.5),
           2: (0.5 + math.cos(angle), 0.5 + math.sin(angle))}
    routes = {0: (pos[1], pos[0]), 1: (pos[0], pos[2])}
    d, pts = scene_to_drawing(Scene(g, pos, routes))
    assert d.crossings == () and pts == {}
    assert set(d.rotation[0]) == {(0, 0), (1, 0)}


def _fan(spokes: int) -> Scene:
    """A hub with ``spokes`` straight spokes to the unit circle, two of
    them nearly parallel, and one chord across the first quarter."""
    angles = [360.0 * i / spokes for i in range(spokes)]
    angles[1] = angles[0] + 1e-5
    pos = {0: (0.0, 0.0)}
    pos.update({i + 1: on_circle(1.0 - 0.001 * (i % 3), a)
                for i, a in enumerate(angles)})
    edges = [(0, i + 1) for i in range(spokes)]
    edges.append((spokes // 4 + 1, 3))
    routes = {e: (pos[u], pos[v]) for e, (u, v) in enumerate(edges)}
    return Scene(Graph(tuple(pos), tuple(edges)), pos, routes)


def test_a_200_spoke_fan_converts_as_before():
    d, pts = scene_to_drawing(_fan(200))
    # the chord crosses the spokes strictly between its ends, each once
    assert sorted(c.edges for c in d.crossings) == [
        (e, 200) for e in range(3, 50)]
    hub = d.rotation[0]
    assert sorted(hub) == [(e, 0) for e in range(200)]
    # clockwise from spoke 0, which is nearly parallel to spoke 1
    assert hub[hub.index((0, 0)) - 1] == (1, 0)
    doc = json.dumps(drawing_to_json(d), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == _FAN_DIGEST


# drawing_to_json's digest, recorded while the converter still classified
# every pair of spokes
_FAN_DIGEST = "69ff2fc6b8b0d9568f2ae940d450fef5bdce7f6daf8a98137a0c1417a06946b8"


# ---------------------------------------- one segment pair, as a scalar


def _segment_intersection(a, b, c, d, tol):
    """Classified intersection of segments ab and cd, one pair at a time:
    the corpus's and the oracle's own judge, apart from the converter.

    Returns one of
      None                      disjoint,
      ('cross', point, s, t)    transversal interior crossing,
      ('touch', point)          meeting at or near segment ends,
      ('overlap', None)         collinear with a shared stretch.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    dx, dy = d
    r = (bx - ax, by - ay)
    s = (dx - cx, dy - cy)
    denom = r[0] * s[1] - r[1] * s[0]
    acx, acy = cx - ax, cy - ay
    len_r = math.hypot(*r)
    len_s = math.hypot(*s)
    if len_r == 0.0 or len_s == 0.0:
        raise GeometryError("zero length segment in a route")
    if abs(denom) <= tol * len_r * len_s:
        # parallel; collinear only if c is on the line of ab
        if abs(acx * r[1] - acy * r[0]) > tol * len_r:
            return None
        # collinear: measure overlap of projections
        t0 = (acx * r[0] + acy * r[1]) / (len_r * len_r)
        t1 = t0 + (s[0] * r[0] + s[1] * r[1]) / (len_r * len_r)
        lo, hi = min(t0, t1), max(t0, t1)
        eps = tol / len_r
        if hi < -eps or lo > 1 + eps:
            return None
        if min(hi, 1.0) - max(lo, 0.0) <= eps:
            # touching at a single shared point
            t = (max(lo, 0.0) + min(hi, 1.0)) / 2.0
            return ("touch", (ax + t * r[0], ay + t * r[1]))
        return ("overlap", None)
    u = (acx * s[1] - acy * s[0]) / denom
    v = (acx * r[1] - acy * r[0]) / denom
    eu = tol / len_r
    ev = tol / len_s
    if u < -eu or u > 1 + eu or v < -ev or v > 1 + ev:
        return None
    pt = (ax + u * r[0], ay + u * r[1])
    if eu < u < 1 - eu and ev < v < 1 - ev:
        return ("cross", pt, u, v)
    return ("touch", pt)



# ------------------------------------------------ pinned outcomes of a corpus

_CORPUS_KINDS = ("plain",) * 3 + (
    "vertex on route", "bend on route", "vertex near crossing",
    "end near crossing", "bend near crossing", "crossing near shared vertex")
# distances of a placed vertex or bend from its target: on it, inside and
# around the 16 TOL clearances, and well clear
_CORPUS_OFFSETS = (0.0, 1e-9, 4e-9, 1.2e-8, 1.6e-8, 2e-8, 5e-8, 1e-6, 1e-3)


def _nudge(rng, p):
    r = rng.choice(_CORPUS_OFFSETS)
    a = rng.uniform(0.0, 2.0 * math.pi)
    return (p[0] + r * math.cos(a), p[1] + r * math.sin(a))


def _corpus_scene(rng, kind):
    """4-6 vertices near the unit circle and 0-2 inside, 2-5 edges with 0-2
    bends, anchored or free; then ``kind`` puts a vertex or a bend on or
    near a route or a crossing, or adds an edge that turns back across
    another edge close to the vertex they share."""
    anchored = kind != "crossing near shared vertex" and rng.random() < 0.7
    n = rng.randint(4, 6)
    pos = {i: on_circle(1.0, 90.0 - 360.0 * i / n + rng.uniform(-10.0, 10.0))
           for i in range(n)}
    for v in range(n, n + rng.randint(0, 2)):
        pos[v] = on_circle(0.8 * rng.random() ** 0.5, rng.uniform(0.0, 360.0))
    pairs = [(u, v) for u in pos for v in pos if u < v]
    edges = rng.sample(pairs, rng.randint(2, 5))
    routes = []
    for u, v in edges:
        bends = [on_circle(0.9 * rng.random() ** 0.5, rng.uniform(0.0, 360.0))
                 for _ in range(rng.randint(0, 2))]
        routes.append([pos[u], *bends, pos[v]])
    crossings = [
        (e, f, hit[1])
        for e in range(len(edges)) for f in range(e + 1, len(edges))
        for a, b in zip(routes[e], routes[e][1:])
        for c, d in zip(routes[f], routes[f][1:])
        if (hit := _segment_intersection(a, b, c, d, 1e-9)) and hit[0] == "cross"
    ]
    e = rng.randrange(len(edges))
    f = rng.randrange(len(edges))
    on_f = _point_on(routes[f], rng.randrange(len(routes[f]) - 1),
                     rng.uniform(0.1, 0.9))
    if kind == "vertex on route":
        pos[len(pos)] = _nudge(rng, on_f)
    elif kind == "bend on route" and e != f:
        routes[e].insert(rng.randint(1, len(routes[e]) - 1), _nudge(rng, on_f))
    elif kind == "vertex near crossing" and crossings:
        pos[len(pos)] = _nudge(rng, rng.choice(crossings)[2])
    elif kind == "end near crossing" and crossings:
        w = len(pos)
        pos[w] = _nudge(rng, rng.choice(crossings)[2])
        x = rng.randrange(w)
        edges.append((x, w))
        routes.append([pos[x], pos[w]])
    elif kind == "bend near crossing" and crossings:
        e1, e2, p = rng.choice(crossings)
        if e not in (e1, e2):
            routes[e].insert(rng.randint(1, len(routes[e]) - 1), _nudge(rng, p))
    elif kind == "crossing near shared vertex":
        v = edges[e][0]
        (vx, vy), q = routes[e][0], routes[e][1]
        ln = math.dist((vx, vy), q)
        ux, uy = (q[0] - vx) / ln, (q[1] - vy) / ln
        d = min(rng.choice(_CORPUS_OFFSETS[1:]), 0.5 * ln)
        px, py = vx + d * ux, vy + d * uy
        w = len(pos)
        pos[w] = on_circle(0.9 * rng.random() ** 0.5, rng.uniform(0.0, 360.0))
        edges.append((v, w))
        routes.append([pos[v], (px - 0.05 * uy, py + 0.05 * ux),
                       (px + 0.05 * uy, py - 0.05 * ux), pos[w]])
    g = Graph(tuple(pos), tuple(edges))
    return Scene(g, pos, {e: tuple(r) for e, r in enumerate(routes)},
                 anchors=tuple(range(n)) if anchored else None,
                 radius=1.0 if anchored else None)


def _outcome(scene):
    """The drawing JSON and the crossing points, or the error."""
    try:
        d, pts = scene_to_drawing(scene)
    except MinkplanarError as err:
        return f"{type(err).__name__}: {err}"
    return json.dumps([drawing_to_json(d), sorted(pts.items())], sort_keys=True)


def _corpus_digest():
    rng = random.Random(13)
    outcomes = "\n".join(
        _outcome(_corpus_scene(rng, _CORPUS_KINDS[i % len(_CORPUS_KINDS)]))
        for i in range(600))
    return hashlib.sha256(outcomes.encode()).hexdigest()


def test_a_seeded_corpus_converts_as_before():
    assert _corpus_digest() == _CORPUS_DIGEST


@pytest.mark.parametrize("per_slice", [1, 7])
def test_the_corpus_converts_as_before_in_small_chunks(monkeypatch,
                                                       per_slice):
    monkeypatch.setattr(geometry, "_SWEEP_SLICE", per_slice)
    assert _corpus_digest() == _CORPUS_DIGEST


# the digest of the 600 outcomes, recorded once a route's middle piece
# near its own end vertex was rejected as passing through it
_CORPUS_DIGEST = "1a300602ea9dc3829e3b6a2c3b654fdbfcc8ec13ee301364649d05030ffaffdd"


# ------------------------------------------ pinned outcomes of route faults

_ROUTE_KINDS = ("bend run", "end off", "short end", "double back",
                "outside disk", "anchor off", "tangent at vertex",
                "tangent at anchor", "several")


def _unit(rng):
    a = rng.uniform(0.0, 2.0 * math.pi)
    return math.cos(a), math.sin(a)


def _toward(p, q):
    d = math.dist(p, q)
    return (q[0] - p[0]) / d, (q[1] - p[1]) / d


def _turn(d, angle):
    c, s = math.cos(angle), math.sin(angle)
    return c * d[0] - s * d[1], s * d[0] + c * d[1]


def _at(p, d, length):
    return p[0] + length * d[0], p[1] + length * d[1]


def _move_vertex(scene, w, p):
    """Puts vertex ``w`` at ``p`` and the route ends there with it."""
    old = scene.positions[w]
    scene.positions[w] = p
    for e, (a, b) in enumerate(scene.graph.edges):
        r = scene.routes[e]
        if a == w and r[0] == old:
            r[0] = p
        if b == w and r[-1] == old:
            r[-1] = p


def _route_fault(rng, scene, kind, e):
    """Puts a route-level fault of ``kind``, or a near miss of one, on edge
    ``e`` of ``scene``, whose routes are lists, in place."""
    g, pos, r = scene.graph, scene.positions, scene.routes[e]
    u, v = g.edges[e]
    end = rng.choice((0, -1))
    if kind == "bend run":
        # bends each within about TOL of the one before, drifting further
        # from the first; in the middle of a piece or running into an end
        if rng.random() < 0.3:
            run = [_at(r[end], _unit(rng), rng.choice((5e-10, 2e-9, 5e-7)))]
        else:
            i = rng.randrange(len(r) - 1)
            run = [_point_on(r, i, rng.uniform(0.1, 0.9))]
            end = i + 1
        for _ in range(rng.randint(1, 4)):
            run.append(_at(run[-1], _unit(rng), rng.choice(
                (3e-10, 7e-10, 9.9e-10, 1.01e-9, 2e-9, 1e-6))))
        if end == -1:
            r[-1:-1] = run[::-1]
        elif end == 0:
            r[1:1] = run
        else:
            r[end:end] = run
    elif kind == "end off":
        if rng.random() < 0.15:
            # all but the start within about TOL of it
            r[1:] = [_at(r[0], _unit(rng), rng.choice((5e-10, 1e-9, 2e-9)))]
        r[end] = _at(r[end], _unit(rng), rng.choice(
            (1e-9, 1.5e-9, 5e-7, 1e-6 * (1 - 1e-9), 1e-6 * (1 + 1e-9), 2e-6)))
    elif kind == "short end":
        # the end moved back off its vertex and a bend on it or at most
        # about TOL beyond it, along the route or across it, so that snapping the end
        # leaves a terminal piece that short
        p, nxt = r[end], r[1] if end == 0 else r[-2]
        d = _toward(p, nxt) if rng.random() < 0.6 else _unit(rng)
        r[end] = _at(p, d, -rng.choice((0.0, 5e-10, 1.5e-9, 5e-7)))
        bend = _at(p, d, rng.choice((0.0, 3e-10, 9e-10, 1.1e-9, 2e-9)))
        r.insert(1 if end == 0 else len(r) - 1, bend)
    elif kind == "double back":
        i = rng.randrange(1, len(r))
        a, b = r[i - 1], r[i]
        d = _toward(b, a)
        ln = math.dist(a, b)
        c = _at(_at(b, d, rng.choice((0.3, 1.0, 1.5)) * ln), _turn(d, math.pi / 2),
                rng.choice((0.0, 3e-10, 3e-9, 1e-3)) * ln)
        r[i + 1:i + 1] = [c] if i < len(r) - 1 else [c, b]
    elif kind == "outside disk":
        rad = rng.choice((1.0 - 2e-9, 1.0 - 1e-9, 1.0 - 5e-10, 1.0,
                          1.0 + 5e-10, 1.0 + 2e-9, 1.2))
        inner = [w for w in pos if scene.anchors and w not in scene.anchors]
        if inner and rng.random() < 0.4:
            w = rng.choice(inner)
            _move_vertex(scene, w, on_circle(rad, math.degrees(
                math.atan2(pos[w][1], pos[w][0]))))
        else:
            r.insert(rng.randint(1, len(r) - 1),
                     on_circle(rad, rng.uniform(0.0, 360.0)))
    elif kind == "anchor off":
        w = rng.choice(scene.anchors or (u,))
        f = 1.0 + rng.choice((5e-7, 1e-6 * (1 - 1e-6), 1e-6 * (1 + 1e-6),
                              3e-6)) * rng.choice((-1, 1))
        p = (pos[w][0] * f, pos[w][1] * f)
        if rng.random() < 0.5:
            _move_vertex(scene, w, p)
        else:
            pos[w] = p
    elif kind == "tangent at vertex":
        # another edge f at an end x of e leaves x along e's first piece
        # there, or turned from it by a tiny angle
        x = g.edges[e][end]
        others = [f for f in range(g.m) if f != e and x in g.edges[f]]
        if not others:
            return
        f = rng.choice(others)
        d = _toward(r[end], r[1] if end == 0 else r[-2])
        d = _turn(d, rng.choice((0.0, 1e-13, 1e-11, 5e-5, 2e-4, math.pi)))
        s = scene.routes[f]
        bend = _at(pos[x], d, rng.uniform(0.05, 0.3))
        if g.edges[f][0] == x:
            s.insert(1, bend)
        else:
            s.insert(len(s) - 1, bend)
    elif kind == "tangent at anchor":
        # e leaves an anchor, moved up to 5e-7 inward, along the circle's
        # tangent, turned in or out by a tiny angle
        ends = [i for i, x in ((0, u), (-1, v))
                if scene.anchors and x in scene.anchors]
        if not ends:
            return
        end = rng.choice(ends)
        x = g.edges[e][end]
        _move_vertex(scene, x, _at(pos[x], _toward(pos[x], (0.0, 0.0)),
                                   rng.choice((0.0, 2e-7, 5e-7))))
        tangent = _turn(_toward((0.0, 0.0), pos[x]), -math.pi / 2)
        d = _turn(tangent, rng.choice((0.0, math.pi)) + rng.choice(
            (0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-6, -1e-4, 1e-2)))
        bend = _at(pos[x], d, rng.choice((1e-4, 1e-2)))
        r.insert(1 if end == 0 else len(r) - 1, bend)


def _route_scene(rng, kind):
    """A plain corpus scene with route faults: one of ``kind``, or for
    "several" two or three of the other kinds on different edges."""
    base = _corpus_scene(rng, "plain")
    scene = Scene(base.graph, dict(base.positions),
                  {e: list(r) for e, r in base.routes.items()},
                  base.anchors, base.radius)
    edges = list(range(scene.graph.m))
    rng.shuffle(edges)
    kinds = ([rng.choice(_ROUTE_KINDS[:-1]) for _ in range(rng.randint(2, 3))]
             if kind == "several" else [kind])
    for k, e in zip(kinds, edges):
        _route_fault(rng, scene, k, e)
    scene.routes = {e: tuple(r) for e, r in scene.routes.items()}
    return scene


def _route_corpus_digest():
    rng = random.Random(29)
    outcomes = "\n".join(
        _outcome(_route_scene(rng, _ROUTE_KINDS[i % len(_ROUTE_KINDS)]))
        for i in range(900))
    return hashlib.sha256(outcomes.encode()).hexdigest()


def test_a_corpus_of_route_faults_converts_as_before():
    assert _route_corpus_digest() == _ROUTE_DIGEST


# the digest of the 900 outcomes, recorded while routes were cleaned,
# checked and cut into pieces one point at a time
_ROUTE_DIGEST = "16531049ac188e33961977b11552b78a285ec562b32f30ebf43da6aa18ce9da6"


# ------------------------------- pinned outcomes of the scenes workload's law

def _law_scene(rng):
    """A scene by the law of the benchmark's scenes workload: 4-7 anchors
    on the circle of radius 3 and 2-5 chords between them, each with 0,
    1 (half the time) or 2 bends within 0.75 of the radius."""
    n, m = rng.randint(4, 7), rng.randint(2, 5)
    pos = {i: on_circle(3.0, 90.0 - 360.0 * i / n) for i in range(n)}
    pairs = sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))
    routes = {}
    for e, (u, v) in enumerate(pairs):
        bends = [on_circle(2.25 * rng.random() ** 0.5, rng.uniform(0.0, 360.0))
                 for _ in range((0, 1, 1, 2)[rng.randrange(4)])]
        routes[e] = (pos[u], *bends, pos[v])
    return Scene(Graph(tuple(range(n)), tuple(pairs)), pos, routes,
                 anchors=tuple(range(n)), radius=3.0)


def test_the_scenes_law_converts_as_before():
    rng = random.Random(1)
    outcomes = "\n".join(_outcome(_law_scene(rng)) for _ in range(2000))
    assert hashlib.sha256(outcomes.encode()).hexdigest() == _LAW_DIGEST


# the digest of the 2,000 outcomes, recorded before the converter's array
# passes were fused
_LAW_DIGEST = "27c46780f10af45c7c3295d96820aa704a58150c49d6108c6bff2a303aa077bd"


def _oracle(scene, tol):
    """Sorted crossing edge pairs by all-pairs ``_segment_intersection``,
    or None where the converter must reject the scene."""
    g, pos = scene.graph, scene.positions
    segs = [(e, i, r[i], r[i + 1])
            for e, r in scene.routes.items() for i in range(len(r) - 1)]
    # a piece may reach its edge's end vertex only if it lies at that
    # end: it starts (ends) within tol along the route from the vertex,
    # as the converter's lead (trail) pieces do
    spared = {}
    for e, r in scene.routes.items():
        u, w = g.edges[e]
        along = [0.0, *itertools.accumulate(map(math.dist, r, r[1:]))]
        for i in range(len(r) - 1):
            spared[e, i] = ({u} if along[i] <= tol else set()) | (
                {w} if along[i + 1] >= along[-1] - tol else set())
    for v, p in pos.items():
        for e, i, a, b in segs:
            if v not in spared[e, i]:
                t = ((p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
                     ) / math.dist(a, b) ** 2
                t = min(1.0, max(0.0, t))
                foot = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                if math.dist(p, foot) <= 16.0 * tol:
                    return None
    crossings = []
    for x, (e1, i1, a1, b1) in enumerate(segs):
        for e2, i2, a2, b2 in segs[x + 1:]:
            hit = _segment_intersection(a1, b1, a2, b2, tol)
            if e1 == e2 and abs(i1 - i2) == 1:
                # consecutive pieces share a joint; they may not overlap
                if hit is not None and hit[0] == "overlap":
                    return None
                continue
            if hit is None:
                continue
            if hit[0] == "overlap" or e1 == e2:
                return None
            if hit[0] == "touch":
                shared = set(g.edges[e1]) & set(g.edges[e2])
                if any(math.dist(hit[1], pos[v]) <= 16.0 * tol for v in shared):
                    continue
                return None
            crossings.append((min(e1, e2), max(e1, e2), hit[1]))
    for _, _, p in crossings:
        if any(math.dist(p, q) <= 16.0 * tol for q in pos.values()):
            return None
    for x, (e1, f1, p) in enumerate(crossings):
        for e2, f2, q in crossings[x + 1:]:
            if {e1, f1} & {e2, f2} and math.dist(p, q) <= 16.0 * tol:
                return None
    return sorted((e, f) for e, f, _ in crossings)


def _point_on(route, i, t):
    (ax, ay), (bx, by) = route[i], route[i + 1]
    return (ax + t * (bx - ax), ay + t * (by - ay))


@st.composite
def anchored_scenes(draw, interior=(0, 3), bent=(0, 3), spokes=False,
                    faults=("none", "none", "vertex", "bend", "back", "own")):
    """Anchored scenes with interior vertices, chords and 0-3 bends, some
    with a vertex placed on a route, a bend placed on another route, a
    route that runs past its end vertex and back, or an edge to a new
    vertex whose middle piece passes through or within 16 TOL of it.

    ``interior`` and ``bent`` bound the number of interior vertices and
    of bends per route, ``spokes`` gives every edge an interior end (the
    "own" fault's edge aside), and ``faults`` is what the fault is drawn
    from, "none" meaning no fault."""
    unit = st.floats(0.0, 1.0)
    angles = sorted(draw(st.lists(st.integers(0, 359), min_size=3,
                                  max_size=6, unique=True)), reverse=True)
    na = len(angles)
    pos = {i: on_circle(1.0, a) for i, a in enumerate(angles)}
    for v in range(na, na + draw(st.integers(*interior))):
        pos[v] = on_circle(0.8 * draw(unit) ** 0.5, 360.0 * draw(unit))
    pairs = [(u, v) for u in pos for v in pos if u < v and (
        v >= na or not spokes)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=6,
                          unique=True))
    routes = {}
    for e, (u, v) in enumerate(edges):
        bends = [on_circle(0.9 * draw(unit) ** 0.5, 360.0 * draw(unit))
                 for _ in range(draw(st.integers(*bent)))]
        routes[e] = (pos[u], *bends, pos[v])
    fault = draw(st.sampled_from(faults))
    e = draw(st.integers(0, len(edges) - 1))
    f = draw(st.integers(0, len(edges) - 1))
    i = draw(st.integers(0, len(routes[f]) - 2))
    p = _point_on(routes[f], i, draw(st.floats(0.1, 0.9)))
    if fault == "vertex":
        pos[len(pos)] = p
    elif fault == "bend" and e != f:
        j = draw(st.integers(1, len(routes[e]) - 1))
        routes[e] = routes[e][:j] + (p,) + routes[e][j:]
    elif fault == "back":
        (ax, ay), (bx, by) = routes[e][-2:]
        s = draw(st.floats(0.05, 0.5))
        routes[e] = routes[e][:-1] + ((bx + s * (bx - ax), by + s * (by - ay)),
                                      (bx, by))
    elif fault == "own":
        # a new interior vertex w and an edge between w and anchor 0
        # whose route comes from the anchor's side to c, passes w within
        # 16 TOL along c-d, and turns back to w from the other side
        w = len(pos)
        pos[w] = (wx, wy) = on_circle(0.8 * draw(unit) ** 0.5,
                                      360.0 * draw(unit))
        a = math.atan2(pos[0][1] - wy, pos[0][0] - wx) + math.radians(
            draw(st.integers(10, 40)) * draw(st.sampled_from((-1, 1))))
        off = draw(st.sampled_from((0.0, 5e-9, 1e-8)))
        h = draw(st.floats(0.05, 0.1))
        nx, ny = math.cos(a), math.sin(a)
        c = (wx - off * ny + h * nx, wy + off * nx + h * ny)
        d = (wx - off * ny - h * nx, wy + off * nx - h * ny)
        far = (wx + h * ny, wy - h * nx)
        route = (pos[0], c, d, far, pos[w])
        if draw(st.booleans()):
            edges.append((0, w))
        else:
            edges.append((w, 0))
            route = route[::-1]
        routes[len(edges) - 1] = route
    assume(all(math.dist(a, b) > 1e-3
               for r in routes.values() for a, b in zip(r, r[1:])))
    g = Graph(tuple(pos), tuple(edges))
    return Scene(g, pos, routes, anchors=tuple(range(na)), radius=1.0)


# the seed hypothesis derived from the test's source when it was pinned,
# so that an edit to the test's body keeps every draw
_ORACLE_SEED = int(
    "9c733d48944a2568e507984aa10e5b81c267e2b896517793"
    "48c01f66e2ee2c51a87c0271ccf72da1443634b6bd8f0576", 16)


@seed(_ORACLE_SEED)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(anchored_scenes())
def test_converter_agrees_with_all_pairs_oracle(scene):
    _agrees_with_oracle(scene)


# the seeds hypothesis derived from each case's test id when they were
# pinned, so that an edit to the test keeps every draw
_SMALL_CHUNK_SEEDS = {
    1: int("261f924615cb2ca2ce6633118cc6dc43533ccf116baba4e1"
           "11df3fec5cebf37b0d73dac037e51ec026ba336454167e64", 16),
    7: int("e5e2ced0a890871f963d9f2dc8e35569ce94f8d92ff80d4e"
           "b2342953608fe169b611a68c621ad59b36dbf7a3feaf14bf", 16),
}


@pytest.mark.parametrize("per_slice", [1, 7])
def test_converter_in_small_chunks_agrees_with_the_oracle(per_slice):
    @seed(_SMALL_CHUNK_SEEDS[per_slice])
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(anchored_scenes())
    def check(scene):
        with mock.patch.object(geometry, "_SWEEP_SLICE", per_slice):
            _agrees_with_oracle(scene)

    check()


def _agrees_with_oracle(scene):
    want = _oracle(scene, 1e-9)
    assume(want == _oracle(scene, 1e-6))  # not within 1e-6 of a degeneracy
    try:
        d, _ = scene_to_drawing(scene)
    except GeometryError:
        assert want is None
        return
    assert want is not None
    assert len(d.crossings) == len(want)
    assert sorted(c.edges for c in d.crossings) == want
