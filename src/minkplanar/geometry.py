"""From coordinates to combinatorics.

A Scene holds vertex positions and one polyline route per edge, and
``scene_to_drawing`` returns the Drawing it depicts with the crossing
coordinates.  Routes must be in general position: transversal crossings
only, no three curves through a point, no curve through a vertex, no
overlapping segments.  Violations raise GeometryError rather than
producing a drawing that silently means something else.  For an
anchored scene the anchors must sit on a common circle, listed
clockwise, and every route must stay inside the closed disk.  The
conversion is a pipeline of array passes, one function per phase.

``_route_arrays`` reads the positions and all route points into one
(n, 2) array, checks them finite, cleans and checks every route, and
returns the ``_Routes`` record the later phases read.  Its items are the
pieces between consecutive points, then the vertices as items of no
length; each item's ends, direction, length and both angles (along it
and back) are found here once, as (2, n) arrays that one ``take``
gathers for any set of items.  The tips, moved onto their end vertices,
take their angles from the pieces' angles, which also clear the rule
against a piece doubling back in one test.  Each rule is cleared by one
test over all its items, and its items are walked only when it fails.

``_candidate_pairs`` yields the pairs to classify a slice at a time.
One sort and sweep (``_overlapping_boxes``) pairs the boxes of all
items, grown by 32 TOL, at most ``_SWEEP_SLICE`` pairs a slice.  Pieces
that end at one vertex meet again only when collinear, so they are not
paired there: one sort of the tips by vertex and angle clears a scene
without nearly parallel pairs, and only otherwise are they found, the
last slice.

``_through_vertex`` (a piece near a vertex) and ``_classify`` (two
pieces: parallel ones overlap, touch or miss, only those at an angle
cross) judge each slice before the next is made, so one constant bounds
the memory of the pass.  Each returns its least fault, ``_classify``
also its crossings, and the least fault of all is raised, whatever the
order of the slices.

``_crossing_records`` keeps each crossing as one array record (its two
pieces, their edges, the arclength along each and the point), sorts
the records into id order once and gathers them in that order.  Its
vertex clearance is tested only against the vertices that end both
edges: near any other, one piece passes through it, which
classification has rejected.  One sort of the crossings' places on
their edges gives the chains and each place's position in its chain.

``_rotations`` reads every rotation off those places by one sort of all
curve ends by node and angle: at each crossing place an arm on and an
arm back, and at each edge's ends its two tips.  The amplified frames
of ``frames`` take their rotations from the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat, starmap
from typing import Iterator, NamedTuple

import numpy as np

from .errors import GeometryError, InputError
from .graphs import Graph, _ids
from .drawings import ArcRef, Crossing, Drawing

Point = tuple[float, float]
_Fault = tuple[int, int, str]  # (rule, key, message), see scene_to_drawing

# the converter's tolerance: points this close count as one, and the
# candidate boxes and vertex clearances are multiples of it
TOL = 1e-9


def on_circle(radius: float, degrees: float) -> Point:
    a = math.radians(degrees)
    return (radius * math.cos(a), radius * math.sin(a))


@dataclass
class Scene:
    """Coordinates for a drawing of ``graph``.

    ``routes[e]`` runs from the position of the edge's first endpoint to
    its second.  ``radius`` fixes the boundary circle of an anchored scene;
    when omitted it is taken from the first anchor's distance to the
    origin (the disk is always centred there).
    """

    graph: Graph
    positions: dict[int, Point]
    routes: dict[int, tuple[Point, ...]]
    anchors: tuple[int, ...] | None = None
    radius: float | None = None


# ------------------------------------------------------------- conversion

# pairs expanded per slice of the sweep, each slice classified before the
# next is made; bounds the working memory of the whole conversion
_SWEEP_SLICE = 1 << 16
# boxes per y-strip of the sweep; an input with no more boxes is one strip
_SWEEP_STRIP = 1 << 11


def _overlapping_boxes(lo: np.ndarray, hi: np.ndarray,
                       tags: np.ndarray) -> Iterator[np.ndarray]:
    """Index pairs of overlapping closed boxes, two rows with row 0 < row 1,
    yielded a slice at a time.  The (n, 2) corner arrays are cut into
    y-strips of about ``_SWEEP_STRIP`` boxes at quantiles of the lower y
    edges.  A box joins every strip its y-range meets, and a pair is
    reported only in the strip that holds the higher of the two lower
    edges.  In each strip every box, in order of left edge, pairs with the
    boxes whose left edge lies in its x-range (a binary search on its
    right edge) and whose y-range meets its own.  A slice holds the pairs
    of consecutive boxes, at most ``_SWEEP_SLICE`` unless one box alone
    has more.  Two boxes that share a tag, a column of the (2, n) integer
    array ``tags``, are not paired."""
    n = lo.shape[0]
    strips = -(-n // _SWEEP_STRIP)
    if strips <= 1:
        order = lo[:, 0].argsort(kind="stable")
        yield from _sweep(order, None, lo, hi, tags)
        return
    cuts = np.sort(lo[:, 1])[n * np.arange(1, strips) // strips]
    first = np.searchsorted(cuts, lo[:, 1], side="right")
    span = np.searchsorted(cuts, hi[:, 1], side="right") - first + 1
    # every (strip, box) membership, by strip and then by left edge
    byx = np.argsort(lo[:, 0], kind="stable")
    span = span[byx]
    member = np.repeat(byx, span)
    strip = np.repeat(first[byx] - np.cumsum(span) + span, span)
    strip += np.arange(member.size)
    by_strip = np.argsort(strip, kind="stable")
    member = member[by_strip]
    bounds = np.searchsorted(strip[by_strip], np.arange(strips + 1))
    for s, order in enumerate(np.split(member, bounds[1:-1])):
        yield from _sweep(order, first[order] == s, lo, hi, tags)


def _sweep(order, home, lo, hi, tags) -> Iterator[np.ndarray]:
    """``_overlapping_boxes`` within one strip: the boxes ``order``, sorted
    by left edge, pair where one of them is ``home`` (all when None).  The
    corners and tags are gathered in that order once."""
    xlo, ylo = lo.T.take(order, 1)
    xhi, yhi = hi.T.take(order, 1)
    start_tag, end_tag = tags.take(order, 1)
    after = np.arange(1, order.size + 1)
    count = xlo.searchsorted(xhi, side="right") - after
    ends = count.cumsum()
    # sorted box a pairs with the sorted boxes a+1 .. a+count[a]: the
    # pair numbered t among all is (a, t + skip[a])
    skip = after - ends + count
    start = 0
    while start < order.size:
        end = max(start + 1, int(ends.searchsorted(
            ends[start] - count[start] + _SWEEP_SLICE, side="right")))
        a = np.arange(start, end).repeat(count[start:end])
        b = np.arange(ends[start] - count[start], ends[end - 1]) + skip[a]
        keep = (ylo[b] <= yhi[a]) & (ylo[a] <= yhi[b])
        if home is not None:
            keep &= home[a] | home[b]
        a, b = a[keep], b[keep]
        a0, a1, b0, b1 = start_tag[a], end_tag[a], start_tag[b], end_tag[b]
        keep = (a0 != b0) & (a0 != b1) & (a1 != b0) & (a1 != b1)
        i, j = order[a[keep]], order[b[keep]]
        yield np.array((np.minimum(i, j), np.maximum(i, j)))
        start = end


def _check_anchors(scene: Scene) -> tuple[tuple[int, ...], float | None]:
    """The anchors of the scene as ids and the radius of its disk, once
    each anchor has a position and they sit on the circle in clockwise
    order; () and None for a scene without anchors."""
    if scene.anchors is None:
        return (), None
    anchors, pos = _ids(scene.anchors, "anchors"), scene.positions
    if len(anchors) < 2:
        raise InputError("an anchored scene needs >= 2 anchors")
    for a in anchors:
        if a not in pos:
            raise InputError(f"no position for anchor {a}")
    radius = scene.radius
    if radius is None:
        radius = math.hypot(*pos[anchors[0]])
    try:
        slack = 1e-6 * max(1.0, radius)
    except (TypeError, ValueError):
        raise InputError(f"the radius {radius!r} is no number") from None
    for a in anchors:
        if abs(math.hypot(*pos[a]) - radius) > slack:
            raise GeometryError(f"anchor {a} does not sit on the boundary "
                                "circle")
    angles = [math.degrees(math.atan2(pos[a][1], pos[a][0])) for a in anchors]
    total = 0.0
    for i in range(len(anchors)):
        step = (angles[i] - angles[(i + 1) % len(anchors)]) % 360.0
        if step <= 0.0 or step >= 360.0:
            raise GeometryError("coincident anchors on the circle")
        total += step
    if abs(total - 360.0) > 1e-6:
        raise GeometryError("anchors are not listed in clockwise circular "
                            "order")
    return anchors, radius


def _not_finite(xy: np.ndarray) -> int:
    """The first row of ``xy`` with a coordinate that is not finite, or -1.
    A finite sum clears them all; a sum that overflows is looked into."""
    if math.isfinite(xy.sum()):
        return -1
    bad = (~np.isfinite(xy).all(axis=1)).nonzero()[0]
    return int(bad[0]) if bad.size else -1


def _starts(rows: np.ndarray) -> list[int]:
    """Where each run of equal values in ``rows`` starts, then the size of
    ``rows``."""
    return [0][:rows.size] + ((rows[1:] != rows[:-1]).nonzero()[0]
                              + 1).tolist() + [rows.size]


def _rotations(g: Graph, anchors: tuple[int, ...], anchor_xy: np.ndarray,
               tip_angle: np.ndarray, ids: np.ndarray, edge: np.ndarray,
               place: np.ndarray, arm_angle: np.ndarray
               ) -> dict[int, tuple[ArcRef, ...]]:
    """The clockwise rotation at every node, read off the directions of
    the curve ends there by one sort.

    The ends are each edge e's tips, 2e out of its first vertex at angle
    ``tip_angle[2e]`` and 2e + 1 out of its second, and two arms at each
    place of a crossing on an edge: each crossing ``ids[i]`` lies on the
    edge ``edge[i]`` at ``place[i]`` in its chain, and on ``edge[n + i]``
    at ``place[n + i]``, for n crossings.  The ids must ascend and each
    exceed every vertex id: the read-off finds the crossings' order
    after the tips in its sort, and ids out of that order would list
    the nodes in a wrong order, unreported.  At a place, the arm on along
    the edge leaves at angle ``arm_angle[0, j]`` along the arc out of it,
    and the arm back at ``arm_angle[1, j]`` along the arc into it.  A
    vertex or crossing lists its ends by falling angle, an anchor (at
    ``anchor_xy``) by clockwise turn from the circle's tangent.  Ends of
    one node within 1e-12 are tangential, and no end may point along or
    out of the circle at an anchor.  Nodes, and faults, go in the
    converter's order: crossings by id, other vertices as the edges first
    reach them, anchors (leaving the disk before tangential), then
    isolated vertices.
    """
    m = g.m
    tip_ids = list(chain.from_iterable(g.edges))
    key = -tip_angle
    out = ids[:0]
    if anchors:
        slot = np.fromiter(map(dict(zip(anchors, range(len(anchors)))).get,
                               tip_ids, repeat(-1)), np.int64, 2 * m)
        tip = (slot >= 0).nonzero()[0]
        slot = slot[tip]
        t_cw = np.arctan2(anchor_xy[:, 1], anchor_xy[:, 0]) - math.pi / 2.0
        key[tip] = turn = (t_cw[slot] - tip_angle[tip]) % (2.0 * math.pi)
        out = slot[(turn < 1e-12) | (turn > math.pi - 1e-12)]
    # the ends: the tips, then the arms on and the arms back.  A tip's
    # arc runs out of its edge's first vertex, or into its second after
    # all the edge's crossings.  The crossings' ids follow every vertex
    # id, so the sort puts each crossing's four ends after all the tips,
    # in id order
    arc = np.zeros(2 * m, dtype=np.int64)
    arc[1::2] = np.bincount(edge, minlength=m)
    arc = np.concatenate((arc, place, place - 1))
    edge = np.concatenate((np.arange(2 * m) >> 1, edge, edge))
    node = np.concatenate((np.fromiter(tip_ids, np.int64, 2 * m), ids, ids,
                           ids, ids))
    key = np.concatenate((key, -arm_angle.ravel()))
    by = np.lexsort((key, node))
    node, key = node[by], key[by]
    tight = node[1:][(node[1:] == node[:-1]) & (key[1:] - key[:-1] < 1e-12)]

    # the nodes in order: crossings, vertices as the tips reach them,
    # anchors and isolated vertices; the faults are looked for in that
    # order, at the anchors last
    inner = chain(node[2 * m::4].tolist(),
                  filterfalse(set(anchors).__contains__, tip_ids))
    rotation = dict.fromkeys(chain(inner, anchors, g.vertices), ())
    if tight.size or out.size:
        tight, out = set(tight.tolist()), set(out.tolist())
        for v in rotation:
            if v in tight and v not in anchors:
                raise GeometryError(f"tangential curves at node {v}")
        for i, a in enumerate(anchors):
            if i in out:
                raise GeometryError(f"curve leaves the disk at anchor {a}")
            if a in tight:
                raise GeometryError(f"tangential curves at anchor {a}")
    # each edge id one int object, however many ends name it
    refs = list(zip(map(list(range(m)).__getitem__, edge[by].tolist()),
                    arc[by].tolist()))
    cut = _starts(node)
    rotation.update(zip(node[cut[:-1]].tolist(), map(tuple, map(
        refs.__getitem__, map(slice, cut, cut[1:])))))
    return rotation


class _Routes(NamedTuple):
    """A scene's cleaned routes as arrays: vertex row i is ``vids[i]``, tip
    2e is edge e's start and 2e + 1 its end.  The items are the pieces, by
    edge and in order, then the vertices, each an item of no length at
    its position.  Points and directions are (2, n) arrays, x above y, so
    that one ``take`` gathers a point of each column.  The record keeps
    under 20 fields: Python 3.11 frees the 20-item tuples that making
    one takes to a free list that it never draws from, and over a few
    thousand scenes that list holds about 0.4 MB."""

    graph: Graph
    anchors: tuple[int, ...]
    vids: list[int]        # the vertex ids, sorted
    pos: np.ndarray        # (2, nv) their positions
    tip_v: np.ndarray      # each tip's vertex row
    kept: np.ndarray       # the points kept of each edge's route
    edge: np.ndarray       # each piece's edge
    tail: np.ndarray       # (2, nseg + nv) each item's start
    head: np.ndarray       # (2, nseg + nv) and end
    way: np.ndarray        # (2, nseg + nv) head - tail
    length: np.ndarray     # each item's length
    bearing: np.ndarray    # (2, nseg + nv) its angle along it and back
    tip_p: np.ndarray      # each tip's own (terminal) piece
    lead: np.ndarray       # each edge's piece its start's angle is from
    trail: np.ndarray      # and its end's
    angle: np.ndarray      # each tip's angle out of its vertex
    reach: np.ndarray      # the tips whose own piece is longer than TOL
    tags: np.ndarray       # (2, nseg + nv) each item's box tags
    anchor_xy: np.ndarray  # (na, 2) the anchors' positions


def _no_point(p: object) -> bool:
    """Whether ``p`` is not a point: two real numbers, which a string,
    however numeric, is not."""
    try:
        math.copysign(*p)
    except (TypeError, ValueError, OverflowError):
        return True
    return False


def _unread(positions: dict, vids: list, routes: list) -> InputError:
    """The error naming the first position, then route point, that is no
    point, once the positions and routes could not be read as points."""
    for v in vids:
        if _no_point(positions[v]):
            return InputError(f"the position of vertex {v} is not two "
                              f"numbers: {positions[v]!r}")
    for e, route in enumerate(routes):
        for p in route:
            if _no_point(p):
                return InputError(f"route of edge {e} has a point that is "
                                  f"not two numbers: {p!r}")
    return InputError("the positions and routes are no points")


def _route_arrays(scene: Scene) -> _Routes:
    """The route arrays of ``scene``, once every point is finite, the
    anchors are checked and every route is clean and in place.  Each
    piece's direction and length and both its angles are found once,
    here, for the later phases to gather; its angles give the tips'
    angles, and they clear the rule against doubling back in one test."""
    g, positions, m = scene.graph, scene.positions, scene.graph.m
    if not all(map(positions.__contains__, g.vertices)):
        v = next(v for v in g.vertices if v not in positions)
        raise InputError(f"no position for vertex {v}")
    # as sets, the keys are compared without an order among them
    if scene.routes.keys() != set(range(m)):
        raise InputError("routes must cover exactly the edge ids")
    # a key of no vertex must still be an id by the graphs' rule, so that
    # 1.5 or "x" is no vertex row
    if len(positions) != len(g.vertices):
        try:
            _ids(positions, "positions")
        except InputError:
            raise InputError("the positions must be keyed by vertex ids") \
                from None
    vids = sorted(positions)
    nv = len(vids)
    # every route point, each route a run of them.  An empty route is
    # read as its start vertex alone, which collapses below
    routes = list(map(scene.routes.__getitem__, range(m)))
    try:
        size = list(map(len, routes))
    except TypeError:
        e = next(e for e, route in enumerate(routes)
                 if not hasattr(route, "__len__"))
        raise InputError(f"route of edge {e} is no sequence of points: "
                         f"{routes[e]!r}") from None
    if not all(size):
        for e in range(m):
            if not size[e]:
                routes[e], size[e] = (positions[g.edges[e][0]],), 1
    # the positions and then the route points, each two real numbers and
    # all finite.  copysign takes exactly two real numbers and no string,
    # so one pass of it clears every point before numpy reads them
    points = list(chain(map(positions.__getitem__, vids), *routes))
    try:
        sum(starmap(math.copysign, points))
        xy = np.fromiter(chain.from_iterable(points), float,
                         2 * len(points)).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        raise _unread(positions, vids, routes) from None
    i = _not_finite(xy)
    if i >= 0 and i < nv:
        raise GeometryError(f"vertex {vids[i]} has a non-finite position "
                            f"{positions[vids[i]]}")
    if i >= 0:
        e = int(np.cumsum(size).searchsorted(i - nv, side="right"))
        raise GeometryError(f"route of edge {e} has a non-finite point "
                            f"{routes[e][i - nv - sum(size[:e])]}")
    anchors, radius = _check_anchors(scene)
    row = dict(zip(vids, range(nv)))
    tip_v = np.fromiter(map(row.__getitem__, chain.from_iterable(g.edges)),
                        np.int64, 2 * m)

    # cleaning.  A point more than TOL from the point before it is kept
    # when that one is; a point within TOL of it starts a run of dropped
    # points, each measured against the last point kept, up to the end
    # of the route
    pts = xy[nv:]
    pt_edge = np.arange(m).repeat(size)
    step = pts[1:] - pts[:-1]
    drop: list[int] = []
    for i in (np.hypot(step[:, 0], step[:, 1]) <= TOL).nonzero()[0].tolist():
        i += 1
        if drop and i <= drop[-1] + 1 or pt_edge[i] != pt_edge[i - 1]:
            continue
        held = pts[i - 1].tolist()
        stop = sum(size[:pt_edge[i] + 1])
        drop.append(i)
        i += 1
        while i < stop and math.dist(pts[i].tolist(), held) <= TOL:
            drop.append(i)
            i += 1
    kept = np.array(size, dtype=np.int64)
    if drop:
        xy = np.delete(xy, nv + np.array(drop), axis=0)
        pts = xy[nv:]
        pt_edge = np.delete(pt_edge, drop)
        kept = np.bincount(pt_edge, minlength=m)
    # each tip's point: its edge's first or last point kept, within 1e-6
    # of its vertex, then moved onto it
    last = kept.cumsum()
    tip = last.repeat(2)
    tip[1::2] -= 1
    tip[0::2] -= kept
    pos = xy[:nv].T
    at_tip = pos.take(tip_v, 1)
    off = pts.T.take(tip, 1) - at_tip
    off = np.hypot(off[0], off[1]) > 1e-6
    pts.T[:, tip] = at_tip

    # the items the sweep pairs and the classification judges: the pieces
    # between consecutive points of one route, each from row ``tag[0]`` to
    # row ``tag[1]`` of ``xy``, then each vertex as an item of no length at
    # its row, and each piece's angle along it and back (as tail - head,
    # not -(head - tail), which would turn +pi into -pi for a piece along
    # the x-axis)
    body = (pt_edge[1:] == pt_edge[:-1]).nonzero()[0]
    edge = pt_edge[body]
    nseg = body.size
    tag = np.empty((2, nseg + nv), dtype=np.int64)
    tag[:, :nseg] = body + np.array(((nv,), (nv + 1,)))
    tag[:, nseg:] = np.arange(nv)
    tail, head = xy.T.take(tag, 1).swapaxes(0, 1)
    way = head - tail
    length = np.hypot(way[0], way[1])
    bearing = np.array((way, tail - head))
    fore, back = bearing = np.arctan2(bearing[:, 1], bearing[:, 0])
    # consecutive pieces are never paired as candidates, so no piece may
    # run straight back along the one before it here.  It can do so only
    # where its angle is within about TOL of the other one's angle back;
    # one test keeps the bends where the cosine of the difference is
    # within 1e-12 of 1 (within about 1.4e-6), and only those are
    # measured by the dot and cross products of the two directions
    bend = (np.cos(fore[1:nseg] - back[:nseg][:-1])
            > 1.0 - 1e-12).nonzero()[0]
    if bend.size or np.count_nonzero(off) or 1 in kept.tolist():
        w1, w2 = way.take(bend, 1), way.take(bend + 1, 1)
        back_on = bend[(w1[0] * w2[0] + w1[1] * w2[1] < 0.0)
                       & (edge[bend] == edge[bend + 1]) & (
            np.abs(w1[0] * w2[1] - w1[1] * w2[0])
            <= TOL * length[bend] * length[bend + 1])]
        collapsed = kept < 2
        bad = collapsed | off[0::2] | off[1::2]
        bad[edge[back_on]] = True
        if bad.any():
            e = int(bad.argmax())
            u, v = g.edges[e]
            fault = next(what for hit, what in (
                (collapsed[e], "collapses to a point"),
                (off[2 * e], f"does not start at vertex {u}"),
                (off[2 * e + 1], f"does not end at vertex {v}"),
                (True, "doubles back on itself")) if hit)
            raise GeometryError(f"route of edge {e} {fault}")

    if radius is not None:
        limit = np.empty(len(pts))
        limit.fill(radius - TOL)
        limit[tip] = radius + 1e-9
        out = (np.hypot(pts[:, 0], pts[:, 1]) > limit).nonzero()[0]
        if out.size:
            raise GeometryError(
                f"route of edge {pt_edge[out[0]]} leaves the boundary disk")
    if np.count_nonzero(length) < nseg:
        raise GeometryError("zero length segment in a route")

    # per tip, its own (terminal) piece, and the piece it takes its angle
    # from: its own, or the next one along the route when its own is at
    # most TOL long.  Only a terminal piece can be that short, once its
    # end is moved onto the vertex: cleaning keeps no two consecutive
    # points within TOL.  A tip's own piece is tagged with the vertex
    # only if it is longer; every other piece end is tagged with its row,
    # a private id, and every vertex with its own
    tip_p = tip - (np.arange(1, 2 * m + 1) >> 1)
    reach = (length[tip_p] > TOL).nonzero()[0]
    source = tip_p
    if reach.size < 2 * m:
        short = (kept > 2).repeat(2)
        short[reach] = False
        source = tip_p + short
        source[1::2] -= 2 * short[1::2]
    lead, trail = source[0::2], source[1::2]
    angle = np.empty(2 * m)
    angle[0::2] = fore[lead]
    angle[1::2] = back[trail]
    tag[reach & 1, tip_p[reach]] = tip_v[reach]
    anchor_xy = xy.take(np.fromiter(map(row.__getitem__, anchors), np.int64,
                                    len(anchors)), 0)
    return _Routes(g, anchors, vids, pos, tip_v, kept, edge, tail, head,
                   way, length, bearing, tip_p, lead, trail, angle, reach,
                   tag, anchor_xy)


def _candidate_pairs(r: _Routes) -> Iterator[np.ndarray]:
    """The pairs to classify, lower over higher, a (2, n) slice at a time:
    the sweep's, a vertex row v as nseg + v, then the nearly parallel
    pairs of pieces that end at one vertex, if there are any."""
    # the boxes, grown by 32 TOL, so that any two within 64 TOL of each
    # other pair up, except pieces that share an end point (consecutive
    # pieces of one curve, or pieces ending at one vertex) and a vertex
    # with the pieces that end there
    grow = 32.0 * TOL
    lo = np.minimum(r.tail, r.head)
    hi = np.maximum(r.tail, r.head)
    lo -= grow
    hi += grow
    yield from _overlapping_boxes(lo.T, hi.T, r.tags)

    # the pairs of pieces that end at one vertex, where they are nearly
    # parallel.  Away from parallel the classification agrees that they
    # only touch there: for pieces at an angle D (modulo pi) its u and v
    # are exactly 0 or 1 when either piece starts at the vertex, and when
    # both end there their error, times a piece length of at most L, is
    # about 12 * 2**-53 * L / sin D, under TOL for L <= 10 and D >= 1e-4;
    # the window widens with longer pieces
    nseg = r.edge.size
    window = 1e-4 * max(1.0, r.length.max(initial=0.0) / 10.0)
    # one test clears a scene without such pairs.  Keyed 8 v + turn, and
    # again pi further on, the tips of one vertex lie within a span of
    # 2 pi < 8 and the pairs within the window, around pi too, are
    # neighbours; the keys' rounding is within the slack.  The tips that
    # do not reach beyond TOL only add neighbours to look into
    key = r.angle % math.pi + 8.0 * r.tip_v
    key = np.concatenate((key, key + math.pi))
    key.sort()
    slack = (8.0 * r.pos.shape[1] + 8.0) * 2.0**-50
    if not (key[1:] - key[:-1] <= window + slack).nonzero()[0].size:
        return
    # the tips are sorted by vertex and angle modulo pi, those within the
    # window of 0 again past pi, and a pair is a tip and one after it at
    # the same vertex, at most the window further on
    ends = r.reach
    turn = r.angle[ends] % math.pi
    wrap = (turn <= window).nonzero()[0]
    ends = np.concatenate((ends, ends[wrap]))
    turn = np.concatenate((turn, turn[wrap] + math.pi))
    by = np.lexsort((turn, r.tip_v[ends]))
    turn, ends = turn[by], ends[by]
    end_v = r.tip_v[ends]
    i = ((end_v[1:] == end_v[:-1])
         & (turn[1:] - turn[:-1] <= window)).nonzero()[0]
    near = []
    step = 1
    while i.size:
        near.append((i, i + step))
        step += 1
        i = i[i + step < ends.size]
        i = i[(end_v[i + step] == end_v[i])
              & (turn[i + step] - turn[i] <= window)]
    if near:
        one, two = (r.tip_p[ends[np.concatenate(x)]] for x in zip(*near))
        lo, hi = np.minimum(one, two), np.maximum(one, two)
        key = np.unique((lo * nseg + hi)[lo != hi])
        yield np.stack((key // nseg, key % nseg))


def _least(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           nseg: int) -> tuple[int, int]:
    """The row among ``rows`` whose key ``lo[row] * nseg + hi[row]`` is
    least, and that key: of the faults of one rule, the one reported."""
    key = lo[rows] * nseg + hi[rows]
    return rows[key.argmin()], int(key.min())


def _near_shared_vertex(r: _Routes, edges: np.ndarray,
                        xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows, in order, whose point ``xy[:, row]`` lies within 16 TOL of a
    vertex that ends both edges ``edges[:, row]``, with that vertex.  Each
    point is measured against the ends of its first edge, which clears
    most in one test; only an end near enough is looked for on the other
    edge."""
    one, two = r.tip_v.reshape(-1, 2).take(edges, 0)
    gap = xy[:, :, None] - r.pos.take(one, 1)
    row, i = (np.hypot(gap[0], gap[1]) <= 16.0 * TOL).nonzero()
    if not row.size:
        return row, row
    v = one[row, i]
    shared = (two[row] == v[:, None]).nonzero()[0]
    return row[shared], v[shared]


def _through_vertex(r: _Routes, qs: np.ndarray,
                    qv: np.ndarray) -> _Fault | None:
    """The least fault of a piece ``qs`` that passes within 16 TOL of a
    vertex row ``qv``: of any vertex but its edge's ends, and of an end
    too unless the piece lies at that end; None if none does."""
    # the vertex from the piece's start, and its foot on the piece
    rel = r.pos.take(qv, 1) - r.tail.take(qs, 1)
    way = r.way.take(qs, 1)
    length = r.length[qs]
    tt = (rel[0] * way[0] + rel[1] * way[1]) / (length * length)
    tt = np.minimum(np.maximum(tt, 0.0), 1.0)
    gap = rel - tt * way
    near = (np.hypot(gap[0], gap[1]) <= 16.0 * TOL).nonzero()[0]
    if not near.size:
        return None
    qs, qv = qs[near], qv[near]
    qe = r.edge[qs]
    ends = r.tip_v.reshape(-1, 2)[qe]
    hit = (~(((ends[:, 0] == qv) & (qs <= r.lead[qe]))
             | ((ends[:, 1] == qv) & (qs >= r.trail[qe])))).nonzero()[0]
    if not hit.size:
        return None
    b, key = _least(hit, qv, qs, r.edge.size)
    return 0, key, (f"route of edge {qe[b]} passes through vertex "
                    f"{r.vids[qv[b]]}")


def _classify(r: _Routes, pair: np.ndarray) -> tuple[
        _Fault | None, list[tuple[np.ndarray, np.ndarray]]]:
    """Classifies the piece pairs, the columns of ``pair`` (lower piece
    over higher): their least fault or None, and without one their
    crossings, as the columns that cross and the parameters of each
    crossing along the lower and the higher piece (none: [])."""
    nseg = r.edge.size
    wx, wy = r.way.take(pair, 1)
    tx, ty = r.tail.take(pair, 1)
    acx, acy = tx[1] - tx[0], ty[1] - ty[0]
    lens = r.length[pair]
    denom = wx[0] * wy[1] - wy[0] * wx[1]
    par = np.abs(denom) <= TOL * lens[0] * lens[1]

    # parallel pieces on one line: the higher one's ends project to t0 and
    # t1 along the lower one, and the two overlap, touch at a point or
    # miss by how far [t0, t1] reaches into [0, 1]
    col = par.nonzero()[0]
    if col.size:
        col = col[np.abs(acx[col] * wy[0, col] - acy[col] * wx[0, col])
                  <= TOL * lens[0, col]]
    if col.size:
        lo, hi = pair[:, col]
        rx, ry = wx[0, col], wy[0, col]
        rr = lens[0, col] * lens[0, col]
        t0 = (acx[col] * rx + acy[col] * ry) / rr
        t1 = t0 + (wx[1, col] * rx + wy[1, col] * ry) / rr
        t_lo = np.where(t1 < t0, t1, t0)
        t_hi = np.where(t1 > t0, t1, t0)
        eps = TOL / lens[0, col]
        meet = (t_hi >= -eps) & (t_lo <= 1 + eps)
        a = np.where(0.0 > t_lo, 0.0, t_lo)
        b = np.where(1.0 < t_hi, 1.0, t_hi)
        touch = meet & (b - a <= eps)
        t = (a + b) / 2.0
        txy = np.array((tx[0, col] + t * rx, ty[0, col] + t * ry))
        ok = np.zeros(col.size, dtype=bool)
        ok[_near_shared_vertex(r, r.edge[pair[:, col]], txy)[0]] = True
        same = r.edge[lo] == r.edge[hi]
        bad = (meet & ~(touch & ~same & ok)).nonzero()[0]
        if bad.size:
            c, key = _least(bad, lo, hi, nseg)
            a1, a2 = r.edge[lo[c]], r.edge[hi[c]]
            if not touch[c]:
                what = f"edges {a1} and {a2} run along a shared segment"
            elif same[c]:
                what = f"edge {a1} crosses itself"
            else:
                what = (f"edges {a1} and {a2} touch without crossing "
                        f"near {(float(txy[0, c]), float(txy[1, c]))}")
            return (1, key, what), []

    # pieces at an angle: the parameters u along the lower piece and v
    # along the higher (rows of uv), from the cross products of ac with
    # the higher and the lower direction.  A parallel pair divides by 1,
    # not by about 0, and its u and v are never read
    apart = ~par
    denom[par] = 1.0
    uv = (acx * wy[::-1] - acy * wx[::-1]) / denom
    eps = TOL / lens
    inside = (uv >= -eps) & (uv <= 1.0 + eps)
    inside = apart & inside[0] & inside[1]
    crossed = (uv > eps) & (uv < 1.0 - eps)
    crossed = apart & crossed[0] & crossed[1]
    edge = r.edge[pair]
    selfi = (inside & (edge[0] == edge[1])).nonzero()[0]
    if selfi.size:
        b, key = _least(selfi, pair[0], pair[1], nseg)
        return (2, key, f"edge {edge[0, b]} crosses itself"), []
    ti = (inside & ~crossed).nonzero()[0]
    if ti.size:
        tp = np.array((tx[0, ti] + uv[0, ti] * wx[0, ti],
                       ty[0, ti] + uv[0, ti] * wy[0, ti]))
        ok = np.zeros(ti.size, dtype=bool)
        ok[_near_shared_vertex(r, edge[:, ti], tp)[0]] = True
        if not ok.all():
            lo, hi = pair[:, ti]
            b, key = _least((~ok).nonzero()[0], lo, hi, nseg)
            return (3, key, f"edges {r.edge[lo[b]]} and {r.edge[hi[b]]} "
                    f"touch without crossing near "
                    f"{(float(tp[0, b]), float(tp[1, b]))}"), []

    hits = crossed.nonzero()[0]
    return None, [(pair.take(hits, 1), uv.take(hits, 1))] if hits.size else []


def _crossing_records(r: _Routes,
                      found: list[tuple[np.ndarray, np.ndarray]]):
    """The crossings, chains and crossing points of the drawing, then the
    places on the chains and the arm angles that ``_rotations`` reads, of
    the crossings ``found`` by ``_classify``.  The crossings are sorted
    into id order once and every per-crossing quantity is gathered in that
    order, and one sort of their places along the edges gives the chains
    and the places.  No crossing may lie within 16 TOL of a vertex, nor
    two within 16 TOL of each other along one edge."""
    g, nseg = r.graph, r.edge.size
    if not found:
        ids = np.zeros(0, dtype=np.int64)
        return (), dict(enumerate(g.edges)), {}, ids, ids, ids, np.zeros((2, 0))
    # one record per crossing: its lower and higher piece (xp), their
    # edges (xe; pieces are numbered by edge, so the lower edge is first),
    # the arclength along each edge (xs) and the point (xy)
    xp, xu = found[0] if len(found) == 1 else (
        np.concatenate(x, axis=1) for x in zip(*found))
    xe = r.edge[xp]
    # the arclength along each edge orders the crossings on it, so an edge
    # that crosses once needs none: one test clears a scene whose edges
    # each cross at most once.  Otherwise the prefix arclengths, summed in
    # order along each edge: the edges with as many pieces are the rows of
    # one array
    xs = xu
    if len(set(xe.ravel().tolist())) < xe.size:
        points = r.kept[r.edge]
        by = points.argsort(kind="stable")
        points = points[by]
        run = r.length[by]
        cut = _starts(points)
        for a, b in zip(cut, cut[1:]):
            if points[a] > 2:
                run[a:b] = run[a:b].reshape(-1, points[a] - 1).cumsum(
                    axis=1).ravel()
        before = np.empty(nseg)
        before[by[1:]] = run[:-1]
        before[r.tip_p[0::2]] = 0.0
        xs = before[xp] + xu * r.length[xp]

    # deterministic ids: sort by (lower edge, position along it, higher
    # edge, position along it)
    order = np.lexsort((xs[1], xe[1], xs[0], xe[0]))
    xp, xu = xp.take(order, 1), xu.take(order, 1)
    xe, xs = xe.take(order, 1), xs.take(order, 1)
    xy = r.tail.take(xp[0], 1) + xu[0] * r.way.take(xp[0], 1)

    # no crossing within 16 TOL of a vertex.  Only the vertices that end
    # both edges need a test: a crossing lies on both pieces, so near any
    # other vertex one of them passes through it, which is a fault of
    # the classification.  Of several, the least key is reported
    row, v = _near_shared_vertex(r, xe, xy)
    if row.size:
        c, _ = _least(row, xp[0], xp[1], nseg)
        raise GeometryError(f"edges {xe[0, c]} and {xe[1, c]} cross too "
                            f"close to vertex {r.vids[v[row == c].min()]}")

    first = max(g.vertices, default=-1) + 1
    ids = np.arange(first, first + order.size)
    crossings = tuple(map(Crossing, ids.tolist(), zip(*xe.tolist())))

    # each crossing once on each of its edges, in order along the edge.
    # The places on the higher edges go first, so that of two at one
    # place the stable sort puts the crossing with the lower id first
    edge, at = xe[::-1].ravel(), xs[::-1].ravel()
    by = np.lexsort((at, edge))
    on_edge, at = edge[by], at[by]
    xid = by % order.size + first
    tight = ((on_edge[1:] == on_edge[:-1])
             & (at[1:] - at[:-1] <= 16.0 * TOL)).nonzero()[0]
    if tight.size:
        i = tight[0]
        raise GeometryError(f"crossings {xid[i]} and {xid[i + 1]} are too "
                            f"close on edge {on_edge[i]}")
    chains = dict(enumerate(g.edges))
    start = on_edge.searchsorted(np.arange(g.m + 1))
    cut, seq = start.tolist(), xid.tolist()
    for e in (start[1:] > start[:-1]).nonzero()[0].tolist():
        u, v = g.edges[e]
        chains[e] = (u, *seq[cut[e]:cut[e + 1]], v)

    # each crossing's position in the chain of each of its edges, and its
    # arms along each, on and back
    place = np.empty_like(by)
    place[by] = np.arange(1, by.size + 1) - start[on_edge]
    return (crossings, chains,
            dict(zip(ids.tolist(), map(tuple, xy.T.tolist()))), ids, edge,
            place, r.bearing.take(xp[::-1], 1).reshape(2, -1))


def scene_to_drawing(scene: Scene) -> tuple[Drawing, dict[int, Point]]:
    """The combinatorial drawing a scene depicts, and a map from crossing
    node id to coordinates.  The drawing is validated, which catches
    conversion bugs on top of the geometry checks.

    A point within TOL of the last point kept before it on its route is
    dropped, and the first and last points kept, which must lie within
    1e-6 of the edge's end vertices, are moved onto them.  The faults, in
    order: a position keyed by no vertex id, then a position or route
    point that is not two real numbers, such as a numeric string
    (InputError), or not finite, by name; the anchors, which must be ids
    with positions, and the radius, which must be a number; of the first
    edge that has one, the first of: fewer than two points kept (an empty
    route), the start off its vertex, the end off its vertex, a piece that
    runs straight back along the one before; for an anchored scene, the first
    edge that leaves the disk; the least fault between pieces and
    vertices, by rule (a piece through a vertex, a collinear fault, a
    self-crossing, a touch away from a shared vertex) and then by the
    pair; the crossings' own checks; last the rotations at vertices (in
    order of first appearance on the edges) and at anchors (in anchor
    order).
    """
    r = _route_arrays(scene)
    nseg = r.edge.size
    least, found = None, []
    for pair in _candidate_pairs(r):
        pieces = pair[1] < nseg
        at_vertex = (~pieces & (pair[0] < nseg)).nonzero()[0]
        pieces = pieces.nonzero()[0]
        faults = [least]
        if at_vertex.size:
            qs, qv = pair.take(at_vertex, 1)
            faults.append(_through_vertex(r, qs, qv - nseg))
        if pieces.size:
            fault, hits = _classify(r, pair.take(pieces, 1))
            faults.append(fault)
            found += hits
        least = min(filter(None, faults), default=None)
    if least:
        raise GeometryError(least[2])
    crossings, chains, points, *places = _crossing_records(r, found)
    g, anchors, anchor_xy, angle = r.graph, r.anchors, r.anchor_xy, r.angle
    # done with: the route arrays and the crossings' records are most of
    # what a large scene's read-off and validation would otherwise hold
    del r, found
    rotation = _rotations(g, anchors, anchor_xy, angle, *places)
    drawing = Drawing(g, crossings, chains, rotation, anchors or None)
    drawing.require_valid()
    return drawing, points
