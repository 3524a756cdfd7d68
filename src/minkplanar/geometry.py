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
returns the ``_Routes`` record the later phases read: each edge's two
tips, moved onto its end vertices, and their angles, and the pieces
between consecutive points with their edges, directions, lengths and
box tags.

``_candidate_pairs`` yields the pairs to classify a slice at a time.
One sort and sweep (``_overlapping_boxes``) pairs the boxes of all
pieces and vertices, grown by 32 TOL, at most ``_SWEEP_SLICE`` pairs a
slice.  Pieces that end at one vertex meet again only when collinear,
so they are not paired there: sorting the tips by angle finds their
nearly parallel pairs, the last slice.

``_through_vertex`` (a piece near a vertex) and ``_classify`` (two
pieces: parallel ones overlap, touch or miss, only those at an angle
cross) judge each slice before the next is made, so one constant bounds
the memory of the pass.  Each returns its least fault, ``_classify``
also its crossings, and the least fault of all is raised, whatever the
order of the slices.

``_crossing_records`` keeps each crossing as one array record (its two
pieces, their edges, the arclength along each and the point) and gives
it its id and chain positions.  Its vertex clearance is tested only
against the vertices that end both edges: near any other, one piece
passes through it, which classification has rejected.

``_rotations`` reads every rotation off by one sort of all curve ends by
node and angle: the four arms of each crossing, along its two pieces,
and the two tips of each edge.  The amplified frames of ``frames`` take
their rotations from the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
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
    by left edge, pair where one of them is ``home`` (all when None)."""
    xlo, ylo = lo.T[:, order]
    xhi, yhi = hi.T[:, order]
    start_tag, end_tag = tags
    count = xlo.searchsorted(xhi, side="right") - np.arange(1, order.size + 1)
    ends = count.cumsum()
    start = 0
    while start < order.size:
        end = max(start + 1, int(ends.searchsorted(
            ends[start] - count[start] + _SWEEP_SLICE, side="right")))
        c = count[start:end]
        # sorted box a pairs with the sorted boxes a+1 .. a+count[a]
        a = np.arange(start, end).repeat(c)
        b = (np.arange(start + 1, end + 1) - (c.cumsum() - c)).repeat(c)
        b += np.arange(b.size)
        keep = (ylo[b] <= yhi[a]) & (ylo[a] <= yhi[b])
        if home is not None:
            keep &= home[a] | home[b]
        i, j = order[a[keep]], order[b[keep]]
        i0, i1, j0, j1 = start_tag[i], end_tag[i], start_tag[j], end_tag[j]
        apart = (i0 != j0) & (i0 != j1) & (i1 != j0) & (i1 != j1)
        i, j = i[apart], j[apart]
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
    slack = 1e-6 * max(1.0, radius)
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
               tip_angle: np.ndarray, ids: np.ndarray, xe: np.ndarray,
               spot: np.ndarray, tail: np.ndarray, head: np.ndarray
               ) -> dict[int, tuple[ArcRef, ...]]:
    """The clockwise rotation at every node, read off the directions of
    the curve ends there by one sort.

    The ends are each edge e's tips, 2e out of its first vertex at angle
    ``tip_angle[2e]`` and 2e + 1 out of its second, and the arms of each
    crossing ``ids[i]`` of the edges ``xe[:, i]`` (lower first), which
    lies at ``spot[:, i]`` in their chains and inside their pieces from
    ``tail[:, i]`` to ``head[:, i]``: back along each piece, then on.  A
    vertex or crossing lists its ends by falling angle, an anchor (at
    ``anchor_xy``) by clockwise turn from the circle's tangent.  Ends of
    one node within 1e-12 are tangential, and no end may point along or
    out of the circle at an anchor.  Nodes, and faults, go in the
    converter's order: crossings as given, other vertices as the edges
    first reach them, anchors (leaving the disk before tangential), then
    isolated vertices.
    """
    m, nx = g.m, ids.size
    # the ends: the crossings' arms, a row of each kind, then the tips
    tip_ids = list(chain.from_iterable(g.edges))
    tips = np.fromiter(tip_ids, np.int64, 2 * m)
    node = np.concatenate((ids, ids, ids, ids, tips))
    edge = np.concatenate((xe, xe, np.arange(2 * m) >> 1), axis=None)
    # the arcs: into a crossing and out of it, out of an edge's first
    # vertex and into its second, which follows all its crossings
    arc = np.concatenate((spot - 1, spot, np.bincount(
        xe.ravel() * 2 + 1, minlength=2 * m)), axis=None)
    way = np.concatenate((tail - head, head - tail)).reshape(-1, 2)
    key = -np.concatenate((np.arctan2(way[:, 1], way[:, 0]), tip_angle))
    out = ids[:0]
    if anchors:
        slot = np.fromiter(map(dict(zip(anchors, range(len(anchors)))).get,
                               tip_ids, repeat(-1)), np.int64, 2 * m)
        tip = (slot >= 0).nonzero()[0]
        slot = slot[tip]
        t_cw = np.arctan2(anchor_xy[:, 1], anchor_xy[:, 0]) - math.pi / 2.0
        key[4 * nx:][tip] = turn = (t_cw[slot] - tip_angle[tip]) % (
            2.0 * math.pi)
        out = slot[(turn < 1e-12) | (turn > math.pi - 1e-12)]
    by = np.lexsort((key, node))
    node, key = node[by], key[by]
    tight = node[1:][(node[1:] == node[:-1]) & (key[1:] - key[:-1] < 1e-12)]

    # the nodes in order: crossings, vertices as the tips reach them, and
    # anchors and isolated vertices once the faults have been looked for
    rotation = dict.fromkeys(chain(ids.tolist(), tip_ids), ())
    for a in anchors:
        rotation.pop(a, None)
    if tight.size or out.size:
        tight, out = set(tight.tolist()), set(out.tolist())
        for v in rotation:
            if v in tight:
                raise GeometryError(f"tangential curves at node {v}")
        for i, a in enumerate(anchors):
            if i in out:
                raise GeometryError(f"curve leaves the disk at anchor {a}")
            if a in tight:
                raise GeometryError(f"tangential curves at anchor {a}")
    rotation.update(zip(chain(anchors, g.vertices), repeat(())))
    # each edge id one int object, however many ends name it
    refs = list(zip(map(list(range(m)).__getitem__, edge[by].tolist()),
                    arc[by].tolist()))
    cut = _starts(node)
    rotation.update(zip(node[cut[:-1]].tolist(), map(tuple, map(
        refs.__getitem__, map(slice, cut, cut[1:])))))
    return rotation


class _Routes(NamedTuple):
    """A scene's cleaned routes as arrays: vertex row i is ``vids[i]``, tip
    2e is edge e's start and 2e + 1 its end; pieces go by edge, in order."""

    graph: Graph
    anchors: tuple[int, ...]
    vids: np.ndarray       # the vertex ids, sorted
    pos: np.ndarray        # (nv, 2) their positions
    tip_v: np.ndarray      # each tip's vertex row
    edge_ends: np.ndarray  # (m, 2) the same by edge
    kept: np.ndarray       # the points kept of each edge's route
    edge: np.ndarray       # each piece's edge
    tail: np.ndarray       # (nseg, 2) each piece's start
    head: np.ndarray       # (nseg, 2) and end
    way: np.ndarray        # (nseg, 2) head - tail
    length: np.ndarray     # each piece's length
    tip_p: np.ndarray      # each tip's own (terminal) piece
    lead: np.ndarray       # each edge's piece its start's angle is from
    trail: np.ndarray      # and its end's
    angle: np.ndarray      # each tip's angle out of its vertex
    reach: np.ndarray      # the tips whose own piece is longer than TOL
    tags: np.ndarray       # (2, nseg + nv) the sweep's box tags


def _route_arrays(scene: Scene) -> _Routes:
    """The route arrays of ``scene``, once every point is finite, the
    anchors are checked and every route is clean and in place."""
    g = scene.graph
    for v in g.vertices:
        if v not in scene.positions:
            raise InputError(f"no position for vertex {v}")
    if sorted(scene.routes) != list(range(g.m)):
        raise InputError("routes must cover exactly the edge ids")
    vids = sorted(scene.positions)
    nv, m = len(vids), g.m
    # every route point, each route a run of them.  An empty route is
    # read as its start vertex alone, which collapses below
    routes = list(map(scene.routes.__getitem__, range(m)))
    size = np.fromiter(map(len, routes), np.int64, m)
    if not all(map(len, routes)):
        for e in (size == 0).nonzero()[0].tolist():
            routes[e] = (scene.positions[g.edges[e][0]],)
        size = np.fromiter(map(len, routes), np.int64, m)
    # the positions and then the route points, all finite
    xy = np.fromiter(chain.from_iterable(chain(
        map(scene.positions.__getitem__, vids), *routes)), float).reshape(
            nv + int(size.sum()), 2)
    i = _not_finite(xy)
    if i >= 0 and i < nv:
        raise GeometryError(f"vertex {vids[i]} has a non-finite position "
                            f"{scene.positions[vids[i]]}")
    if i >= 0:
        e = int(size.cumsum().searchsorted(i - nv, side="right"))
        raise GeometryError(f"route of edge {e} has a non-finite point "
                            f"{routes[e][i - nv - size[:e].sum()]}")
    anchors, radius = _check_anchors(scene)
    pos, pts = xy[:nv], xy[nv:]
    vids = np.array(vids, dtype=np.int64)
    tip_v = vids.searchsorted(np.fromiter(
        chain.from_iterable(g.edges), np.int64, 2 * m))

    # cleaning.  A point more than TOL from the point before it is kept
    # when that one is; a point within TOL of it starts a run of dropped
    # points, each measured against the last point kept, up to the end
    # of the route
    pt_edge = np.arange(m).repeat(size)
    step = pts[1:] - pts[:-1]
    drop: list[int] = []
    for i in (np.hypot(step[:, 0], step[:, 1]) <= TOL).nonzero()[0].tolist():
        i += 1
        if drop and i <= drop[-1] + 1 or pt_edge[i] != pt_edge[i - 1]:
            continue
        held = pts[i - 1].tolist()
        stop = size[:pt_edge[i] + 1].sum()
        drop.append(i)
        i += 1
        while i < stop and math.dist(pts[i].tolist(), held) <= TOL:
            drop.append(i)
            i += 1
    kept = size
    if drop:
        pts = np.delete(pts, drop, axis=0)
        pt_edge = np.delete(pt_edge, drop)
        kept = np.bincount(pt_edge, minlength=m)
    # each tip's point: its edge's first or last point kept
    tip = (kept.cumsum() - 1).repeat(2)
    tip[0::2] -= kept - 1

    # each tip within 1e-6 of its vertex, then moved onto it
    at_tip = pos[tip_v]
    off = pts[tip] - at_tip
    off = np.hypot(off[:, 0], off[:, 1]) > 1e-6
    pts[tip] = at_tip

    # the pieces between consecutive points of one route
    body = (pt_edge[1:] == pt_edge[:-1]).nonzero()[0]
    nxt = body + 1
    edge = pt_edge[body]
    tail, head = pts[body], pts[nxt]
    way = head - tail
    length = np.hypot(way[:, 0], way[:, 1])
    # consecutive pieces are never paired as candidates, so no piece may
    # run straight back along the one before it here: the dot and cross
    # products of each piece's direction with the next one's
    dot = way[:-1] * way[1:]
    cross = way[:-1] * way[1:, ::-1]
    back = edge[1:][(dot[:, 0] + dot[:, 1] < 0.0) & (edge[1:] == edge[:-1]) & (
        np.abs(cross[:, 0] - cross[:, 1]) <= TOL * length[:-1] * length[1:])]
    if back.size or off.any() or kept.min(initial=2) < 2:
        collapsed = kept < 2
        bad = collapsed | off[0::2] | off[1::2]
        bad[back] = True
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
    if not length.all():
        raise GeometryError("zero length segment in a route")

    # per tip, its own (terminal) piece, and the piece it takes its angle
    # from: its own, or the next one along the route when its own is at
    # most TOL long.  Only a terminal piece can be that short, once its
    # end is moved onto the vertex: cleaning keeps no two consecutive
    # points within TOL.  A tip's own piece is tagged with the vertex
    # only if it is longer; every other piece end is tagged with its
    # point, a private id
    nseg = len(edge)
    tip_p = tip - (np.arange(1, 2 * m + 1) >> 1)
    reach = length[tip_p] > TOL
    short = ~reach & (kept > 2).repeat(2)
    lead = tip_p[0::2] + short[0::2]
    trail = tip_p[1::2] - short[1::2]
    # out of the vertex along that piece: its start to its end, or back
    # from its end to its start (as tail - head, not -(head - tail),
    # which would turn +pi into -pi for a piece along the x-axis)
    tip_way = np.empty((2 * m, 2))
    tip_way[0::2] = way[lead]
    tip_way[1::2] = tail[trail] - head[trail]
    reach = reach.nonzero()[0]
    tags = np.empty((2, nseg + nv), dtype=np.int64)
    tags[0, :nseg] = body + nv
    tags[1, :nseg] = nxt + nv
    tags[:, nseg:] = np.arange(nv)
    tags[reach & 1, tip_p[reach]] = tip_v[reach]
    return _Routes(g, anchors, vids, pos, tip_v, tip_v.reshape(-1, 2), kept,
                   edge, tail, head, way, length, tip_p, lead, trail,
                   np.arctan2(tip_way[:, 1], tip_way[:, 0]), reach, tags)


def _candidate_pairs(r: _Routes) -> Iterator[np.ndarray]:
    """The pairs to classify, lower over higher, a (2, n) slice at a time:
    the sweep's, a vertex row v as nseg + v, then the nearly parallel
    pairs of pieces that end at one vertex, if there are any."""
    # the boxes, grown by 32 TOL, so that any two within 64 TOL of each
    # other pair up, except pieces that share an end point (consecutive
    # pieces of one curve, or pieces ending at one vertex) and a vertex
    # with the pieces that end there
    grow = 32.0 * TOL
    yield from _overlapping_boxes(
        np.concatenate((np.minimum(r.tail, r.head), r.pos)) - grow,
        np.concatenate((np.maximum(r.tail, r.head), r.pos)) + grow,
        r.tags,
    )

    # the pairs of pieces that end at one vertex, where they are nearly
    # parallel.  Away from parallel the classification agrees that they
    # only touch there: for pieces at an angle D (modulo pi) its u and v
    # are exactly 0 or 1 when either piece starts at the vertex, and when
    # both end there their error, times a piece length of at most L, is
    # about 12 * 2**-53 * L / sin D, under TOL for L <= 10 and D >= 1e-4;
    # the window widens with longer pieces.  The tips that reach beyond
    # TOL are sorted by vertex and angle modulo pi, those within the
    # window of 0 again past pi, and a pair is a tip and one after it at
    # the same vertex, at most the window further on
    nseg, ends = r.edge.size, r.reach
    window = 1e-4 * max(1.0, r.length.max(initial=0.0) / 10.0)
    turn = r.angle[ends] % math.pi
    wrap = turn <= window
    if wrap.any():
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
    """Rows, in order, whose point ``xy[row]`` lies within 16 TOL of a
    vertex that ends both edges ``edges[:, row]``, with that vertex."""
    one, two = r.edge_ends[edges]
    row, i, _ = (one[:, :, None] == two[:, None, :]).nonzero()
    if not row.size:
        return row, row
    v = one[row, i]
    gap = xy[row] - r.pos[v]
    near = (np.hypot(gap[:, 0], gap[:, 1]) <= 16.0 * TOL).nonzero()[0]
    return row[near], v[near]


def _through_vertex(r: _Routes, qs: np.ndarray,
                    qv: np.ndarray) -> _Fault | None:
    """The least fault of a piece ``qs`` that passes within 16 TOL of a
    vertex row ``qv``: of any vertex but its edge's ends, and of an end
    too unless the piece lies at that end; None if none does."""
    # the vertex from the piece's start, and its foot on the piece
    rel = r.pos[qv] - r.tail[qs]
    way = r.way[qs]
    length = r.length[qs]
    tt = (rel[:, 0] * way[:, 0] + rel[:, 1] * way[:, 1]) / (length * length)
    tt = np.minimum(np.maximum(tt, 0.0), 1.0)
    gap = rel - tt[:, None] * way
    near = (np.hypot(gap[:, 0], gap[:, 1]) <= 16.0 * TOL).nonzero()[0]
    qs, qv = qs[near], qv[near]
    qe = r.edge[qs]
    ends = r.edge_ends[qe]
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
    way = r.way[pair]
    dr, ds = way
    ac = r.tail[pair]
    ac = ac[1] - ac[0]
    lens = r.length[pair]
    denom = dr[:, 0] * ds[:, 1] - dr[:, 1] * ds[:, 0]
    par = np.abs(denom) <= TOL * lens[0] * lens[1]

    # parallel pieces on one line: the higher one's ends project to t0 and
    # t1 along the lower one, and the two overlap, touch at a point or
    # miss by how far [t0, t1] reaches into [0, 1]
    col = par.nonzero()[0]
    if col.size:
        col = col[np.abs(ac[col, 0] * dr[col, 1] - ac[col, 1] * dr[col, 0])
                  <= TOL * lens[0, col]]
    if col.size:
        lo, hi = pair[:, col]
        rx, ry = dr[col].T
        rr = lens[0, col] * lens[0, col]
        t0 = (ac[col, 0] * rx + ac[col, 1] * ry) / rr
        t1 = t0 + (ds[col, 0] * rx + ds[col, 1] * ry) / rr
        t_lo = np.where(t1 < t0, t1, t0)
        t_hi = np.where(t1 > t0, t1, t0)
        eps = TOL / lens[0, col]
        meet = (t_hi >= -eps) & (t_lo <= 1 + eps)
        a = np.where(0.0 > t_lo, 0.0, t_lo)
        b = np.where(1.0 < t_hi, 1.0, t_hi)
        touch = meet & (b - a <= eps)
        t = (a + b) / 2.0
        tx = r.tail[lo, 0] + t * rx
        ty = r.tail[lo, 1] + t * ry
        ok = np.zeros(col.size, dtype=bool)
        ok[_near_shared_vertex(r, r.edge[pair[:, col]],
                               np.stack((tx, ty), axis=1))[0]] = True
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
                        f"near {(float(tx[c]), float(ty[c]))}")
            return (1, key, what), []

    # pieces at an angle: the parameters u along the lower piece and v
    # along the higher (rows of uv), from the cross products of ac with
    # the higher and the lower direction
    apart = ~par
    uv = np.divide(ac[:, 0] * way[::-1, :, 1] - ac[:, 1] * way[::-1, :, 0],
                   denom, out=np.zeros((2, denom.size)), where=apart)
    eps = TOL / lens
    inside = (uv >= -eps) & (uv <= 1.0 + eps)
    inside = apart & inside[0] & inside[1]
    crossed = (uv > eps) & (uv < 1.0 - eps)
    crossed = crossed[0] & crossed[1]

    edge = r.edge[pair]
    selfi = (inside & (edge[0] == edge[1])).nonzero()[0]
    if selfi.size:
        b, key = _least(selfi, pair[0], pair[1], nseg)
        return (2, key, f"edge {edge[0, b]} crosses itself"), []
    ti = (inside & ~crossed).nonzero()[0]
    if ti.size:
        tp = r.tail[pair[0, ti]] + uv[0, ti, None] * dr[ti]
        ok = np.zeros(ti.size, dtype=bool)
        ok[_near_shared_vertex(r, edge[:, ti], tp)[0]] = True
        if not ok.all():
            lo, hi = pair[:, ti]
            b, key = _least((~ok).nonzero()[0], lo, hi, nseg)
            return (3, key, f"edges {r.edge[lo[b]]} and {r.edge[hi[b]]} "
                    f"touch without crossing near "
                    f"{(float(tp[b, 0]), float(tp[b, 1]))}"), []

    hits = crossed.nonzero()[0]
    return None, [(pair[:, hits], uv[:, hits])] if hits.size else []


def _crossing_records(r: _Routes,
                      found: list[tuple[np.ndarray, np.ndarray]]):
    """The crossings, chains and crossing points of the drawing, then the
    ids, edges, chain places and pieces (tails, heads) that ``_rotations``
    reads, of the crossings ``found`` by ``_classify``.  No crossing may
    lie within 16 TOL of a vertex, nor two within 16 TOL of each other
    along one edge."""
    g, nseg = r.graph, r.edge.size
    chains = dict(enumerate(g.edges))
    if not found:
        ids = np.zeros(0, dtype=np.int64)
        pairs, ends = ids.reshape(2, 0), np.zeros((2, 0, 2))
        return (), chains, {}, ids, pairs, pairs, ends, ends
    # one record per crossing: its lower and higher piece (xp), their
    # edges (xe; pieces are numbered by edge, so the lower edge is first),
    # the arclength along each edge (xs) and the point (xy)
    xp, xu = found[0] if len(found) == 1 else (
        np.concatenate(x, axis=1) for x in zip(*found))
    xe = r.edge[xp]
    # the prefix arclengths along each edge, summed in order along it:
    # the edges with as many pieces are the rows of one array
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
    xp, xu, xe, xs = xp[:, order], xu[:, order], xe[:, order], xs[:, order]
    tail, head = r.tail[xp], r.head[xp]
    xy = tail[0] + xu[0, :, None] * (head[0] - tail[0])

    # no crossing within 16 TOL of a vertex.  Only the vertices that end
    # both edges need a test: a crossing lies on both pieces, so near any
    # other vertex one of them passes through it, which is a fault of
    # the classification.  Of several, the least key is reported
    row, v = _near_shared_vertex(r, xe, xy)
    if row.size:
        c, _ = _least(row, xp[0], xp[1], nseg)
        raise GeometryError(f"edges {xe[0, c]} and {xe[1, c]} cross too "
                            f"close to vertex {r.vids[v[row == c].min()]}")

    ids = max(g.vertices, default=-1) + 1 + np.arange(order.size)
    id_list = ids.tolist()
    crossings = tuple(map(Crossing, id_list, zip(*xe.tolist())))

    # each crossing once on each of its edges, in order along the edge
    on_edge, at = xe.ravel(), xs.ravel()
    xid = np.concatenate((ids, ids))
    by = np.lexsort((xid, at, on_edge))
    on_edge, at, xid = on_edge[by], at[by], xid[by]
    tight = (on_edge[1:] == on_edge[:-1]) & (at[1:] - at[:-1] <= 16.0 * TOL)
    if tight.any():
        i = tight.argmax()
        raise GeometryError(f"crossings {xid[i]} and {xid[i + 1]} are too "
                            f"close on edge {on_edge[i]}")
    start = on_edge.searchsorted(np.arange(g.m + 1))
    cut, seq = start.tolist(), xid.tolist()
    for e in (start[1:] > start[:-1]).nonzero()[0].tolist():
        u, v = g.edges[e]
        chains[e] = (u, *seq[cut[e]:cut[e + 1]], v)

    # each crossing's position in the chain of each of its edges
    spot = np.empty_like(by)
    spot[by] = np.arange(1, by.size + 1) - start[on_edge]
    return (crossings, chains, dict(zip(id_list, map(tuple, xy.tolist()))),
            ids, xe, spot.reshape(2, -1), tail, head)


def scene_to_drawing(scene: Scene) -> tuple[Drawing, dict[int, Point]]:
    """The combinatorial drawing a scene depicts, and a map from crossing
    node id to coordinates.  The drawing is validated, which catches
    conversion bugs on top of the geometry checks.

    A point within TOL of the last point kept before it on its route is
    dropped, and the first and last points kept, which must lie within
    1e-6 of the edge's end vertices, are moved onto them.  The faults, in
    order: a position or route point that is not finite, by name; the
    anchors, which must be ids with positions; of the first edge that has
    one, the first of: fewer than two points kept (an empty route), the
    start off its vertex, the end off its vertex, a piece that runs
    straight back along the one before; for an anchored scene, the first
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
            faults.append(_through_vertex(
                r, pair[0, at_vertex], pair[1, at_vertex] - nseg))
        if pieces.size:
            fault, hits = _classify(r, pair[:, pieces])
            faults.append(fault)
            found += hits
        least = min(filter(None, faults), default=None)
    if least:
        raise GeometryError(least[2])
    crossings, chains, points, *arms = _crossing_records(r, found)
    rotation = _rotations(r.graph, r.anchors,
                          r.pos[r.vids.searchsorted(r.anchors)], r.angle,
                          *arms)
    drawing = Drawing(r.graph, crossings, chains, rotation, r.anchors or None)
    drawing.require_valid()
    return drawing, points
