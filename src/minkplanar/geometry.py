"""From coordinates to combinatorics.

A Scene holds vertex positions and one polyline route per edge.  The
conversion finds all pairwise route crossings, orders them along each
curve, reads off clockwise rotations from segment directions and returns
the resulting Drawing together with the crossing coordinates.

Routes must be in general position: transversal crossings only, no three
curves through a point, no curve through a vertex, no overlapping
segments.  Violations raise GeometryError rather than producing a drawing
that silently means something else.  For an anchored scene the anchors
must sit on a common circle, listed clockwise, and every route must stay
inside the closed disk.

Candidate pairs come from one sort and sweep of bounding boxes: each
route piece and each vertex gets a box grown by 32 TOL.  The boxes are
cut into y-strips at quantiles of their lower edges, and in each strip a
box pairs with those that start inside its x-range and meet its y-range.
The sweep makes its pairs a slice of at most ``_SWEEP_SLICE`` at a time
(more only when one box has more), and each slice is classified before
the next is made, so one constant bounds the memory of the whole pass
and only the crossings found are kept.  Pieces that end at one vertex are not paired by the sweep: two
straight pieces from one point meet again only when they are collinear,
so sorting the pieces by angle around the vertex finds the nearly
parallel pairs, and only those are classified, as one last batch.  A
fault is reported by one rule, whatever the order of the slices: the
least by kind (a piece through a vertex, a collinear fault, a
self-crossing, a touch) and then by the pair's two indices.  Each crossing is
then one array record (its two pieces, their edges, the arclength along
each and the point) that its checks, id, chain positions and rotation are
read from; the rotation uses the directions of its own two pieces.  Its
vertex clearance is tested only against the vertices that end both
edges: near any other vertex one of the pieces passes through it, which
the sweep has already rejected.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import GeometryError, InputError
from .graphs import Graph
from .drawings import ArcRef, Crossing, Drawing

Point = tuple[float, float]

# the converter's tolerance: points this close count as one, and the
# candidate boxes and vertex clearances are multiples of it
TOL = 1e-9


def on_circle(radius: float, degrees: float) -> Point:
    a = math.radians(degrees)
    return (radius * math.cos(a), radius * math.sin(a))


def _dist(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


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


# --------------------------------------------------- low level primitives


def _segment_intersection(a: Point, b: Point, c: Point, d: Point, tol: float):
    """Classified intersection of segments ab and cd.

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


# ------------------------------------------------------------- conversion

# pairs expanded per slice of the sweep, each slice classified before the
# next is made; bounds the working memory of the whole conversion
_SWEEP_SLICE = 1 << 16
# boxes per y-strip of the sweep; an input with no more boxes is one strip
_SWEEP_STRIP = 1 << 11


def _overlapping_boxes(lo: np.ndarray, hi: np.ndarray,
                       tags: np.ndarray) -> Iterator[np.ndarray]:
    """Index pairs of overlapping closed boxes, two rows with row 0 < row 1,
    yielded a slice at a time.

    The (n, 2) corner arrays are cut into y-strips of about
    ``_SWEEP_STRIP`` boxes at quantiles of the lower y edges.  A box joins
    every strip its y-range meets, and a pair is reported only in the strip
    that holds the higher of the two lower edges.  In each strip every box,
    in order of left edge, pairs with the boxes whose left edge lies in its
    x-range (a binary search on its right edge) and whose y-range meets its
    own.  A slice holds the pairs of consecutive boxes, at most
    ``_SWEEP_SLICE`` unless one box alone has more, so memory follows the
    slice.  Two boxes that share a tag, a column of the (2, n) integer
    array ``tags``, are not paired.
    """
    n = lo.shape[0]
    strips = -(-n // _SWEEP_STRIP)
    if strips <= 1:
        order = np.argsort(lo[:, 0], kind="stable")
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
    ylo, yhi = lo[order, 1], hi[order, 1]
    stop = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    count = stop - np.arange(order.size) - 1
    ends = np.cumsum(count)
    start = 0
    while start < order.size:
        end = max(start + 1, int(np.searchsorted(
            ends, ends[start] - count[start] + _SWEEP_SLICE, side="right")))
        c = count[start:end]
        # sorted box a pairs with the sorted boxes a+1 .. stop[a]-1
        a = np.repeat(np.arange(start, end), c)
        b = np.repeat(np.arange(start + 1, end + 1) - (np.cumsum(c) - c), c)
        b += np.arange(b.size)
        keep = (ylo[b] <= yhi[a]) & (ylo[a] <= yhi[b])
        if home is not None:
            keep &= home[a] | home[b]
        i, j = order[a[keep]], order[b[keep]]
        i0, i1, j0, j1 = tags[0, i], tags[1, i], tags[0, j], tags[1, j]
        apart = (i0 != j0) & (i0 != j1) & (i1 != j0) & (i1 != j1)
        i, j = i[apart], j[apart]
        yield np.sort(np.stack((i, j)), axis=0)
        start = end


def _side_by_side(parts: list[np.ndarray]) -> np.ndarray:
    """The 2-row arrays ``parts`` joined along their rows; one part is
    returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _clean_route(route):
    pts = [route[0]]
    for p in route[1:]:
        if _dist(p, pts[-1]) > TOL:
            pts.append(p)
    return pts


def _check_scene(scene: Scene) -> float | None:
    g = scene.graph
    for v in g.vertices:
        if v not in scene.positions:
            raise InputError(f"no position for vertex {v}")
    if sorted(scene.routes) != list(range(g.m)):
        raise InputError("routes must cover exactly the edge ids")
    radius = None
    if scene.anchors is not None:
        anchors = scene.anchors
        if len(anchors) < 2:
            raise InputError("an anchored scene needs >= 2 anchors")
        radius = scene.radius
        if radius is None:
            radius = _dist(scene.positions[anchors[0]], (0.0, 0.0))
        for a in anchors:
            off = abs(_dist(scene.positions[a], (0.0, 0.0)) - radius)
            if off > 1e-6 * max(1.0, radius):
                raise GeometryError(
                    f"anchor {a} does not sit on the boundary circle"
                )
        angles = [
            math.degrees(math.atan2(*reversed(scene.positions[a])))
            for a in anchors
        ]
        total = 0.0
        for i in range(len(anchors)):
            step = (angles[i] - angles[(i + 1) % len(anchors)]) % 360.0
            if step <= 0.0 or step >= 360.0:
                raise GeometryError("coincident anchors on the circle")
            total += step
        if abs(total - 360.0) > 1e-6:
            raise GeometryError(
                "anchors are not listed in clockwise circular order"
            )
    return radius


def scene_to_drawing(scene: Scene) -> tuple[Drawing, dict[int, Point]]:
    """Builds the combinatorial drawing a scene depicts.

    Returns the drawing and a map from crossing node id to coordinates.
    The drawing is validated before it is returned, which catches
    conversion bugs on top of the geometry checks.

    Memory does not follow the candidate pairs: each slice of the sweep
    is classified as it is made, so one slice is held at a time, and
    then the crossings found.
    """
    g = scene.graph
    radius = _check_scene(scene)

    routes: dict[int, list[Point]] = {}
    for e in range(g.m):
        u, v = g.edges[e]
        r = _clean_route(scene.routes[e])
        if len(r) < 2:
            raise GeometryError(f"route of edge {e} collapses to a point")
        if _dist(r[0], scene.positions[u]) > 1e-6:
            raise GeometryError(f"route of edge {e} does not start at vertex {u}")
        if _dist(r[-1], scene.positions[v]) > 1e-6:
            raise GeometryError(f"route of edge {e} does not end at vertex {v}")
        r[0] = scene.positions[u]
        r[-1] = scene.positions[v]
        # consecutive pieces are never paired as candidates below, so no
        # piece may run straight back along the one before it here
        for (ax, ay), (bx, by), (cx, cy) in zip(r, r[1:], r[2:]):
            px, py, qx, qy = bx - ax, by - ay, cx - bx, cy - by
            if px * qx + py * qy < 0.0 and abs(px * qy - py * qx) <= (
                TOL * math.hypot(px, py) * math.hypot(qx, qy)
            ):
                raise GeometryError(f"route of edge {e} doubles back on itself")
        routes[e] = r

    if radius is not None:
        for e, r in routes.items():
            for i, p in enumerate(r):
                limit = radius + 1e-9 if i in (0, len(r) - 1) else radius - TOL
                if _dist(p, (0.0, 0.0)) > limit:
                    raise GeometryError(
                        f"route of edge {e} leaves the boundary disk"
                    )

    # flatten every polyline piece into parallel arrays, with the prefix
    # arclengths that order crossings along a route.  A vertex end takes
    # its rotation angle from the first (last) piece that reaches more
    # than TOL along the route.  Each piece is tagged with its start and
    # end point: a vertex row, or a private id for a bend.  A vertex end
    # whose angle comes from a further piece (a terminal piece at most TOL
    # long) gets a private id.
    vert_pos = scene.positions
    vids = sorted(vert_pos)
    vrow = {v: i for i, v in enumerate(vids)}
    nv = len(vids)
    leave: list[float] = []
    arrive: list[float] = []
    ends_at: dict[int, list[tuple[float, int]]] = collections.defaultdict(list)
    seg_edge: list[int] = []
    seg_a: list[Point] = []
    seg_b: list[Point] = []
    seg_pref: list[float] = []
    tag_a: list[int] = []
    tag_b: list[int] = []
    # per edge, the last piece that belongs to its start and the first
    # that belongs to its end: the terminal piece, and after (before) a
    # terminal piece at most TOL long the next one too
    lead: list[int] = []
    trail: list[int] = []
    longest = 0.0
    for e in range(g.m):
        r = routes[e]
        u, v = g.edges[e]
        p0 = len(seg_edge)
        acc = [0.0]
        for i in range(len(r) - 1):
            step = _dist(r[i], r[i + 1])
            if step > longest:
                longest = step
            acc.append(acc[-1] + step)
            seg_edge.append(e)
            seg_a.append(r[i])
            seg_b.append(r[i + 1])
            seg_pref.append(acc[i])
        j = 0
        while j < len(acc) - 2 and acc[j + 1] <= TOL:
            j += 1
        leave.append(math.atan2(r[j + 1][1] - r[j][1], r[j + 1][0] - r[j][0]))
        lead.append(p0 + j)
        j = len(acc) - 2
        while j > 0 and acc[j] >= acc[-1] - TOL:
            j -= 1
        arrive.append(math.atan2(r[j][1] - r[j + 1][1], r[j][0] - r[j + 1][0]))
        trail.append(p0 + j)
        last = len(seg_edge) - 1
        tag_a.extend(range(nv + p0 + e, nv + last + e + 1))
        tag_b.extend(range(nv + p0 + e + 1, nv + last + e + 2))
        if acc[1] > TOL:
            tag_a[p0] = vrow[u]
            ends_at[vrow[u]].append((leave[e], p0))
        if acc[-2] < acc[-1] - TOL:
            tag_b[last] = vrow[v]
            ends_at[vrow[v]].append((arrive[e], last))
    nseg = len(seg_edge)

    SE = np.asarray(seg_edge, dtype=np.int64)
    SA = np.array(seg_a, dtype=float).reshape(-1, 2)
    SB = np.array(seg_b, dtype=float).reshape(-1, 2)
    SPREF = np.asarray(seg_pref, dtype=float)
    # columns of piece starts and directions, gathered once per chunk below
    AX, AY = SA.T
    DX, DY = (SB - SA).T
    SLEN = np.hypot(DX, DY)
    if np.any(SLEN == 0.0):
        raise GeometryError("zero length segment in a route")

    pos_arr = np.array([vert_pos[v] for v in vids], dtype=float).reshape(-1, 2)
    vids = np.array(vids, dtype=np.int64)
    edge_ends = np.array([(vrow[u], vrow[v]) for u, v in g.edges],
                         dtype=np.int64).reshape(-1, 2)

    def near_shared_vertex(pair, xy):
        """Rows, in order, whose point ``xy[row]`` lies within 16 TOL of a
        vertex that ends both edges ``pair[:, row]``, with that vertex."""
        ends = edge_ends[pair]
        row, i, _ = np.nonzero(ends[0, :, :, None] == ends[1, :, None, :])
        if not row.size:
            return row, row
        v = ends[0, row, i]
        near = np.hypot(*(xy[row] - pos_arr[v]).T) <= 16.0 * TOL
        return row[near], v[near]

    # the faults found, as (rule, key, message), and the least is raised
    # after the last batch, whatever the order of the batches: a piece
    # through a vertex (0, keyed vertex * nseg + piece), then a collinear
    # fault (1), a self-crossing (2) and a touch away from a shared vertex
    # (3), each keyed lower * nseg + higher piece
    faults: list[tuple[int, int, str]] = []
    lead = np.array(lead)
    trail = np.array(trail)

    def through_vertex(qs, qv):
        """Records a fault if a piece ``qs`` passes within 16 TOL of a
        vertex row ``qv``: of any vertex but its edge's ends, and of an
        end too unless the piece lies at that end."""
        qe = SE[qs]
        outside = ~(((edge_ends[qe, 0] == qv) & (qs <= lead[qe]))
                    | ((edge_ends[qe, 1] == qv) & (qs >= trail[qe])))
        qv = qv[outside]
        qs = qs[outside]
        px = pos_arr[qv, 0]
        py = pos_arr[qv, 1]
        dx = SB[qs, 0] - SA[qs, 0]
        dy = SB[qs, 1] - SA[qs, 1]
        tt = (
            (px - SA[qs, 0]) * dx + (py - SA[qs, 1]) * dy
        ) / (SLEN[qs] * SLEN[qs])
        tt = np.clip(tt, 0.0, 1.0)
        gap = np.hypot(
            px - SA[qs, 0] - tt * dx, py - SA[qs, 1] - tt * dy
        )
        hit_at = np.flatnonzero(gap <= 16.0 * TOL)
        if hit_at.size:
            b = hit_at[np.argmin(qv[hit_at] * nseg + qs[hit_at])]
            faults.append((0, int(qv[b] * nseg + qs[b]), f"route of edge "
                           f"{SE[qs[b]]} passes through vertex {vids[qv[b]]}"))

    # classify piece pairs and keep only the crossings, each as its lower
    # and higher piece and the parameter of the point along each.  The
    # rare parallel collinear pairs are classified one at a time
    line_p: list[tuple[int, int]] = []
    line_u: list[tuple[float, float]] = []
    cross_p: list[np.ndarray] = []
    cross_u: list[np.ndarray] = []

    def classify(plo, phi):
        rx = DX[plo]
        ry = DY[plo]
        sx = DX[phi]
        sy = DY[phi]
        acx = AX[phi] - AX[plo]
        acy = AY[phi] - AY[plo]
        denom = rx * sy - ry * sx
        len_r = SLEN[plo]
        len_s = SLEN[phi]
        par = np.abs(denom) <= TOL * len_r * len_s
        on_line = np.abs(acx * ry - acy * rx) <= TOL * len_r

        for j in np.flatnonzero(par & on_line):
            a1 = int(SE[plo[j]])
            a2 = int(SE[phi[j]])
            hit = _segment_intersection(
                (float(SA[plo[j], 0]), float(SA[plo[j], 1])),
                (float(SB[plo[j], 0]), float(SB[plo[j], 1])),
                (float(SA[phi[j], 0]), float(SA[phi[j], 1])),
                (float(SB[phi[j], 0]), float(SB[phi[j], 1])),
                TOL,
            )
            if hit is None:
                continue
            key = int(plo[j] * nseg + phi[j])
            if hit[0] == "overlap":
                faults.append((1, key, f"edges {a1} and {a2} run along a "
                               "shared segment"))
            elif a1 == a2:
                faults.append((1, key, f"edge {a1} crosses itself"))
            elif hit[0] == "touch":
                pt = hit[1]
                shared = set(g.edges[a1]) & set(g.edges[a2])
                if not any(_dist(pt, vert_pos[v]) <= 16.0 * TOL
                           for v in shared):
                    faults.append((1, key, f"edges {a1} and {a2} touch "
                                   f"without crossing near {pt}"))
            else:
                line_p.append((int(plo[j]), int(phi[j])))
                line_u.append(hit[2:])

        act = np.flatnonzero(~par)
        uu = (acx[act] * sy[act] - acy[act] * sx[act]) / denom[act]
        vv = (acx[act] * ry[act] - acy[act] * rx[act]) / denom[act]
        eu = TOL / len_r[act]
        ev = TOL / len_s[act]
        inside = (uu >= -eu) & (uu <= 1.0 + eu) & (vv >= -ev) & (vv <= 1.0 + ev)
        crossed = (
            inside & (uu > eu) & (uu < 1.0 - eu) & (vv > ev) & (vv < 1.0 - ev)
        )

        selfi = act[inside & (SE[plo[act]] == SE[phi[act]])]
        if selfi.size:
            b = selfi[np.argmin(plo[selfi] * nseg + phi[selfi])]
            faults.append((2, int(plo[b] * nseg + phi[b]),
                           f"edge {SE[plo[b]]} crosses itself"))
        touched = inside & ~crossed
        ti = act[touched]
        if ti.size:
            tpx = AX[plo[ti]] + uu[touched] * rx[ti]
            tpy = AY[plo[ti]] + uu[touched] * ry[ti]
            ok = np.zeros(ti.size, dtype=bool)
            ok[near_shared_vertex(SE[np.array((plo[ti], phi[ti]))],
                                  np.stack((tpx, tpy), axis=1))[0]] = True
            bad = np.flatnonzero(~ok)
            if bad.size:
                b = bad[np.argmin(plo[ti[bad]] * nseg + phi[ti[bad]])]
                lo, hi = plo[ti[b]], phi[ti[b]]
                pt = (float(tpx[b]), float(tpy[b]))
                faults.append((3, int(lo * nseg + hi), f"edges {SE[lo]} and "
                               f"{SE[hi]} touch without crossing near {pt}"))

        hits = act[crossed]
        if hits.size:
            cross_p.append(np.array((plo[hits], phi[hits])))
            cross_u.append(np.array((uu[crossed], vv[crossed])))

    # candidates: the boxes of all pieces and vertices, grown by 32 TOL,
    # so that any two within 64 TOL of each other pair up, except pieces
    # that share an end point (consecutive pieces of one curve, or pieces
    # ending at one vertex) and a vertex with the pieces that end there.
    # A batch with no pairs is skipped, as its checks would cost as much
    # as a small one's
    grow = 32.0 * TOL
    rows = list(range(nv))
    for first, second in _overlapping_boxes(
        np.concatenate((np.minimum(SA, SB), pos_arr)) - grow,
        np.concatenate((np.maximum(SA, SB), pos_arr)) + grow,
        np.array((tag_a + rows, tag_b + rows), dtype=np.int64),
    ):
        pieces = second < nseg
        at_vertex = ~pieces & (first < nseg)
        if at_vertex.any():
            through_vertex(first[at_vertex], second[at_vertex] - nseg)
        if pieces.any():
            classify(first[pieces], second[pieces])

    # the pairs of pieces that end at one vertex, where they are nearly
    # parallel.  Two straight pieces from one point meet again only if
    # they are collinear.  The classification agrees, away from parallel:
    # for pieces at an angle D (modulo pi) its u and v are exactly 0 or 1
    # when either piece starts at the vertex, and when both end there
    # their error, times a piece length of at most L, is below about
    # 12 * 2**-53 * L / sin D.  That is under TOL for L <= 10 and
    # D >= 1e-4 (near D = 1e-7 it is not); the window widens with longer
    # pieces.  Outside it the pair touches at the vertex, which is allowed.
    window = 1e-4 * max(1.0, longest / 10.0)
    near = set()
    for ends in ends_at.values():
        if len(ends) < 2:
            continue
        ends = sorted([(ang % math.pi, p) for ang, p in ends])
        if ends[0][0] <= window:
            ends += [(ang + math.pi, p) for ang, p in ends if ang <= window]
        for i, (ang, p) in enumerate(ends):
            j = i + 1
            while j < len(ends) and ends[j][0] - ang <= window:
                q = ends[j][1]
                if p != q:
                    near.add((min(p, q), max(p, q)))
                j += 1
    if near:
        classify(*np.array(list(near), dtype=np.int64).T)
    if faults:
        raise GeometryError(min(faults)[2])

    # one record per crossing, collinear ones first: its lower and higher
    # piece (xp), their edges (xe; pieces are numbered by edge, so the
    # lower edge is first), the arclength along each edge (xs) and the
    # point (xy)
    if line_p:
        cross_p.insert(0, np.array(line_p, dtype=np.int64).T)
        cross_u.insert(0, np.array(line_u, dtype=float).T)
    crossings: list[Crossing] = []
    xid_points: dict[int, Point] = {}
    chains = {e: (u, v) for e, (u, v) in enumerate(g.edges)}
    rotation: dict[int, tuple[ArcRef, ...]] = {}
    if cross_p:
        xp = _side_by_side(cross_p)
        xu = _side_by_side(cross_u)
        xe = SE[xp]
        xs = SPREF[xp] + xu * SLEN[xp]
        tail, head = SA[xp], SB[xp]
        xy = tail[0] + xu[0, :, None] * (head[0] - tail[0])

        # no crossing within 16 TOL of a vertex.  Only the vertices that
        # end both edges need a test: a crossing lies on both pieces, so
        # near any other vertex one of them passes through it, which
        # raised above.  Of several, the collinear ones come first and then
        # the least key, as for the faults above
        row, v = near_shared_vertex(xe, xy)
        if row.size:
            c = row[np.lexsort((xp[0, row] * nseg + xp[1, row],
                                row >= len(line_p)))[0]]
            raise GeometryError(
                f"edges {xe[0, c]} and {xe[1, c]} cross too close to "
                f"vertex {vids[v[row == c].min()]}"
            )

        # deterministic ids: sort by (lower edge, position along it,
        # higher edge, position along it)
        order = np.lexsort((xs[1], xe[1], xs[0], xe[0]))
        xe, xs, xy = xe[:, order], xs[:, order], xy[order]
        tail, head = tail[:, order], head[:, order]
        ids = max(g.vertices, default=-1) + 1 + np.arange(order.size)
        id_list = ids.tolist()
        crossings = [Crossing(x, (e1, e2))
                     for x, e1, e2 in zip(id_list, *xe.tolist())]
        xid_points = dict(zip(id_list, map(tuple, xy.tolist())))

        # each crossing once on each of its edges, in order along the edge
        on_edge = xe.ravel()
        at = xs.ravel()
        xid = np.concatenate((ids, ids))
        by = np.lexsort((xid, at, on_edge))
        on_edge, at, xid = on_edge[by], at[by], xid[by]
        tight = (on_edge[1:] == on_edge[:-1]) & (at[1:] - at[:-1] <= 16.0 * TOL)
        if tight.any():
            i = tight.argmax()
            raise GeometryError(
                f"crossings {xid[i]} and {xid[i + 1]} are too close on edge "
                f"{on_edge[i]}"
            )
        start = np.searchsorted(on_edge, np.arange(g.m + 1))
        cut, seq = start.tolist(), xid.tolist()
        chains = {e: (u, *seq[cut[e]:cut[e + 1]], v)
                  for e, (u, v) in enumerate(g.edges)}

        # rotations at crossings from their own two pieces, which each
        # crossing lies strictly inside.  Rows of ``way``: into the
        # crossing along the lower and the higher piece, then out along
        # each.  ``spot`` is each end's position in its chain.
        spot = np.empty_like(by)
        spot[by] = np.arange(1, by.size + 1) - start[on_edge]
        way = np.concatenate((tail - head, head - tail))
        dirs = np.arctan2(way[..., 1], way[..., 0])
        turn = np.argsort(-dirs, axis=0)
        col = np.arange(order.size)
        dirs = dirs[turn, col]
        flat = dirs[:-1] - dirs[1:] < 1e-12
        if flat.any():
            raise GeometryError(
                f"tangential curves at node {ids[flat.any(axis=0).argmax()]}")
        side = turn & 1
        arm = xe[side, col].T.tolist()
        arc = (spot.reshape(2, -1)[side, col] - 1 + (turn >> 1)).T.tolist()
        rotation = {x: tuple(zip(a, i)) for x, a, i in zip(id_list, arm, arc)}

    # rotations at vertices from the end angles
    incident: dict[int, list[tuple[float, ArcRef]]] = collections.defaultdict(list)
    for e, (u, v) in enumerate(g.edges):
        incident[u].append((leave[e], (e, 0)))
        incident[v].append((arrive[e], (e, len(chains[e]) - 2)))

    anchor_set = set(scene.anchors or ())
    for node, ends in incident.items():
        if node in anchor_set:
            continue
        ends.sort(key=lambda t: -t[0])
        for (a1, _), (a2, _) in zip(ends, ends[1:]):
            if a1 - a2 < 1e-12:
                raise GeometryError(f"tangential curves at node {node}")
        rotation[node] = tuple(ref for _, ref in ends)

    if scene.anchors is not None:
        for a in scene.anchors:
            pos = scene.positions[a]
            theta = math.atan2(pos[1], pos[0])
            t_cw = theta - math.pi / 2.0
            keyed = []
            for ang, ref in incident.get(a, []):
                off = (t_cw - ang) % (2.0 * math.pi)
                if off < 1e-12 or off > math.pi - 1e-12:
                    raise GeometryError(
                        f"curve leaves the disk at anchor {a}"
                    )
                keyed.append((off, ref))
            keyed.sort()
            for (o1, _), (o2, _) in zip(keyed, keyed[1:]):
                if o2 - o1 < 1e-12:
                    raise GeometryError(f"tangential curves at anchor {a}")
            rotation[a] = tuple(ref for _, ref in keyed)

    for v in g.vertices:
        rotation.setdefault(v, ())

    drawing = Drawing(g, tuple(crossings), chains, rotation, scene.anchors)
    drawing.require_valid()
    return drawing, xid_points
