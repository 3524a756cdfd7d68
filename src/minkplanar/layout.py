"""Coordinates and pictures for combinatorial drawings.

``tutte_layout`` places the planarization of a drawing in the unit disk:
boundary nodes are pinned to the circle and every free node solves the
barycentric equation (it sits at the average of its neighbours).  For an
anchored drawing the pinned cycle is the anchor ring; otherwise the
longest simple face walk serves as the outer boundary.  Faces with more
than three sides are stellated with a throwaway apex first, which keeps
the system non-degenerate on the nested ring structures this package
produces; the apexes never appear in the returned layout.

``audit_layout`` re-reads the straight-line picture with the independent
scene converter and checks that it reproduces the drawing exactly: no
stray intersections, and the same cyclic arc order around every node.

``to_svg`` writes a deterministic standalone SVG.  Crossing nodes are
bend points of their two curves, not dots.

The barycentric system is a graph Laplacian, symmetric positive
definite once the boundary is pinned, so ``cg`` solves it with numpy
alone: a conjugate gradient with a Jacobi preconditioner.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .drawings import Drawing, crossing_profile
from .errors import GeometryError, LayoutError
from .geometry import Point, Scene, scene_to_drawing
from .graphs import Graph, components


def cg(diag: np.ndarray, rows: np.ndarray, cols: np.ndarray,
       rhs: np.ndarray) -> np.ndarray:
    """Solve ``A @ x = rhs`` for both columns of the (n, 2) ``rhs`` at once.

    A, symmetric positive definite, has ``diag`` on its diagonal and -1 at
    each ``(rows[i], cols[i])``.  Jacobi-preconditioned conjugate gradient
    on the columns stacked into one vector, so that one gather and one
    bincount apply A to both; each stops at a relative residual of 1e-13.
    Raises LayoutError when A shows itself not positive definite (a NaN
    included) and when the iterations run out.
    """
    n = diag.shape[0]
    src, dst = np.concatenate((rows, rows + n)), np.concatenate((cols, cols + n))
    dot = functools.partial(np.einsum, "ij,ij->i")
    r = np.array(rhs.T, dtype=float, order="C")
    x, z = np.zeros_like(r), r / diag
    p, rz, rr = z.copy(), dot(r, z), dot(r, r)
    goal = 1e-26 * rr
    for _ in range(2 * n + 100):
        active = ~(rr <= goal)
        if not active.any():
            return x.T
        ap = diag * p
        ap -= np.bincount(src, p.ravel()[dst], 2 * n).reshape(2, n)
        pap = dot(p, ap)
        if not (pap[active] > 0).all():
            raise LayoutError("singular barycentric system")
        alpha = np.divide(rz, pap, out=np.zeros(2), where=active)[:, None]
        x += alpha * p
        r -= alpha * ap
        np.divide(r, diag, out=z)
        rz, old, rr = dot(r, z), rz, dot(r, r)
        p *= np.divide(rz, old, out=np.zeros(2), where=active)[:, None]
        p += z
    raise LayoutError("iterative solve did not converge")


# bench/layers.py also traces this name; a distinct object counts a solve once
spsolve = functools.partial(cg)


@dataclass(frozen=True)
class Layout:
    """Unit-disk coordinates for every node of a drawing's planarization.

    ``residual`` is the largest deviation of any free node from the
    average of its neighbours in the solved system, apexes included.
    """

    coordinates: dict[int, Point]
    boundary: tuple[int, ...]
    residual: float


def _circle_point(index: int, count: int) -> Point:
    # clockwise from twelve o'clock, matching the anchor convention
    ang = math.radians(90.0 - 360.0 * index / count)
    return (math.cos(ang), math.sin(ang))


def _least_rotation(walk: list[int]) -> tuple[int, ...]:
    """The rotation of a walk that starts at its first least node."""
    i = walk.index(min(walk))
    return tuple(walk[i:] + walk[:i])


def _outer_walk(walks: list[list[int]], d: Drawing) -> list[int]:
    """Nodes of the face that will be pinned, in clockwise order."""
    if d.anchored:
        return list(d.anchors)
    simple = [w for w in walks if len(w) >= 3 and len(set(w)) == len(w)]
    if not simple:
        raise LayoutError(
            "no simple face cycle to pin as the boundary; "
            "the planarization is too loosely connected"
        )
    # deterministic: the least rotation of the longest walks, so the pinned
    # walk starts at its least node whatever dart its orbit was traced from
    longest = max(map(len, simple))
    return list(min(_least_rotation(w) for w in simple if len(w) == longest))


def tutte_layout(d: Drawing) -> Layout:
    """Barycentric unit-disk coordinates for the planarization of ``d``.

    The drawing must be valid and its planarization connected (every node
    reachable from the pinned boundary).  Interior nodes land strictly
    inside the disk.
    """
    d.require_valid()
    pm = d.planarization
    nodes = list(d.graph.vertices) + list(d.crossing_ids())

    if not pm.arc_tail:
        if nodes:
            raise LayoutError("isolated nodes make the system singular")
        return Layout({}, (), 0.0)

    walks = [[pm.tail(dart) for dart in orbit] for orbit in pm.faces]
    walk = _outer_walk(walks, d)
    pinned: dict[int, Point] = {
        v: _circle_point(i, len(walk)) for i, v in enumerate(walk)
    }

    # adjacency of the augmented graph: planarization arcs (boundary arcs
    # of an anchored drawing included) plus one apex per big face
    ends = list(zip(pm.arc_tail, pm.arc_head))
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    apex = max(nodes) + 1
    # the pinned face itself stays hollow, in either orientation
    hollow = {_least_rotation(walk), _least_rotation(walk[::-1])}
    for face_walk in walks:
        if len(face_walk) <= 3 or (
            len(face_walk) == len(walk)
            and _least_rotation(face_walk) in hollow
        ):
            continue
        adj[apex] = []
        ends += zip(repeat(apex), face_walk)
        apex += 1
    for a, b in ends:
        adj[a].append(b)
        adj[b].append(a)

    free = [v for v in adj if v not in pinned]
    if any(not adj[v] for v in free):
        raise LayoutError("isolated nodes make the system singular")

    # the pinned walk is connected, so one component means every free node
    # reaches it: that doubles as the singularity check
    if len(components(adj, adj.__getitem__)) > 1:
        raise LayoutError(
            "planarization has a component detached from the boundary"
        )

    # system rows: the free nodes, then the pinned ones, whose coordinates
    # are known; one (row, col) entry per adjacency, both ways round
    n = len(free)
    index = dict(zip(free + walk, range(n + len(walk))))
    ij = np.fromiter(map(index.__getitem__, chain.from_iterable(ends)),
                     np.intp, 2 * len(ends)).reshape(-1, 2)
    row, col = np.concatenate((ij, ij[:, ::-1])).T
    row, col = row[row < n], col[row < n]
    diag = np.bincount(row, minlength=n).astype(float)
    xy = np.concatenate((np.zeros((n, 2)), [pinned[v] for v in walk]))
    inner = col < n
    sums = [np.bincount(row[~inner], xy[col[~inner], c], n) for c in (0, 1)]
    xy[:n] = cg(diag, row[inner], col[inner], np.stack(sums, 1))
    sums = [np.bincount(row, xy[col, c], n) for c in (0, 1)]
    off = xy[:n] - np.stack(sums, 1) / diag[:, None]
    residual = float(np.hypot(off[:, 0], off[:, 1]).max(initial=0.0))
    # the apexes come last in ``free`` and are left out
    coords: dict[int, Point] = dict(pinned)
    coords.update(zip(free[:len(nodes) - len(walk)], zip(*xy.T.tolist())))
    return Layout(coords, tuple(walk), residual)


# ------------------------------------------------------------------ audit


def _planarization_graph(d: Drawing) -> Graph:
    """The planarization as a plain graph on its edge arcs: edge i of the
    result is arc ``len(anchors) + i`` of the drawing's dart map."""
    pm = d.planarization
    b = len(d.anchors or ())
    nodes = tuple(d.graph.vertices) + d.crossing_ids()
    return Graph(nodes, tuple(zip(pm.arc_tail[b:], pm.arc_head[b:])),
                 simple=False)


def audit_layout(d: Drawing, layout: Layout) -> None:
    """Checks that straight arcs at these coordinates redraw ``d`` exactly.

    The planarization is handed to the scene converter as a graph in its
    own right; the converter independently finds intersections and reads
    rotations off the coordinates.  Any stray crossing, any touching or
    through-vertex segment, and any node whose cyclic arc order differs
    from the drawing's raises LayoutError.
    """
    d.require_valid()
    pm = d.planarization
    pg = _planarization_graph(d)
    n_boundary = len(d.anchors or ())
    for v in pg.vertices:
        if v not in layout.coordinates:
            raise LayoutError(f"layout has no coordinates for node {v}")

    routes = {
        i: (layout.coordinates[a], layout.coordinates[b])
        for i, (a, b) in enumerate(pg.edges)
    }
    scene = Scene(
        graph=pg,
        positions={v: layout.coordinates[v] for v in pg.vertices},
        routes=routes,
        anchors=d.anchors if d.anchored else None,
        radius=1.0 if d.anchored else None,
    )
    try:
        redrawn, _ = scene_to_drawing(scene)
    except GeometryError as err:
        raise LayoutError(f"layout does not redraw cleanly: {err}") from err
    if redrawn.crossings:
        refs = [(e, i) for e in range(d.graph.m)
                for i in range(len(d.chains[e]) - 1)]
        e1, e2 = redrawn.crossings[0].edges
        raise LayoutError(
            f"stray intersection between arcs {refs[e1]} and {refs[e2]}"
        )

    # same cyclic (for anchors: linear) arc order around every node
    anchor_set = set(d.anchors or ())
    for node in pg.vertices:
        got = [n_boundary + e for e, _ in redrawn.rotation.get(node, ())]
        want = [pm.first_arc[e] + i for e, i in d.rotation.get(node, ())]
        if len(got) != len(want):
            raise LayoutError(f"arc count mismatch at node {node}")
        if not got:
            continue
        if node in anchor_set:
            if got != want:
                raise LayoutError(f"arc order differs at anchor {node}")
            continue
        # a node's arc ends are distinct, so equal least rotations are the
        # same cyclic order
        if _least_rotation(got) != _least_rotation(want):
            raise LayoutError(f"arc order differs at node {node}")


# -------------------------------------------------------------------- svg


# the one picture style of ``to_svg``
SVG_SIZE = 640
SVG_MARGIN = 0.07
BACKGROUND = "#ffffff"
BOUNDARY_COLOR = "#9aa4ae"
EDGE_COLOR = "#34495e"
HEAVY_COLOR = "#c0392b"
EDGE_WIDTH = 1.3
HEAVY_WIDTH = 2.8
VERTEX_COLOR = "#111111"
VERTEX_RADIUS = 2.4
ANCHOR_COLOR = "#1a6b9a"
ANCHOR_RADIUS = 4.2


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def to_svg(d: Drawing, layout: Layout, k: int | None = None) -> str:
    """Deterministic standalone SVG for a drawing at these coordinates.

    With ``k`` given, edges crossed more than k times are drawn in the
    heavy style.  Crossing nodes are not marked; each edge is one
    polyline through its chain.
    """
    coords = layout.coordinates
    for v in d.graph.vertices:
        if v not in coords:
            raise LayoutError(f"layout has no coordinates for node {v}")
    for x in d.crossings:
        if x.id not in coords:
            raise LayoutError(f"layout has no coordinates for node {x.id}")

    half = SVG_SIZE / 2.0
    scale = half * (1.0 - SVG_MARGIN)

    def pix(p: Point) -> tuple[float, float]:
        return (half + scale * p[0], half - scale * p[1])

    heavy = set() if k is None else set(crossing_profile(d).heavy_edges(k))

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">'
    )
    out.append(
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="{BACKGROUND}"/>'
    )
    out.append(
        f'<circle cx="{_fmt(half)}" cy="{_fmt(half)}" r="{_fmt(scale)}" '
        f'fill="none" stroke="{BOUNDARY_COLOR}" stroke-width="1" '
        'stroke-dasharray="6 5"/>'
    )

    light = [e for e in range(d.graph.m) if e not in heavy]
    for bucket in (light, sorted(heavy)):
        for e in bucket:
            pts = " ".join(
                f"{_fmt(x)},{_fmt(y)}"
                for x, y in (pix(coords[nd]) for nd in d.chains[e])
            )
            color = HEAVY_COLOR if e in heavy else EDGE_COLOR
            width = HEAVY_WIDTH if e in heavy else EDGE_WIDTH
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="{width}" stroke-linejoin="round" '
                'stroke-linecap="round"/>'
            )

    anchor_set = set(d.anchors) if d.anchored else set()
    for v in sorted(d.graph.vertices):
        x, y = pix(coords[v])
        if v in anchor_set:
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                f'r="{ANCHOR_RADIUS}" fill="{ANCHOR_COLOR}"/>'
            )
        else:
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                f'r="{VERTEX_RADIUS}" fill="{VERTEX_COLOR}"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
