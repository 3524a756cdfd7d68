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

scipy serves only the sparse solve of ``tutte_layout``, so it is imported
on the first solve and not with the package: a command that draws no
layout starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drawings import Drawing, crossing_profile
from .errors import GeometryError, LayoutError
from .geometry import Point, Scene, scene_to_drawing
from .graphs import Graph, components

_DIRECT_SOLVE_LIMIT = 50_000


def spsolve(mat, rhs):
    """scipy's sparse direct solve of ``mat @ x = rhs``."""
    from scipy.sparse.linalg import spsolve as solve
    return solve(mat, rhs)


def cg(mat, rhs, **kw):
    """scipy's conjugate gradient solve of ``mat @ x = rhs``."""
    from scipy.sparse.linalg import cg as solve
    return solve(mat, rhs, **kw)


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
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b in zip(pm.arc_tail, pm.arc_head):
        adj[a].append(b)
        adj[b].append(a)

    apex = max(nodes) + 1 if nodes else 0
    # the pinned face itself stays hollow, in either orientation
    hollow = {_least_rotation(walk), _least_rotation(walk[::-1])}
    for face_walk in walks:
        if len(face_walk) <= 3 or (
            len(face_walk) == len(walk)
            and _least_rotation(face_walk) in hollow
        ):
            continue
        adj[apex] = []
        for v in face_walk:
            adj[apex].append(v)
            adj[v].append(apex)
        apex += 1

    free = [v for v in adj if v not in pinned]
    if any(not adj[v] for v in free):
        raise LayoutError("isolated nodes make the system singular")

    # the pinned walk is connected, so one component means every free node
    # reaches it: that doubles as the singularity check
    if len(components(adj, adj.__getitem__)) > 1:
        raise LayoutError(
            "planarization has a component detached from the boundary"
        )

    index = {v: i for i, v in enumerate(free)}
    n = len(free)
    coords: dict[int, Point] = dict(pinned)
    if n:
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        rhs = np.zeros((n, 2))
        for v in free:
            i = index[v]
            rows.append(i)
            cols.append(i)
            vals.append(float(len(adj[v])))
            for w in adj[v]:
                if w in pinned:
                    rhs[i, 0] += pinned[w][0]
                    rhs[i, 1] += pinned[w][1]
                else:
                    rows.append(i)
                    cols.append(index[w])
                    vals.append(-1.0)
        from scipy.sparse import csr_matrix
        mat = csr_matrix((vals, (rows, cols)), shape=(n, n))
        if n <= _DIRECT_SOLVE_LIMIT:
            # one factorisation serves both coordinate columns
            xs, ys = spsolve(mat, rhs).T
        else:
            xs, ok_x = cg(mat, rhs[:, 0], rtol=1e-12)
            ys, ok_y = cg(mat, rhs[:, 1], rtol=1e-12)
            if ok_x != 0 or ok_y != 0:
                raise LayoutError("iterative solve did not converge")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise LayoutError("singular barycentric system")
        for v in free:
            coords[v] = (float(xs[index[v]]), float(ys[index[v]]))

    residual = 0.0
    for v in free:
        ax = sum(coords[w][0] for w in adj[v]) / len(adj[v])
        ay = sum(coords[w][1] for w in adj[v]) / len(adj[v])
        residual = max(
            residual, math.hypot(coords[v][0] - ax, coords[v][1] - ay)
        )

    node_set = set(nodes)
    final = {v: p for v, p in coords.items() if v in node_set}
    return Layout(final, tuple(walk), residual)


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
        got = tuple(n_boundary + e for e, _ in redrawn.rotation.get(node, ()))
        want = tuple(pm.first_arc[e] + i for e, i in d.rotation.get(node, ()))
        if len(got) != len(want):
            raise LayoutError(f"arc count mismatch at node {node}")
        if not got:
            continue
        if node in anchor_set:
            if got != want:
                raise LayoutError(f"arc order differs at anchor {node}")
            continue
        doubled = want + want
        for shift in range(len(want)):
            if doubled[shift : shift + len(got)] == got:
                break
        else:
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
