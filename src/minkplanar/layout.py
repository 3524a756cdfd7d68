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
definite once the boundary is pinned.  No two apexes are adjacent, so
they are eliminated exactly, as a Schur complement: the system solved
has one unknown per free node of the planarization, and in it each node
is pulled towards the means of its big faces' walks, once per time it
occurs in each walk.  ``cg`` solves it with numpy alone, a conjugate
gradient preconditioned by the Schur complement's exact diagonal, and
each apex is then its face walk's mean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable

import numpy as np

from .drawings import Drawing, crossing_profile
from .errors import GeometryError, LayoutError
from .geometry import Point, Scene, scene_to_drawing
from .graphs import Graph


def cg(diag: np.ndarray, times: Callable[[np.ndarray], np.ndarray],
       rhs: np.ndarray) -> np.ndarray:
    """Solve ``A @ x = rhs`` for both columns of the (n, 2) ``rhs`` at once.

    A, symmetric positive definite, has ``diag`` on its diagonal, and
    ``times`` applies it to a (2, n) array of columns.  Jacobi-preconditioned
    conjugate gradient on both columns together; each stops at a relative
    residual of 1e-13.  Raises LayoutError when A shows itself not
    positive definite (a NaN included) and when the iterations run out.
    """
    n = diag.shape[0]
    dot = functools.partial(np.einsum, "ij,ij->i")
    r = np.array(rhs.T, dtype=float, order="C")
    x, z = np.zeros_like(r), r / diag
    p, rz, rr = z.copy(), dot(r, z), dot(r, r)
    goal = 1e-26 * rr
    for _ in range(2 * n + 100):
        active = ~(rr <= goal)
        if not active.any():
            return x.T
        ap = times(p)
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


def _outer_walk(corners: list[int], sizes: np.ndarray) -> list[int]:
    """The face to pin when no anchors are given: the longest simple face
    walk, as the least rotation among those of its length.  ``corners``
    lists every face's walk, face after face, and ``sizes`` their lengths.
    """
    starts = np.cumsum(sizes) - sizes
    # deterministic: the pinned walk starts at its least node whatever dart
    # its orbit was traced from
    for size in np.unique(sizes[sizes >= 3])[::-1].tolist():
        simple = [w for w in (corners[s:s + size]
                              for s in starts[sizes == size].tolist())
                  if len(set(w)) == size]
        if simple:
            return list(min(map(_least_rotation, simple)))
    raise LayoutError(
        "no simple face cycle to pin as the boundary; "
        "the planarization is too loosely connected"
    )


def _sums(at: np.ndarray, xy: np.ndarray, size: int) -> np.ndarray:
    """The rows of the (k, 2) ``xy`` summed into ``size`` bins by ``at``."""
    return np.stack([np.bincount(at, xy[:, c], size) for c in (0, 1)], 1)


def _both(at: np.ndarray, size: int) -> np.ndarray:
    """Indices ``at`` into the first row of a (2, size) array, then the same
    into its second row."""
    return np.concatenate((at, at + size))


def _schur_times(p: np.ndarray, degree: np.ndarray, src: np.ndarray,
                 dst: np.ndarray, spoke: np.ndarray, apex: np.ndarray,
                 weight: np.ndarray) -> np.ndarray:
    """S @ p for both (2, n) columns of ``p``, where S is the barycentric
    system with the apexes eliminated: each free node's ``degree``, less its
    free neighbours along the arcs ``src`` <- ``dst``, less each of its
    faces' mean (``weight`` is 1/size) over the free spokes ``spoke`` of
    face ``apex``.  Index arrays come through ``_both``."""
    n, a = p.shape[1], weight.shape[0]
    flat = p.ravel()
    mean = np.bincount(apex, flat[spoke], 2 * a).reshape(2, a) * weight
    out = degree * p
    out -= np.bincount(src, flat[dst], 2 * n).reshape(2, n)
    out -= np.bincount(spoke, mean.ravel()[apex], 2 * n).reshape(2, n)
    return out


def tutte_layout(d: Drawing) -> Layout:
    """Barycentric unit-disk coordinates for the planarization of ``d``.

    The drawing must be valid and its planarization connected (every node
    reachable from the pinned boundary).  Interior nodes land strictly
    inside the disk.
    """
    d.require_valid()
    pm = d.planarization
    ids = [*d.graph.vertices, *d.crossing_ids()]

    if not pm.arc_tail:
        if ids:
            raise LayoutError("isolated nodes make the system singular")
        return Layout({}, (), 0.0)

    # node positions in ``ids``: of each dart's tail (dart 2a leaves arc
    # a's tail, 2a + 1 its head), and of each face corner, face after face
    key = np.array(ids, np.int64)
    order = np.argsort(key)
    place = functools.partial(np.searchsorted, key[order])
    tail = order[place(np.array((pm.arc_tail, pm.arc_head), np.int64).T)]
    tail = tail.ravel()
    sizes = np.fromiter(map(len, pm.faces), np.intp, len(pm.faces))
    corner = tail[np.fromiter(chain.from_iterable(pm.faces), np.intp,
                              tail.size)]
    walk = (list(d.anchors) if d.anchored
            else _outer_walk(key[corner].tolist(), sizes))

    if not np.bincount(tail, minlength=len(ids)).all():
        raise LayoutError("isolated nodes make the system singular")
    # a valid drawing's components are spheres, V - E + F = 2 each, and
    # the pinned walk is connected, so one component means every free node
    # reaches it: that doubles as the singularity check.  The apexes come
    # inside faces and join nothing, so they are left out of the count
    if len(ids) - len(pm.arc_tail) + len(pm.faces) > 2:
        raise LayoutError(
            "planarization has a component detached from the boundary"
        )

    # system rows: the free nodes in ``ids`` order, then the pinned walk
    n = len(ids) - len(walk)
    pin = order[place(walk)]
    free = np.ones(len(ids), bool)
    free[pin] = False
    rank = np.empty(len(ids), np.intp)
    rank[free], rank[pin] = np.arange(n), np.arange(n, len(ids))
    xy = np.zeros((len(ids), 2))
    pinned = [_circle_point(i, len(walk)) for i in range(len(walk))]
    xy[n:] = pinned
    # every dart is a (tail, head) entry, and every corner of a face with
    # more than three sides a spoke of that face's apex
    node = rank[tail]
    head = node.reshape(-1, 2)[:, ::-1].ravel()
    big = sizes > 3
    spoke = rank[corner[np.repeat(big, sizes)]]
    apex = np.repeat(np.arange(np.count_nonzero(big)), sizes[big])
    weight = 1.0 / sizes[big]
    degree = (np.bincount(node, minlength=len(ids))
              + np.bincount(spoke, minlength=len(ids)))[:n].astype(float)
    # S's diagonal: node i's degree less c**2 / size over its faces, c the
    # times that i occurs in the face's walk
    pair, c = np.unique(spoke * weight.size + apex, return_counts=True)
    diag = degree - np.bincount(pair // weight.size,
                                c * c * weight[pair % weight.size],
                                len(ids))[:n]

    rows, fs = node < n, spoke < n
    inner, outer = rows & (head < n), rows & (head >= n)
    pinned_mean = _sums(apex[~fs], xy[spoke[~fs]], weight.size)
    rhs = (_sums(node[outer], xy[head[outer]], n)
           + _sums(spoke[fs], (pinned_mean * weight[:, None])[apex[fs]], n))
    times = functools.partial(
        _schur_times, degree=degree, src=_both(node[inner], n),
        dst=_both(head[inner], n), spoke=_both(spoke[fs], n),
        apex=_both(apex[fs], weight.size), weight=weight)
    xy[:n] = cg(diag, times, rhs)

    # each apex is its face's mean; the residual reads every free row of
    # the stellated system, and the apex rows hold by that construction
    mean = _sums(apex, xy[spoke], weight.size) * weight[:, None]
    sums = (_sums(node[rows], xy[head[rows]], n)
            + _sums(spoke[fs], mean[apex[fs]], n))
    off = xy[:n] - sums / degree[:, None]
    residual = float(np.hypot(off[:, 0], off[:, 1]).max(initial=0.0))
    coords: dict[int, Point] = dict(zip(walk, pinned))
    coords.update(zip(compress(ids, free.tolist()), zip(*xy[:n].T.tolist())))
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


def _pixels(points: list[Point]) -> tuple[list[float], list[float]]:
    """The picture's x and y of each point, with ``_fmt``'s rule applied
    ahead: a value that would print as -0.00 is 0.0."""
    half = SVG_SIZE / 2.0
    scale = half * (1.0 - SVG_MARGIN)
    xy = np.fromiter(chain.from_iterable(points), float,
                     2 * len(points)).reshape(-1, 2)
    px, py = half + scale * xy[:, 0], half - scale * xy[:, 1]
    for col in (px, py):
        col[abs(col) < 0.005] = 0.0
    return px.tolist(), py.tolist()


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

    # every chain point, light edges first, formatted in one pass; each
    # polyline joins its slice
    edges = [*(e for e in range(d.graph.m) if e not in heavy), *sorted(heavy)]
    chains = list(map(d.chains.__getitem__, edges))
    pts = list(map("{:.2f},{:.2f}".format, *_pixels(
        list(map(coords.__getitem__, chain.from_iterable(chains))))))
    stop = 0
    for e, ch in zip(edges, chains):
        start, stop = stop, stop + len(ch)
        color = HEAVY_COLOR if e in heavy else EDGE_COLOR
        width = HEAVY_WIDTH if e in heavy else EDGE_WIDTH
        out.append(
            f'<polyline points="{" ".join(pts[start:stop])}" fill="none" '
            f'stroke="{color}" stroke-width="{width}" '
            'stroke-linejoin="round" stroke-linecap="round"/>'
        )

    vertices = sorted(d.graph.vertices)
    anchor_set = set(d.anchors) if d.anchored else set()
    anchor = list(map(anchor_set.__contains__, vertices))
    out += map('<circle cx="{:.2f}" cy="{:.2f}" r="{}" fill="{}"/>'.format,
               *_pixels(list(map(coords.__getitem__, vertices))),
               [ANCHOR_RADIUS if a else VERTEX_RADIUS for a in anchor],
               [ANCHOR_COLOR if a else VERTEX_COLOR for a in anchor])
    out.append("</svg>")
    return "\n".join(out) + "\n"
