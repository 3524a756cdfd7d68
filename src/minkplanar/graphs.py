"""Graphs, anchored graphs, the double-edge amplification transform, and
the package's one breadth-first walk, ``components``.

Vertices and edges are opaque non-negative integers.  Vertex ids are
checked by ``_ids``' rule: an int is kept as given and a numpy integer
is made the int it stands for, from 0 to ``MAX_ID``; anything else, a
bool, a float or a string, is refused, never coerced.  ``Drawing``
checks its ids by the same rule.  Edge ids are simply
positions in the edge tuple, so identical inputs always produce identical
ids.  Loops are never allowed; parallel edges are allowed only when a
graph is built with ``simple=False``.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import index
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import InputError


# ------------------------------------------------------------ reachability


def components(nodes: Iterable, neighbors: Callable[..., Iterable]) -> list[dict]:
    """Breadth-first components, one per node of ``nodes`` not yet reached.

    Each component maps its nodes to their distance from the node that
    started it, in discovery order; ``components([v], nb)[0]`` is the ball
    reachable from v.  Components come in the order of their start nodes.
    """
    seen: set = set()
    out = []
    for start in nodes:
        if start in seen:
            continue
        dist = {start: 0}
        queue = collections.deque([start])
        while queue:
            v = queue.popleft()
            for w in neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        seen.update(dist)
        out.append(dist)
    return out


# --------------------------------------------------------------------- ids

# past 2**53 - 1, JSON implementations disagree on an integer's value
# (RFC 8259, section 6); past 2**63 - 1, numpy's int64 overflows
MAX_ID = 2**53 - 1


def _id(v: Any, where: str) -> int:
    """``v`` as an id: an integer, numpy's too but not a bool, from 0 to
    MAX_ID."""
    try:
        i = -1 if type(v) is bool else index(v)
    except TypeError:
        i = -1
    if i < 0:
        raise InputError(f"{where}: expected a non-negative integer")
    if i > MAX_ID:
        raise InputError(f"{where}: expected an integer at most 2**53 - 1")
    return i


def _k(k: Any) -> int:
    """``k`` as a crossing bound: a non-negative integer, checked as an id."""
    if type(k) is int and k < 0:
        raise InputError("k must be non-negative")
    return _id(k, "k")


def _ids(values: Iterable[Any], where: str, per: int = 1) -> tuple[int, ...]:
    """``values`` as ids, checked all at once and, if that fails, one by
    one.  The k-th value is named ``where/(k // per)``, so with
    ``per = 2`` an edge end names its edge."""
    values = tuple(values)
    types = set(map(type, values))
    try:
        # index() turns numpy's integers into ints; ints are kept as given
        ids = values if types <= {int} else tuple(map(index, values))
        if bool not in types and (not ids or 0 <= min(ids)
                                  and max(ids) <= MAX_ID):
            return ids
    except TypeError:
        pass
    return tuple(_id(v, f"{where}/{k // per}") for k, v in enumerate(values))


# ------------------------------------------------------------------ graphs


@dataclass(frozen=True)
class Graph:
    """An undirected graph with stable integer ids.

    ``vertices`` may contain isolated vertices.  ``edges[i]`` is the pair of
    endpoints of edge ``i``; the tuple order of an edge is preserved and is
    used elsewhere as the reference direction of its drawn curve.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    simple: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _ids(self.vertices, "/vertices"))
        edges = tuple(map(tuple, self.edges))
        if not set(map(len, edges)) <= {2}:
            i = next(i for i, e in enumerate(edges) if len(e) != 2)
            raise InputError(f"/edges/{i}: expected 2 endpoints")
        given = tuple(chain.from_iterable(edges))
        ends = _ids(given, "/edges", 2)
        if ends is not given:  # some end was not an int
            edges = tuple(zip(ends[::2], ends[1::2]))
        object.__setattr__(self, "edges", edges)
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise InputError("/vertices: duplicate vertex id")
        pairs = set()
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise InputError(f"/edges/{i}: loop at vertex {u} is not allowed")
            if u not in seen or v not in seen:
                raise InputError(
                    f"/edges/{i}: edge ({u}, {v}) uses an undeclared vertex")
            key = (u, v) if u < v else (v, u)
            if key in pairs and self.simple:
                raise InputError(
                    f"/edges/{i}: parallel edge ({u}, {v}) in a simple graph")
            pairs.add(key)

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise InputError(f"vertex {v} is not an endpoint of edge {e}")

    @cached_property
    def _incidence(self) -> dict[int, tuple[int, ...]]:
        inc: dict[int, list[int]] = {v: [] for v in self.vertices}
        for e, (u, v) in enumerate(self.edges):
            inc[u].append(e)
            inc[v].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.other_end(e, v) for e in self._incidence[v])

    def has_vertex(self, v: int) -> bool:
        return v in self._incidence

    def adjacent_edges(self, e: int, f: int) -> bool:
        """True when the two edges share at least one endpoint."""
        a = set(self.edges[e])
        return bool(a.intersection(self.edges[f]))

    def components(self) -> list[tuple[int, ...]]:
        """Connected components, each as a sorted vertex tuple."""
        return [tuple(sorted(c)) for c in components(self.vertices, self.neighbors)]


@dataclass(frozen=True)
class AnchoredGraph:
    """A graph with a distinguished clockwise-ordered anchor sequence.

    The anchor tuple fixes the cyclic order in which those vertices must
    appear on the boundary circle of any anchored drawing.  There are at
    least two anchors, so the boundary has arcs to route along.
    """

    graph: Graph
    anchors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchors", _ids(self.anchors, "/anchors"))
        if len(self.anchors) < 2:
            raise InputError(
                "/anchors: an anchored graph needs at least two anchors")
        if len(set(self.anchors)) != len(self.anchors):
            raise InputError("/anchors: anchors must be distinct")
        for i, a in enumerate(self.anchors):
            if not self.graph.has_vertex(a):
                raise InputError(f"/anchors/{i}: anchor {a} is not a vertex")

    @property
    def anchor_set(self) -> frozenset[int]:
        return frozenset(self.anchors)

    def interior_vertices(self) -> tuple[int, ...]:
        aset = self.anchor_set
        return tuple(v for v in self.graph.vertices if v not in aset)


# ------------------------------------------------------- amplification


class DoubleEdge(NamedTuple):
    """One replacement path u - midpoint - v for an amplified edge."""

    midpoint: int
    halves: tuple[int, int]  # new edge ids: (u-midpoint, midpoint-v)


@dataclass(frozen=True)
class EdgeClassMap:
    """Bookkeeping for an amplification: original edge -> its double edges.

    ``kept_edge_map`` records ids of edges that were carried over unchanged
    (old edge id -> new edge id).
    """

    by_edge: dict[int, tuple[DoubleEdge, ...]]
    kept_edge_map: dict[int, int]

    @property
    def t(self) -> int:
        for copies in self.by_edge.values():
            return len(copies)
        return 0

    def double_edges(self) -> Iterator[tuple[int, int, DoubleEdge]]:
        """Yields (original edge id, copy index, double edge)."""
        for e in sorted(self.by_edge):
            for c, de in enumerate(self.by_edge[e]):
                yield e, c, de

    @cached_property
    def half_owner(self) -> dict[int, tuple[int, int, int]]:
        """new edge id -> (original edge, copy index, half index)."""
        out: dict[int, tuple[int, int, int]] = {}
        for e, c, de in self.double_edges():
            out[de.halves[0]] = (e, c, 0)
            out[de.halves[1]] = (e, c, 1)
        return out

    def half_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.half_owner))


def t_amplify(g: Graph, t: int, amplify_edges: Iterable[int] | None = None
              ) -> tuple[Graph, EdgeClassMap]:
    """Replace each selected edge of ``g`` by ``t`` internally disjoint paths.

    Every selected edge (u, v) is removed and replaced by t length-two paths
    u - m_i - v through fresh midpoint vertices.  Every other edge is kept
    untouched, and the kept edges come first in the new edge tuple, in id
    order.  By default every edge is amplified.  Edge ids are checked as
    ``Graph`` checks vertex ids, and must be in range.

    Returns the new graph together with an EdgeClassMap describing the
    replacement double edges.  Ids are assigned deterministically: midpoints
    count up from max(vertex id) + 1 in edge-id order, and new half edges are
    appended in (edge, copy) order after the kept edges.
    """
    t = _id(t, "t")
    if t < 1:
        raise InputError("amplification needs t >= 1")
    if amplify_edges is None:
        amp = list(range(g.m))
    else:
        amp = sorted(set(_ids(amplify_edges, "amplify_edges")))
    if amp and amp[-1] >= g.m:
        raise InputError(f"unknown edge id {amp[-1]}")
    keep = sorted(set(range(g.m)).difference(amp))

    next_vertex = max(g.vertices, default=-1) + 1
    vertices = list(g.vertices)
    new_edges: list[tuple[int, int]] = []
    kept_map: dict[int, int] = {}
    for e in keep:
        kept_map[e] = len(new_edges)
        new_edges.append(g.edges[e])

    by_edge: dict[int, tuple[DoubleEdge, ...]] = {}
    for e in amp:
        u, v = g.edges[e]
        copies = []
        for _ in range(t):
            mid = next_vertex
            next_vertex += 1
            vertices.append(mid)
            first = len(new_edges)
            new_edges.append((u, mid))
            new_edges.append((mid, v))
            copies.append(DoubleEdge(mid, (first, first + 1)))
        by_edge[e] = tuple(copies)

    amplified = Graph(tuple(vertices), tuple(new_edges), simple=g.simple)
    return amplified, EdgeClassMap(by_edge, kept_map)


# ------------------------------------------------- anchor distance bound


def max_finite_anchor_distance(ag: AnchoredGraph) -> int:
    """Largest finite distance from an anchor to a surviving interior vertex.

    Components of G - A that attach to at most one anchor cannot influence
    routing near the boundary and are ignored before measuring.  Returns 0
    when no interior vertex survives the pruning.
    """
    g = ag.graph
    aset = ag.anchor_set
    discarded: set[int] = set()
    for comp in components(
        ag.interior_vertices(),
        lambda v: [w for w in g.neighbors(v) if w not in aset],
    ):
        attached = {w for v in comp for w in g.neighbors(v) if w in aset}
        if len(attached) <= 1:
            discarded.update(comp)

    best = 0
    for a in ag.anchors:
        (dist,) = components(
            [a], lambda v: [w for w in g.neighbors(v) if w not in discarded]
        )
        for v, dv in dist.items():
            if v not in aset:
                best = max(best, dv)
    return best
