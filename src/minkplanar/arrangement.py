"""Incremental planar arrangement for routing curves in the anchored disk.

The arrangement starts as the bare boundary circle and grows one curve
segment at a time: crossing an arc splits it at a fresh degree-4 node,
finishing a curve attaches it to its endpoint vertex.  Both moves only
touch a handful of rotation lists, and both can be undone exactly, which
is what the depth-first existence search needs.

Darts and rotations follow the drawings module conventions: rotations are
clockwise, a dart (arc, d) leaves the arc's d-th endpoint, and the face to
the left of a dart is traced by "next clockwise after the twin".  Anchor
rotation lists materialise the boundary arcs explicitly, first and last,
so face tracing needs no special cases; the gap between the last and
first entries of an anchor is the outside of the disk and is never a
legal corner.
"""

from __future__ import annotations

import collections
from typing import NamedTuple, Optional

from .errors import InputError
from .graphs import AnchoredGraph

BOUNDARY = -1

Dart = tuple[int, int]


class Cursor(NamedTuple):
    """Position of the head of a partial curve: a corner of the arrangement.

    ``gap`` indexes the corner in the clockwise rotation list of ``node``
    (between entries gap and gap+1).  ``banned`` holds the two arc pieces
    flanking a crossing entry; crossing them again right away would create
    an empty lens, so the search skips them.
    """

    node: int
    gap: int
    banned: tuple[int, ...]


class Arrangement:
    def __init__(self, anchored: AnchoredGraph):
        g = anchored.graph
        if len(anchored.anchors) < 2:
            raise InputError("routing needs at least two anchors")
        self.graph = g
        self.anchors = tuple(anchored.anchors)
        self.anchor_set = set(self.anchors)
        self.rot: dict[int, list[int]] = {}
        self.arc_nodes: dict[int, tuple[int, int]] = {}
        self.arc_owner: dict[int, int] = {}
        self.crossing_edges: dict[int, tuple[int, int]] = {}
        self.chains: dict[int, list[int]] = {}
        self.route_tail: dict[int, int] = {}
        self.pair_counts: collections.Counter = collections.Counter()
        self.edge_counts: collections.Counter = collections.Counter()
        self.partners: dict[int, set[int]] = collections.defaultdict(set)
        self.placed: set[int] = set()
        self._arc_seq = 0
        self._node_seq = (max(g.vertices) + 1) if g.vertices else 0

        n = len(self.anchors)
        boundary = []
        for i in range(n):
            boundary.append(
                self._new_arc(self.anchors[i], self.anchors[(i + 1) % n],
                              BOUNDARY)
            )
        self.boundary_arcs = tuple(boundary)
        for i, a in enumerate(self.anchors):
            self.rot[a] = [boundary[i], boundary[i - 1]]
            self.placed.add(a)

    # ------------------------------------------------------------- arcs

    def _new_arc(self, a: int, b: int, owner: int) -> int:
        i = self._arc_seq
        self._arc_seq += 1
        self.arc_nodes[i] = (a, b)
        self.arc_owner[i] = owner
        return i

    def _drop_arc(self, i: int) -> None:
        del self.arc_nodes[i]
        del self.arc_owner[i]
        self._arc_seq = i

    # ------------------------------------------------------------ darts

    def phi(self, dart: Dart) -> Dart:
        """Next dart of the face to the left of ``dart``."""
        arc, d = dart
        h = self.arc_nodes[arc][1 - d]
        entries = self.rot[h]
        nxt = entries[(entries.index(arc) + 1) % len(entries)]
        return (nxt, 0 if self.arc_nodes[nxt][0] == h else 1)

    def face(self, start: Dart) -> list[Dart]:
        orbit = [start]
        d = self.phi(start)
        while d != start:
            orbit.append(d)
            d = self.phi(d)
        return orbit

    def corner_dart(self, node: int, gap: int) -> Dart:
        """The face through corner ``gap`` contains this outgoing dart."""
        entries = self.rot[node]
        nxt = entries[(gap + 1) % len(entries)]
        return (nxt, 0 if self.arc_nodes[nxt][0] == node else 1)

    def corners(self, node: int) -> range:
        n = len(self.rot[node])
        if node in self.anchor_set:
            return range(n - 1)  # the wrap-around gap faces the outside
        return range(n)

    # --------------------------------------------------------- routing

    def begin_edge(self, e: int, from_vertex: int) -> None:
        self.chains[e] = [from_vertex]
        self.route_tail[e] = from_vertex

    def abort_edge(self, e: int) -> None:
        del self.chains[e]
        del self.route_tail[e]

    def commit_cross(self, e: int, cursor: Cursor, dart: Dart):
        """Extend the curve of e across ``dart``; returns (cursor, token)."""
        alpha, dd = dart
        a = self.arc_nodes[alpha][dd]
        b = self.arc_nodes[alpha][1 - dd]
        g = self.arc_owner[alpha]
        old_pair = self.arc_nodes[alpha]
        q = self._node_seq
        self._node_seq += 1
        beta = self._new_arc(q, b, g)
        self.arc_nodes[alpha] = (a, q)
        rb = self.rot[b]
        ib = rb.index(alpha)
        rb[ib] = beta
        p, gap = cursor.node, cursor.gap
        s = self._new_arc(p, q, e)
        self.rot[p].insert(gap + 1, s)
        # entering from the left of a->b: clockwise at q the curve-in end,
        # the piece towards b, the reserved exit slot, the piece towards a
        self.rot[q] = [s, beta, alpha]
        self.crossing_edges[q] = (g, e)
        key = (min(g, e), max(g, e))
        self.pair_counts[key] += 1
        self.edge_counts[g] += 1
        self.edge_counts[e] += 1
        self.partners[g].add(e)
        self.partners[e].add(g)
        self.chains[e].append(q)
        # the crossed edge's chain gains q between the split arc's ends
        cg = self.chains[g]
        ig = next(i for i in range(len(cg) - 1)
                  if {cg[i], cg[i + 1]} == {a, b})
        cg.insert(ig + 1, q)
        token = ("x", e, alpha, beta, s, old_pair, b, ib, p, gap, q, key, ig)
        return Cursor(q, 1, (beta, alpha)), token

    def commit_finish(self, e: int, cursor: Cursor, v: int,
                      vgap: Optional[int]):
        """Attach the last segment of e to v; vgap None places v afresh."""
        p, gap = cursor.node, cursor.gap
        s = self._new_arc(p, v, e)
        self.rot[p].insert(gap + 1, s)
        if vgap is None:
            self.rot[v] = [s]
            self.placed.add(v)
        else:
            self.rot[v].insert(vgap + 1, s)
        self.chains[e].append(v)
        return ("f", e, s, p, gap, v, vgap)

    def undo(self, token) -> None:
        if token[0] == "x":
            _, e, alpha, beta, s, old_pair, b, ib, p, gap, q, key, ig = token
            g = self.arc_owner[alpha]
            del self.chains[g][ig + 1]
            del self.rot[q]
            self.rot[b][ib] = alpha
            self.arc_nodes[alpha] = old_pair
            del self.rot[p][gap + 1]
            self._drop_arc(s)
            self._drop_arc(beta)
            del self.crossing_edges[q]
            self._node_seq = q
            self.pair_counts[key] -= 1
            if not self.pair_counts[key]:
                del self.pair_counts[key]
                g = self.arc_owner[alpha]
                self.partners[g].discard(e)
                self.partners[e].discard(g)
            self.edge_counts[self.arc_owner[alpha]] -= 1
            self.edge_counts[e] -= 1
            self.chains[e].pop()
        else:
            _, e, s, p, gap, v, vgap = token
            del self.rot[p][gap + 1]
            if vgap is None:
                del self.rot[v]
                self.placed.discard(v)
            else:
                del self.rot[v][vgap + 1]
            self._drop_arc(s)
            self.chains[e].pop()
