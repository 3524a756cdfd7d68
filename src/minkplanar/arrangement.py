"""Incremental planar arrangement for routing curves in the anchored disk.

The arrangement starts as the bare boundary circle and grows one curve
segment at a time: crossing an arc splits it at a fresh degree-4 node,
finishing a curve attaches it to its endpoint vertex.  Both moves only
relink a handful of darts, and the last one can always be undone
exactly, which is what the depth-first existence search needs.

Arcs and darts follow ``drawings.PlanarizationMap``: the boundary arcs
come first, arc i running from anchor i to anchor i+1, and arc a has the
darts 2a, leaving its tail, and 2a+1, leaving its head, so a dart's twin
is d ^ 1.  The darts leaving a node form a clockwise ring, kept in the
flat lists ``ring_next`` and ``ring_prev``, and the face to the left of a
dart is traced by ``drawings.face_orbit`` ("next clockwise after the
twin"), the same walk the map uses.  An anchor's ring holds its two
boundary darts, so face tracing needs no special cases; the corner just
before the forward boundary dart is the outside of the disk and is never
a legal one.  A split leaves the crossed dart where it is and hands the
far end to a new arc of the same orientation, so no arc is re-oriented.
"""

from __future__ import annotations

import collections
from typing import NamedTuple, Optional

from .errors import InputError
from .graphs import AnchoredGraph

BOUNDARY = -1


class Cursor(NamedTuple):
    """Position of the head of a partial curve: a corner of the arrangement.

    ``dart`` is the dart just clockwise of the corner, among those leaving
    the head's node.  ``banned`` holds the two arc pieces flanking a
    crossing; crossing them again right away would create an empty lens,
    so the search skips them.
    """

    dart: int
    banned: tuple[int, ...]


class Arrangement:
    def __init__(self, anchored: AnchoredGraph):
        g = anchored.graph
        anchors = anchored.anchors
        if len(anchors) < 2:
            raise InputError("routing needs at least two anchors")
        b = len(anchors)
        self.anchor_set = set(anchors)
        self.arc_owner: list[int] = [BOUNDARY] * b
        self.dart_tail: list[int] = [
            x for i, a in enumerate(anchors) for x in (a, anchors[(i + 1) % b])]
        # clockwise at anchor i: the forward boundary dart, then the
        # backward one; a node's ring start is where its rotation begins
        self.ring_next: list[int] = [0] * (2 * b)
        self.ring_prev: list[int] = [0] * (2 * b)
        self.ring_start: dict[int, int] = {}
        for i, a in enumerate(anchors):
            fwd, back = 2 * i, 2 * ((i - 1) % b) + 1
            self.ring_next[fwd] = self.ring_prev[fwd] = back
            self.ring_next[back] = self.ring_prev[back] = fwd
            self.ring_start[a] = fwd
        self.crossing_edges: dict[int, tuple[int, int]] = {}
        self.pair_counts: collections.Counter = collections.Counter()
        self.edge_counts: collections.Counter = collections.Counter()
        self.partners: dict[int, set[int]] = collections.defaultdict(set)
        self._node_seq = (max(g.vertices) + 1) if g.vertices else 0

    # ------------------------------------------------------------ rings

    def ring(self, node: int) -> list[int]:
        """The darts leaving a placed ``node``, clockwise from its start."""
        start = self.ring_start[node]
        out = [start]
        dart = self.ring_next[start]
        while dart != start:
            out.append(dart)
            dart = self.ring_next[dart]
        return out

    def corners(self, node: int) -> list[int]:
        """The legal corners at ``node``, each as the dart after it."""
        darts = self.ring(node)
        if node in self.anchor_set:
            return darts[1:]  # the corner before the start faces the outside
        return darts[1:] + darts[:1]

    def _insert_before(self, new: int, dart: int) -> None:
        nxt, prv = self.ring_next, self.ring_prev
        before = prv[dart]
        nxt[before], prv[new], nxt[new], prv[dart] = new, before, dart, new

    def _unlink(self, dart: int) -> None:
        nxt, prv = self.ring_next, self.ring_prev
        before, after = prv[dart], nxt[dart]
        nxt[before], prv[after] = after, before

    def _replace(self, old: int, new: int) -> None:
        """Puts ``new`` in the place of ``old`` in its ring."""
        self._insert_before(new, old)
        self._unlink(old)
        node = self.dart_tail[new]
        if self.ring_start[node] == old:
            self.ring_start[node] = new

    # --------------------------------------------------------- routing

    def commit_cross(self, e: int, cursor: Cursor, dart: int) -> Cursor:
        """Extend the curve of e across the arc of ``dart``, which lies in
        the cursor's face; returns the cursor just past the crossing."""
        owner, tail = self.arc_owner, self.dart_tail
        alpha = dart >> 1
        g = owner[alpha]
        far = dart ^ 1
        b = tail[far]
        q = self._node_seq
        self._node_seq += 1
        # beta takes over alpha's far end: dart bq leaves q, bb leaves b
        beta = len(owner)
        bq = 2 * beta + (dart & 1)
        bb = bq ^ 1
        sp = 2 * beta + 2
        sq = sp + 1
        owner += (g, e)
        tail += (q, b) if bq < bb else (b, q)
        tail += (tail[cursor.dart], q)
        self.ring_next += (0, 0, 0, 0)
        self.ring_prev += (0, 0, 0, 0)
        # insert before splitting: if the cursor sits before the far end,
        # the new segment then stays before beta's dart that takes its place
        self._insert_before(sp, cursor.dart)
        self._replace(far, bb)
        tail[far] = q
        # entering from the left of the crossed dart: clockwise at q the
        # curve-in end, the piece towards b, then the piece back towards
        # the crossed dart's tail, before which lies the exit corner
        self.ring_next[sq], self.ring_next[bq], self.ring_next[far] = bq, far, sq
        self.ring_prev[bq], self.ring_prev[far], self.ring_prev[sq] = sq, bq, far
        self.ring_start[q] = sq
        self.crossing_edges[q] = (g, e)
        self.pair_counts[(min(g, e), max(g, e))] += 1
        self.edge_counts[g] += 1
        self.edge_counts[e] += 1
        self.partners[g].add(e)
        self.partners[e].add(g)
        return Cursor(far, (beta, alpha))

    def commit_finish(self, e: int, cursor: Cursor, v: int,
                      corner: Optional[int]) -> None:
        """Attach the last segment of e to v before the dart ``corner``;
        ``corner`` None places v afresh."""
        s = len(self.arc_owner)
        self.arc_owner.append(e)
        self.dart_tail += (self.dart_tail[cursor.dart], v)
        self.ring_next += (0, 0)
        self.ring_prev += (0, 0)
        self._insert_before(2 * s, cursor.dart)
        if corner is None:
            self.ring_next[2 * s + 1] = self.ring_prev[2 * s + 1] = 2 * s + 1
            self.ring_start[v] = 2 * s + 1
        else:
            self._insert_before(2 * s + 1, corner)

    def undo(self) -> None:
        """Takes back the latest commit still in place."""
        owner, tail, nxt = self.arc_owner, self.dart_tail, self.ring_next
        s = len(owner) - 1
        e = owner[s]
        end = tail[2 * s + 1]
        self._unlink(2 * s)
        if end in self.crossing_edges:
            # clockwise at the crossing: the curve's end, beta, the far end
            bq = nxt[2 * s + 1]
            far = nxt[bq]
            tail[far] = tail[bq ^ 1]
            self._replace(bq ^ 1, far)
            del self.ring_start[end]
            g, _ = self.crossing_edges.pop(end)
            self._node_seq = end
            key = (min(g, e), max(g, e))
            self.pair_counts[key] -= 1
            if not self.pair_counts[key]:
                del self.pair_counts[key]
                self.partners[g].discard(e)
                self.partners[e].discard(g)
            self.edge_counts[g] -= 1
            self.edge_counts[e] -= 1
            arcs = 2
        else:
            if nxt[2 * s + 1] == 2 * s + 1:
                del self.ring_start[end]
            else:
                self._unlink(2 * s + 1)
            arcs = 1
        del owner[-arcs:]
        del tail[-2 * arcs:]
        del nxt[-2 * arcs:]
        del self.ring_prev[-2 * arcs:]
