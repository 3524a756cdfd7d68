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
dart is traced by following "next clockwise after the twin", the walk of
``drawings.face_orbit`` that the map uses.  An anchor's ring holds its two
boundary darts, so face tracing needs no special cases; the corner just
before the forward boundary dart is the outside of the disk and is never
a legal one.  A split leaves the crossed dart where it is and hands the
far end to a new arc of the same orientation, so no arc is re-oriented.

The head of a partial curve is a cursor, the plain pair ``(dart,
banned)``: ``dart`` is the dart just clockwise of the corner the curve
has reached, among those leaving the head's node, so the curve's next
face is the one left of ``dart``; ``banned`` holds the two arc pieces
flanking the crossing just made, which the search does not cross again
right away (that would make an empty lens).  ``commit_cross`` returns the
cursor past its crossing; a curve starts from ``(corner, ())``.

The search prunes on counts the arrangement keeps as flat integer state:
``edge_counts[e]`` is the number of crossings on edge e, ``partners[e]``
the set of edges e crosses, and ``pair_counts`` maps the pair key
``e * m + f`` to the crossings of e with f.  The pair key is symmetric:
each crossing updates both ``e * m + f`` and ``f * m + e``, so a lookup
needs no ordering of the two edges, and a pair's keys exist only while
it crosses, so the dict grows with the crossings made, not with m².
Commits and undos splice the rings inline.
"""

from __future__ import annotations

from typing import Optional

from .graphs import AnchoredGraph

BOUNDARY = -1

# a cursor is the plain pair (dart, banned), see the module docstring
Cursor = tuple[int, tuple[int, ...]]


class Arrangement:
    def __init__(self, anchored: AnchoredGraph):
        g = anchored.graph
        anchors = anchored.anchors
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
        self.m = g.m  # pair keys are e * m + f, see the module docstring
        self.edge_counts: list[int] = [0] * g.m
        self.pair_counts: dict[int, int] = {}
        self.partners: list[set[int]] = [set() for _ in range(g.m)]
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

    # --------------------------------------------------------- routing

    def commit_cross(self, e: int, cursor: Cursor, dart: int) -> Cursor:
        """Extend the curve of e across the arc of ``dart``, which lies in
        the cursor's face; returns the cursor just past the crossing."""
        owner, tail = self.arc_owner, self.dart_tail
        nxt, prv = self.ring_next, self.ring_prev
        cd = cursor[0]
        alpha = dart >> 1
        g = owner[alpha]
        far = dart ^ 1
        b = tail[far]
        q = self._node_seq
        self._node_seq = q + 1
        # beta takes over alpha's far end: dart bq leaves q, bb leaves b
        beta = len(owner)
        bq = 2 * beta + (dart & 1)
        bb = bq ^ 1
        sp = 2 * beta + 2
        sq = sp + 1
        owner += (g, e)
        tail += (q, b) if bq < bb else (b, q)
        tail += (tail[cd], q)
        nxt += (0, 0, 0, 0)
        prv += (0, 0, 0, 0)
        # insert before splitting: if the cursor sits before the far end,
        # the new segment then stays before beta's dart that takes its place
        before = prv[cd]
        nxt[before] = prv[cd] = sp
        prv[sp], nxt[sp] = before, cd
        # bb takes far's place in b's ring, alone if far was alone
        before, after = prv[far], nxt[far]
        if before == far:
            before = after = bb
        nxt[before] = prv[after] = bb
        prv[bb], nxt[bb] = before, after
        if self.ring_start[b] == far:
            self.ring_start[b] = bb
        tail[far] = q
        # entering from the left of the crossed dart: clockwise at q the
        # curve-in end, the piece towards b, then the piece back towards
        # the crossed dart's tail, before which lies the exit corner
        nxt[sq], nxt[bq], nxt[far] = bq, far, sq
        prv[bq], prv[far], prv[sq] = sq, bq, far
        self.ring_start[q] = sq
        self.crossing_edges[q] = (g, e)
        m = self.m
        pairs = self.pair_counts
        c = pairs.get(g * m + e, 0) + 1
        pairs[g * m + e] = pairs[e * m + g] = c
        if c == 1:
            self.partners[g].add(e)
            self.partners[e].add(g)
        counts = self.edge_counts
        counts[g] += 1
        counts[e] += 1
        return far, (beta, alpha)

    def commit_finish(self, e: int, cursor: Cursor, v: int,
                      corner: Optional[int]) -> None:
        """Attach the last segment of e to v before the dart ``corner``;
        ``corner`` None places v afresh."""
        nxt, prv = self.ring_next, self.ring_prev
        cd = cursor[0]
        s = len(self.arc_owner)
        self.arc_owner.append(e)
        self.dart_tail += (self.dart_tail[cd], v)
        sp, sv = 2 * s, 2 * s + 1
        before = prv[cd]
        nxt[before] = sp
        nxt += (cd, 0)
        prv += (before, 0)
        prv[cd] = sp
        if corner is None:
            nxt[sv] = prv[sv] = sv
            self.ring_start[v] = sv
        else:
            before = prv[corner]
            nxt[before] = prv[corner] = sv
            prv[sv], nxt[sv] = before, corner

    def undo(self) -> None:
        """Takes back the latest commit still in place."""
        owner, tail = self.arc_owner, self.dart_tail
        nxt, prv = self.ring_next, self.ring_prev
        s = len(owner) - 1
        sp, sv = 2 * s, 2 * s + 1
        end = tail[sv]
        before, after = prv[sp], nxt[sp]
        nxt[before], prv[after] = after, before
        if end in self.crossing_edges:
            # clockwise at the crossing: the curve's end, beta, the far end
            bq = nxt[sv]
            far = nxt[bq]
            bb = bq ^ 1
            b = tail[far] = tail[bb]
            # far takes bb's place in b's ring, alone if bb was alone
            before, after = prv[bb], nxt[bb]
            if before == bb:
                before = after = far
            nxt[before] = prv[after] = far
            prv[far], nxt[far] = before, after
            starts = self.ring_start
            if starts[b] == bb:
                starts[b] = far
            del starts[end]
            g, e = self.crossing_edges.pop(end)
            self._node_seq = end
            m = self.m
            pairs = self.pair_counts
            c = pairs[g * m + e] - 1
            if c:
                pairs[g * m + e] = pairs[e * m + g] = c
            else:
                del pairs[g * m + e], pairs[e * m + g]
                self.partners[g].discard(e)
                self.partners[e].discard(g)
            counts = self.edge_counts
            counts[g] -= 1
            counts[e] -= 1
            arcs = 2
        else:
            if nxt[sv] == sv:
                del self.ring_start[end]
            else:
                before, after = prv[sv], nxt[sv]
                nxt[before], prv[after] = after, before
            arcs = 1
        del owner[-arcs:]
        del tail[-2 * arcs:]
        del nxt[-2 * arcs:]
        del prv[-2 * arcs:]
