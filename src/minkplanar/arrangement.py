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
right away (that would make an empty lens).  A curve starts from
``(corner, ())``.  Crossing ``dart`` leaves it at ``(dart ^ 1, (arcs,
dart >> 1))``, with ``arcs`` read before the crossing: ``commit_cross``
splits off the far part of the crossed arc as arc ``arcs``, whose dart
``2 * arcs + 1 - (dart & 1)`` leaves the far end from the corner the
twin left, and the twin now leaves the crossing.  So the cursor is
known before the crossing is built, and so is the face it walks, but
for the new half of the crossed arc.

Crossing i, the pair ``crossed[i]`` of the crossed edge and the curve's,
is node ``first_crossing + i``, past every vertex id.  A crossing has two
halves: its counts, which only the search reads and so keeps itself, and
its rings, which ``commit_cross`` builds here.  The search puts a
crossing's counts in first and builds its rings only when the face
beyond has something to try (see ``search``).

Commits and undos are last in, first out, and resize no list of darts:
the lists keep spare slots past the ``arcs`` arcs in use.  They start at
what a drawing with as many crossings as edges needs, b + 3m slots for b
anchors and m edges (the boundary, one arc per edge and two more per
crossing), and double when full.  A commit writes every field of the
slots it takes, an undo lowers ``arcs`` and relinks, and nothing reads a
slot past ``arcs``.  A crossing appends to ``crossed``, and its undo pops
it.
"""

from __future__ import annotations

from typing import Optional

from .graphs import AnchoredGraph

BOUNDARY = -1

# a cursor is the plain pair (dart, banned), see the module docstring
Cursor = tuple[int, tuple[int, ...]]


class Arrangement:
    __slots__ = ("anchor_set", "arcs", "arc_owner", "dart_tail", "ring_next",
                 "ring_prev", "ring_start", "first_crossing", "crossed")

    def __init__(self, anchored: AnchoredGraph):
        g = anchored.graph
        anchors = anchored.anchors
        b, m = len(anchors), g.m
        self.anchor_set = set(anchors)
        cap = b + 3 * m  # room for m crossings, see the module docstring
        self.arcs = b
        self.arc_owner: list[int] = [BOUNDARY] * cap
        self.dart_tail: list[int] = [0] * (2 * cap)
        self.ring_next: list[int] = [0] * (2 * cap)
        self.ring_prev: list[int] = [0] * (2 * cap)
        self.ring_start: dict[int, int] = {}
        tail, nxt, prv = self.dart_tail, self.ring_next, self.ring_prev
        # clockwise at anchor i: the forward boundary dart, then the
        # backward one; a node's ring start is where its rotation begins
        for i, a in enumerate(anchors):
            fwd, back = 2 * i, 2 * ((i - 1) % b) + 1
            tail[fwd] = tail[back] = a
            nxt[fwd] = prv[fwd] = back
            nxt[back] = prv[back] = fwd
            self.ring_start[a] = fwd
        self.first_crossing = (max(g.vertices) + 1) if g.vertices else 0
        self.crossed: list[tuple[int, int]] = []

    def _grow(self) -> None:
        # double the slots in place: the search holds these very lists
        n = len(self.arc_owner)
        self.arc_owner += [BOUNDARY] * n
        for darts in (self.dart_tail, self.ring_next, self.ring_prev):
            darts += [0] * (2 * n)

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

    def commit_cross(self, e: int, cursor: Cursor, dart: int) -> None:
        """Extend the curve of e across the arc of ``dart``, which lies in
        the cursor's face, to a new crossing node: the crossing's rings."""
        beta = self.arcs
        self.arcs = beta + 2
        if beta + 2 > len(self.arc_owner):
            self._grow()
        owner, tail = self.arc_owner, self.dart_tail
        nxt, prv = self.ring_next, self.ring_prev
        cd = cursor[0]
        g = owner[dart >> 1]
        far = dart ^ 1
        b = tail[far]
        crossed = self.crossed
        q = self.first_crossing + len(crossed)
        crossed.append((g, e))
        # beta takes over alpha's far end: dart bq leaves q, bb leaves b;
        # the curve's new segment beta + 1 runs from its head to q
        bq = 2 * beta + (dart & 1)
        bb = bq ^ 1
        sp, sq = 2 * beta + 2, 2 * beta + 3
        owner[beta:beta + 2] = g, e
        tail[bq] = tail[sq] = q
        tail[bb], tail[sp] = b, tail[cd]
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

    def commit_finish(self, e: int, cursor: Cursor, v: int,
                      corner: Optional[int]) -> None:
        """Attach the last segment of e to v before the dart ``corner``;
        ``corner`` None places v afresh."""
        s = self.arcs
        self.arcs = s + 1
        if s == len(self.arc_owner):
            self._grow()
        nxt, prv, tail = self.ring_next, self.ring_prev, self.dart_tail
        cd = cursor[0]
        self.arc_owner[s] = e
        sp, sv = 2 * s, 2 * s + 1
        tail[sp], tail[sv] = tail[cd], v
        before = prv[cd]
        nxt[before] = prv[cd] = sp
        prv[sp], nxt[sp] = before, cd
        if corner is None:
            nxt[sv] = prv[sv] = sv
            self.ring_start[v] = sv
        else:
            before = prv[corner]
            nxt[before] = prv[corner] = sv
            prv[sv], nxt[sv] = before, corner

    def undo(self) -> None:
        """Takes back the latest commit still in place."""
        tail, nxt, prv = self.dart_tail, self.ring_next, self.ring_prev
        s = self.arcs - 1
        sp, sv = 2 * s, 2 * s + 1
        end = tail[sv]
        before, after = prv[sp], nxt[sp]
        nxt[before], prv[after] = after, before
        if end >= self.first_crossing:
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
            self.crossed.pop()
            self.arcs = s - 1
        else:
            if nxt[sv] == sv:
                del self.ring_start[end]
            else:
                before, after = prv[sv], nxt[sv]
                nxt[before], prv[after] = after, before
            self.arcs = s
