"""Complete existence search for anchored drawings under crossing rules.

Edges are inserted one at a time; each insertion enumerates every way the
new curve can run through the current arrangement, crossing one arc per
step.  Enumerating crossings against live arc pieces (rather than walks
in a frozen dual) keeps the face structure exact when a curve revisits a
face, so every planarization gets generated exactly once up to the lens
reductions noted below.  The arrangement numbers darts as
``drawings.PlanarizationMap`` does; edge chains are only walked off the
finished arrangement, for the certificate.

Two route shapes are deliberately skipped: re-crossing an arc piece next
to the crossing just made (an empty lens), and any pair of edges
crossing more than twice.  The pair cap relies on the claim that two
crossings of such a pair can always be removed without making the
drawing worse.  The lens cut is not safe for non-simple queries: the
lens is empty when the curve is inserted, but vertices and edges routed
later can land inside it, so the cut can drop every drawing of an
instance and the answer then depends on the insertion order
(``build_Gk(3)`` at k = 3 without simplicity comes back ExhaustedUnsat
although its bundled drawing is a witness).  Simple queries are not
affected: a pair crosses at most once there, so the pair cap already
forbids every route the lens cut skips.

A search node is a cursor, the corner the partial curve has reached
(see ``arrangement``), and it walks the cursor's face once, by the rule
of ``drawings.face_orbit`` written out inline.  That one walk collects
both lists the node needs: the darts leaving the target, which are the
corners where the curve can end, and the darts the curve may cross.
Every cut is decided in the walk, from the arrangement's count state,
all flat integers: crossings per edge, crossings per pair in one list of
m * m slots at ``e * m + f`` under both orders, and per edge the edge
met at each of its crossings.  A candidate costs one set lookup for the
owners its edge never crosses (the boundary, the edge itself and, in a
simple drawing, the edges sharing an endpoint with it, computed once per
search), one list read for the pair cap, and count reads for the min-k
cut: no crossing between two edges that would both exceed k, and none on
an edge at k that already crosses an edge above k.  Children run only
after the walk.  Each child's undo restores the counts exactly, so the
lists read on entry are the ones a check before each child would give,
and no crossing is built only to be undone.

Statuses are Found, ExhaustedUnsat, and BudgetExceeded.  A budget stop is
always reported as such; ExhaustedUnsat is only returned when the whole
tree was walked.  Found certificates are real Drawing objects and are
re-validated before being returned.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Optional

from .arrangement import BOUNDARY, Arrangement, Cursor
from .drawings import Crossing, Drawing, is_min_k_planar, is_simple, validate
from .errors import InputError
from .graphs import AnchoredGraph, _k

class Status(enum.Enum):
    FOUND = "Found"
    EXHAUSTED_UNSAT = "ExhaustedUnsat"
    BUDGET_EXCEEDED = "BudgetExceeded"


@dataclass(frozen=True)
class Budget:
    """Caps on the nodes a search visits and the seconds it spends; None
    leaves that side open.  Raises InputError for a node count that is
    negative or not an integer, and for seconds that are negative or not
    finite."""

    nodes: Optional[int] = None
    seconds: Optional[float] = None

    def __post_init__(self):
        n, s = self.nodes, self.seconds
        if n is not None and (type(n) is not int or n < 0):
            raise InputError(
                f"a node budget must be a non-negative integer, not {n!r}")
        if s is not None and (type(s) not in (int, float)
                              or not 0 <= s < math.inf):
            raise InputError(
                f"a seconds budget must be finite and non-negative, not {s!r}")


@dataclass
class SearchStats:
    """What a search did.  ``order`` is the edge insertion order it used;
    the brute oracle leaves it empty.  ``pair_cap`` is the most crossings
    the search let one pair of edges have (see the module docstring); 0
    when the producer did not say."""

    nodes: int = 0
    routes: int = 0
    max_depth: int = 0
    seconds: float = 0.0
    order: tuple[int, ...] = ()
    pair_cap: int = 0


@dataclass
class SearchOutcome:
    status: Status
    certificate: Optional[Drawing]
    stats: SearchStats


class _Found(Exception):
    def __init__(self, drawing: Drawing):
        self.drawing = drawing


class _Stop(Exception):
    pass


# ----------------------------------------------------------- insertion order


def insertion_order(ag: AnchoredGraph) -> tuple[int, ...]:
    """Fixed routing order: most anchor-interleaving first.

    An edge whose anchor endpoints split the remaining anchors most evenly
    is forced to cross the most and goes in early.  Edges with an interior
    endpoint score -1.  Ties break on the lower edge id, and an edge only
    becomes ready once one of its endpoints is on the boundary or already
    reached, so the routed part always stays attached to the disk.
    """
    edges = ag.graph.edges
    pos = {a: i for i, a in enumerate(ag.anchors)}
    n = len(ag.anchors)
    ranked = []
    for e, (u, v) in enumerate(edges):
        i, j = pos.get(u), pos.get(v)
        if i is None or j is None:
            ranked.append((1, e))
        else:
            ranked.append((-min((j - i - 1) % n, (i - j - 1) % n), e))
    # the edges by (-potential, id): each step takes the first ready one
    ranked.sort()
    pending = [e for _, e in ranked]
    placed = set(ag.anchors)
    out = []
    while pending:
        for at, e in enumerate(pending):
            u, v = edges[e]
            if u in placed or v in placed:
                break
        else:
            raise InputError(
                "a component with edges contains no anchor and cannot be "
                "routed in the disk")
        del pending[at]
        out.append(e)
        placed.add(u)
        placed.add(v)
    return tuple(out)


# ------------------------------------------------------------- certificates


def _assemble(arr: Arrangement, ag: AnchoredGraph) -> Drawing:
    """The drawing of a finished arrangement, chains walked off its rings."""
    g = ag.graph
    nxt, tail, owner = arr.ring_next, arr.dart_tail, arr.arc_owner
    starts, q0 = arr.ring_start, arr.first_crossing
    chains, refs = {}, {}
    for e, (u, _) in enumerate(g.edges):
        # the first dart: the one dart leaving u on an arc e owns.  It
        # need not be on the edge's lowest arc: crossing dart 2a + 1
        # moves the tail of arc a to the crossing
        dart = starts[u]
        while owner[dart >> 1] != e:
            dart = nxt[dart]
        chain, i = [u], 0
        while True:
            refs[dart >> 1] = (e, i)
            node = tail[dart ^ 1]
            chain.append(node)
            if node < q0:
                break
            dart = nxt[nxt[dart ^ 1]]
            i += 1
        chains[e] = tuple(chain)
    # every node's darts from its ring start, less the boundary darts
    # 0 .. 2b - 1 that lead and end an anchor's ring
    boundary = 2 * len(ag.anchors)
    rotation = dict.fromkeys(g.vertices, ())
    for node, start in starts.items():
        rot, dart = [], start
        while True:
            if dart >= boundary:
                rot.append(refs[dart >> 1])
            dart = nxt[dart]
            if dart == start:
                break
        rotation[node] = tuple(rot)
    crossings = tuple(Crossing(q, (f, e) if f < e else (e, f))
                      for q, (f, e) in enumerate(arr.crossed, q0))
    return Drawing(graph=g, crossings=crossings, chains=chains,
                   rotation=rotation, anchors=ag.anchors)


def verify_certificate(outcome: SearchOutcome, ag: AnchoredGraph, k: int,
                       require_simple: bool) -> bool:
    """Independent check of a Found result against the original query."""
    d = outcome.certificate
    if outcome.status is not Status.FOUND or d is None:
        return False
    if d.graph != ag.graph or d.anchors != ag.anchors:
        return False
    if validate(d):
        return False
    if not is_min_k_planar(d, k):
        return False
    return not require_simple or is_simple(d).ok


# ------------------------------------------------------------------ search


def search_anchored(ag: AnchoredGraph, k: int, require_simple: bool = False,
                    budget: Optional[Budget] = None) -> SearchOutcome:
    """Decide whether ``ag`` has an anchored min-k drawing.

    ``k`` bounds the crossings on every edge that crosses an edge with more
    than k crossings (the min-k rule); ``require_simple`` also asks that
    adjacent edges never cross and other pairs cross at most once.
    ``budget`` caps the nodes visited and the seconds spent; without it
    the search runs to the end.

    The status is Found with a certificate drawing, re-validated before it
    is returned; ExhaustedUnsat when the whole tree was walked without a
    drawing (see the module docstring for when that answer can be wrong);
    or BudgetExceeded when the budget stopped the walk first.  Raises
    InputError for a k that is no non-negative integer or a component
    with edges but no anchor.
    """
    k = _k(k)
    order = insertion_order(ag)
    g = ag.graph
    m = g.m
    arr = Arrangement(ag)
    cap = 1 if require_simple else 2
    # per edge, the arc owners its curve never crosses: the boundary, the
    # edge itself and, in a simple drawing, every edge sharing an endpoint
    if require_simple:
        at: dict[int, set[int]] = {v: set() for v in g.vertices}
        for e, (u, v) in enumerate(g.edges):
            at[u].add(e)
            at[v].add(e)
        skips = [{BOUNDARY} | at[u] | at[v] for u, v in g.edges]
    else:
        skips = [{BOUNDARY, e} for e in range(m)]
    owner, tail, nxt = arr.arc_owner, arr.dart_tail, arr.ring_next
    starts, counts = arr.ring_start, arr.edge_counts
    pairs, partners = arr.pair_counts, arr.partners
    commit_cross, commit_finish = arr.commit_cross, arr.commit_finish
    undo, corners = arr.undo, arr.corners

    stats = SearchStats(order=order, pair_cap=cap)
    t0 = time.perf_counter()
    nodes = 0
    # nodes never reaches 0, so a search without a node cap never stops on it
    stop_at = budget.nodes + 1 if budget and budget.nodes is not None else 0
    timed = budget is not None and budget.seconds is not None

    def saturated(x: int) -> bool:
        # whether x, at k, already crosses an edge above k: one more
        # crossing on x makes a crossing pair that both exceed k, and such
        # a pair never recovers
        for h in partners[x]:
            if counts[h] > k:
                return True
        return False

    def after_route(idx: int) -> None:
        stats.routes += 1
        if idx + 1 > stats.max_depth:
            stats.max_depth = idx + 1
        route(idx + 1)

    def extend(e: int, idx: int, target: int, cursor: Cursor) -> None:
        nonlocal nodes
        nodes += 1
        if nodes == stop_at or (
                timed and not nodes & 63
                and time.perf_counter() - t0 > budget.seconds):
            raise _Stop
        # one walk around the cursor's face collects the darts leaving the
        # target (the corners the curve can land in) and the darts it may
        # cross.  Both read the counts on entry, which every child's undo
        # restores, so deciding them before any child runs changes nothing
        start, banned = cursor
        skip = skips[e]
        row = e * m
        ce = counts[e]
        heavy = ce >= k
        shut = ce == k and saturated(e)
        lands, crosses = [], []
        dart = start
        while True:
            if tail[dart] == target:
                lands.append(dart)
            arc = dart >> 1
            own = owner[arc]
            # every skip holds the boundary, so the pair read that
            # follows never meets its owner id -1
            if not (shut or own in skip or arc in banned
                    or pairs[row + own] >= cap):
                co = counts[own]
                # at k or above, own may not meet a heavy e (both would
                # exceed k) and, at k, may not be saturated
                if co < k or not (heavy or co == k and saturated(own)):
                    crosses.append(dart)
            dart = nxt[dart ^ 1]
            if dart == start:
                break
        if target in starts:
            # the face is never the outside, so its darts leaving the
            # target are the legal corners there; the face walk can meet
            # several out of rotation order, the order they are tried in
            if len(lands) > 1:
                lands = [c for c in corners(target) if c in lands]
            for corner in lands:
                commit_finish(e, cursor, target, corner)
                after_route(idx)
                undo()
        else:
            commit_finish(e, cursor, target, None)
            after_route(idx)
            undo()
        for dart in crosses:
            extend(e, idx, target, commit_cross(e, cursor, dart))
            undo()

    def route(idx: int) -> None:
        if idx == len(order):
            raise _Found(_assemble(arr, ag))
        e = order[idx]
        u, v = g.edges[e]
        if u not in starts:  # a vertex is placed once it has a ring
            u, v = v, u
        for corner in corners(u):
            extend(e, idx, v, (corner, ()))

    status = Status.EXHAUSTED_UNSAT
    certificate = None
    try:
        route(0)
    except _Found as hit:
        bad = validate(hit.drawing)
        if bad:
            raise AssertionError(f"search produced an invalid drawing: {bad}")
        status = Status.FOUND
        certificate = hit.drawing
    except _Stop:
        status = Status.BUDGET_EXCEEDED
    finally:
        stats.nodes = nodes
        # extend reaches itself through closure cells, directly and via
        # route; clearing both lets reference counting free the arrangement
        extend = route = None
    stats.seconds = time.perf_counter() - t0
    return SearchOutcome(status=status, certificate=certificate, stats=stats)
