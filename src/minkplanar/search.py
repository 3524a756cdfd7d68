"""Complete existence search for anchored drawings under crossing rules.

Edges are inserted one at a time; each insertion enumerates every way the
new curve can run through the current arrangement, crossing one arc per
step.  Enumerating crossings against live arc pieces (rather than walks
in a frozen dual) keeps the face structure exact when a curve revisits a
face, so every planarization gets generated exactly once up to the lens
reductions noted below.

Two route shapes are deliberately skipped because removing them from any
drawing leaves a drawing that is no worse: re-crossing an arc piece next
to the crossing just made (an empty lens), and any pair of edges crossing
more than twice.  Both cuts preserve the reported status: crossing
removal never breaks validity, simplicity, or the min-k property.

Statuses are Found, ExhaustedUnsat, and BudgetExceeded.  A budget stop is
always reported as such; ExhaustedUnsat is only returned when the whole
tree was walked.  Found certificates are real Drawing objects and are
re-validated before being returned.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Optional

from .arrangement import BOUNDARY, Arrangement, Cursor
from .drawings import Crossing, Drawing, is_min_k_planar, is_simple, validate
from .errors import InputError
from .graphs import AnchoredGraph

_DEDUP_CAP = 100_000
_GROUP_TRIES = 50_000


class Status(enum.Enum):
    FOUND = "Found"
    EXHAUSTED_UNSAT = "ExhaustedUnsat"
    BUDGET_EXCEEDED = "BudgetExceeded"


@dataclass(frozen=True)
class Budget:
    nodes: Optional[int] = None
    seconds: Optional[float] = None


@dataclass
class SearchStats:
    nodes: int = 0
    routes: int = 0
    max_depth: int = 0
    seconds: float = 0.0


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
    g = ag.graph
    anchors = set(ag.anchors)
    pos = {a: i for i, a in enumerate(ag.anchors)}
    n = len(ag.anchors)

    def potential(e: int) -> int:
        u, v = g.edges[e]
        if u in anchors and v in anchors:
            i, j = pos[u], pos[v]
            return min((j - i - 1) % n, (i - j - 1) % n)
        return -1

    pot = [potential(e) for e in range(g.m)]
    placed = set(ag.anchors)
    remaining = set(range(g.m))
    out = []
    while remaining:
        ready = [e for e in remaining
                 if g.edges[e][0] in placed or g.edges[e][1] in placed]
        if not ready:
            raise InputError(
                "a component with edges contains no anchor and cannot be "
                "routed in the disk")
        e = min(ready, key=lambda x: (-pot[x], x))
        out.append(e)
        remaining.remove(e)
        placed.update(g.edges[e])
    return tuple(out)


# ----------------------------------------------------- anchored symmetries


def _rotation_group(ag: AnchoredGraph) -> list[tuple[dict, dict]]:
    """Automorphisms of the anchored graph that rotate the boundary order.

    Returns (vertex map, edge map) pairs; the identity is always present.
    The interior extension is an exact backtracking search with a small
    work cap, falling back to the identity alone if it trips.
    """
    g = ag.graph
    n = len(ag.anchors)
    anchor_set = set(ag.anchors)
    interior = sorted(v for v in g.vertices if v not in anchor_set)
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    deg = {v: len(adj[v]) for v in g.vertices}
    edge_ids = {frozenset(e): i for i, e in enumerate(g.edges)}

    tries = 0
    out = []

    def emap_of(vmap: dict) -> Optional[dict]:
        m = {}
        for i, (u, v) in enumerate(g.edges):
            j = edge_ids.get(frozenset((vmap[u], vmap[v])))
            if j is None:
                return None
            m[i] = j
        return m

    def extend(vmap: dict, todo: list[int], used: set[int]) -> None:
        nonlocal tries
        if not todo:
            em = emap_of(vmap)
            if em is not None:
                out.append((dict(vmap), em))
            return
        v = todo[0]
        for w in interior:
            if w in used or deg[w] != deg[v]:
                continue
            ok = True
            for nb in adj[v]:
                if nb in vmap and vmap[nb] not in adj[w]:
                    ok = False
                    break
            if not ok:
                continue
            tries += 1
            if tries > _GROUP_TRIES:
                raise _Stop
            vmap[v] = w
            extend(vmap, todo[1:], used | {w})
            del vmap[v]

    try:
        for r in range(n):
            vmap = {ag.anchors[i]: ag.anchors[(i + r) % n] for i in range(n)}
            ok = True
            for u, v in g.edges:
                if u in anchor_set and v in anchor_set:
                    if frozenset((vmap[u], vmap[v])) not in edge_ids:
                        ok = False
                        break
            if ok:
                extend(vmap, interior, set())
    except _Stop:
        ident = {v: v for v in g.vertices}
        return [(ident, {e: e for e in range(g.m)})]
    return out


def _canonical_rot(entries: tuple) -> tuple:
    if not entries:
        return entries
    best = entries
    for i in range(1, len(entries)):
        cand = entries[i:] + entries[:i]
        if cand < best:
            best = cand
    return best


def _partial_key(arr: Arrangement, ag: AnchoredGraph, routed: set[int],
                 vmap: dict, emap: dict):
    g = ag.graph
    # chains of the mapped state: vertices pushed through vmap, crossing
    # nodes kept raw until they get canonical names by first appearance
    mapped: dict[int, list] = {}
    for e in routed:
        ch = arr.chains[e]
        seq = ch if ch[0] == g.edges[e][0] else ch[::-1]
        e2 = emap[e]
        mseq = [vmap[seq[0]]] + list(seq[1:-1]) + [vmap[seq[-1]]]
        if g.edges[e2][0] != mseq[0]:
            mseq.reverse()
        mapped[e2] = mseq
    rename: dict[int, int] = {}
    for e2 in sorted(mapped):
        for x in mapped[e2][1:-1]:
            if x not in rename:
                rename[x] = len(rename)

    def tok(x: int):
        if x in rename:
            return ("c", rename[x])
        return ("v", vmap[x])

    chains_ser = []
    arcref = {}
    for e2 in sorted(mapped):
        mseq = mapped[e2]
        toks = ([("v", mseq[0])]
                + [("c", rename[x]) for x in mseq[1:-1]]
                + [("v", mseq[-1])])
        chains_ser.append((e2, tuple(toks)))
        for i in range(len(toks) - 1):
            arcref[frozenset((toks[i], toks[i + 1]))] = (e2, i)

    rows = []
    for node, entries in arr.rot.items():
        refs = []
        for arc in entries:
            if arr.arc_owner[arc] == BOUNDARY:
                continue
            x, y = arr.arc_nodes[arc]
            refs.append(arcref[frozenset((tok(x), tok(y)))])
        if not refs:
            continue
        if node in arr.crossing_edges or node not in arr.anchor_set:
            rows.append((tok(node), _canonical_rot(tuple(refs))))
        else:
            rows.append((tok(node), tuple(refs)))
    rows.sort()
    return (tuple(chains_ser), tuple(rows))


# ------------------------------------------------------------- certificates


def _assemble(arr: Arrangement, ag: AnchoredGraph) -> Drawing:
    g = ag.graph
    chains = {}
    for e in range(g.m):
        ch = list(arr.chains[e])
        if ch[0] != g.edges[e][0]:
            ch.reverse()
        chains[e] = tuple(ch)
    pos = {e: {nd: i for i, nd in enumerate(chains[e])} for e in chains}
    refs = {}
    for arc, (x, y) in arr.arc_nodes.items():
        own = arr.arc_owner[arc]
        if own == BOUNDARY:
            continue
        refs[arc] = (own, min(pos[own][x], pos[own][y]))
    rotation = {}
    for v in g.vertices:
        entries = arr.rot.get(v, [])
        if v in arr.anchor_set:
            entries = entries[1:-1]
        rotation[v] = tuple(refs[a] for a in entries)
    crossings = []
    for q in sorted(arr.crossing_edges):
        pair = arr.crossing_edges[q]
        crossings.append(Crossing(q, (min(pair), max(pair))))
        rotation[q] = tuple(refs[a] for a in arr.rot[q])
    return Drawing(graph=g, crossings=tuple(crossings), chains=chains,
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
                    budget: Optional[Budget] = None,
                    symmetry_breaking: bool = True) -> SearchOutcome:
    if k < 0:
        raise InputError("k must be non-negative")
    if not ag.anchors:
        raise InputError("the anchored search needs at least one anchor")
    order = insertion_order(ag)
    g = ag.graph
    arr = Arrangement(ag)
    cap = 1 if require_simple else 2
    ends = [set(e) for e in g.edges]

    group = _rotation_group(ag) if symmetry_breaking else None
    use_dedup = group is not None and len(group) > 1
    seen: list[set] = [set() for _ in order] if use_dedup else []

    stats = SearchStats()
    t0 = time.perf_counter()
    node_cap = budget.nodes if budget else None
    sec_cap = budget.seconds if budget else None

    def tick() -> None:
        stats.nodes += 1
        if node_cap is not None and stats.nodes > node_cap:
            raise _Stop
        if sec_cap is not None and stats.nodes % 64 == 0:
            if time.perf_counter() - t0 > sec_cap:
                raise _Stop

    def mink_dead(e: int, f: int) -> bool:
        # a pair of crossing edges that both exceed k can never recover
        for x, other in ((e, f), (f, e)):
            if arr.edge_counts[x] == k + 1:
                for h in arr.partners[x]:
                    if h != other and arr.edge_counts[h] > k:
                        return True
        return False

    def after_route(idx: int) -> None:
        stats.routes += 1
        if idx + 1 > stats.max_depth:
            stats.max_depth = idx + 1
        if use_dedup:
            routed = set(order[:idx + 1])
            best = None
            for vmap, emap in group:
                if {emap[e] for e in routed} != routed:
                    continue
                key = _partial_key(arr, ag, routed, vmap, emap)
                if best is None or key < best:
                    best = key
            if best in seen[idx]:
                return
            if len(seen[idx]) < _DEDUP_CAP:
                seen[idx].add(best)
        route(idx + 1)

    def extend(e: int, idx: int, target: int, cursor: Cursor) -> None:
        tick()
        orbit = arr.face(arr.corner_dart(cursor.node, cursor.gap))
        oset = set(orbit)
        if target in arr.placed:
            for vg in arr.corners(target):
                if arr.corner_dart(target, vg) in oset:
                    tok = arr.commit_finish(e, cursor, target, vg)
                    after_route(idx)
                    arr.undo(tok)
        else:
            tok = arr.commit_finish(e, cursor, target, None)
            after_route(idx)
            arr.undo(tok)
        for dart in orbit:
            arc = dart[0]
            own = arr.arc_owner[arc]
            if own == BOUNDARY or own == e or arc in cursor.banned:
                continue
            limit = cap
            if require_simple and ends[own] & ends[e]:
                limit = 0
            key = (min(own, e), max(own, e))
            if arr.pair_counts.get(key, 0) >= limit:
                continue
            if arr.edge_counts[own] >= k and arr.edge_counts[e] >= k:
                continue  # the new crossing would make both exceed k
            ncur, tok = arr.commit_cross(e, cursor, dart)
            if not mink_dead(e, own):
                extend(e, idx, target, ncur)
            arr.undo(tok)

    def route(idx: int) -> None:
        if idx == len(order):
            raise _Found(_assemble(arr, ag))
        e = order[idx]
        u, v = g.edges[e]
        if u not in arr.placed:
            u, v = v, u
        arr.begin_edge(e, u)
        try:
            for gap in arr.corners(u):
                extend(e, idx, v, Cursor(u, gap, ()))
        finally:
            arr.abort_edge(e)

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
    stats.seconds = time.perf_counter() - t0
    return SearchOutcome(status=status, certificate=certificate, stats=stats)


def explore_open_question(budget: Optional[Budget] = None) -> SearchOutcome:
    """Probe whether the 20-vertex counterexample admits a simple anchored
    drawing one level up, at k = 3.  The answer is reported, never assumed."""
    from .constructions import build_G2

    return search_anchored(build_G2().anchored_graph, k=3,
                           require_simple=True, budget=budget)
