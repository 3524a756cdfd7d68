"""Combinatorial drawings: planarizations, validity and crossing predicates.

A drawing records, for a graph drawn in the plane or in a closed disk:

* one crossing node per transversal crossing, labelled with its edge pair,
* per edge the chain of nodes its curve visits (endpoints plus crossing
  nodes in order along the curve, oriented from the edge tuple's first
  endpoint to its second),
* per node the clockwise cyclic order of curve ends leaving it.

Curve ends are arc references ``(edge id, segment index)``; segment i of an
edge covers the stretch between chain positions i and i+1.  For an anchored
drawing the boundary circle is materialised internally as one boundary arc
between each pair of consecutive anchors; the stored rotation of an anchor
lists only interior arc ends, linearly, starting just after the boundary
arc towards the next anchor and ending just before the one from the
previous anchor.

Faces are traced by ``PlanarizationMap``, which numbers the arcs (the
boundary arcs first, arc i from anchor i to anchor i+1, then segment i of
edge e as arc ``first_arc[e] + i``) and gives arc a the darts 2a, leaving
its tail, and 2a+1, leaving its head; d ^ 1 is the twin of d.  With
clockwise rotations the face left of a dart is traced by following "next
clockwise after the twin" (``face_orbit``).  For a valid anchored drawing
the face left of the forward boundary darts is the region outside the
disk; the map splices those darts at the two ends of each anchor's
rotation, so their orbit is exactly the forward darts by construction.
The existence search's ``arrangement.Arrangement`` keeps its darts in the
same numbering, and the search walks its faces by the same rule.

A ``Drawing`` checks its ids as it is made, by ``graphs._ids``' rule:
an int, or a numpy integer made an int, never a bool, from 0 to
``MAX_ID``; its crossings, edge pairs, chains, rotations, arc references
and anchors are tuples or lists, kept as tuples.  ``validate`` judges
only the structure, a level at a time: anchors, crossings, chains and the
crossings on them, rotations, alternation at crossings, and Euler's
formula.  Each level tests all its items in as few passes as it can, and
only a level that fails is walked item by item, to word its report.  The
rotation level is the dart map: ``PlanarizationMap`` loops once over the
chains for its arcs and once over the rotation, turning each entry into
a dart, and says whether those darts match the chains.

Each drawing object is validated once: ``validate``, the dart map that
it builds (``Drawing.planarization``) and ``crossing_profile`` keep their
report, map and counts on the object, so every predicate can call
``require_valid`` and count crossings, and only the first call costs.

Chain surgery, the cutting and splicing of chains by ``restrict`` and
``simplify.swap_at``, renames arc ends in one place, ``splice_chains``.
Each new chain comes as its node visits along old curves, every visit
with the old ends by which the curve reaches and leaves the node; a new
arc replaces the old ends at its two visits, so the arcs at a node that
no visit lists merge into one.
"""

from __future__ import annotations

import collections
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain, compress, pairwise, repeat
from operator import attrgetter, contains, countOf, eq, itemgetter, ne, or_
from typing import Any, Iterable, NamedTuple, Sequence

from .errors import InputError
from .graphs import MAX_ID, Graph, _id, _ids, _k

ArcRef = tuple[int, int]

_ID, _EDGES = attrgetter("id"), attrgetter("edges")
_FIRST, _ENDS = itemgetter(0), itemgetter(0, -1)


@dataclass(frozen=True)
class Crossing:
    id: int
    edges: tuple[int, int]


@dataclass(frozen=True, eq=False)
class Drawing:
    """A combinatorial drawing of ``graph``, possibly anchored.

    Its ids are checked as it is made (see the module docstring), and a
    fault raises ``InputError`` with the JSON reader's pointer to its
    slot, such as ``/rotation/19/1/0``.  A drawing is never mutated, and
    ``replace`` makes a new object; so each object keeps its report, dart
    map and crossing profile once they are computed.
    """

    graph: Graph
    crossings: tuple[Crossing, ...]
    chains: dict[int, tuple[int, ...]]
    rotation: dict[int, tuple[ArcRef, ...]]
    anchors: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # all ids in one test; the levels are walked, to name the first
        # fault and to make numpy's integers ints, only when it fails
        xs, chains, rot, anchors = (
            self.crossings, self.chains, self.rotation, self.anchors)
        try:  # with the edge pairs and arc references
            pairs = [*map(_EDGES, xs), *chain.from_iterable(rot.values())]
            ids = [*map(_ID, xs), *chains, *rot, *(anchors or ()),
                   *chain.from_iterable(chains.values()),
                   *chain.from_iterable(pairs)]
            boxes = [*pairs, *chains.values(), *rot.values(), anchors or (),
                     xs]
        except (TypeError, AttributeError):  # no sequence, or no dict
            pairs = ids = boxes = [None]
        # or'ed together, ids from 0 to MAX_ID leave the bits above it
        # clear, and a negative id sets them all
        if countOf(map(type, boxes), tuple) == len(boxes) and countOf(
                map(len, pairs), 2) == len(pairs) and countOf(
                map(type, ids), int) == len(ids) and not reduce(
                or_, ids, 0) & ~MAX_ID:
            return
        vars(self).update(
            crossings=tuple(
                Crossing(_id(x.id, f"/crossings/{i}/id"),
                         _id_tuple(x.edges, f"/crossings/{i}/edges", 2))
                for i, x in enumerate(_listed(xs, "/crossings"))),
            chains={_id(e, f"/chains/{e}"): _id_tuple(ch, f"/chains/{e}")
                    for e, ch in _keyed(chains, "/chains").items()},
            rotation={
                _id(v, f"/rotation/{v}"): tuple(
                    _id_tuple(ref, f"/rotation/{v}/{j}", 2)
                    for j, ref in enumerate(_listed(refs, f"/rotation/{v}")))
                for v, refs in _keyed(rot, "/rotation").items()},
            anchors=None if anchors is None else _id_tuple(
                anchors, "/outer_face"))

    @property
    def anchored(self) -> bool:
        return self.anchors is not None

    def crossing_ids(self) -> tuple[int, ...]:
        return tuple(x.id for x in self.crossings)

    def crossing_by_id(self) -> dict[int, Crossing]:
        return {x.id: x for x in self.crossings}

    def require_valid(self) -> None:
        problems = validate(self)
        if problems:
            raise InputError("invalid drawing: " + "; ".join(problems[:8]))

    @property
    def planarization(self) -> PlanarizationMap:
        """The drawing's dart map, built on first use and kept."""
        pm = vars(self).get("_planarization")
        if pm is None:
            pm = vars(self)["_planarization"] = PlanarizationMap(self)
        return pm


def _listed(v: Any, where: str, n: int = 0) -> Sequence:
    """``v`` if it is a tuple or list, of ``n`` items unless ``n`` is 0."""
    if not isinstance(v, (tuple, list)) or n and len(v) != n:
        raise InputError(f"{where}: expected a tuple or list"
                         + f" of {n} items" * bool(n))
    return v


def _keyed(v: Any, where: str) -> Mapping:
    """``v`` if it is a mapping, such as a dict."""
    if not isinstance(v, Mapping):
        raise InputError(f"{where}: expected an object")
    return v


def _id_tuple(v: Any, where: str, n: int = 0) -> tuple[int, ...]:
    return _ids(_listed(v, where, n), where)


# ----------------------------------------------------------- the dart map


def face_orbit(nxt: list[int], start: int) -> list[int]:
    """The darts of the face left of ``start``, from ``start`` on; ``nxt``
    gives the next dart clockwise around each dart's tail."""
    orbit = [start]
    dart = nxt[start ^ 1]
    while dart != start:
        orbit.append(dart)
        dart = nxt[dart ^ 1]
    return orbit


class PlanarizationMap:
    """Compiled dart structure of a drawing, used for face tracing.

    One loop over the chains lays out the arcs, and one over the rotation
    turns each entry ``(e, i)`` at a node into the dart of arc
    ``first_arc[e] + i`` that leaves it, next after the node's previous
    entry.  ``agrees`` tells whether those darts hit every edge dart
    once, each at its own tail: ``validate``'s rotation level, which
    builds the drawing's one map once the chains are valid.  ``_next`` is
    meaningful only when the map agrees, and ``faces`` refuses to trace it
    when it is not a permutation.
    """

    def __init__(self, d: Drawing):
        anchors, m, rot = d.anchors or (), d.graph.m, d.rotation
        b, first, segs = len(anchors), [], []
        tails, heads = [*anchors], [*anchors[1:], *anchors[:1]]
        for ch in map(d.chains.__getitem__, range(m)):
            first.append(len(tails))
            segs.append(len(ch) - 1)
            tails += ch[:-1]
            heads += ch[1:]
        self.first_arc, self.arc_tail, self.arc_head = first, tails, heads
        tail = self._tail = tails + heads
        tail[0::2], tail[1::2] = tails, heads
        # boundary dart 2k + 1 is followed by 2k + 2, and the last dart of
        # anchor k's rotation by 2k - 1 (mod 2b), as is 2k when it is empty;
        # slot ``lead`` past the darts takes each rotation's first dart
        back, lead = [2 * b - 1, *range(1, 2 * b - 1, 2)][:b], len(tail)
        nxt = self._next = [-1] * lead + [0]
        nxt[0:2 * b:2], nxt[1:2 * b:2] = back, [*range(2, 2 * b, 2), 0][:b]
        pos = dict(zip(anchors, range(b)))
        self.agrees = self._permutes = astray = False
        for node, refs in rot.items():
            last = lead
            for e, i in refs:
                if not (e < m and i < segs[e]):
                    return
                dart = 2 * (first[e] + i)  # it leaves its arc's tail
                if tail[dart] != node:
                    dart += 1
                    astray = astray or tail[dart] != node
                nxt[last] = last = dart
            nxt[last] = nxt[lead]
            k = pos.get(node)
            if k is not None and last != lead:
                nxt[2 * k], nxt[last] = nxt[last], back[k]
        # every listed dart has a successor: with as many entries as edge
        # darts, each is listed once and ``_next`` is a permutation
        del nxt[lead]
        once = -1 not in nxt and sum(map(len, rot.values())) == lead - 2 * b
        self._permutes = once and len(pos) == b
        self.agrees = once and not astray

    def tail(self, dart: int) -> int:
        return self._tail[dart]

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Every face as its dart orbit, traced once and kept.

        Orbits come in the order of their least dart and start there, so
        an anchored drawing's forward boundary darts lead.  Raises
        ``InputError`` when the rotation does not list every edge dart
        exactly once or an anchor repeats, since the orbits need not close.
        """
        faces = vars(self).get("_faces")
        if faces is not None:
            return faces
        if not self._permutes:
            raise InputError("faces cannot be traced: the rotation must list "
                             "every arc end once, and no anchor may repeat")
        nxt = self._next
        seen = bytearray(len(nxt))
        out = []
        start = seen.find(0)  # the least dart on no orbit yet
        while start >= 0:
            orbit = face_orbit(nxt, start)
            for dart in orbit:
                seen[dart] = 1
            out.append(tuple(orbit))
            start = seen.find(0, start + 1)
        faces = vars(self)["_faces"] = tuple(out)
        return faces


# ------------------------------------------------------------- validation


def validate(d: Drawing) -> list[str]:
    """Well-formedness report; an empty list means the drawing is valid.
    It is made once per drawing object, a level at a time, and kept."""
    report = vars(d).get("_problems")
    if report is None:
        report = vars(d)["_problems"] = tuple(_find_problems(d))
    return list(report)


def _find_problems(d: Drawing) -> list[str]:
    g, vset, xs = d.graph, set(d.graph.vertices), d.crossings
    m = len(g.edges)
    xids, ends = list(map(_ID, xs)), list(chain.from_iterable(map(_EDGES, xs)))
    problems = _anchor_problems(d.anchors, vset) if d.anchored else []
    cover = d.chains.keys() == set(range(m))
    chains = list(map(d.chains.__getitem__, range(m))) if cover else []
    problems += _crossing_problems(xs, m, vset, xids, ends)
    if not cover:
        return problems + ["chain: chains must cover exactly the edge ids"]
    # chains run between their edges' ends, and the crossings' labels fill
    # every inner slot, so each inner node is a crossing met once per chain
    if problems or not (
            all(chains)
            and all(map(eq, map(_ENDS, chains), g.edges))
            and sum(map(len, chains)) == 2 * m + len(ends)
            and all(map(contains, map(chains.__getitem__, ends),
                        chain.from_iterable(zip(xids, xids))))):
        problems += _chain_walk(g, vset, set(xids), chains)
        if problems:
            return problems
        problems = _label_walk(xs, chains)
    problems += _rotation_problems(d, vset.union(xids), chains)
    if not problems:
        problems = _alternation_problems(d.rotation, xids)
    return problems or _euler_problems(d, xids, ends)


def _anchor_problems(anchors: tuple[int, ...], vset: set) -> list[str]:
    if 2 <= len(anchors) == len(set(anchors)) and vset.issuperset(anchors):
        return []
    out = ["boundary: an anchored drawing needs >= 2 anchors"] * (
        len(anchors) < 2)
    out += ["boundary: repeated anchor"] * (len(set(anchors)) != len(anchors))
    return out + [f"boundary: anchor {a} is not a vertex"
                  for a in anchors if a not in vset]


def _crossing_problems(xs: tuple[Crossing, ...], m: int, vset: set,
                       xids: list, ends: list) -> list[str]:
    out = ["crossing: duplicate crossing id"] * (len(set(xids)) != len(xids))
    clash = vset.intersection(xids)
    if clash:
        out.append(f"crossing: ids {sorted(clash)} collide with vertices")
    if not ends or max(ends) < m and not any(map(eq, ends[0::2], ends[1::2])):
        return out
    return out + [f"crossing: node {x.id} has a bad edge pair {x.edges}"
                  for x in xs if x.edges[0] == x.edges[1] or max(x.edges) >= m]


def _chain_walk(g: Graph, vset: set, xset: set, chains: list) -> list[str]:
    out = []
    for e, (ch, (u, v)) in enumerate(zip(chains, g.edges)):
        if len(ch) < 2 or ch[0] != u or ch[-1] != v:
            out.append(f"chain: edge {e} must run from {u} to {v}; got {ch}")
            continue
        inner = ch[1:-1]
        if len(set(inner)) != len(inner):
            out.append(f"chain: edge {e} visits a crossing twice")
        out += [f"chain: edge {e} passes through vertex {x} mid-curve"
                if x in vset else f"chain: edge {e} visits undeclared node {x}"
                for x in inner if x in vset or x not in xset]
    return out


def _label_walk(xs: tuple[Crossing, ...], chains: list) -> list[str]:
    on = collections.defaultdict(list)
    for e, ch in enumerate(chains):
        for node in ch[1:-1]:
            on[node].append(e)
    return [f"crossing: node {x.id} labelled {x.edges} but lies on chains "
            f"{on[x.id]}" for x in xs if on[x.id] != sorted(x.edges)]


def _rotation_problems(d: Drawing, nodes: set, chains: list) -> list[str]:
    # the dart map tests the whole level (PlanarizationMap.agrees)
    if d.planarization.agrees and d.rotation.keys() <= nodes:
        return []
    want: dict[int, list[ArcRef]] = {node: [] for node in nodes}
    for e, ch in enumerate(chains):
        for i, arc in enumerate(zip(ch, ch[1:])):
            for node in arc:
                want[node].append((e, i))
    got = {node: sorted(d.rotation.get(node, ())) for node in nodes}
    return [f"rotation: unknown node {node}"
            for node in sorted(d.rotation.keys() - nodes)] + [
        f"rotation: node {node} lists {got[node]} but its chains imply "
        f"{want[node]}" for node in sorted(nodes) if got[node] != want[node]]


def _alternation_problems(rot: dict, xids: list) -> list[str]:
    # after the rotation level a crossing lists two ends of each of its
    # edges, which alternate when its first and third ends share an edge
    owner = list(map(_FIRST, chain.from_iterable(map(rot.__getitem__, xids))))
    if owner[0::4] == owner[2::4]:
        return []
    return [f"alternation: edges do not alternate at crossing {x}"
            for x in compress(xids, map(ne, owner[0::4], owner[2::4]))]


def _euler_problems(d: Drawing, xids: list, ends: list) -> list[str]:
    g, pm, anchors = d.graph, d.planarization, d.anchors or ()
    # V - E + F is 2 - 2 genus per component, 1 for a node on no arc (no
    # dart leaves it): the sum, such nodes twice, is 2C iff all are 2
    nodes = len(g.vertices) + len(xids)
    twice = 2 * nodes - len(set(pm._tail)) - len(pm.arc_tail) + len(pm.faces)
    # components by union-find over the vertices: the anchors start as
    # one, an edge joins its ends, a crossing the first ends of its edges
    n_comp = len(g.vertices) - len(anchors[1:])
    if n_comp < 2 and twice == 2 * n_comp:  # nothing to join
        return []
    root = dict(zip(g.vertices, g.vertices))
    root.update(dict.fromkeys(anchors, *anchors[:1]))
    first = list(map(_FIRST, map(g.edges.__getitem__, ends)))
    for u, v in chain(g.edges, zip(first[0::2], first[1::2])):
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        root[u] = v
        n_comp -= u != v
    if twice == 2 * n_comp:
        return []
    for v in root:
        while root[root[v]] != root[v]:
            root[v] = root[root[v]]
    comp = {**root, **dict(zip(xids, map(root.__getitem__, first[0::2])))}
    chi = collections.Counter(comp.values())
    chi.subtract(map(comp.__getitem__, pm.arc_tail))
    chi.update(comp[pm.tail(orbit[0])] for orbit in pm.faces)
    return [f"euler: component has V-E+F = {chi[c]}, expected 2"
            for c in dict.fromkeys(map(comp.__getitem__, sorted(comp)))
            if chi[c] not in (1, 2)][:1]


# ------------------------------------------------------------- predicates


@dataclass(frozen=True)
class CrossingProfile:
    per_edge: dict[int, int]
    per_pair: dict[tuple[int, int], int]

    @property
    def total(self) -> int:
        return sum(self.per_pair.values())

    def heavy_edges(self, k: int) -> tuple[int, ...]:
        """The edges with more than k crossings; InputError for a k that
        is no non-negative integer."""
        k = _k(k)
        return tuple(sorted(e for e, c in self.per_edge.items() if c > k))

    def heavy_pair(self, k: int) -> tuple[int, int] | None:
        """The first crossing pair of edges that both have more than k
        crossings, or None."""
        heavy = set(self.heavy_edges(k))
        if len(heavy) < 2:  # a crossing pair is two edges
            return None
        return next((p for p in sorted(self.per_pair) if heavy.issuperset(p)),
                    None)

    def adjacent_pairs(self, g: Graph) -> list[tuple[int, int]]:
        """The crossing pairs of edges that share a vertex of ``g``."""
        return [p for p in sorted(self.per_pair) if g.adjacent_edges(*p)]


def crossing_profile(d: Drawing) -> CrossingProfile:
    """Per-edge and per-pair crossing counts; the drawing is validated.

    The profile is built once per drawing object and kept on it, as
    ``validate`` keeps its report, so every caller shares it and none may
    change its counts.
    """
    prof = vars(d).get("_profile")
    if prof is None:
        d.require_valid()
        per_edge = dict.fromkeys(range(d.graph.m), 0)
        per_pair: dict[tuple[int, int], int] = {}
        for x in d.crossings:
            e1, e2 = x.edges
            if e2 < e1:
                e1, e2 = e2, e1
            per_edge[e1] += 1
            per_edge[e2] += 1
            per_pair[e1, e2] = per_pair.get((e1, e2), 0) + 1
        prof = vars(d)["_profile"] = CrossingProfile(per_edge, per_pair)
    return prof


class Verdict(NamedTuple):
    """Answer of a drawing predicate: ``ok`` plus a witness when it fails.

    The truth value is ``ok``, so ``if is_simple(d):`` means what it says,
    and ``ok, witness = is_simple(d)`` still unpacks the pair.
    """

    ok: bool
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok


def is_simple(d: Drawing, check: bool = True) -> Verdict:
    """No pair crosses twice and no adjacent pair crosses.

    The witness is the lexicographically first offending pair together with
    the reason.  ``check`` has no effect; it stays for existing callers.
    """
    per_pair = crossing_profile(d).per_pair
    pairs = sorted(per_pair)
    for pair in pairs:
        if per_pair[pair] > 1:
            return Verdict(False, (pair, "pair crosses more than once"))
    for pair in pairs:
        if d.graph.adjacent_edges(*pair):
            return Verdict(False, (pair, "edges share a vertex and cross"))
    return Verdict(True)


def adjacent_crossing_pairs(d: Drawing) -> list[tuple[int, int]]:
    return crossing_profile(d).adjacent_pairs(d.graph)


def is_k_planar(d: Drawing, k: int) -> Verdict:
    """No edge carries more than k crossings.

    The witness is the first edge with more than k crossings.  Raises
    InputError for a k that is no non-negative integer.
    """
    heavy = crossing_profile(d).heavy_edges(k)
    return Verdict(False, heavy[0]) if heavy else Verdict(True)


def is_min_k_planar(d: Drawing, k: int, check: bool = True) -> Verdict:
    """Every crossing pair has a side with at most k crossings.

    The witness is the first pair of heavy edges that cross each other.
    Raises InputError for a k that is no non-negative integer.  ``check``
    has no effect; it stays for existing callers.
    """
    pair = crossing_profile(d).heavy_pair(k)
    return Verdict(True) if pair is None else Verdict(False, pair)


# ------------------------------------------------------------ restriction


def splice_chains(
    walks: Iterable[tuple[int, list[tuple[int, ArcRef, ArcRef]]]]
) -> tuple[dict[int, tuple[int, ...]], dict[tuple[int, ArcRef], ArcRef]]:
    """New chains from walks along old curves, and the arc-end renaming.

    ``walks`` pairs each new edge id with its visits in chain order, each
    ``(node, reach, leave)`` with the old ends by which the curve reaches
    and leaves the node (the first ``reach`` and last ``leave`` are not
    read).  New arc i of edge e joins visits i and i+1, and the map sends
    the ``leave`` end of the one and the ``reach`` end of the other to it.
    A generator of walks keeps one walk alive at a time, which spares the
    cyclic collector on big drawings.
    """
    chains, ends = {}, {}
    for e, walk in walks:
        chains[e] = tuple(map(_FIRST, walk))
        for i, ((a, _, leave), (b, reach, _)) in enumerate(pairwise(walk)):
            ends[a, leave] = ends[b, reach] = (e, i)
    return chains, ends


def restrict(
    d: Drawing, keep_edges: Iterable[int]
) -> tuple[Drawing, dict[int, int]]:
    """Sub-drawing induced by a set of edges.

    Kept chains lose the crossing nodes whose other edge was dropped; the
    adjacent arcs merge and rotations are rewritten accordingly.  The
    vertices are the endpoints of kept edges, and the result keeps its
    boundary only when every anchor is one of them.  Edge ids are checked
    as ``Graph`` checks vertex ids, and must be in range.  Both the input
    and the result are validated.  Returns the new drawing and the
    old-edge -> new-edge id mapping.
    """
    d.require_valid()
    keep = sorted(set(_ids(keep_edges, "keep_edges")))
    if keep and keep[-1] >= d.graph.m:
        raise InputError(f"unknown edge id {keep[-1]}")
    edge_map = {e: i for i, e in enumerate(keep)}
    new_edges = tuple(d.graph.edges[e] for e in keep)
    vkeep = set(chain.from_iterable(new_edges))
    new_vertices = tuple(v for v in d.graph.vertices if v in vkeep)
    new_graph = Graph(new_vertices, new_edges, simple=d.graph.simple)

    surviving = sorted((x for x in d.crossings if x.edges[0] in edge_map
                        and x.edges[1] in edge_map), key=_ID)
    nodes = [*new_vertices, *map(_ID, surviving)]
    kept = set(nodes)
    new_chains, ends = splice_chains(
        (i, [(node, (e, p - 1), (e, p))
             for p, node in enumerate(d.chains[e]) if node in kept])
        for i, e in enumerate(keep))
    # a node's ends on dropped edges have no new name and fall out
    new_rotation = {node: tuple(filter(None, map(ends.get, zip(
        repeat(node), d.rotation[node])))) for node in nodes}

    anchors = d.anchors if d.anchored and vkeep.issuperset(d.anchors) else None
    new_crossings = tuple(
        Crossing(x.id, (edge_map[x.edges[0]], edge_map[x.edges[1]]))
        for x in surviving)
    out = Drawing(new_graph, new_crossings, new_chains, new_rotation, anchors)
    out.require_valid()
    return out, edge_map


# ----------------------------------------------------------------- mirror


def mirror(d: Drawing) -> Drawing:
    """The reflected drawing.

    Rotations reverse; for an anchored drawing the clockwise anchor order
    reverses as well (reflection turns the disk over).
    """
    anchors = d.anchors and (d.anchors[0], *d.anchors[:0:-1])
    rot = {node: tuple(reversed(refs)) for node, refs in d.rotation.items()}
    return replace(d, rotation=rot, anchors=anchors)
