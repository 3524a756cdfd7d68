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

``validate`` checks a drawing a level at a time: anchors, crossings,
chains and the crossings on them, rotations, alternation at crossings,
and Euler's formula.  Each level tests all its items in as few passes as
it can, and only a level that fails that test is walked item by item, to
word the report as it always has been worded.  The rotation level is the
dart map itself: ``PlanarizationMap`` makes one loop over the chains for
its arcs and one over the rotation, which turns every entry into a dart,
links each node's ring and says whether those darts match the chains.

Each drawing object is validated once: ``validate`` keeps its report on
the object and ``Drawing.planarization`` keeps the one dart map, which
validation builds, so every predicate can call ``require_valid`` and only
the first call costs.  ``crossing_profile`` keeps its counts on the
object the same way, so ``is_simple``, ``is_k_planar`` and
``is_min_k_planar`` on one drawing count its crossings once between them.

Chain surgery, the cutting and splicing of chains by ``restrict`` and
``simplify.swap_at``, renames arc ends in one place, ``splice_chains``.
Each new chain comes as its node visits along old curves, every visit
with the old ends by which the curve reaches and leaves the node; a new
arc replaces the old ends at its two visits, so the arcs at a node that
no visit lists merge into one.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, replace
from itertools import chain, compress, pairwise, repeat
from operator import attrgetter, contains, countOf, eq, itemgetter, ne
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError
from .graphs import MAX_ID, Graph, _ids, _k

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

    A drawing is never mutated, ``chains`` and ``rotation`` included, and
    ``replace`` makes a new object; so each object keeps its validation
    report, its ``planarization`` and its crossing profile once they are
    computed.
    """

    graph: Graph
    crossings: tuple[Crossing, ...]
    chains: dict[int, tuple[int, ...]]
    rotation: dict[int, tuple[ArcRef, ...]]
    anchors: tuple[int, ...] | None = None

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
    entry.  ``agrees`` tells whether those darts, from tuples of integer
    ids, hit every edge dart once, each at its own tail: ``validate``'s
    rotation level, which builds the drawing's one map once the chains
    are valid.  ``_next`` is meaningful only when the map agrees, and
    ``faces`` refuses to trace it when it is not a permutation.
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
        self.agrees = self._permutes = False
        typed = at_ends = True
        try:
            for node, refs in rot.items():
                last = lead
                for ref in refs:
                    e, i = ref
                    if type(e) is bool or type(i) is bool or not (
                            0 <= e < m and 0 <= i < segs[e]):
                        return
                    typed = typed and type(ref) is tuple
                    dart = 2 * (first[e] + i)  # it leaves its arc's tail
                    if tail[dart] != node:
                        dart += 1
                        at_ends = at_ends and tail[dart] == node
                    nxt[last] = last = dart
                nxt[last] = nxt[lead]
                k = pos.get(node)
                if k is not None and last != lead:
                    nxt[2 * k], nxt[last] = nxt[last], back[k]
        except (TypeError, ValueError):  # no pair, or a float id
            return
        # every listed dart has a successor: with as many entries as edge
        # darts, each is listed once and ``_next`` is a permutation
        del nxt[lead]
        once = -1 not in nxt and sum(map(len, rot.values())) == lead - 2 * b
        self._permutes = once and len(pos) == b
        self.agrees = typed and once and at_ends

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

    The checks run once per drawing object, which keeps the report.  They
    go a level at a time, as the module docstring says, and a level with a
    fault ends the report where it always has.
    """
    report = vars(d).get("_problems")
    if report is None:
        report = vars(d)["_problems"] = tuple(_find_problems(d))
    return list(report)


def _find_problems(d: Drawing) -> list[str]:
    g, vset, xs = d.graph, set(d.graph.vertices), d.crossings
    m = len(g.edges)
    xids, pairs = list(map(_ID, xs)), list(map(_EDGES, xs))
    try:
        ends = list(chain.from_iterable(pairs))
    except TypeError:  # a pair that is no sequence: the crossing level says
        ends = None
    problems = _anchor_problems(d.anchors, vset) if d.anchored else []
    cover = d.chains.keys() == set(range(m))
    chains = list(map(d.chains.__getitem__, range(m))) if cover else []
    size = sum(map(len, chains))
    # ids follow graphs._id: a float or bool equals the int it stands in
    # for, so every id in the crossings and chains is tested for type int
    # in one pass; an id that does not hash, reported as a bad one, takes
    # no part in the tests of identity
    typed = ends is not None and countOf(
        map(type, chain(xids, ends, *chains)), int) == (
        len(xids) + len(ends) + size)
    keys = xids if typed else list(filter(_hashable, xids))
    problems += _crossing_problems(xs, m, vset, keys, typed, pairs, ends)
    if not cover:
        return problems + ["chain: chains must cover exactly the edge ids"]
    # chains run between their edges' ends, and the crossings' labels fill
    # every inner slot, so each inner node is a crossing met once per chain
    if problems or not (
            typed and all(chains)
            and all(map(eq, map(_ENDS, chains), g.edges))
            and size == 2 * m + len(ends)
            and all(map(contains, map(chains.__getitem__, ends),
                        chain.from_iterable(zip(xids, xids))))):
        problems += _chain_walk(g, vset, set(keys), chains)
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
                       keys: list, typed: bool, pairs: list,
                       ends: list | None) -> list[str]:
    # ``keys`` are the ids that hash, all of them when ``typed`` says that
    # every id is an int
    out = ["crossing: duplicate crossing id"] * (len(set(keys)) != len(keys))
    clash = vset.intersection(keys)
    if clash:
        out.append(f"crossing: ids {sorted(clash)} collide with vertices")
    # a pair is a tuple here; the walk below takes any sequence, but not a
    # set or an iterator, whose order is no pair's
    if typed and (
            set(map(type, pairs)) <= {tuple}
            and 0 <= min(keys, default=0) and max(keys, default=0) <= MAX_ID
            and set(map(len, pairs)) <= {2}
            and all(map(range(m).__contains__, ends))
            and not any(map(eq, ends[0::2], ends[1::2]))):
        return out
    out += [f"crossing: node {x.id!r} has a bad id" for x in xs
            if not (_integer(x.id) and 0 <= x.id <= MAX_ID)]
    return out + [f"crossing: node {x.id} has a bad edge pair "
                  f"{_pair_text(x.edges)}"
                  for x in xs if not _edge_pair(x.edges, m)]


def _pair_text(edges: Any) -> str:
    # an iterator is named by its type: its repr holds its address, which
    # changes from run to run
    if isinstance(edges, Iterator):
        return f"<{type(edges).__name__}>"
    return f"{edges}"


def _edge_pair(edges: Any, m: int) -> bool:
    # a sequence of two distinct edge ids, whatever ``edges`` is
    if not isinstance(edges, Sequence):
        return False
    try:
        e, f = edges
    except ValueError:
        return False
    return e != f and all(_integer(x) and 0 <= x < m for x in (e, f))


def _integer(v: Any) -> bool:
    # an integer as ``graphs._id`` reads ids: numpy's too, but not a bool
    return type(v) is not bool and hasattr(type(v), "__index__")


def _hashable(v: Any) -> bool:
    try:
        hash(v)
    except TypeError:
        return False
    return True


def _chain_walk(g: Graph, vset: set, xset: set, chains: list) -> list[str]:
    out = []
    for e, (ch, (u, v)) in enumerate(zip(chains, g.edges)):
        bad = [x for x in ch if not _integer(x)]
        if bad:
            out += [f"chain: edge {e} has a bad node id {x!r}" for x in bad]
            continue
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
    got = {node: _sorted(d.rotation.get(node, ())) for node in nodes}
    # a float or bool id equals the integer the chains imply
    odd = {node for node in nodes for r in got[node]
           if isinstance(r, tuple) and not all(map(_integer, r))}
    return [f"rotation: unknown node {node}"
            for node in sorted(d.rotation.keys() - nodes)] + [
        f"rotation: node {node} lists {got[node]} but its chains imply "
        f"{want[node]}" for node in sorted(nodes)
        if got[node] != want[node] or node in odd]


def _sorted(refs: Iterable) -> list:
    # entries that do not compare, such as a list beside a tuple, can
    # match no chain, so they are reported as listed
    try:
        return sorted(refs)
    except TypeError:
        return list(refs)


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
