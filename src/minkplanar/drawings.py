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
boundary arcs first, then each edge's segments in edge order) and gives
arc a the darts 2a and 2a+1, one leaving each end.  With clockwise
rotations the face to the left of a dart is traced by following "next
clockwise after the twin" (``face_orbit``).  For a valid anchored drawing
the face to the left of the forward boundary darts is the region outside
the disk; the map splices those darts at the two ends of each anchor's
rotation, so their orbit is exactly the forward darts by construction.
The existence search's ``arrangement.Arrangement`` keeps its darts in the
same numbering and traces its faces with the same ``face_orbit``.

Each drawing object is validated once: ``validate`` keeps its report on
the object and ``Drawing.planarization`` keeps the one dart map, so every
predicate can call ``require_valid`` and only the first call costs.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Iterable, NamedTuple

from .errors import InputError
from .graphs import Graph, components

ArcRef = tuple[int, int]


@dataclass(frozen=True)
class Crossing:
    id: int
    edges: tuple[int, int]


@dataclass(frozen=True, eq=False)
class Drawing:
    """A combinatorial drawing of ``graph``, possibly anchored.

    A drawing is never mutated, ``chains`` and ``rotation`` included, and
    ``replace`` makes a new object; so each object keeps its validation
    report and its ``planarization`` once they are computed.
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

    def nodes(self) -> tuple[int, ...]:
        return tuple(self.graph.vertices) + self.crossing_ids()

    def require_valid(self) -> None:
        problems = validate(self)
        if problems:
            raise InputError("invalid drawing: " + "; ".join(problems[:8]))

    @cached_property
    def planarization(self) -> PlanarizationMap:
        """The drawing's dart map, built on first use and kept."""
        return PlanarizationMap(self)


# ----------------------------------------------------------- the dart map
#
# Arcs are integers.  With b anchors, arcs 0 .. b-1 are the boundary arcs,
# arc i running from anchor i to anchor i+1; each edge's chain arcs follow
# in edge order, segment i of edge e being arc ``first_arc[e] + i``.  Dart
# 2a leaves arc a's tail and dart 2a+1 its head, so a dart's twin is d ^ 1.


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

    The drawing's chains and rotations must agree; ``validate`` checks
    that before it builds a map.
    """

    def __init__(self, d: Drawing):
        anchors = d.anchors or ()
        b = len(anchors)
        tails, heads = list(anchors), list(anchors[1:] + anchors[:1])
        self.first_arc: list[int] = []
        for e in range(d.graph.m):
            chain = d.chains[e]
            self.first_arc.append(len(tails))
            tails += chain[:-1]
            heads += chain[1:]
        self.arc_tail, self.arc_head = tails, heads
        self._tail = [node for arc in zip(tails, heads) for node in arc]

        # next clockwise dart around each node, boundary darts spliced in
        # at the anchors
        self._next = [0] * len(self._tail)
        anchor_at = {a: i for i, a in enumerate(anchors)}
        for node in set(d.rotation).union(anchors):
            arcs = [self.first_arc[e] + i for e, i in d.rotation.get(node, ())]
            darts = [2 * a + (tails[a] != node) for a in arcs]
            i = anchor_at.get(node)
            if i is not None:
                darts = [2 * i, *darts, 2 * ((i - 1) % b) + 1]
            for x, y in zip(darts, darts[1:] + darts[:1]):
                self._next[x] = y

    def tail(self, dart: int) -> int:
        return self._tail[dart]

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Every face as its dart orbit, traced once and kept.

        Orbits come in the order of their least dart and start there, so
        an anchored drawing's forward boundary darts lead.
        """
        seen = bytearray(len(self._next))
        out = []
        for start in range(len(self._next)):
            if not seen[start]:
                orbit = face_orbit(self._next, start)
                for dart in orbit:
                    seen[dart] = 1
                out.append(tuple(orbit))
        return tuple(out)


# ------------------------------------------------------------- validation


def validate(d: Drawing) -> list[str]:
    """Well-formedness report; an empty list means the drawing is valid.

    The checks run once per drawing object, which keeps the report.
    """
    report = vars(d).get("_problems")
    if report is None:
        report = vars(d)["_problems"] = tuple(_find_problems(d))
    return list(report)


def _find_problems(d: Drawing) -> list[str]:
    problems: list[str] = []
    g = d.graph
    vset = set(g.vertices)

    # anchors
    if d.anchored:
        if len(d.anchors) < 2:
            problems.append("boundary: an anchored drawing needs >= 2 anchors")
        if len(set(d.anchors)) != len(d.anchors):
            problems.append("boundary: repeated anchor")
        for a in d.anchors:
            if a not in vset:
                problems.append(f"boundary: anchor {a} is not a vertex")

    # crossings
    xids = [x.id for x in d.crossings]
    if len(set(xids)) != len(xids):
        problems.append("crossing: duplicate crossing id")
    clash = set(xids) & vset
    if clash:
        problems.append(f"crossing: ids {sorted(clash)} collide with vertices")
    by_id = {}
    for x in d.crossings:
        by_id[x.id] = x
        e1, e2 = x.edges
        if e1 == e2 or not (0 <= e1 < g.m) or not (0 <= e2 < g.m):
            problems.append(f"crossing: node {x.id} has a bad edge pair {x.edges}")

    # chains
    if sorted(d.chains) != list(range(g.m)):
        problems.append("chain: chains must cover exactly the edge ids")
        return problems
    seen_at: dict[int, list[int]] = collections.defaultdict(list)
    for e in range(g.m):
        chain = d.chains[e]
        u, v = g.edges[e]
        if len(chain) < 2 or chain[0] != u or chain[-1] != v:
            problems.append(
                f"chain: edge {e} must run from {u} to {v}; got {chain}"
            )
            continue
        inner = chain[1:-1]
        if len(set(inner)) != len(inner):
            problems.append(f"chain: edge {e} visits a crossing twice")
        for node in inner:
            if node in vset:
                problems.append(
                    f"chain: edge {e} passes through vertex {node} mid-curve"
                )
            elif node not in by_id:
                problems.append(f"chain: edge {e} visits undeclared node {node}")
            else:
                seen_at[node].append(e)
    if problems:
        return problems

    for x in d.crossings:
        if sorted(seen_at.get(x.id, [])) != sorted(x.edges):
            problems.append(
                f"crossing: node {x.id} labelled {x.edges} but lies on chains "
                f"{sorted(seen_at.get(x.id, []))}"
            )

    # rotations: each node lists exactly the arc ends its chains imply;
    # those come out sorted, as edges and segments are taken in order
    all_nodes = vset | set(xids)
    expect: dict[int, list[ArcRef]] = {node: [] for node in all_nodes}
    for e in range(g.m):
        chain = d.chains[e]
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            ref = (e, i)
            expect[a].append(ref)
            expect[b].append(ref)
    for node in sorted(set(d.rotation) - all_nodes):
        problems.append(f"rotation: unknown node {node}")
    for node in sorted(all_nodes):
        want = expect[node]
        got = sorted(d.rotation.get(node, ()))
        if want != got:
            problems.append(
                f"rotation: node {node} lists {got} but its chains "
                f"imply {want}"
            )
    if problems:
        return problems

    # strict alternation: the checks above leave each crossing exactly
    # two ends of each of its two chains
    for x in d.crossings:
        owners = [e for e, _ in d.rotation[x.id]]
        if owners[0] == owners[1] or owners[1] == owners[2]:
            problems.append(
                f"alternation: edges do not alternate at crossing {x.id}"
            )

    if problems:
        return problems

    # face structure
    pm = d.planarization
    adj: dict[int, list[int]] = {node: [] for node in sorted(d.nodes())}
    for a, b in zip(pm.arc_tail, pm.arc_head):
        adj[a].append(b)
        adj[b].append(a)
    comp = {
        node: c
        for c, nodes in enumerate(components(adj, adj.__getitem__))
        for node in nodes
    }
    n_comp = max(comp.values()) + 1 if comp else 0
    v_cnt = [0] * n_comp
    e_cnt = [0] * n_comp
    f_cnt = [0] * n_comp
    for c in comp.values():
        v_cnt[c] += 1
    for a in pm.arc_tail:
        e_cnt[comp[a]] += 1
    for orbit in pm.faces:
        f_cnt[comp[pm.tail(orbit[0])]] += 1
    for c in range(n_comp):
        if e_cnt[c] == 0:
            f_cnt[c] += 1
        if v_cnt[c] - e_cnt[c] + f_cnt[c] != 2:
            problems.append(
                "euler: component has V-E+F = "
                f"{v_cnt[c] - e_cnt[c] + f_cnt[c]}, expected 2"
            )
            break
    return problems


# ------------------------------------------------------------- predicates


@dataclass(frozen=True)
class CrossingProfile:
    per_edge: dict[int, int]
    per_pair: dict[tuple[int, int], int]

    @property
    def total(self) -> int:
        return sum(self.per_pair.values())

    def heavy_edges(self, k: int) -> tuple[int, ...]:
        """The edges with more than k crossings; InputError for k < 0."""
        if k < 0:
            raise InputError("k must be non-negative")
        return tuple(sorted(e for e, c in self.per_edge.items() if c > k))


def crossing_profile(d: Drawing) -> CrossingProfile:
    """Per-edge and per-pair crossing counts; the drawing is validated."""
    d.require_valid()
    per_edge = {e: 0 for e in range(d.graph.m)}
    per_pair: dict[tuple[int, int], int] = collections.defaultdict(int)
    for x in d.crossings:
        e1, e2 = sorted(x.edges)
        per_edge[e1] += 1
        per_edge[e2] += 1
        per_pair[(e1, e2)] += 1
    return CrossingProfile(per_edge, dict(per_pair))


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
    prof = crossing_profile(d)
    for pair in sorted(prof.per_pair):
        if prof.per_pair[pair] > 1:
            return Verdict(False, (pair, "pair crosses more than once"))
    for pair in sorted(prof.per_pair):
        if d.graph.adjacent_edges(*pair):
            return Verdict(False, (pair, "edges share a vertex and cross"))
    return Verdict(True)


def adjacent_crossing_pairs(d: Drawing) -> list[tuple[int, int]]:
    prof = crossing_profile(d)
    return [p for p in sorted(prof.per_pair) if d.graph.adjacent_edges(*p)]


def is_k_planar(d: Drawing, k: int) -> Verdict:
    """No edge carries more than k crossings.

    The witness is the first edge with more than k crossings.
    """
    heavy = crossing_profile(d).heavy_edges(k)
    return Verdict(False, heavy[0]) if heavy else Verdict(True)


def is_min_k_planar(d: Drawing, k: int, check: bool = True) -> Verdict:
    """Every crossing pair has a side with at most k crossings.

    The witness is the first pair of heavy edges that cross each other.
    ``check`` has no effect; it stays for existing callers.
    """
    prof = crossing_profile(d)
    heavy = set(prof.heavy_edges(k))
    for (e1, e2) in sorted(prof.per_pair):
        if e1 in heavy and e2 in heavy:
            return Verdict(False, (e1, e2))
    return Verdict(True)


# ------------------------------------------------------------ restriction


def restrict(
    d: Drawing, keep_edges: Iterable[int]
) -> tuple[Drawing, dict[int, int]]:
    """Sub-drawing induced by a set of edges.

    Kept chains lose the crossing nodes whose other edge was dropped; the
    adjacent arcs merge and rotations are rewritten accordingly.  The
    vertices are the endpoints of kept edges, and the result keeps its
    boundary only when every anchor is one of them.  Both the input and
    the result are validated.  Returns the new drawing and the old-edge ->
    new-edge id mapping.
    """
    d.require_valid()
    keep = sorted(set(keep_edges))
    for e in keep:
        if not 0 <= e < d.graph.m:
            raise InputError(f"unknown edge id {e}")
    vkeep = {v for e in keep for v in d.graph.edges[e]}

    new_vertices = tuple(v for v in d.graph.vertices if v in vkeep)
    edge_map = {e: i for i, e in enumerate(keep)}
    new_edges = tuple(d.graph.edges[e] for e in keep)
    new_graph = Graph(new_vertices, new_edges, simple=d.graph.simple)

    keep_set = set(keep)
    surviving = {
        x.id: x for x in d.crossings
        if x.edges[0] in keep_set and x.edges[1] in keep_set
    }

    new_chains: dict[int, tuple[int, ...]] = {}
    token_map: dict[tuple[int, ArcRef], ArcRef] = {}
    for e in keep:
        old_chain = d.chains[e]
        last = len(old_chain) - 1
        kept_pos = [
            p for p, node in enumerate(old_chain)
            if p in (0, last) or node in surviving
        ]
        new_chain = tuple(old_chain[p] for p in kept_pos)
        ne = edge_map[e]
        new_chains[ne] = new_chain
        for q, p in enumerate(kept_pos):
            node = old_chain[p]
            if p > 0:
                token_map[(node, (e, p - 1))] = (ne, q - 1)
            if p < last:
                token_map[(node, (e, p))] = (ne, q)

    new_rotation: dict[int, tuple[ArcRef, ...]] = {}
    for node in list(new_vertices) + sorted(surviving):
        refs = d.rotation.get(node, ())
        mapped = []
        for ref in refs:
            key = (node, ref)
            if key in token_map:
                mapped.append(token_map[key])
        new_rotation[node] = tuple(mapped)

    anchors = None
    if d.anchored and all(a in vkeep for a in d.anchors):
        anchors = d.anchors
    new_crossings = tuple(
        Crossing(x.id, (edge_map[x.edges[0]], edge_map[x.edges[1]]))
        for x in sorted(surviving.values(), key=lambda x: x.id)
    )
    out = Drawing(new_graph, new_crossings, new_chains, new_rotation, anchors)
    out.require_valid()
    return out, edge_map


# ----------------------------------------------------- equality and mirror


def canonical(d: Drawing) -> Drawing:
    """Normal form: interior rotations rotated to start at their least entry.

    Anchor rotations are linear (anchored) so they are left alone; for an
    unanchored drawing every rotation is cyclic and gets normalised.
    """
    fixed = set(d.anchors or ())
    rot = {}
    for node, refs in d.rotation.items():
        if node in fixed or not refs:
            rot[node] = tuple(refs)
            continue
        k = min(range(len(refs)), key=lambda i: refs[i])
        rot[node] = tuple(refs[k:] + refs[:k])
    crossings = tuple(sorted(d.crossings, key=lambda x: x.id))
    return replace(d, rotation=rot, crossings=crossings)


def drawings_equal(d1: Drawing, d2: Drawing) -> bool:
    a, b = canonical(d1), canonical(d2)
    return (
        a.graph == b.graph
        and a.anchors == b.anchors
        and a.crossings == b.crossings
        and a.chains == b.chains
        and a.rotation == b.rotation
    )


def mirror(d: Drawing) -> Drawing:
    """The reflected drawing.

    Rotations reverse; for an anchored drawing the clockwise anchor order
    reverses as well (reflection turns the disk over).
    """
    anchors = None
    if d.anchored:
        anchors = (d.anchors[0],) + tuple(reversed(d.anchors[1:]))
    rot = {node: tuple(reversed(refs)) for node, refs in d.rotation.items()}
    return replace(d, rotation=rot, anchors=anchors)
