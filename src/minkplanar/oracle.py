"""Brute-force existence oracle for tiny anchored instances.

Completely independent of the incremental search: it enumerates abstract
crossing patterns (how often each edge pair crosses), then every order of
crossings along every edge, and asks whether the resulting planarization
can be drawn in the disk with the anchors in the prescribed clockwise
order.  That last question reduces to a plain planarity test: take the
planarization, add the anchor cycle with one subdivision point per gap,
and join an outside apex to every cycle vertex.  The wheel pins the
boundary, so the gadget is planar exactly when the candidate is drawable
(up to relocating pendants hanging off a single anchor, and up to a
mirror image, neither of which changes whether a drawing exists).

Two pattern-level cuts keep the enumeration honest and small: a pair of
boundary-to-boundary curves whose endpoints interleave around the circle
must cross an odd number of times, and patterns whose crossing counts
already violate the requested predicates need no drawing at all.
"""

from __future__ import annotations

import itertools
import time

from .errors import InputError
from .graphs import AnchoredGraph, _k
from .search import SearchOutcome, SearchStats, Status

MAX_ORACLE_EDGES = 5


def _interleaved(anchor_pos: dict, e_ends, f_ends) -> bool:
    a, b = sorted(anchor_pos[x] for x in e_ends)
    c, d = (anchor_pos[x] for x in f_ends)
    return (a < c < b) != (a < d < b)


def brute_oracle(ag: AnchoredGraph, k: int, require_simple: bool = False)\
        -> SearchOutcome:
    """Same statuses as search_anchored, by exhaustive pattern testing."""
    k = _k(k)
    g = ag.graph
    if g.m > MAX_ORACLE_EDGES:
        raise InputError(
            f"the brute oracle refuses instances with more than "
            f"{MAX_ORACLE_EDGES} edges")
    anchor_pos = {a: i for i, a in enumerate(ag.anchors)}
    if any(len(c) > 1 and not ag.anchor_set.intersection(c)
           for c in g.components()):
        raise InputError(
            "a component with edges contains no anchor and cannot be "
            "routed in the disk")

    pairs = list(itertools.combinations(range(g.m), 2))
    cap = 1 if require_simple else 2
    choices = []
    for e, f in pairs:
        ue, ve = g.edges[e]
        uf, vf = g.edges[f]
        shared = {ue, ve} & {uf, vf}
        if shared:
            allowed = (0,) if require_simple else (0, 1, 2)
        elif all(x in anchor_pos for x in (ue, ve, uf, vf)):
            if _interleaved(anchor_pos, (ue, ve), (uf, vf)):
                allowed = (1,)
            else:
                allowed = (0,) if require_simple else (0, 2)
        else:
            allowed = tuple(range(cap + 1))
        choices.append(allowed)

    patterns = sorted(itertools.product(*choices), key=sum)
    stats = SearchStats(pair_cap=cap)
    t0 = time.perf_counter()
    for counts in patterns:
        per_edge = [0] * g.m
        for (e, f), c in zip(pairs, counts):
            per_edge[e] += c
            per_edge[f] += c
        if any(c and per_edge[e] > k and per_edge[f] > k
               for (e, f), c in zip(pairs, counts)):
            continue
        if _realizable(ag, pairs, counts, stats):
            stats.routes += 1
            stats.seconds = time.perf_counter() - t0
            return SearchOutcome(status=Status.FOUND, certificate=None,
                                 stats=stats)
    stats.seconds = time.perf_counter() - t0
    return SearchOutcome(status=Status.EXHAUSTED_UNSAT, certificate=None,
                         stats=stats)


def _realizable(ag: AnchoredGraph, pairs, counts, stats: SearchStats) -> bool:
    # networkx only serves this planarity test; importing it here keeps it
    # out of every ``import minkplanar``
    import networkx as nx

    g = ag.graph
    node_seq = (max(g.vertices) + 1) if g.vertices else 0
    slots: dict[int, list] = {e: [] for e in range(g.m)}
    node_of = {}
    for (e, f), c in zip(pairs, counts):
        for copy in range(c):
            node_of[(e, f, copy)] = node_seq
            node_seq += 1
            slots[e].append((f, copy))
            slots[f].append((e, copy))

    per_edge_orders = []
    for e in range(g.m):
        per_edge_orders.append(list(itertools.permutations(slots[e])))

    sub_base = node_seq
    apex = sub_base + len(ag.anchors)
    boundary = []
    for i, a in enumerate(ag.anchors):
        s = sub_base + i
        b = ag.anchors[(i + 1) % len(ag.anchors)]
        boundary += [(a, s), (s, b), (apex, a), (apex, s)]

    for combo in itertools.product(*per_edge_orders):
        stats.nodes += 1
        gadget = nx.Graph()
        gadget.add_nodes_from(g.vertices)
        for e in range(g.m):
            u, v = g.edges[e]
            path = [u]
            for f, copy in combo[e]:
                key = (e, f, copy) if (e, f, copy) in node_of else (f, e, copy)
                path.append(node_of[key])
            path.append(v)
            gadget.add_edges_from(zip(path, path[1:]))
        gadget.add_edges_from(boundary)
        if nx.check_planarity(gadget, counterexample=False)[0]:
            return True
    return False
