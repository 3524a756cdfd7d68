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

The patterns are generated one at a time, by total crossings and then
lexicographically, and only one is held at once.  They are filled in
pair by pair, and a pair's count only adds to its two edges' loads, so a
partial pattern in which a crossing pair already has both edges above k
is dropped with every completion: the cut is exact.  Each gadget goes to
the package's own planarity test (``planarity.is_planar``, Brandes'
left-right test) as int adjacency sets.  A lens's parallel arcs merge
there, which never changes whether the gadget is planar.
"""

from __future__ import annotations

import itertools
import time

from .errors import InputError
from .graphs import AnchoredGraph, _k
from .planarity import is_planar
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

    stats = SearchStats(pair_cap=cap)
    t0 = time.perf_counter()
    for counts in _patterns(pairs, choices, g.m, k):
        if _realizable(ag, pairs, counts, stats):
            stats.routes += 1
            stats.seconds = time.perf_counter() - t0
            return SearchOutcome(status=Status.FOUND, certificate=None,
                                 stats=stats)
    stats.seconds = time.perf_counter() - t0
    return SearchOutcome(status=Status.EXHAUSTED_UNSAT, certificate=None,
                         stats=stats)


def _patterns(pairs, choices, m: int, k: int):
    """Count patterns over ``choices``, one at a time, by total and then
    lexicographically; none in which a crossing pair has both edges above
    ``k``.

    Patterns are filled in pair by pair, one total at a time.  A prefix
    goes on only while the pairs after it can still make the total, and
    while none of its crossing pairs is overloaded: loads only grow along
    a prefix, so an overloaded one has no completion to keep.
    """
    n = len(pairs)
    # reach[i]: the totals that the counts of pairs i, i+1, ... can make
    reach = [{0}]
    for allowed in reversed(choices):
        reach.append({t + c for t in reach[-1] for c in allowed})
    reach.reverse()
    counts = [0] * n
    load = [0] * m

    def fill(i: int, left: int):
        if i == n:
            yield tuple(counts)
            return
        e, f = pairs[i]
        for c in choices[i]:
            if left - c not in reach[i + 1]:
                continue
            counts[i] = c
            load[e] += c
            load[f] += c
            if not c or not any(counts[j] and load[a] > k and load[b] > k
                                for j, (a, b) in enumerate(pairs[:i + 1])):
                yield from fill(i + 1, left - c)
            load[e] -= c
            load[f] -= c

    for total in sorted(reach[0]):
        yield from fill(0, total)


def _realizable(ag: AnchoredGraph, pairs, counts, stats: SearchStats) -> bool:
    """Whether some order of the crossings along every edge gives a planar
    gadget; each order tried counts as a search node."""
    g = ag.graph
    node_seq = (max(g.vertices) + 1) if g.vertices else 0
    # the crossing nodes on each edge, in the order the pairs made them
    slots: list[list[int]] = [[] for _ in range(g.m)]
    for (e, f), c in zip(pairs, counts):
        for _ in range(c):
            slots[e].append(node_seq)
            slots[f].append(node_seq)
            node_seq += 1

    apex = node_seq + len(ag.anchors)
    wheel: list[set[int]] = [set() for _ in range(apex + 1)]
    for i, a in enumerate(ag.anchors):
        s = node_seq + i
        b = ag.anchors[(i + 1) % len(ag.anchors)]
        for x, y in ((a, s), (s, b), (apex, a), (apex, s)):
            wheel[x].add(y)
            wheel[y].add(x)

    orders = [itertools.permutations(nodes) for nodes in slots]
    for combo in itertools.product(*orders):
        stats.nodes += 1
        adj = [set(ws) for ws in wheel]
        for (u, v), inner in zip(g.edges, combo):
            path = (u, *inner, v)
            for x, y in zip(path, path[1:]):
                adj[x].add(y)
                adj[y].add(x)
        if is_planar(adj):
            return True
    return False
