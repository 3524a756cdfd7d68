"""Turning a min-1-planar drawing into a simple one by local swaps.

A violating pair is two edges that share a vertex and still cross.  The
swap exchanges their sub-curves between the shared vertex and the
crossing, which turns the crossing into a tangency; tangencies are not
representable in this model, so the crossing node disappears outright and
the two curves pull apart.  Crossings sitting on the exchanged sub-curves
migrate to the other edge, everything else stays put.
"""

from __future__ import annotations

from itertools import repeat

from .drawings import (
    Crossing,
    Drawing,
    crossing_profile,
    splice_chains,
)
from .errors import InputError, MinkplanarError
from .graphs import _id

# --------------------------------------------------------- violating pairs


def violating_pairs(d: Drawing) -> list[tuple[int, int]]:
    """Edge pairs that share a vertex and cross, lowest ids first.

    Only defined on min-1-planar drawings; there a pair can never cross
    twice, so each listed pair meets in exactly one crossing node.
    """
    prof = crossing_profile(d)
    pair = prof.heavy_pair(1)
    if pair is not None:
        raise InputError(f"drawing is not min-1-planar (heavy pair {pair})")
    return prof.adjacent_pairs(d.graph)


# -------------------------------------------------------------- the swap


def swap_at(d: Drawing, e: int, f: int, y: int) -> Drawing:
    """Exchange the x-to-y sub-curves of e and f and delete crossing y.

    x is the vertex the two edges share.  The operation is symmetric in e
    and f.  Ids are checked as ``Graph`` checks vertex ids.  Raises when
    the edges are not adjacent, when y is not one of their crossings, or
    when they cross a second time on opposite sides of x (the swapped
    curve would then cross itself, which the planarization cannot
    express).
    """
    d.require_valid()
    g = d.graph
    e, f, y = _id(e, "e"), _id(f, "f"), _id(y, "y")
    if e == f or e >= g.m or f >= g.m:
        raise InputError("swap needs two distinct edge ids")
    shared = set(g.edges[e]) & set(g.edges[f])
    if len(shared) != 1:
        raise InputError(f"edges {e} and {f} must share exactly one vertex")
    x = shared.pop()
    at_y = d.crossing_by_id().get(y)
    if at_y is None or sorted(at_y.edges) != sorted((e, f)):
        raise InputError(f"node {y} is not a crossing of edges {e} and {f}")

    def turn(walk, edge):
        # reversed unless edge's chain starts at x: this turns a walk in
        # stored order to run from x, and a walk from x to stored order
        if d.chains[edge][0] == x:
            return walk
        return [(node, leave, reach) for node, reach, leave in walk[::-1]]

    we, wf = (turn([(node, (h, p - 1), (h, p))
                    for p, node in enumerate(d.chains[h])], h) for h in (e, f))
    ce, cf = [node for node, _, _ in we], [node for node, _, _ in wf]
    i_e, i_f = ce.index(y), cf.index(y)
    moved_e = set(ce[1:i_e])  # x-side crossings of e; they end up on f
    moved_f = set(cf[1:i_f])

    for c in d.crossings:
        if c.id != y and set(c.edges) == {e, f}:
            if (c.id in moved_e) != (c.id in moved_f):
                raise InputError(
                    "edges cross again on opposite sides of the shared "
                    "vertex; the swap would self-intersect"
                )

    # each edge runs along the other from x to just before y, then on along
    # itself from just after y: the two arcs that met at y become one
    chains, ends = splice_chains(((e, turn(wf[:i_f] + we[i_e + 1:], e)),
                                  (f, turn(we[:i_e] + wf[i_f + 1:], f))))
    chains = {**d.chains, **chains}

    def owner(edge, node):
        if edge == e and node in moved_e:
            return f
        if edge == f and node in moved_f:
            return e
        return edge

    crossings = []
    for c in d.crossings:
        if c.id == y:
            continue
        pair = (owner(c.edges[0], c.id), owner(c.edges[1], c.id))
        if pair != c.edges:
            c = Crossing(c.id, (min(pair), max(pair)))
        crossings.append(c)

    # ends of other edges keep their names
    rotation = {node: tuple(map(ends.get, zip(repeat(node), refs), refs))
                for node, refs in d.rotation.items() if node != y}

    out = Drawing(g, tuple(crossings), chains, rotation, d.anchors)
    out.require_valid()
    return out


# ----------------------------------------------------------- the main loop


def _crossing_of(d: Drawing, e: int, f: int) -> int:
    want = {e, f}
    for c in d.crossings:
        if set(c.edges) == want:
            return c.id
    raise InputError(f"edges {e} and {f} do not cross")


def simplify_min1(d: Drawing, check: bool = True,
                  trace: list | None = None) -> Drawing:
    """Swap away violating pairs until the drawing is simple.

    Picks the lowest edge-id pair each round.  Every swap deletes one
    crossing, which bounds the loop by the initial crossing count; the
    violating-pair count usually shrinks each round as well, but it can
    stall for a round when a migrated crossing lands next to another edge
    incident to the same vertex (test_simplify constructs an instance).
    An already-simple drawing is returned unchanged.  Pass a list as
    ``trace`` to record the violating pairs seen before each swap.
    ``check`` has no effect; it stays for existing callers.
    """
    pairs = violating_pairs(d)
    budget = len(d.crossings) + 1
    steps = 0
    while pairs:
        if trace is not None:
            trace.append(list(pairs))
        if steps >= budget:
            raise MinkplanarError("simplification failed to make progress")
        e, f = pairs[0]
        d = swap_at(d, e, f, _crossing_of(d, e, f))
        steps += 1
        pairs = violating_pairs(d)
    return d
