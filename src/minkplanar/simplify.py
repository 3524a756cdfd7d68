"""Turning a min-1-planar drawing into a simple one by local swaps.

A violating pair is two edges that share a vertex and still cross.  The
swap exchanges their sub-curves between the shared vertex and the
crossing, which turns the crossing into a tangency; tangencies are not
representable in this model, so the crossing node disappears outright and
the two curves pull apart.  Crossings sitting on the exchanged sub-curves
migrate to the other edge, everything else stays put.
"""

from __future__ import annotations

from .drawings import (
    Crossing,
    Drawing,
    adjacent_crossing_pairs,
    crossing_profile,
    is_min_k_planar,
)
from .errors import InputError, MinkplanarError

# --------------------------------------------------------- violating pairs


def violating_pairs(d: Drawing) -> list[tuple[int, int]]:
    """Edge pairs that share a vertex and cross, lowest ids first.

    Only defined on min-1-planar drawings; there a pair can never cross
    twice, so each listed pair meets in exactly one crossing node.
    """
    verdict = is_min_k_planar(d, 1)
    if not verdict:
        raise InputError(
            f"drawing is not min-1-planar (heavy pair {verdict.witness})")
    return adjacent_crossing_pairs(d)


# -------------------------------------------------------------- the swap


def _oriented(chain, from_node: int) -> tuple[list[int], bool]:
    if chain[0] == from_node:
        return list(chain), False
    return list(reversed(chain)), True


def swap_at(d: Drawing, e: int, f: int, y: int) -> Drawing:
    """Exchange the x-to-y sub-curves of e and f and delete crossing y.

    x is the vertex the two edges share.  The operation is symmetric in e
    and f.  Raises when the edges are not adjacent, when y is not one of
    their crossings, or when they cross a second time on opposite sides of
    x (the swapped curve would then cross itself, which the planarization
    cannot express).
    """
    d.require_valid()
    g = d.graph
    if e == f or not (0 <= e < g.m) or not (0 <= f < g.m):
        raise InputError("swap needs two distinct edge ids")
    shared = set(g.edges[e]) & set(g.edges[f])
    if len(shared) != 1:
        raise InputError(f"edges {e} and {f} must share exactly one vertex")
    x = shared.pop()
    at_y = d.crossing_by_id().get(y)
    if at_y is None or sorted(at_y.edges) != sorted((e, f)):
        raise InputError(f"node {y} is not a crossing of edges {e} and {f}")

    ce, rev_e = _oriented(d.chains[e], x)
    cf, rev_f = _oriented(d.chains[f], x)
    i_e = ce.index(y)
    i_f = cf.index(y)
    moved_e = set(ce[1:i_e])  # x-side crossings of e; they end up on f
    moved_f = set(cf[1:i_f])

    for c in d.crossings:
        if c.id != y and set(c.edges) == {e, f}:
            if (c.id in moved_e) != (c.id in moved_f):
                raise InputError(
                    "edges cross again on opposite sides of the shared "
                    "vertex; the swap would self-intersect"
                )

    new_e = cf[:i_f] + ce[i_e + 1:]
    new_f = ce[:i_e] + cf[i_f + 1:]
    Le, Lf = len(ce), len(cf)
    Lne, Lnf = len(new_e), len(new_f)

    # Arc-end renaming.  Oriented arc j of an edge joins list positions j
    # and j+1; stored indices count from the edge tuple's first endpoint,
    # hence the reversal arithmetic.  The two arcs meeting at y merge with
    # their continuation on the other edge.
    def ref(edge, length, reverse, j):
        return (edge, j if not reverse else length - 2 - j)

    endmap: dict[tuple[int, tuple[int, int]], tuple[int, int]] = {}

    def register(old, new, ends):
        for node in ends:
            endmap[(node, old)] = new

    for j in range(Le - 1):
        old = ref(e, Le, rev_e, j)
        if j <= i_e - 2:
            register(old, ref(f, Lnf, rev_f, j), (ce[j], ce[j + 1]))
        elif j == i_e - 1:
            register(old, ref(f, Lnf, rev_f, i_e - 1), (ce[j],))
        elif j == i_e:
            register(old, ref(e, Lne, rev_e, i_f - 1), (ce[j + 1],))
        else:
            register(old, ref(e, Lne, rev_e, i_f + j - i_e - 1),
                     (ce[j], ce[j + 1]))
    for j in range(Lf - 1):
        old = ref(f, Lf, rev_f, j)
        if j <= i_f - 2:
            register(old, ref(e, Lne, rev_e, j), (cf[j], cf[j + 1]))
        elif j == i_f - 1:
            register(old, ref(e, Lne, rev_e, i_f - 1), (cf[j],))
        elif j == i_f:
            register(old, ref(f, Lnf, rev_f, i_e - 1), (cf[j + 1],))
        else:
            register(old, ref(f, Lnf, rev_f, i_e + j - i_f - 1),
                     (cf[j], cf[j + 1]))

    chains = dict(d.chains)
    chains[e] = tuple(new_e) if not rev_e else tuple(reversed(new_e))
    chains[f] = tuple(new_f) if not rev_f else tuple(reversed(new_f))

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

    rotation = {}
    for node, refs in d.rotation.items():
        if node == y:
            continue
        rotation[node] = tuple(endmap.get((node, r), r) for r in refs)

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
    budget = crossing_profile(d).total + 1
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
