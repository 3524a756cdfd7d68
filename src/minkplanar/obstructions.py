"""Counting obstruction and planar sub-amplification extraction.

Both operations look at a drawing of an amplified graph through its
``EdgeClassMap``, and both read it through one map, built once per call
from the drawing's crossing pairs and the class map's half owners: each
double edge maps to the set of double edges that cross one of its halves,
and a double is in its own set when its two halves cross each other.  The
obstruction detector searches for two bundles of double edges, drawn from
two different original edges, that cross bundle against bundle; once both
bundles reach size 2k+1 a counting argument rules out min-k-planarity,
and the detector double-checks that verdict before handing the witness
back.  The extractor goes the other way and tries to salvage a
crossing-free sub-amplification.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .drawings import Drawing, crossing_profile, is_min_k_planar, restrict
from .errors import InputError, MinkplanarError
from .graphs import DoubleEdge, EdgeClassMap, _id, _k

# --------------------------------------------------------------- helpers


def _crossing_doubles(d: Drawing,
                      classes: EdgeClassMap) -> dict[DoubleEdge, set[DoubleEdge]]:
    """Each double edge -> the double edges crossing one of its halves;
    validates ``d`` through ``crossing_profile``."""
    double = {h: classes.by_edge[e][c]
              for h, (e, c, _) in classes.half_owner.items()}
    out: dict[DoubleEdge, set[DoubleEdge]] = {
        de: set() for _, _, de in classes.double_edges()}
    for a, b in crossing_profile(d).per_pair:
        if a in double and b in double:
            out[double[a]].add(double[b])
            out[double[b]].add(double[a])
    return out


# ---------------------------------------------------- counting obstruction


def biclique_obstruction(
    d: Drawing,
    k: int,
    classes: EdgeClassMap,
) -> Optional[tuple[tuple[DoubleEdge, ...], tuple[DoubleEdge, ...]]]:
    """Search for the bundle-against-bundle counting obstruction.

    Looks for sets D_1, D_2 of double edges coming from two distinct
    original edges such that |D_1| >= 2k+1, |D_2| >= 2k+1 and every member
    of D_1 crosses every member of D_2.  Any such pair forces some edge
    past k crossings on both sides of a crossing, so the drawing cannot be
    min-k-planar; the routine asserts that conclusion on every witness it
    returns.  Exhaustive over (2k+1)-subsets of each class, which is fine
    for the small multiplicities the gadgets use.

    Returns (D_1, D_2) or None when the rule does not fire.  Raises
    InputError for a k that is no non-negative integer.
    """
    k = _k(k)
    crosses = _crossing_doubles(d, classes)
    owner = classes.half_owner
    need = 2 * k + 1
    for e in sorted(classes.by_edge):
        side_e = classes.by_edge[e]
        if len(side_e) < need:
            continue
        # only a class that some double of e crosses can share a biclique
        met = {owner[db.halves[0]][0] for da in side_e for db in crosses[da]}
        for f in sorted(f for f in met if f > e):
            side_f = classes.by_edge[f]
            if len(side_f) < need:
                continue
            for picked in itertools.combinations(side_e, need):
                common = tuple(db for db in side_f
                               if all(db in crosses[da] for da in picked))
                if len(common) >= need:
                    if is_min_k_planar(d, k):
                        raise MinkplanarError(
                            "obstruction witness found in a drawing that "
                            "still verifies as min-{}-planar".format(k)
                        )
                    return picked, common
    return None


# ------------------------------------------- planar sub-amplification


class PlanarExtraction(NamedTuple):
    """A crossing-free choice of double edges plus the induced sub-drawing."""

    drawing: Drawing
    edge_map: dict[int, int]
    chosen: dict[int, tuple[DoubleEdge, ...]]


def extract_planar_amplification(
    d: Drawing,
    classes: EdgeClassMap,
    w: int,
) -> Optional[PlanarExtraction]:
    """Pick w double edges per class so that no two chosen ones cross.

    Backtracking over the classes, exhaustive: a None answer proves that no
    such selection exists in this drawing.  Chosen double edges must be
    crossing-free internally (their two halves), within a class and across
    classes; crossings with kept (non-amplified) edges are allowed and
    survive into the restricted drawing.  Raises InputError for a w that
    is no non-negative integer or exceeds the amplification ``classes.t``.
    """
    w = _id(w, "w")
    t = classes.t
    if w > t:
        raise InputError(f"cannot pick {w} copies out of {t}")
    crosses = _crossing_doubles(d, classes)

    class_ids = sorted(classes.by_edge)
    candidates: list[list[DoubleEdge]] = []
    for e in class_ids:
        pool = [de for de in classes.by_edge[e] if de not in crosses[de]]
        if len(pool) < w:
            return None
        candidates.append(pool)
    # fewest options first keeps the dead ends short
    order = sorted(range(len(class_ids)), key=lambda i: len(candidates[i]))

    chosen: dict[int, tuple[DoubleEdge, ...]] = {}
    taken: set[DoubleEdge] = set()
    # explicit stack: a frame's worth of recursion per class would blow
    # the interpreter limit on big amplifications (hundreds of classes)
    pending: list = [None] * len(order)
    pos = 0
    while 0 <= pos < len(order):
        if pending[pos] is None:
            pending[pos] = itertools.combinations(candidates[order[pos]], w)
        for group in pending[pos]:
            if any(crosses[de] & taken or crosses[de].intersection(group)
                   for de in group):
                continue
            chosen[class_ids[order[pos]]] = group
            taken.update(group)
            pos += 1
            break
        else:
            pending[pos] = None
            pos -= 1
            if pos >= 0:
                taken.difference_update(chosen.pop(class_ids[order[pos]]))
    if pos < 0:
        return None

    keep = sorted(classes.kept_edge_map.values())
    for group in chosen.values():
        for de in group:
            keep.extend(de.halves)
    sub, edge_map = restrict(d, sorted(keep))
    return PlanarExtraction(sub, edge_map, dict(sorted(chosen.items())))
