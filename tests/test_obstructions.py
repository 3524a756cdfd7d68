"""Obstruction rule and planar-extraction tests.

The extractor is compared against a brute-force selection oracle that
enumerates every possible choice of double edges, so a disagreement means
the backtracking lost or invented a solution.
"""

import itertools
import time

import pytest

from minkplanar.constructions import build_G2
from minkplanar.drawings import crossing_profile, is_min_k_planar
from minkplanar.errors import InputError
from minkplanar.frames import build_frame
from minkplanar.geometry import Scene, scene_to_drawing
from minkplanar.graphs import Graph, t_amplify
from minkplanar.obstructions import biclique_obstruction, extract_planar_amplification

from gadgets import build_biclique_gadget


# ------------------------------------------------------ oracle and fixtures


def brute_selection(d, classes, w):
    """Slow exhaustive search for a crossing-free choice of w doubles per class."""
    crossed = set(crossing_profile(d).per_pair)

    def clean(doubles):
        halves = [h for de in doubles for h in de.halves]
        for a, b in itertools.combinations(halves, 2):
            if (min(a, b), max(a, b)) in crossed:
                return False
        return True

    pools = [classes.by_edge[e] for e in sorted(classes.by_edge)]
    for pick in itertools.product(*(itertools.combinations(p, w) for p in pools)):
        flat = [de for group in pick for de in group]
        if clean(flat):
            return flat
    return None


def _clean_amplification():
    """Both edges doubled, the copies drawn well apart: zero crossings."""
    base = Graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    amp, classes = t_amplify(base, 2)
    pos = {0: (-3.0, 0.0), 1: (-1.0, 0.0), 2: (1.0, 0.0), 3: (3.0, 0.0)}
    routes = {}
    for e, (u, v) in enumerate(base.edges):
        x = (pos[u][0] + pos[v][0]) / 2.0
        for c, de in enumerate(classes.by_edge[e]):
            pos[de.midpoint] = (x, 0.5 if c else -0.5)
            routes[de.halves[0]] = (pos[u], pos[de.midpoint])
            routes[de.halves[1]] = (pos[de.midpoint], pos[v])
    d, _ = scene_to_drawing(Scene(amp, pos, routes))
    return d, classes


def _kept_edge_crossings():
    """One class doubled, the other kept; the kept edge stabs both copies."""
    base = Graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    amp, classes = t_amplify(base, 2, amplify_edges=[0])
    pos = {0: (-3.0, 0.0), 1: (3.0, 0.0), 2: (0.5, 3.0), 3: (0.5, -3.0)}
    a0, a1 = classes.by_edge[0]
    pos[a0.midpoint] = (0.0, 0.8)
    pos[a1.midpoint] = (0.0, -0.8)
    routes = {
        a0.halves[0]: (pos[0], pos[a0.midpoint]),
        a0.halves[1]: (pos[a0.midpoint], pos[1]),
        a1.halves[0]: (pos[0], pos[a1.midpoint]),
        a1.halves[1]: (pos[a1.midpoint], pos[1]),
        classes.kept_edge_map[1]: (pos[2], pos[3]),
    }
    d, _ = scene_to_drawing(Scene(amp, pos, routes))
    return d, classes


def _same_class_conflict():
    """A single doubled edge whose two copies cross each other twice."""
    base = Graph((0, 1), ((0, 1),))
    amp, classes = t_amplify(base, 2)
    a0, a1 = classes.by_edge[0]
    pos = {
        0: (-3.0, 0.0),
        1: (3.0, 0.0),
        a0.midpoint: (0.0, 0.8),
        a1.midpoint: (0.0, 1.6),
    }
    routes = {
        a0.halves[0]: (pos[0], pos[a0.midpoint]),
        a0.halves[1]: (pos[a0.midpoint], pos[1]),
        a1.halves[0]: (pos[0], (-1.0, 0.2), pos[a1.midpoint]),
        a1.halves[1]: (pos[a1.midpoint], (1.0, 0.2), pos[1]),
    }
    d, _ = scene_to_drawing(Scene(amp, pos, routes))
    return d, classes


def _self_crossing_double():
    """One edge doubled: copy 0's first half bends over its second half and
    crosses it once, copy 1 runs clean below."""
    base = Graph((0, 1), ((0, 1),))
    amp, classes = t_amplify(base, 2)
    a0, a1 = classes.by_edge[0]
    pos = {
        0: (-3.0, 0.0),
        1: (3.0, 0.0),
        a0.midpoint: (0.0, 1.0),
        a1.midpoint: (0.0, -1.0),
    }
    routes = {
        a0.halves[0]: (pos[0], (2.0, 1.5), pos[a0.midpoint]),
        a0.halves[1]: (pos[a0.midpoint], pos[1]),
        a1.halves[0]: (pos[0], pos[a1.midpoint]),
        a1.halves[1]: (pos[a1.midpoint], pos[1]),
    }
    d, _ = scene_to_drawing(Scene(amp, pos, routes))
    return d, classes


# ------------------------------------------------------- obstruction rule


def test_obstruction_fires_when_bundles_saturate():
    g = build_biclique_gadget(2, 5)
    witness = biclique_obstruction(g.drawing, 2, g.classes)
    assert witness is not None
    d1, d2 = witness
    assert len(d1) == 5 and len(d2) == 5
    ok, _ = is_min_k_planar(g.drawing, 2)
    assert not ok


def test_obstruction_fires_for_k1():
    g = build_biclique_gadget(1, 3)
    assert biclique_obstruction(g.drawing, 1, g.classes) is not None


def test_obstruction_silent_at_2k_bundles():
    # bundles of size 2k sit just below the rule's threshold
    g = build_biclique_gadget(2, 4)
    assert biclique_obstruction(g.drawing, 2, g.classes) is None
    # the drawing is still not min-2-planar, the rule just cannot see it
    ok, _ = is_min_k_planar(g.drawing, 2)
    assert not ok


def test_obstruction_silent_on_clean_drawing():
    d, classes = _clean_amplification()
    assert biclique_obstruction(d, 0, classes) is None
    with pytest.raises(InputError):
        biclique_obstruction(d, -1, classes)


@pytest.mark.parametrize("bad", [1.5, True, "1", None])
def test_obstruction_and_extraction_reject_a_bound_that_is_no_count(bad):
    d, classes = _clean_amplification()
    with pytest.raises(InputError):
        biclique_obstruction(d, bad, classes)
    with pytest.raises(InputError):
        extract_planar_amplification(d, classes, bad)


# ------------------------------------------------------- planar extraction


def test_extract_full_from_clean_drawing():
    d, classes = _clean_amplification()
    res = extract_planar_amplification(d, classes, 2)
    assert res is not None
    assert res.drawing.graph.m == d.graph.m
    assert crossing_profile(res.drawing).total == 0
    assert {e: len(g) for e, g in res.chosen.items()} == {0: 2, 1: 2}


def test_extract_none_from_saturated_gadget():
    for m in (2, 3):
        g = build_biclique_gadget(2, m)
        assert extract_planar_amplification(g.drawing, g.classes, 1) is None
    g = build_biclique_gadget(2, 2)
    res = extract_planar_amplification(g.drawing, g.classes, 0)
    assert res is not None and res.drawing.graph.m == 0
    with pytest.raises(InputError):
        extract_planar_amplification(g.drawing, g.classes, 3)
    with pytest.raises(InputError):
        extract_planar_amplification(g.drawing, g.classes, -1)


def test_extract_tolerates_kept_edge_crossings():
    d, classes = _kept_edge_crossings()
    res1 = extract_planar_amplification(d, classes, 1)
    assert res1 is not None
    assert crossing_profile(res1.drawing).total == 1
    res2 = extract_planar_amplification(d, classes, 2)
    assert res2 is not None
    assert crossing_profile(res2.drawing).total == 2
    kept_new = classes.kept_edge_map[1]
    assert kept_new in res2.edge_map


def test_extract_same_class_conflict():
    d, classes = _same_class_conflict()
    assert extract_planar_amplification(d, classes, 1) is not None
    assert extract_planar_amplification(d, classes, 2) is None


def test_extract_matches_brute_oracle():
    cases = []
    for m in (2, 3):
        g = build_biclique_gadget(2, m)
        for w in range(m + 1):
            cases.append((g.drawing, g.classes, w))
    for maker in (_clean_amplification, _kept_edge_crossings, _same_class_conflict,
                  _self_crossing_double):
        d, classes = maker()
        for w in range(classes.t + 1):
            cases.append((d, classes, w))

    checked = 0
    for d, classes, w in cases:
        fast = extract_planar_amplification(d, classes, w)
        slow = brute_selection(d, classes, w)
        assert (fast is None) == (slow is None), f"disagreement at w={w}"
        if fast is not None:
            # the extractor's own pick must satisfy the oracle's predicate
            crossed = set(crossing_profile(d).per_pair)
            halves = [h for g in fast.chosen.values() for de in g for h in de.halves]
            for a, b in itertools.combinations(halves, 2):
                assert (min(a, b), max(a, b)) not in crossed
        checked += 1
    assert checked >= 15


def test_extract_never_chooses_a_double_whose_halves_cross():
    d, classes = _self_crossing_double()
    a0, a1 = classes.by_edge[0]
    assert set(crossing_profile(d).per_pair) == {tuple(sorted(a0.halves))}
    assert extract_planar_amplification(d, classes, 1).chosen == {0: (a1,)}
    assert extract_planar_amplification(d, classes, 2) is None
    assert biclique_obstruction(d, 0, classes) is None


# ------------------------------------------ the G2 frame at the default t


def test_g2_frame_at_the_default_t_extracts_every_double_in_seconds():
    # t = 2k+2 = 6 and 1,539 web classes: testing doubles pair by pair,
    # or the obstruction's classes pair by pair, takes minutes here
    fr = build_frame(build_G2().anchored_graph, 2)
    assert fr.params.t == 6
    t0 = time.perf_counter()
    res = extract_planar_amplification(fr.drawing, fr.classes, 6)
    t1 = time.perf_counter()
    assert biclique_obstruction(fr.drawing, 2, fr.classes) is None
    t2 = time.perf_counter()
    assert res is not None
    assert res.chosen == dict(sorted(fr.classes.by_edge.items()))
    assert t1 - t0 < 3.0
    assert t2 - t1 < 3.0
