"""Swap and simplification tests.

The lens fixture realises the stall documented in the module: edges e, f
share the top anchor and cross at y, while a third edge g enters the
region enclosed by their sub-curves and crosses f once on the x-side.
The first swap migrates that crossing onto e, creating a fresh violating
pair with g, so the pair count holds at one for a round before dropping.
"""

import itertools
import random

import numpy as np
import pytest

from minkplanar.constructions import build_G2
from minkplanar.drawings import (
    crossing_profile,
    is_min_k_planar,
    is_simple,
    validate,
)
from minkplanar.errors import InputError
from minkplanar.geometry import Scene, on_circle, scene_to_drawing
from minkplanar.graphs import Graph
from minkplanar.jsonio import drawing_text
from minkplanar import simplify
from minkplanar.sampling import random_min1_drawing
from minkplanar.simplify import simplify_min1, swap_at, violating_pairs

R = 3.0


def _build(vertices, edges, anchors, routes, positions):
    g = Graph(vertices, edges)
    scene = Scene(g, positions, routes, anchors=anchors, radius=R)
    d, _ = scene_to_drawing(scene)
    return d


def _lone_pair():
    """e and f share the top anchor and cross once; nothing else."""
    pos = {0: (0.0, 3.0), 1: on_circle(R, 210.0), 2: on_circle(R, 330.0)}
    routes = {
        0: (pos[0], (1.5, 0.5), pos[1]),
        1: (pos[0], pos[2]),
    }
    return _build((0, 1, 2), ((0, 1), (0, 2)), (0, 2, 1), routes, pos)


def _lens():
    """The stall instance: g ends at an interior vertex inside the lens."""
    pos = {
        0: (0.0, 3.0),
        1: on_circle(R, 210.0),
        2: on_circle(R, 330.0),
        3: (1.2, 0.96),
    }
    routes = {
        0: (pos[0], (1.5, 0.5), pos[1]),
        1: (pos[0], pos[2]),
        2: (pos[1], (0.9, 0.3), pos[3]),
    }
    return _build((0, 1, 2, 3), ((0, 1), (0, 2), (1, 3)), (0, 2, 1), routes, pos)


def _double_cross():
    """Two edges crossing twice: both heavy for k=1, hence not min-1."""
    pos = {
        0: (0.0, 3.0),
        1: (0.0, -3.0),
        2: (-3.0, 0.0),
        3: on_circle(R, 150.0),
    }
    routes = {
        0: (pos[0], pos[1]),
        1: (pos[2], (1.0, 0.5), pos[3]),
    }
    return _build((0, 1, 2, 3), ((0, 1), (2, 3)), (0, 1, 2, 3), routes, pos)


def _naive_violating(d):
    prof = crossing_profile(d)
    out = []
    for a, b in itertools.combinations(range(d.graph.m), 2):
        crosses = prof.per_pair.get((a, b), 0) > 0
        if crosses and set(d.graph.edges[a]) & set(d.graph.edges[b]):
            out.append((a, b))
    return out


# --------------------------------------------------------- violating pairs


def test_violating_pairs_reports_the_pair():
    assert violating_pairs(_lone_pair()) == [(0, 1)]
    assert violating_pairs(_lens()) == [(0, 1)]


def test_violating_pairs_empty_on_simple():
    pos = {i: on_circle(R, 90.0 - 90.0 * i) for i in range(4)}
    routes = {0: (pos[0], pos[2]), 1: (pos[1], pos[3])}
    d = _build((0, 1, 2, 3), ((0, 2), (1, 3)), (0, 1, 2, 3), routes, pos)
    assert violating_pairs(d) == []


def test_violating_pairs_rejects_heavy_input():
    with pytest.raises(InputError):
        violating_pairs(_double_cross())


def test_violating_pairs_builds_one_profile(monkeypatch):
    profiles = []
    monkeypatch.setattr(simplify, "crossing_profile",
                        lambda d: profiles.append(d) or crossing_profile(d))
    assert violating_pairs(_lens()) == [(0, 1)]
    d = _double_cross()
    heavy = is_min_k_planar(d, 1).witness
    with pytest.raises(InputError) as err:
        violating_pairs(d)
    assert str(err.value) == f"drawing is not min-1-planar (heavy pair {heavy})"
    assert len(profiles) == 2


def test_violating_pairs_matches_naive_scan():
    rng = random.Random(402)
    for _ in range(60):
        d = random_min1_drawing(rng)
        assert violating_pairs(d) == _naive_violating(d)


# ------------------------------------------------------------------ swaps


def test_swap_lone_pair_goes_planar():
    d = _lone_pair()
    y = d.crossings[0].id
    out = swap_at(d, 0, 1, y)
    assert validate(out) == []
    assert crossing_profile(out).total == 0
    assert is_simple(out)[0]


def test_swap_migrates_side_crossing():
    d = _lens()
    byedges = {tuple(sorted(c.edges)): c.id for c in d.crossings}
    y = byedges[(0, 1)]
    z = byedges[(1, 2)]
    out = swap_at(d, 0, 1, y)
    prof = crossing_profile(out)
    assert prof.total == 1
    moved = {c.id: c.edges for c in out.crossings}
    assert moved == {z: (0, 2)}
    before = crossing_profile(d)
    assert sum(before.per_edge.values()) - sum(prof.per_edge.values()) == 2


def test_swap_is_symmetric_in_the_pair():
    d = _lens()
    y = next(c.id for c in d.crossings if sorted(c.edges) == [0, 1])
    assert (drawing_text(swap_at(d, 0, 1, y))
            == drawing_text(swap_at(d, 1, 0, y)))


def test_swap_rejects_bad_calls():
    d = _lens()
    y = next(c.id for c in d.crossings if sorted(c.edges) == [0, 1])
    with pytest.raises(InputError):
        swap_at(d, 1, 2, y)  # share no vertex
    with pytest.raises(InputError):
        swap_at(d, 0, 2, y)  # adjacent but y belongs to (0, 1)
    with pytest.raises(InputError):
        swap_at(d, 1, 1, y)


@pytest.mark.parametrize("change", [
    (0, 0.0), (1, True), (1, 1.0), (2, True), (2, "y"), (0, -1)], ids=repr)
def test_swap_checks_ids_as_graph_does(change):
    # G2's one violating pair, with one of its three ids made no id
    d = build_G2().drawing
    args = [0, 3, 23]
    assert validate(swap_at(d, *args)) == []
    args[change[0]] = change[1]
    with pytest.raises(InputError, match=f"^{'efy'[change[0]]}: expected"):
        swap_at(d, *args)


def test_swap_takes_numpy_integer_ids():
    d = build_G2().drawing
    assert (drawing_text(swap_at(d, np.int64(0), np.uint8(3), np.int32(23)))
            == drawing_text(swap_at(d, 0, 3, 23)))


def test_swap_profile_bookkeeping_fuzzed():
    rng = random.Random(75)
    done = 0
    while done < 25:
        d = random_min1_drawing(rng)
        pairs = violating_pairs(d)
        if not pairs:
            continue
        e, f = pairs[0]
        y = next(c.id for c in d.crossings if set(c.edges) == {e, f})
        out = swap_at(d, e, f, y)
        assert crossing_profile(out).total == (
            crossing_profile(d).total - 1
        )
        assert set(out.crossing_ids()) == set(d.crossing_ids()) - {y}
        done += 1


# ----------------------------------------------------------- simplify loop


def test_simplify_identity_on_simple_input():
    pos = {i: on_circle(R, 90.0 - 90.0 * i) for i in range(4)}
    routes = {0: (pos[0], pos[2]), 1: (pos[1], pos[3])}
    d = _build((0, 1, 2, 3), ((0, 2), (1, 3)), (0, 1, 2, 3), routes, pos)
    assert simplify_min1(d) is d


def test_simplify_lone_pair():
    out = simplify_min1(_lone_pair())
    assert is_simple(out)[0]
    assert crossing_profile(out).total == 0


def test_simplify_lens_stalls_once_but_finishes():
    d = _lens()
    trace = []
    out = simplify_min1(d, trace=trace)
    # the violating-pair count holds at 1 for two rounds: no strict decrease
    assert [sorted(t) for t in trace] == [[(0, 1)], [(0, 2)]]
    assert validate(out) == []
    assert is_simple(out)[0]
    assert out.graph == d.graph
    assert crossing_profile(out).total == 0


def test_simplify_rejects_non_min1():
    with pytest.raises(InputError):
        simplify_min1(_double_cross())


def test_simplify_fuzzed_corpus():
    rng = random.Random(2024)
    for _ in range(120):
        d = random_min1_drawing(rng)
        out = simplify_min1(d)
        assert validate(out) == []
        ok, why = is_simple(out)
        assert ok, why
        okk, _ = is_min_k_planar(out, 1)
        assert okk
        assert out.graph == d.graph
        assert out.anchors == d.anchors
        # running it again must be a no-op
        assert simplify_min1(out) is out
