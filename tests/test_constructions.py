"""Frozen expectations for the bundled constructions.

The counts asserted here were derived by hand from the coordinate tables
(chord positions intersected against the two long axes) before running
the generators, then confirmed once and frozen.
"""

import pytest

from minkplanar import constructions
from minkplanar.constructions import build_G2, build_Gk
from minkplanar.drawings import (
    adjacent_crossing_pairs,
    crossing_profile,
    is_k_planar,
    is_min_k_planar,
    is_simple,
    validate,
)
from minkplanar.errors import InputError, MinkplanarError
from minkplanar.jsonio import drawing_text

from gadgets import build_biclique_gadget


def _pair_names(bundle):
    """Per-pair crossing counts keyed by sorted edge-name pairs."""
    byid = {i: n for n, i in bundle.edge_names.items()}
    prof = crossing_profile(bundle.drawing)
    return {tuple(sorted((byid[a], byid[b]))): c for (a, b), c in prof.per_pair.items()}


# ----------------------------------------------------------- k=2 bundle


def test_g2_shape():
    b = build_G2()
    g = b.anchored_graph
    assert g.graph.n == 20
    assert g.graph.m == 11
    assert len(g.anchors) == 19
    # ids: anchors first in clockwise order, the lone interior vertex last
    assert g.anchors == tuple(range(19))
    assert b.vertex_names["a1"] == 0
    assert b.vertex_names["c2"] == 19
    assert validate(b.drawing) == []


def test_g2_profile_frozen():
    b = build_G2()
    prof = crossing_profile(b.drawing)
    per_edge = {n: prof.per_edge[i] for n, i in b.edge_names.items()}
    assert per_edge == {
        "a1a2": 5,
        "c1c2": 4,
        "c2c3": 2,
        "b1a2": 2,
        "m1_0": 1,
        "m1_1": 1,
        "m1_2": 1,
        "m2_0": 1,
        "m2_1": 1,
        "m2_2": 1,
        "m3_top": 1,
    }
    assert prof.total == 10
    assert _pair_names(b) == {
        ("a1a2", "m1_0"): 1,
        ("a1a2", "m1_1"): 1,
        ("a1a2", "m1_2"): 1,
        ("a1a2", "b1a2"): 1,
        ("a1a2", "c2c3"): 1,
        ("c1c2", "m2_0"): 1,
        ("c1c2", "m2_1"): 1,
        ("c1c2", "m2_2"): 1,
        ("b1a2", "c1c2"): 1,
        ("c2c3", "m3_top"): 1,
    }


def test_g2_verdicts():
    b = build_G2()
    d = b.drawing
    ok, _ = is_min_k_planar(d, 2)
    assert ok
    ok1, witness = is_min_k_planar(d, 1)
    assert not ok1 and witness is not None
    assert is_k_planar(d, 5) and not is_k_planar(d, 4)
    simple, why = is_simple(d)
    assert not simple
    assert why[0] == (b.edge("a1a2"), b.edge("b1a2"))
    assert adjacent_crossing_pairs(d) == [(b.edge("a1a2"), b.edge("b1a2"))]
    assert b.claimed_min_k == 2 and not b.claimed_simple


def test_g2_heavy_edges():
    b = build_G2()
    prof = crossing_profile(b.drawing)
    assert set(prof.heavy_edges(2)) == {b.edge("a1a2"), b.edge("c1c2")}
    # the two heavy edges never cross each other, that is the whole point
    key = tuple(sorted((b.edge("a1a2"), b.edge("c1c2"))))
    assert key not in prof.per_pair


def test_g2_deterministic():
    assert (drawing_text(build_G2().drawing)
            == drawing_text(build_G2().drawing))


def test_bundle_self_checks_can_fail(monkeypatch):
    # point the min-k check at a gadget whose 4 copies per class cross 4
    # times each, which is min-k-planar for no k below 4: both families
    # must refuse their claimed min-k
    real = constructions.is_min_k_planar
    heavy = build_biclique_gadget(1, 4).drawing
    monkeypatch.setattr(constructions, "is_min_k_planar",
                        lambda d, *args, **kw: real(heavy, *args, **kw))
    with pytest.raises(MinkplanarError,
                       match="G2 self-check failed: not min-2-planar"):
        build_G2()
    with pytest.raises(MinkplanarError,
                       match="Gk self-check failed: not min-3-planar"):
        build_Gk(3)


# ---------------------------------------------------------- k>=3 bundles


def test_gk_rejects_small_k():
    for k in (-1, 0, 1, 2):
        with pytest.raises(InputError):
            build_Gk(k)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_gk_shape(k):
    b = build_Gk(k)
    g = b.anchored_graph
    assert g.graph.n == 6 * k + 9
    assert g.graph.m == 3 * k + 5
    assert len(g.anchors) == 6 * k + 8
    m1 = [n for n in b.edge_names if n.startswith("m1_")]
    m2 = [n for n in b.edge_names if n.startswith("m2_")]
    m3 = [n for n in b.edge_names if n.startswith("m3_") or n == "b1b2"]
    assert len(m1) == k + 1
    assert len(m2) == k + 1
    assert len(m3) == k
    assert validate(b.drawing) == []


@pytest.mark.parametrize("k", [3, 4])
def test_gk_profile_frozen(k):
    b = build_Gk(k)
    prof = crossing_profile(b.drawing)
    per_edge = {n: prof.per_edge[i] for n, i in b.edge_names.items()}
    expected = {"a1a2": 3 * k, "c1c2": 2 * k, "c2c3": 2, "m3_top": 1, "b1b2": 3}
    for i in range(k + 1):
        expected[f"m1_{i}"] = 1
        expected[f"m2_{i}"] = 1
    for j in range(1, k - 1):
        expected[f"m3_dip{j}"] = 3
    assert per_edge == expected
    assert prof.total == 5 * k + 1


def test_gk_pair_structure():
    k = 4
    b = build_Gk(k)
    pairs = _pair_names(b)
    deep = ["b1b2"] + [f"m3_dip{j}" for j in range(1, k - 1)]
    expected = {}
    for i in range(k + 1):
        expected[("a1a2", f"m1_{i}")] = 1
        expected[("c1c2", f"m2_{i}")] = 1
    for name in deep:
        expected[tuple(sorted(("a1a2", name)))] = 2
        expected[tuple(sorted(("c1c2", name)))] = 1
    expected[("a1a2", "c2c3")] = 1
    expected[("c2c3", "m3_top")] = 1
    assert pairs == expected


@pytest.mark.parametrize("k", [3, 4, 5])
def test_gk_verdicts(k):
    b = build_Gk(k)
    d = b.drawing
    ok, _ = is_min_k_planar(d, 3)
    assert ok
    ok2, _ = is_min_k_planar(d, 2)
    assert not ok2, "deep edges carry 3 crossings and cross the heavy spine"
    assert adjacent_crossing_pairs(d) == []
    simple, why = is_simple(d)
    assert not simple and why[1] == "pair crosses more than once"
    assert why[0] == (b.edge("a1a2"), b.edge("b1b2"))
    assert b.claimed_adjacency_free


def test_gk_deterministic():
    assert (drawing_text(build_Gk(3).drawing)
            == drawing_text(build_Gk(3).drawing))


# ------------------------------------------------------- crossing gadget


def test_gadget_rejects_bad_input():
    with pytest.raises(InputError):
        build_biclique_gadget(2, 0)
    with pytest.raises(InputError):
        build_biclique_gadget(-1, 3)


@pytest.mark.parametrize("k,m", [(2, 5), (2, 4), (1, 1), (2, 2), (3, 3)])
def test_gadget_shape(k, m):
    g = build_biclique_gadget(k, m)
    assert g.graph.n == 4 + 2 * m
    assert g.graph.m == 4 * m
    assert validate(g.drawing) == []
    prof = crossing_profile(g.drawing)
    assert prof.total == m * m
    ok, _ = is_min_k_planar(g.drawing, k)
    assert ok == (m <= k)


def test_gadget_pairwise_once():
    g = build_biclique_gadget(2, 3)
    prof = crossing_profile(g.drawing)

    def doubles_cross(da, db):
        return sum(
            prof.per_pair.get((min(a, b), max(a, b)), 0)
            for a in da.halves
            for b in db.halves
        )

    lanes = g.classes.by_edge[0]
    cols = g.classes.by_edge[1]
    for da in lanes:
        for db in cols:
            assert doubles_cross(da, db) == 1
    for cls in (lanes, cols):
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                assert doubles_cross(cls[i], cls[j]) == 0


def test_gadget_single_copy_is_clean():
    g = build_biclique_gadget(1, 1)
    for k in (1, 2, 5):
        ok, _ = is_min_k_planar(g.drawing, k)
        assert ok
    ok0, _ = is_min_k_planar(g.drawing, 0)
    assert not ok0
