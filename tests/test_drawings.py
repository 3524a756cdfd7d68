"""Drawing validity, crossing predicates, restriction and mirroring.

The fixtures are small drawings whose rotations were worked out by placing
coordinates on paper; comments describe the picture each one encodes.
"""

from dataclasses import replace

import pytest

from minkplanar.constructions import build_G2, build_Gk
from minkplanar.errors import InputError
from minkplanar.frames import build_frame
from minkplanar.graphs import Graph
from minkplanar.drawings import (
    Crossing,
    Drawing,
    adjacent_crossing_pairs,
    canonical,
    crossing_profile,
    drawings_equal,
    is_k_planar,
    is_min_k_planar,
    is_simple,
    mirror,
    restrict,
    validate,
)


def anchored_triangle():
    """C3 with all three vertices on the boundary, no crossings."""
    g = Graph((0, 1, 2), ((0, 1), (1, 2), (2, 0)))
    return Drawing(
        g,
        crossings=(),
        chains={0: (0, 1), 1: (1, 2), 2: (2, 0)},
        rotation={
            0: ((0, 0), (2, 0)),
            1: ((1, 0), (0, 0)),
            2: ((2, 0), (1, 0)),
        },
        anchors=(0, 1, 2),
    )


def crossing_chords():
    """Two diagonals of an anchored square crossing once in the middle."""
    g = Graph((0, 1, 2, 3), ((0, 2), (1, 3)))
    return Drawing(
        g,
        crossings=(Crossing(4, (0, 1)),),
        chains={0: (0, 4, 2), 1: (1, 4, 3)},
        rotation={
            0: ((0, 0),),
            1: ((1, 0),),
            2: ((0, 1),),
            3: ((1, 1),),
            4: ((0, 0), (1, 0), (0, 1), (1, 1)),
        },
        anchors=(0, 1, 2, 3),
    )


def double_crossing():
    """Unanchored: edge 1 dips below edge 0 and back, crossing it twice."""
    g = Graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    return Drawing(
        g,
        crossings=(Crossing(4, (0, 1)), Crossing(5, (0, 1))),
        chains={0: (0, 4, 5, 1), 1: (2, 4, 5, 3)},
        rotation={
            0: ((0, 0),),
            1: ((0, 2),),
            2: ((1, 0),),
            3: ((1, 2),),
            4: ((0, 0), (1, 0), (0, 1), (1, 1)),
            5: ((1, 1), (0, 1), (1, 2), (0, 2)),
        },
    )


def adjacent_cross():
    """Edges out of a shared vertex that also cross each other once."""
    g = Graph((0, 1, 2), ((0, 1), (0, 2)))
    return Drawing(
        g,
        crossings=(Crossing(3, (0, 1)),),
        chains={0: (0, 3, 1), 1: (0, 3, 2)},
        rotation={
            0: ((1, 0), (0, 0)),
            1: ((0, 1),),
            2: ((1, 1),),
            3: ((1, 0), (0, 1), (1, 1), (0, 0)),
        },
    )


def comb():
    """Horizontal edge 0 crossed once each by vertical edges 1 and 2."""
    g = Graph(tuple(range(6)), ((0, 1), (2, 3), (4, 5)))
    return Drawing(
        g,
        crossings=(Crossing(6, (0, 1)), Crossing(7, (0, 2))),
        chains={0: (0, 6, 7, 1), 1: (2, 6, 3), 2: (4, 7, 5)},
        rotation={
            0: ((0, 0),),
            1: ((0, 2),),
            2: ((1, 0),),
            3: ((1, 1),),
            4: ((2, 0),),
            5: ((2, 1),),
            6: ((1, 0), (0, 1), (1, 1), (0, 0)),
            7: ((2, 0), (0, 2), (2, 1), (0, 1)),
        },
    )


# ------------------------------------------------------------- validation


def test_valid_fixtures_pass():
    for d in (anchored_triangle(), crossing_chords(), double_crossing(),
              adjacent_cross(), comb()):
        assert validate(d) == []


def test_validate_catches_broken_alternation():
    d = crossing_chords()
    bad = dict(d.rotation)
    bad[4] = ((0, 0), (0, 1), (1, 0), (1, 1))
    problems = validate(Drawing(d.graph, d.crossings, d.chains, bad, d.anchors))
    assert any("alternation" in p for p in problems)


def test_validation_report_stays_with_its_object():
    d = build_G2().drawing
    assert validate(d) == []
    validate(d).append("changing a returned report changes nothing")
    assert validate(d) == []
    a, b, c, e = d.rotation[20]
    bad = replace(d, rotation={**d.rotation, 20: (b, a, c, e)})
    assert validate(bad) == [
        "alternation: edges do not alternate at crossing 20"]
    with pytest.raises(InputError, match="alternation"):
        is_simple(bad)
    assert validate(d) == []


def _swapped(refs, i, j):
    refs = list(refs)
    refs[i], refs[j] = refs[j], refs[i]
    return tuple(refs)


def _corrupted(name):
    """The G2 or Gk(4) drawing with one fault of the named family."""
    g2, gk = build_G2().drawing, build_Gk(4).drawing
    if name == "chain direction":
        return replace(gk, chains={**gk.chains, 3: gk.chains[3][::-1]})
    if name == "crossing label":
        return replace(g2, crossings=tuple(
            Crossing(20, (0, 6)) if x.id == 20 else x for x in g2.crossings))
    if name == "crossing edge pair":
        return replace(gk, crossings=tuple(
            Crossing(33, (0, 0)) if x.id == 33 else x for x in gk.crossings))
    if name == "missing rotation ref":
        return replace(g2, rotation={**g2.rotation, 19: g2.rotation[19][:1]})
    if name == "unknown rotation node":
        return replace(gk, rotation={**gk.rotation, 99: ((0, 0),)})
    if name == "crossing degree":
        # a fifth end at a crossing is caught by the rotation check
        return replace(g2, rotation={
            **g2.rotation, 20: g2.rotation[20] + ((6, 0),)})
    if name == "alternation":
        return replace(gk, rotation={
            **gk.rotation, 33: _swapped(gk.rotation[33], 1, 2)})
    if name == "euler":
        # swapping opposite ends mirrors the crossing
        return replace(g2, rotation={
            **g2.rotation, 20: _swapped(g2.rotation[20], 0, 2)})
    assert name == "boundary"
    return replace(gk, anchors=gk.anchors[:2] + (gk.anchors[0], 99))


REPORTS = {
    "chain direction": [
        "chain: edge 3 must run from 9 to 11; got (11, 53, 9)"],
    "crossing label": [
        "crossing: node 20 labelled (0, 6) but lies on chains [0, 5]"],
    "crossing edge pair": ["crossing: node 33 has a bad edge pair (0, 0)"],
    "missing rotation ref": [
        "rotation: node 19 lists [(2, 0)] but its chains imply "
        "[(1, 4), (2, 0)]"],
    "unknown rotation node": ["rotation: unknown node 99"],
    "crossing degree": [
        "rotation: node 20 lists [(0, 0), (0, 1), (5, 0), (5, 1), (6, 0)] "
        "but its chains imply [(0, 0), (0, 1), (5, 0), (5, 1)]"],
    "alternation": ["alternation: edges do not alternate at crossing 33"],
    "euler": ["euler: component has V-E+F = 0, expected 2"],
    "boundary": [
        "boundary: repeated anchor", "boundary: anchor 99 is not a vertex"],
}


@pytest.mark.parametrize("family", sorted(REPORTS))
def test_validate_report_text_is_pinned(family):
    assert validate(_corrupted(family)) == REPORTS[family]


def test_rotation_report_shows_repeated_ends():
    d = build_G2().drawing
    bad = replace(d, rotation={**d.rotation, 20: d.rotation[20] + ((0, 0),)})
    assert validate(bad) == [
        "rotation: node 20 lists [(0, 0), (0, 0), (0, 1), (5, 0), (5, 1)] "
        "but its chains imply [(0, 0), (0, 1), (5, 0), (5, 1)]"]


@pytest.mark.parametrize("build", [
    lambda: build_G2().drawing,
    lambda: build_Gk(4).drawing,
    lambda: build_frame(build_G2().anchored_graph, 2, 1).drawing,
], ids=["g2", "gk4", "g2-frame-t1"])
def test_dart_map_invariants(build):
    d = build()
    assert validate(d) == []
    pm = d.planarization
    b, n_arcs = len(d.anchors), len(pm.arc_tail)
    # boundary arcs first, then each edge's segments in edge order
    assert pm.arc_tail[:b] == list(d.anchors)
    for e, chain in d.chains.items():
        arcs = range(pm.first_arc[e], pm.first_arc[e] + len(chain) - 1)
        assert [pm.arc_tail[a] for a in arcs] == list(chain[:-1])
        assert [pm.arc_head[a] for a in arcs] == list(chain[1:])
    # every dart lies in exactly one orbit, and each orbit is a closed walk
    assert sorted(x for orbit in pm.faces for x in orbit) == list(
        range(2 * n_arcs))
    for orbit in pm.faces:
        for x, y in zip(orbit, orbit[1:] + orbit[:1]):
            assert pm.tail(x ^ 1) == pm.tail(y)
    assert pm.faces[0] == tuple(range(0, 2 * b, 2))
    assert len(d.nodes()) - n_arcs + len(pm.faces) == 2


def test_validate_catches_wrong_chain_direction():
    d = crossing_chords()
    chains = dict(d.chains)
    chains[0] = (2, 4, 0)
    problems = validate(Drawing(d.graph, d.crossings, chains, d.rotation, d.anchors))
    assert any("chain" in p for p in problems)


def test_validate_catches_rotation_mismatch():
    d = anchored_triangle()
    rot = dict(d.rotation)
    rot[1] = ((0, 0), (1, 0))  # swapped order is fine, wrong tokens are not
    rot[1] = ((0, 0), (0, 0))
    problems = validate(Drawing(d.graph, d.crossings, d.chains, rot, d.anchors))
    assert any("rotation" in p for p in problems)


def test_validate_catches_bad_boundary_order():
    # same chord drawing but anchors listed in an order the rotations
    # cannot realise on a disk boundary
    d = crossing_chords()
    problems = validate(
        Drawing(d.graph, d.crossings, d.chains, d.rotation, (0, 2, 1, 3))
    )
    assert any(("boundary" in p) or ("euler" in p) for p in problems)


def test_validate_requires_two_anchors():
    g = Graph((0, 1), ((0, 1),))
    d = Drawing(g, (), {0: (0, 1)}, {0: ((0, 0),), 1: ((0, 0),)}, anchors=(0,))
    assert any("anchor" in p for p in validate(d))


def test_validate_catches_undeclared_crossing():
    g = Graph((0, 1, 2, 3), ((0, 2), (1, 3)))
    d = Drawing(
        g, (), {0: (0, 9, 2), 1: (1, 9, 3)},
        {0: ((0, 0),), 1: ((1, 0),), 2: ((0, 1),), 3: ((1, 1),)},
    )
    assert any("undeclared" in p for p in validate(d))


def test_require_valid_raises():
    d = crossing_chords()
    chains = dict(d.chains)
    chains[0] = (2, 4, 0)
    with pytest.raises(InputError):
        Drawing(d.graph, d.crossings, chains, d.rotation, d.anchors).require_valid()


# ------------------------------------------------------------- predicates


def test_profile_of_crossing_free_drawing():
    prof = crossing_profile(anchored_triangle())
    assert prof.per_edge == {0: 0, 1: 0, 2: 0}
    assert prof.per_pair == {}
    assert prof.total == 0
    assert prof.heavy_edges(0) == ()


def test_profile_of_crossing_chords():
    prof = crossing_profile(crossing_chords())
    assert prof.per_edge == {0: 1, 1: 1}
    assert prof.per_pair == {(0, 1): 1}
    assert prof.heavy_edges(0) == (0, 1)
    assert prof.heavy_edges(1) == ()


def test_simplicity_verdicts():
    ok, witness = is_simple(crossing_chords())
    assert ok and witness is None

    ok, witness = is_simple(double_crossing())
    assert not ok
    assert witness == ((0, 1), "pair crosses more than once")

    ok, witness = is_simple(adjacent_cross())
    assert not ok
    assert witness == ((0, 1), "edges share a vertex and cross")

    assert adjacent_crossing_pairs(adjacent_cross()) == [(0, 1)]
    assert adjacent_crossing_pairs(comb()) == []


def test_k_planarity_thresholds():
    d = double_crossing()
    assert is_k_planar(d, 2)
    assert not is_k_planar(d, 1)
    ok, witness = is_min_k_planar(d, 1)
    assert not ok and witness == (0, 1)
    ok, witness = is_min_k_planar(d, 2)
    assert ok and witness is None


def test_verdicts_are_truthful():
    # a failing verdict is falsy, not a tuple that happens to hold False
    d = double_crossing()
    assert not is_simple(d)
    assert is_simple(crossing_chords())
    assert not is_min_k_planar(d, 1)
    assert is_min_k_planar(d, 2)
    assert not is_k_planar(d, 1)
    assert is_k_planar(d, 2)
    # and it still unpacks as (ok, witness); edge 0 is the first one over 1
    assert is_k_planar(d, 1) == (False, 0)
    assert is_k_planar(d, 2) == (True, None)


def test_min_k_allows_heavy_light_crossings():
    # edge 0 of the comb carries 2 crossings; both partners carry 1, so for
    # k = 1 every crossing still has a light side
    d = comb()
    assert not is_k_planar(d, 1)
    ok, _ = is_min_k_planar(d, 1)
    assert ok


# ------------------------------------------------------------ restriction


def test_restrict_to_all_edges_is_identity():
    for d in (crossing_chords(), double_crossing()):
        out, emap = restrict(d, range(d.graph.m))
        assert emap == {e: e for e in range(d.graph.m)}
        assert drawings_equal(out, d)


def test_restrict_drops_crossing_and_merges_arcs():
    d = crossing_chords()
    out, emap = restrict(d, [0])
    assert emap == {0: 0}
    assert out.graph.vertices == (0, 2)
    assert out.crossings == ()
    assert out.chains == {0: (0, 2)}
    assert out.rotation[0] == ((0, 0),)
    assert out.rotation[2] == ((0, 0),)
    assert out.anchors is None  # anchors 1 and 3 were dropped


def test_restrict_keeps_boundary_when_anchors_survive():
    # dropping edge 2 of the triangle keeps every anchor as an endpoint
    out, emap = restrict(anchored_triangle(), [0, 1])
    assert emap == {0: 0, 1: 1}
    assert out.anchors == (0, 1, 2)
    assert validate(out) == []
    assert out.rotation[0] == ((0, 0),)
    assert out.rotation[2] == ((1, 0),)


def test_restrict_renumbers_middle_crossings():
    d = comb()
    out, emap = restrict(d, [0, 2])
    assert emap == {0: 0, 2: 1}
    assert out.graph.vertices == (0, 1, 4, 5)
    assert [x.id for x in out.crossings] == [7]
    assert out.chains[0] == (0, 7, 1)
    assert out.chains[1] == (4, 7, 5)
    assert out.rotation[7] == ((1, 0), (0, 1), (1, 1), (0, 0))
    prof = crossing_profile(out)
    assert prof.per_pair == {(0, 1): 1}


def test_restrict_rejects_unknown_ids():
    with pytest.raises(InputError):
        restrict(crossing_chords(), [0, 9])


# ----------------------------------------------------- equality and mirror


def test_equality_ignores_cyclic_rotation_shift():
    d = double_crossing()
    rot = dict(d.rotation)
    rot[4] = rot[4][2:] + rot[4][:2]
    shifted = Drawing(d.graph, d.crossings, d.chains, rot)
    assert drawings_equal(d, shifted)
    assert canonical(d).rotation[4][0] == (0, 0)


def test_anchored_rotations_are_linear_not_cyclic():
    d = crossing_chords()
    # a crossing keeps its cyclic freedom; shifting an anchor list with
    # more than one entry would change the drawing, so use the crossing
    rot = dict(d.rotation)
    rot[4] = rot[4][1:] + rot[4][:1]
    assert drawings_equal(d, Drawing(d.graph, d.crossings, d.chains, rot, d.anchors))


def test_mirror_is_an_involution():
    for d in (anchored_triangle(), crossing_chords(), double_crossing()):
        m = mirror(d)
        assert validate(m) == []
        assert drawings_equal(mirror(m), d)


def test_mirror_reverses_anchor_circle():
    d = crossing_chords()
    assert mirror(d).anchors == (0, 3, 2, 1)
    prof = crossing_profile(mirror(d))
    assert prof.per_pair == {(0, 1): 1}
