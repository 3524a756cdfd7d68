"""Drawing validity, crossing predicates, restriction and mirroring.

The fixtures are small drawings whose rotations were worked out by placing
coordinates on paper; comments describe the picture each one encodes.
"""

import collections
import functools
import hashlib
import random
from dataclasses import replace
from itertools import accumulate, chain, combinations, compress, repeat
from operator import add, itemgetter, lt, ne, sub

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from minkplanar.constructions import build_G2, build_Gk
from minkplanar.errors import InputError
from minkplanar.frames import build_frame, compose
from minkplanar.graphs import AnchoredGraph, Graph
from minkplanar.jsonio import drawing_text
from minkplanar.drawings import (
    Crossing,
    Drawing,
    PlanarizationMap,
    adjacent_crossing_pairs,
    crossing_profile,
    is_k_planar,
    is_min_k_planar,
    is_simple,
    mirror,
    restrict,
    validate,
)
from minkplanar import drawings
from minkplanar.search import (SearchOutcome, SearchStats, Status,
                               search_anchored, verify_certificate)


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
            4: ((1, 1), (0, 0), (1, 0), (0, 1)),
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
            5: ((0, 1), (1, 2), (0, 2), (1, 1)),
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


def search_certificate():
    """The second Found certificate of the search benchmark's seed-1 random
    batch: K4 less one edge, all four vertices anchors, edge 2 crossing
    edges 0 and 1."""
    g = Graph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))
    return Drawing(
        g,
        crossings=(Crossing(4, (0, 2)), Crossing(5, (1, 2))),
        chains={0: (0, 4, 1), 1: (0, 5, 2), 2: (0, 4, 5, 3), 3: (1, 2),
                4: (2, 3)},
        rotation={
            0: ((2, 0), (0, 0), (1, 0)),
            1: ((3, 0), (0, 1)),
            2: ((4, 0), (1, 1), (3, 0)),
            3: ((2, 2), (4, 0)),
            4: ((2, 0), (0, 1), (2, 1), (0, 0)),
            5: ((2, 1), (1, 1), (2, 2), (1, 0)),
        },
        anchors=(0, 1, 2, 3),
    )


def scene_drawing():
    """The first seed-1 scene of the scenes benchmark that converts with a
    crossing: two chords into anchor 2 cross once, anchors 3 and 4 are
    bare."""
    g = Graph((0, 1, 2, 3, 4), ((0, 2), (1, 2)))
    return Drawing(
        g,
        crossings=(Crossing(5, (0, 1)),),
        chains={0: (0, 5, 2), 1: (1, 5, 2)},
        rotation={
            5: ((0, 0), (1, 0), (0, 1), (1, 1)),
            0: ((0, 0),),
            1: ((1, 0),),
            2: ((1, 1), (0, 1)),
            3: (),
            4: (),
        },
        anchors=(0, 1, 2, 3, 4),
    )


# ------------------------------------------------------------- validation


def test_valid_fixtures_pass():
    for d in (anchored_triangle(), crossing_chords(), double_crossing(),
              adjacent_cross(), comb(), search_certificate(),
              scene_drawing()):
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
    assert d.graph.n + len(d.crossings) - n_arcs + len(pm.faces) == 2


def test_a_rotation_entry_that_is_not_a_tuple_is_reported():
    d = crossing_chords()
    bad = replace(d, rotation={**d.rotation, 0: ([0, 0],)})
    assert validate(bad) == [
        "rotation: node 0 lists [[0, 0]] but its chains imply [(0, 0)]"]


def test_chain_keys_that_are_not_all_ints_are_reported():
    d = crossing_chords()
    bad = replace(d, chains={"0": d.chains[0], 1: d.chains[1]})
    assert validate(bad) == ["chain: chains must cover exactly the edge ids"]


def test_a_crossing_edge_list_that_is_not_a_pair_is_reported():
    d = comb()
    bad = replace(d, crossings=(Crossing(6, (0, 1)), Crossing(7, (0, 2, 2))))
    assert validate(bad) == ["crossing: node 7 has a bad edge pair (0, 2, 2)"]


@pytest.mark.parametrize("pair", [(0.0, 5.0), (False, 5), (0, 5.0), 5])
def test_a_crossing_edge_id_that_is_no_integer_is_reported(pair):
    d = build_G2().drawing
    bad = replace(d, crossings=tuple(
        Crossing(20, pair) if x.id == 20 else x for x in d.crossings))
    assert validate(bad) == [f"crossing: node 20 has a bad edge pair {pair}"]


def test_a_crossing_id_that_is_no_integer_is_reported():
    # 20.0 equals the node 20 that the chains and the rotation name, so
    # only its type tells it apart
    d = build_G2().drawing
    bad = replace(d, crossings=tuple(
        Crossing(20.0, (0, 5)) if x.id == 20 else x for x in d.crossings))
    assert validate(bad) == ["crossing: node 20.0 has a bad id"]


@pytest.mark.parametrize("xid, pair, want", [
    ([20], (0, 5), ["crossing: node [20] has a bad id",
                    "chain: edge 0 visits undeclared node 20",
                    "chain: edge 5 visits undeclared node 20"]),
    (20, {0, 5}, ["crossing: node 20 has a bad edge pair {0, 5}"]),
])
def test_odd_crossing_shapes_are_reported(xid, pair, want):
    # an id that does not hash, and a pair in no order
    d = build_G2().drawing
    bad = replace(d, crossings=tuple(
        Crossing(xid, pair) if x.id == 20 else x for x in d.crossings))
    assert validate(bad) == want


def test_a_crossing_pair_given_as_an_iterator_is_reported():
    # an iterator is named by its type, not by its repr, whose address
    # changes from object to object
    d = build_G2().drawing
    reports = [validate(replace(d, crossings=tuple(
        Crossing(20, iter((0, 5))) if x.id == 20 else x
        for x in d.crossings))) for _ in range(2)]
    assert reports == [
        ["crossing: node 20 has a bad edge pair <tuple_iterator>"]] * 2


def test_a_crossing_pair_may_be_a_list():
    d = build_G2().drawing
    ok = replace(d, crossings=tuple(Crossing(x.id, list(x.edges))
                                    for x in d.crossings))
    assert validate(ok) == []


@pytest.mark.parametrize("where, bad", [(1, 20.0), (0, 0.0), (1, True)])
def test_a_chain_node_id_that_is_no_integer_is_reported(where, bad):
    # 20.0 and True equal nodes the drawing has, so only their types tell
    # them apart; numpy's integers are ids as graphs._id reads them
    d = build_G2().drawing
    ch = list(d.chains[0])
    assert ch[:2] == [0, 20]
    ch[where] = bad
    assert validate(replace(d, chains={**d.chains, 0: tuple(ch)})) == [
        f"chain: edge 0 has a bad node id {bad!r}"]
    numpy = {e: tuple(map(np.int64, c)) for e, c in d.chains.items()}
    assert validate(replace(d, chains=numpy)) == []


@pytest.mark.parametrize("refs", [([2, 0], (1, 4)), (2, (1, 4))])
def test_rotation_entries_that_do_not_compare_are_reported(refs):
    d = build_G2().drawing
    want = sorted(d.rotation[19])
    bad = replace(d, rotation={**d.rotation, 19: refs})
    assert validate(bad) == [f"rotation: node 19 lists {list(refs)} "
                             f"but its chains imply {want}"]


@pytest.mark.parametrize("node, i, ref", [
    (19, 1, (1.0, 4)), (19, 1, (True, 4)), (19, 1, (1, 4.0)),
    (7, 0, (4, True))])
def test_a_rotation_id_that_is_no_integer_is_reported(node, i, ref):
    # a float or bool equals the int it stands in for, so only its type
    # tells it apart
    d = build_G2().drawing
    refs = list(d.rotation[node])
    want, refs[i] = sorted(refs), ref
    bad = replace(d, rotation={**d.rotation, node: tuple(refs)})
    assert validate(bad) == [f"rotation: node {node} lists {sorted(refs)} "
                             f"but its chains imply {want}"]


def test_numpy_integer_ids_are_valid():
    d = build_G2().drawing
    one, four, five = np.int64(1), np.int8(4), np.int64(5)
    assert validate(replace(
        d, crossings=tuple(Crossing(20, (np.int64(0), five)) if x.id == 20
                           else x for x in d.crossings),
        rotation={**d.rotation, 19: ((2, 0), (one, four))})) == []


# ------------------------------------------------- the dart map, pinned


@functools.lru_cache(maxsize=None)
def _built(name):
    """The drawings the dart map and the mutation corpus start from."""
    if name == "g2":
        return build_G2().drawing
    if name == "search-seed1":
        return search_certificate()
    if name == "scene-seed1":
        return scene_drawing()
    if name == "gk4":
        return build_Gk(4).drawing
    kind, t = name.rsplit("-t", 1)
    g2 = build_G2()
    frame = build_frame(g2.anchored_graph, 2, int(t))
    return frame.drawing if kind == "frame" else compose(frame, g2)


# sha256 of repr((first_arc, arc_tail, arc_head, _next, faces)), recorded
# before the dart map was built from the concatenated chain lists
_DART_MAP_DIGESTS = {
    "g2":
        "d45eb0c2a997d4d719db16bc73ae945b46d6ddb23eadb82f07c1c1449d53b137",
    "gk4":
        "b79b11e52e5f13e987a12e01fc7903cab78f9be364749cff65f8394f674bb674",
    "frame-t1":
        "894d98e442ef3a5f83633571c1b9b026483fa0ef806e57264dc78ee690babfbf",
    "frame-t3":
        "cc91388eb893652dff5522d8f86c209e6462f1bfff5e335aa41045a8da9e6c2e",
    "composed-t1":
        "c046bd9fa14b0e3e45345d137bc68a5bcf9f1027a74a45d4bbaaa5928a8fbf65",
    "composed-t3":
        "37fcca554686db9f9d027e9256a7bca7aa5ca662bc89327c28a2e092da93bebf",
    # recorded before the dart map became one loop over the chains and one
    # over the rotation
    "search-seed1":
        "43478754922d04d74e320546b5b304688d81c90de88222f4a3777de786d0ae4f",
    "scene-seed1":
        "97ace1f28a33d5b50e75bdcc91322b4d2789248322a4e6ad87530f2368d6f521",
}


@pytest.mark.parametrize("name", sorted(_DART_MAP_DIGESTS))
def test_dart_map_is_pinned(name):
    d = _built(name)
    assert validate(d) == []
    pm = d.planarization
    state = (pm.first_arc, pm.arc_tail, pm.arc_head, pm._next, pm.faces)
    digest = hashlib.sha256(repr(state).encode()).hexdigest()
    assert digest == _DART_MAP_DIGESTS[name]


# ---------------------------------------------- mutated-drawing corpus

# the two small bases come three times as often: they meet every level's
# test as the frame ones do, at a hundredth of the cost
_CORPUS_BASES = ("g2", "gk4") * 3 + ("frame-t1", "composed-t1")
_FAULTS = (
    "chain reversed", "chain node dropped", "chain node inserted",
    "vertex mid-chain", "crossing relabelled", "bad edge pair",
    "duplicate crossing id", "crossing id is a vertex", "ref dropped",
    "ref added", "ref moved", "unknown rotation node", "alternation swap",
    "mirror swap", "repeated anchor", "unknown anchor",
)


@st.composite
def mutated_drawings(draw):
    """One of the corpus bases with one fault of a named family."""

    # One draw of eight bytes seeds every choice.  Hypothesis mixes the
    # integer literals of the modules loaded so far into its integer draws
    # (and bytes literals, of which the package has none, into its bytes
    # draws), so integer draws would make the corpus depend on which tests
    # ran first; and one draw is much cheaper than forty.
    pick = random.Random(draw(st.binary(min_size=8, max_size=8))).choice

    name, fault = pick(_CORPUS_BASES), pick(_FAULTS)
    d = _built(name)
    g, m = d.graph, d.graph.m
    chains, rot, xs = dict(d.chains), dict(d.rotation), list(d.crossings)
    nodes = g.vertices + d.crossing_ids()
    anchors, fresh = d.anchors, max(nodes) + 1
    e = pick(range(m))
    ch = list(chains[e])
    i = pick(range(len(xs)))
    x = xs[i]
    node = pick(sorted(v for v in rot if rot[v]))
    refs = list(rot[node])
    k = pick(range(len(refs)))
    if fault == "chain reversed":
        ch.reverse()
    elif fault == "chain node dropped":
        del ch[pick(range(len(ch)))]
    elif fault == "chain node inserted":
        ch.insert(pick(range(len(ch) + 1)), pick(nodes + (fresh,)))
    elif fault == "vertex mid-chain":
        ch.insert(pick(range(1, len(ch))), pick(g.vertices))
    elif fault == "crossing relabelled":
        other = pick([f for f in range(m) if f not in x.edges])
        xs[i] = Crossing(x.id, (x.edges[pick((0, 1))], other))
    elif fault == "bad edge pair":
        xs[i] = Crossing(x.id, pick([(e, e), (e, m), (-1, e), (m + 5, -2)]))
    elif fault == "duplicate crossing id":
        xs[i] = Crossing(pick(xs[:i] + xs[i + 1:]).id, x.edges)
    elif fault == "crossing id is a vertex":
        xs[i] = Crossing(pick(g.vertices), x.edges)
    elif fault == "ref dropped":
        del refs[k]
    elif fault == "ref added":
        other = pick(sorted(rot))
        refs.insert(k, pick(
            list(rot[other]) + [(m, 0), (e, len(ch) - 1), (e, -1), (-1, 0)]))
    elif fault == "ref moved":
        other = pick(sorted(set(rot) - {node}))
        moved = list(rot[other])
        moved.insert(pick(range(len(moved) + 1)), refs.pop(k))
        rot[other] = tuple(moved)
    elif fault == "unknown rotation node":
        rot[fresh] = pick([(), tuple(refs[:1])])
    elif fault in ("alternation swap", "mirror swap"):
        # around a crossing, neighbours swapped break the alternation and
        # opposite ends swapped mirror it
        node, refs = x.id, list(rot[x.id])
        j, step = pick(range(4)), 1 if fault == "alternation swap" else 2
        refs[j], refs[(j + step) % 4] = refs[(j + step) % 4], refs[j]
    elif fault == "repeated anchor":
        base = anchors or g.vertices[:3]
        anchors = base + (pick(base),)
    else:
        anchors = (anchors or g.vertices[:3]) + (fresh,)
    if fault.startswith(("chain", "vertex")):
        chains[e] = tuple(ch)
    if fault.startswith(("ref", "alternation", "mirror")):
        rot[node] = tuple(refs)
    return name, fault, Drawing(g, tuple(xs), chains, rot, anchors)


# ------------------------------------------- the dart map, as it was built

_FIRST, _SECOND = itemgetter(0), itemgetter(1)
_BUT_LAST, _BUT_FIRST = itemgetter(slice(-1)), itemgetter(slice(1, None))


class _ReferenceMap:
    """``PlanarizationMap``'s fields as the map built them from builtins
    over the drawing's concatenated lists, before it became one loop over
    the chains and one over the rotation."""

    def __init__(self, d):
        anchors, rot, m = d.anchors or (), d.rotation, d.graph.m
        b, chains = len(anchors), list(map(d.chains.__getitem__, range(m)))
        segs = list(map(sub, map(len, chains), repeat(1)))
        first = self.first_arc = list(accumulate(segs, initial=b))[:m]
        tails = [*anchors, *chain.from_iterable(map(_BUT_LAST, chains))]
        heads = [*anchors[1:], *anchors[:1],
                 *chain.from_iterable(map(_BUT_FIRST, chains))]
        self.arc_tail, self.arc_head, self._tail = tails, heads, tails + heads
        self._tail[0::2], self._tail[1::2] = tails, heads
        nxt = self._next = [0] * len(self._tail)
        lens = list(map(len, rot.values()))
        refs = list(chain.from_iterable(rot.values()))
        at = list(chain.from_iterable(map(repeat, rot, lens)))
        es, ii = (list(map(_FIRST, refs)), list(map(_SECOND, refs))) if (
            set(map(len, refs)) <= {2}) else ([], [])
        self.agrees = self._permutes = len(es) == len(refs) and (not es or (
            0 <= min(es) and 0 <= min(ii) and max(es) < m
            and all(map(lt, ii, map(segs.__getitem__, es)))))
        if not self.agrees:
            return
        arcs = list(map(add, map(first.__getitem__, es), ii))
        darts = list(map(add, map(add, arcs, arcs),
                         map(ne, map(tails.__getitem__, arcs), at)))
        once = len(set(darts)) == len(darts) == len(nxt) - 2 * b
        self._permutes = once and len(set(anchors)) == b
        self.agrees = (set(map(type, refs)) <= {tuple} and once
                       and list(map(self._tail.__getitem__, darts)) == at)
        put, get = nxt.__setitem__, darts.__getitem__
        ends = list(compress(accumulate(lens), lens))
        nodes = list(compress(rot, lens))
        leads = list(map(get, map(sub, ends, compress(lens, lens))))
        back = [2 * b - 1, *range(1, 2 * b - 1, 2)][:b]
        collections.deque(map(put, darts, darts[1:] + darts[:1]), 0)
        collections.deque(map(put, map(get, map(sub, ends, repeat(1))), map(
            dict(zip(anchors, back)).get, nodes, leads)), 0)
        nxt[0:2 * b:2] = map(dict(zip(nodes, leads)).get, anchors, back)
        nxt[1:2 * b:2] = [*range(2, 2 * b, 2), 0][:b]


def _map_fields(pm):
    """The fields that must not drift; ``_next`` means something only
    when it is a permutation."""
    return (pm.first_arc, pm.arc_tail, pm.arc_head, pm._tail, pm.agrees,
            pm._permutes, pm._next if pm._permutes else None)


def _search_certificates(seed=1, count=1000):
    """The Found certificates of the search benchmark's random batch, by
    its law: 5 distinct chords on 4 to 8 anchors, under one of six
    (k, simple) settings."""
    rng = random.Random(seed)
    settings = ((0, False), (1, False), (1, True), (2, False), (2, True),
                (3, False))
    for _ in range(count):
        k, simple = rng.choice(settings)
        n = rng.randint(4, 8)
        pairs = rng.sample(list(combinations(range(n), 2)), 5)
        ag = AnchoredGraph(Graph(tuple(range(n)), tuple(sorted(pairs))),
                           tuple(range(n)))
        certificate = search_anchored(ag, k, require_simple=simple).certificate
        if certificate is not None:
            yield certificate


def test_dart_map_matches_the_reference_on_certificates():
    drawings = [*_search_certificates(), search_certificate(),
                scene_drawing(), *map(_built, ("g2", "gk4", "frame-t1"))]
    assert len(drawings) > 700
    for d in drawings:
        assert _map_fields(PlanarizationMap(d)) == _map_fields(
            _ReferenceMap(d))


def test_dart_map_matches_the_reference_on_mutated_drawings():
    seen = collections.Counter()

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(mutated_drawings())
    def compare(case):
        name, fault, d = case
        pm = PlanarizationMap(d)
        assert _map_fields(pm) == _map_fields(_ReferenceMap(d)), (name, fault)
        seen[pm.agrees, pm._permutes] += 1

    compare()
    # faulty maps of both kinds are met, and some that are permutations
    assert seen[False, False] and seen[False, True] and seen[True, True]


def _corpus_reports():
    reports = []

    @settings(max_examples=2000, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(mutated_drawings())
    def collect(case):
        name, fault, d = case
        reports.append(f"{name} / {fault}: {validate(d)}")

    collect()
    return reports


# sha256 of the reports' lines, recorded before validation went a level
# at a time
_CORPUS_DIGEST = (
    "8e48ad5fe31700f126f865452effcab2c8876c28d46e0d0807a02208df812921")


def test_mutated_drawings_are_reported_as_before():
    reports = _corpus_reports()
    assert len(reports) == 2000
    # every fault family is met, and every fault is found
    met = {r.split(": ", 1)[0].split(" / ")[1] for r in reports}
    assert met == set(_FAULTS)
    assert not any(r.endswith(": []") for r in reports)
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    assert digest == _CORPUS_DIGEST


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


# the predicates' answers on the bundled drawings, as they were before the
# profile was kept: is_simple, is_min_k_planar at k = 0..4, is_k_planar at
# k = 3, 4, 5, 6, 9, and verify_certificate at k = 1, 2, 3, each without
# and with simplicity
_BUNDLE_VERDICTS = {
    "G2": (
        (False, ((0, 3), "edges share a vertex and cross")),
        [(False, (0, 2)), (False, (0, 2)), (True, None), (True, None),
         (True, None)],
        [(False, 0), (False, 0), (True, None), (True, None), (True, None)],
        [False, False, True, False, True, False]),
    "Gk(3)": (
        (False, ((0, 4), "pair crosses more than once")),
        [(False, (0, 2)), (False, (0, 2)), (False, (0, 4)), (True, None),
         (True, None)],
        [(False, 0), (False, 0), (False, 0), (False, 0), (True, None)],
        [False, False, False, False, True, False]),
}


@pytest.mark.parametrize("name", sorted(_BUNDLE_VERDICTS))
def test_the_crossing_profile_is_built_once_per_drawing(name, monkeypatch):
    built = []
    real = drawings.CrossingProfile

    def counted(*fields):
        built.append(fields)
        return real(*fields)

    monkeypatch.setattr(drawings, "CrossingProfile", counted)
    b = build_G2() if name == "G2" else build_Gk(3)
    d, ag = b.drawing, b.anchored_graph
    found = SearchOutcome(Status.FOUND, d, SearchStats())
    got = (is_simple(d), [is_min_k_planar(d, k) for k in range(5)],
           [is_k_planar(d, k) for k in (3, 4, 5, 6, 9)],
           [verify_certificate(found, ag, k, simple)
            for k in (1, 2, 3) for simple in (False, True)])
    assert len(built) == 1
    assert got == _BUNDLE_VERDICTS[name]
    # replace makes a new object, which builds a profile of its own
    again = replace(d)
    assert is_simple(again) == got[0]
    assert len(built) == 2
    assert crossing_profile(again) == crossing_profile(d)
    assert len(built) == 2


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


@pytest.mark.parametrize("k", [1.5, True, -1, "2", None, 2 ** 53])
def test_k_planarity_rejects_a_k_that_is_no_count(k):
    d = double_crossing()
    for predicate in (is_k_planar, is_min_k_planar):
        with pytest.raises(InputError):
            predicate(d, k)
    # numpy's integers are counts like any other
    assert is_min_k_planar(d, np.int64(1)) == is_min_k_planar(d, 1)


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
        assert drawing_text(out) == drawing_text(d)


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


@pytest.mark.parametrize("ids", [[True], [0, False], [1.0], [-1], ["0"],
                                 [2**53]], ids=repr)
def test_restrict_checks_edge_ids_as_graph_does(ids):
    # a bool is no id, though True == 1; nor is a float or a string
    with pytest.raises(InputError, match="^keep_edges/"):
        restrict(build_G2().drawing, ids)


def test_restrict_takes_numpy_integer_ids_as_ints():
    out, emap = restrict(build_G2().drawing, [np.int64(3), np.uint8(0)])
    assert emap == {0: 0, 3: 1}
    assert set(map(type, emap)) == {int}
    assert drawing_text(out) == drawing_text(
        restrict(build_G2().drawing, [0, 3])[0])


# ------------------------------------------------------------------ mirror


def test_mirror_is_an_involution():
    for d in (anchored_triangle(), crossing_chords(), double_crossing()):
        m = mirror(d)
        assert validate(m) == []
        assert drawing_text(mirror(m)) == drawing_text(d)


def test_mirror_reverses_anchor_circle():
    d = crossing_chords()
    assert mirror(d).anchors == (0, 3, 2, 1)
    prof = crossing_profile(mirror(d))
    assert prof.per_pair == {(0, 1): 1}
