"""Graph container, amplification and anchor-distance tests."""

import random

import numpy as np
import pytest

from minkplanar.errors import InputError
from minkplanar.frames import build_frame
from minkplanar.graphs import (
    AnchoredGraph,
    Graph,
    components,
    max_finite_anchor_distance,
    t_amplify,
)
from minkplanar.oracle import brute_oracle
from minkplanar.search import search_anchored


def triangle():
    return Graph((0, 1, 2), ((0, 1), (1, 2), (2, 0)))


def k4():
    return Graph(tuple(range(4)), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def k5():
    vs = tuple(range(5))
    es = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
    return Graph(vs, es)


# ---------------------------------------------------------- construction


def test_basic_queries():
    g = triangle()
    assert g.n == 3 and g.m == 3
    assert g.edges[1] == (1, 2)
    assert g.other_end(2, 0) == 2
    assert len(g.neighbors(0)) == 2
    assert set(g.neighbors(2)) == {0, 1}
    assert g.adjacent_edges(0, 1)
    assert not Graph((0, 1, 2, 3), ((0, 1), (2, 3))).adjacent_edges(0, 1)


def test_rejects_malformed():
    with pytest.raises(InputError):
        Graph((0, 1), ((0, 0),))  # loop
    with pytest.raises(InputError):
        Graph((0, 1), ((0, 2),))  # undeclared endpoint
    with pytest.raises(InputError):
        Graph((0, 0, 1), ((0, 1),))  # duplicate vertex
    with pytest.raises(InputError):
        Graph((0, 1), ((0, 1), (1, 0)))  # parallel in a simple graph
    with pytest.raises(InputError):
        Graph((-1, 0), ((0, -1),))
    # parallels are fine in multigraphs
    g = Graph((0, 1), ((0, 1), (1, 0)), simple=False)
    assert g.m == 2


def test_components():
    g = Graph((0, 1, 2, 3, 4), ((0, 1), (2, 3)))
    assert g.components() == [(0, 1), (2, 3), (4,)]


def test_components_helper_gives_bfs_distances():
    path = Graph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    assert components([1], path.neighbors) == [{1: 0, 0: 1, 2: 1, 3: 2}]
    # every listed node not yet reached starts a component of its own
    assert components([3, 0, 2], lambda v: ()) == [{3: 0}, {0: 0}, {2: 0}]


def test_graph_errors_carry_pointers():
    with pytest.raises(InputError, match=r"^/edges/1: loop"):
        Graph((0, 1), ((0, 1), (1, 1)))
    with pytest.raises(InputError, match=r"^/anchors/1: anchor 7"):
        AnchoredGraph(triangle(), (0, 7))


_NOT_AN_ID = "expected a non-negative integer"
_TOO_LARGE = r"expected an integer at most 2\*\*53 - 1"


@pytest.mark.parametrize("build, pointer, message", [
    (lambda: Graph((0, 1.7, 2), ((0, 1.7), (1.7, 2))), "/vertices/1",
     _NOT_AN_ID),
    (lambda: Graph(("0", "1"), (("0", "1"),)), "/vertices/0", _NOT_AN_ID),
    (lambda: Graph((0, 1, 1.2), ((0, 1),)), "/vertices/2", _NOT_AN_ID),
    (lambda: Graph((0, True), ()), "/vertices/1", _NOT_AN_ID),
    (lambda: Graph((-1, 0), ((0, -1),)), "/vertices/0", _NOT_AN_ID),
    (lambda: Graph((0, 2**63), ((0, 2**63),)), "/vertices/1", _TOO_LARGE),
    (lambda: Graph((0, 1), ((0, 1), (1, 0.0))), "/edges/1", _NOT_AN_ID),
    (lambda: Graph((0, 1), ((0, 1), (1, 2**53))), "/edges/1", _TOO_LARGE),
    (lambda: Graph((0, 1, 2), ((0, 1), (0, 1, 2))), "/edges/1",
     "expected 2 endpoints"),
    (lambda: AnchoredGraph(triangle(), (0, 2.9)), "/anchors/1", _NOT_AN_ID),
    (lambda: AnchoredGraph(triangle(), (False, 2)), "/anchors/0",
     _NOT_AN_ID),
], ids=["float", "str", "float-beside-its-floor", "bool", "negative",
        "past-int64", "float-end", "past-2**53-end", "three-ends",
        "float-anchor", "bool-anchor"])
def test_ids_are_checked_not_coerced(build, pointer, message):
    with pytest.raises(InputError, match=rf"^{pointer}: {message}$"):
        build()


def _path() -> AnchoredGraph:
    return AnchoredGraph(Graph((0, 1, 2), ((0, 1), (1, 2))), (0, 2))


@pytest.mark.parametrize("call, name", [
    (lambda: build_frame(_path(), True, 1), "k"),
    (lambda: build_frame(_path(), 1, 2.0), "t"),
    (lambda: t_amplify(triangle(), 1.5), "t"),
    (lambda: t_amplify(triangle(), True), "t"),
    (lambda: search_anchored(_path(), 1.5), "k"),
    (lambda: search_anchored(_path(), True), "k"),
    (lambda: brute_oracle(_path(), 1.5), "k"),
    (lambda: brute_oracle(_path(), True), "k"),
], ids=["frame-bool-k", "frame-float-t", "amplify-float-t", "amplify-bool-t",
        "search-float-k", "search-bool-k", "oracle-float-k", "oracle-bool-k"])
def test_integer_parameters_are_checked_not_coerced(call, name):
    with pytest.raises(InputError, match=rf"^{name}: {_NOT_AN_ID}$"):
        call()


def test_numpy_integer_ids_become_ints():
    top = 2**53 - 1
    g = Graph(np.array([0, 1, top]), np.array([[0, 1], [1, top]]))
    ag = AnchoredGraph(g, np.array([top, 0]))
    assert g == Graph((0, 1, top), ((0, 1), (1, top)))
    assert ag.anchors == (top, 0)
    ids = (*g.vertices, *g.edges[0], *g.edges[1], *ag.anchors)
    assert {type(v) for v in ids} == {int}


def test_anchored_graph_checks():
    ag = AnchoredGraph(triangle(), (0, 1))
    assert ag.anchor_set == {0, 1}
    assert ag.interior_vertices() == (2,)
    with pytest.raises(InputError):
        AnchoredGraph(triangle(), (0, 0))
    with pytest.raises(InputError):
        AnchoredGraph(triangle(), (0, 7))


# --------------------------------------------------------- amplification


def test_amplify_single_edge():
    g = Graph((0, 1), ((0, 1),))
    amp, cmap = t_amplify(g, 3)
    # 2 originals + 3 midpoints, 6 half edges, one class of 3 copies
    assert amp.n == 5
    assert amp.m == 6
    assert cmap.t == 3
    assert list(cmap.by_edge) == [0]
    assert len(cmap.by_edge[0]) == 3
    for _, _, de in cmap.double_edges():
        assert len(amp.neighbors(de.midpoint)) == 2
        assert set(amp.neighbors(de.midpoint)) == {0, 1}
        u_half, v_half = de.halves
        assert amp.edges[u_half] == (0, de.midpoint)
        assert amp.edges[v_half] == (de.midpoint, 1)
    assert cmap.half_ids() == tuple(range(6))


def test_amplify_triangle():
    amp, cmap = t_amplify(triangle(), 2)
    assert amp.n == 9  # 3 + 3 edges * 2 midpoints
    assert amp.m == 12
    assert len(cmap.by_edge) == 3
    assert cmap.kept_edge_map == {}


def test_amplify_keeps_selected_edges_in_front():
    g = k4()
    amp, cmap = t_amplify(g, 2, amplify_edges=[0, 2, 4])
    assert cmap.kept_edge_map == {1: 0, 3: 1, 5: 2}
    assert amp.edges[0] == g.edges[1]
    assert amp.edges[1] == g.edges[3]
    assert amp.edges[2] == g.edges[5]
    # each amplified edge contributes 2 midpoints and 4 halves
    assert amp.n == 4 + 3 * 2
    assert amp.m == 3 + 3 * 4
    owners = {cmap.half_owner[h][0] for h in cmap.half_ids()}
    assert owners == {0, 2, 4}


def test_amplify_partition_validation():
    g = triangle()
    with pytest.raises(InputError):
        t_amplify(g, 0)
    with pytest.raises(InputError, match="^unknown edge id 7$"):
        t_amplify(g, 2, amplify_edges=[0, 1, 7])
    # a bool is no id, though True == 1; nor is a float
    with pytest.raises(InputError, match="^amplify_edges/0: "):
        t_amplify(g, 2, amplify_edges=[True, 0, 2])
    with pytest.raises(InputError, match="^amplify_edges/0: "):
        t_amplify(g, 2, amplify_edges=[0.0, 1, 2])


def test_amplify_preserves_planarity_status():
    import networkx as nx

    amp_pl, _ = t_amplify(k4(), 3)
    ok, _ = nx.check_planarity(nx.Graph(amp_pl.edges))
    assert ok
    amp_np, _ = t_amplify(k5(), 2)
    ok, _ = nx.check_planarity(nx.Graph(amp_np.edges))
    assert not ok


def test_amplify_contract_recovers_original():
    # Collapsing every replacement path back to one edge must give back a
    # graph isomorphic to the original (multiplicity t on amplified edges).
    import networkx as nx

    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(3, 7)
        vs = tuple(range(n))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        es = tuple(sorted(rng.sample(all_pairs, rng.randrange(1, len(all_pairs)))))
        g = Graph(vs, es)
        t = rng.randrange(1, 4)
        amp, cmap = t_amplify(g, t)
        collapsed = nx.MultiGraph()
        collapsed.add_nodes_from(g.vertices)
        for e, _, de in cmap.double_edges():
            u, v = g.edges[e]
            assert set(amp.neighbors(de.midpoint)) == {u, v}
            collapsed.add_edge(u, v)
        want = nx.MultiGraph()
        want.add_nodes_from(g.vertices)
        for u, v in g.edges:
            for _ in range(t):
                want.add_edge(u, v)
        assert nx.is_isomorphic(collapsed, want)


# -------------------------------------------------------- anchor distance


def test_anchor_distance_all_anchored():
    g = triangle()
    assert max_finite_anchor_distance(AnchoredGraph(g, (0, 1, 2))) == 0


def test_anchor_distance_interior_path():
    # a - x - y - b, anchors a and b: y is two steps from a
    g = Graph((0, 1, 2, 3), ((0, 2), (2, 3), (3, 1)))
    ag = AnchoredGraph(g, (0, 1))
    assert max_finite_anchor_distance(ag) == 2


def test_anchor_distance_discards_dangling_component():
    # pendant path hanging off one anchor only does not count
    g = Graph((0, 1, 2, 3, 4), ((0, 1), (0, 2), (2, 3), (3, 4)))
    ag = AnchoredGraph(g, (0, 1))
    assert max_finite_anchor_distance(ag) == 0


def test_anchor_distance_mixed():
    # one surviving interior component at distance 1, one discarded tail
    g = Graph(
        (0, 1, 2, 3, 4),
        ((0, 2), (2, 1), (0, 3), (3, 4)),
    )
    ag = AnchoredGraph(g, (0, 1))
    assert max_finite_anchor_distance(ag) == 1

