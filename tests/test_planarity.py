"""The left-right planarity test, judged by networkx's ``check_planarity``.

Every graph here is handed to ``is_planar`` as int adjacency sets, under
a seeded random relabelling, so that the depth-first search meets its
nodes in many orders.  K3,3, the Petersen graph and the subdivisions of
K5 are non-planar within the planar edge bound 3n - 6, so a routine that
decides by the edge count alone fails on them, as does one that always
answers "planar".  The last test runs the brute oracle on criterion 04's
instances and judges every gadget it builds.
"""

import itertools
import random

import networkx as nx
import pytest

from minkplanar import oracle
from minkplanar.planarity import is_planar
from minkplanar.sampling import random_anchored_graph

from test_search import family_up_to_rotation


def adjacency(graph: nx.Graph, rng: random.Random | None = None):
    """``graph`` as adjacency sets on 0 .. n - 1, relabelled at random
    when ``rng`` is given."""
    nodes = list(graph.nodes)
    if rng is not None:
        rng.shuffle(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adj = [set() for _ in nodes]
    for u, v in graph.edges:
        adj[index[u]].add(index[v])
        adj[index[v]].add(index[u])
    return adj


def judged(graph: nx.Graph, rng: random.Random) -> bool:
    """networkx's answer for ``graph``, after checking that ours agrees."""
    want = nx.check_planarity(graph)[0]
    assert is_planar(adjacency(graph, rng)) is want, sorted(graph.edges)
    return want


def subdivided(graph: nx.Graph, rng: random.Random, most: int = 3) -> nx.Graph:
    """``graph`` with up to ``most`` new nodes on every edge."""
    out = nx.Graph()
    out.add_nodes_from(graph.nodes)
    fresh = itertools.count(max(graph.nodes) + 1)
    for u, v in graph.edges:
        path = [u, *(next(fresh) for _ in range(rng.randint(0, most))), v]
        out.add_edges_from(zip(path, path[1:]))
    return out


def triangulation(n: int, rng: random.Random) -> nx.Graph:
    """A random maximal planar graph on n >= 3 nodes: each new node goes
    into a random face, then n random edges are flipped where they can be.
    Faces are kept as node triples, all oriented alike."""
    graph = nx.Graph([(0, 1), (1, 2), (0, 2)])
    faces = [(0, 1, 2), (0, 2, 1)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        graph.add_edges_from([(v, a), (v, b), (v, c)])
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    for _ in range(n):
        f = rng.choice(faces)
        i = rng.randrange(3)
        a, b, c = f[i], f[(i + 1) % 3], f[(i + 2) % 3]
        # the other face on edge ab runs b -> a -> d
        g = next(h for h in faces if h != f and a in h and b in h)
        d = next(x for x in g if x not in (a, b))
        if c == d or graph.has_edge(c, d):
            continue
        graph.remove_edge(a, b)
        graph.add_edge(c, d)
        faces.remove(f)
        faces.remove(g)
        faces += [(a, d, c), (d, b, c)]
    return graph


def test_named_non_planar_graphs():
    rng = random.Random(1)
    k33, petersen = nx.complete_bipartite_graph(3, 3), nx.petersen_graph()
    # within the planar edge bound 3n - 6: no edge count rejects them
    for graph in (k33, petersen):
        assert graph.number_of_edges() <= 3 * graph.number_of_nodes() - 6
    for graph in (nx.complete_graph(5), k33, petersen):
        assert not judged(graph, rng)
        for _ in range(20):
            assert not judged(subdivided(graph, rng), rng)


def test_planar_minors_of_the_named_graphs():
    rng = random.Random(2)
    for graph in (nx.complete_graph(5), nx.complete_bipartite_graph(3, 3),
                  nx.petersen_graph()):
        for u, v in graph.edges:
            less = graph.copy()
            less.remove_edge(u, v)
            assert judged(subdivided(less, rng), rng) is judged(less, rng)


def test_wheels_and_grids_are_planar():
    rng = random.Random(3)
    for n in range(4, 40, 5):
        assert judged(nx.wheel_graph(n), rng)
    for rows, cols in ((1, 1), (2, 7), (5, 5), (12, 9)):
        assert judged(nx.grid_2d_graph(rows, cols), rng)
    # chords between rim nodes go outside the rim; two that interleave
    # there cross
    for n in range(6, 14):
        wheel = nx.wheel_graph(n)
        for _ in range(4):
            wheel.add_edge(*rng.sample(range(1, n), 2))
            judged(wheel, rng)


def test_random_triangulations_with_and_without_an_extra_edge():
    rng = random.Random(4)
    for n in (3, 4, 5, 8, 13, 30, 60):
        for _ in range(5):
            graph = triangulation(n, rng)
            assert graph.number_of_edges() == 3 * n - 6
            assert judged(graph, rng)
            missing = [e for e in itertools.combinations(range(n), 2)
                       if not graph.has_edge(*e)]
            if not missing:
                continue
            graph.add_edge(*rng.choice(missing))
            assert not judged(graph, rng)
            # two edges out: within the bound, either answer
            graph.remove_edge(*rng.choice(list(graph.edges)))
            graph.remove_edge(*rng.choice(list(graph.edges)))
            judged(graph, rng)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_random_graphs(seed):
    rng = random.Random(seed)
    answers = set()
    for _ in range(400):
        n = rng.randint(1, 16)
        m = rng.randint(0, min(n * (n - 1) // 2, 3 * n - 6 if n > 2 else 1))
        graph = nx.gnm_random_graph(n, m, seed=rng.randrange(2 ** 32))
        answers.add(judged(graph, rng))
    assert answers == {True, False}


def test_components_loops_and_isolated_nodes():
    rng = random.Random(5)
    graph = nx.disjoint_union_all([nx.cycle_graph(5), nx.empty_graph(3),
                                   nx.complete_bipartite_graph(3, 3)])
    assert not judged(graph, rng)
    graph.remove_edge(*next(iter(graph.edges(range(8, 14)))))
    assert judged(graph, rng)
    # a loop never changes the answer
    adj = adjacency(nx.complete_graph(4))
    adj[0].add(0)
    assert is_planar(adj)
    adj = adjacency(nx.complete_bipartite_graph(3, 3))
    adj[2].add(2)
    assert not is_planar(adj)
    assert is_planar([]) and is_planar([set()]) and is_planar([{1}, {0}])


def test_every_criterion_04_gadget_agrees(monkeypatch):
    seen = []

    def checked(adj):
        got = is_planar(adj)
        graph = nx.Graph()
        graph.add_edges_from((u, v) for u, ws in enumerate(adj) for v in ws)
        assert got is nx.check_planarity(graph)[0], adj
        seen.append(got)
        return got

    monkeypatch.setattr(oracle, "is_planar", checked)
    for ag in family_up_to_rotation(4):
        for k, simple in [(0, False), (1, False), (1, True)]:
            oracle.brute_oracle(ag, k, require_simple=simple)
    rng = random.Random(20260822)
    for _ in range(200):
        ag = random_anchored_graph(rng, n_edges=5)
        for k, simple in [(1, False), (1, True), (2, True), (2, False)]:
            oracle.brute_oracle(ag, k, require_simple=simple)
    assert True in seen and False in seen
