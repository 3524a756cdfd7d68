"""Existence search and brute oracle: statuses, certificates, budgets."""

import copy
import itertools
import random

import pytest

from minkplanar.arrangement import Arrangement, Cursor
from minkplanar.constructions import build_G2, build_Gk
from minkplanar.drawings import (crossing_profile, is_min_k_planar, is_simple,
                                 mirror, validate)
from minkplanar.errors import InputError
from minkplanar.graphs import AnchoredGraph, Graph
from minkplanar.oracle import brute_oracle
from minkplanar.sampling import random_anchored_graph
from minkplanar.search import (Budget, SearchOutcome, Status,
                               explore_open_question, insertion_order,
                               search_anchored, verify_certificate)


def interleaved_pair():
    g = Graph((0, 1, 2, 3), ((0, 2), (1, 3)))
    return AnchoredGraph(g, (0, 1, 2, 3))


def three_interleaved():
    g = Graph(tuple(range(6)), ((0, 3), (1, 4), (2, 5)))
    return AnchoredGraph(g, tuple(range(6)))


def reduced_g2():
    """The 20-vertex counterexample with both side matchings cut to one edge."""
    b = build_G2()
    g = b.anchored_graph
    keep = [b.edge(n) for n in
            ["a1a2", "c1c2", "c2c3", "b1a2", "m3_top", "m1_0", "m2_0"]]
    edges = tuple(g.graph.edges[e] for e in keep)
    used = sorted({v for e in edges for v in e})
    anchors = tuple(a for a in g.anchors if a in used)
    return AnchoredGraph(Graph(tuple(used), edges), anchors)


# ------------------------------------------------------------ tiny instances


def test_interleaved_pair_found_with_one_crossing():
    ag = interleaved_pair()
    out = search_anchored(ag, k=1, require_simple=True)
    assert out.status is Status.FOUND
    assert len(out.certificate.crossings) == 1
    assert verify_certificate(out, ag, 1, True)


def test_interleaved_pair_unsat_at_zero():
    # demanding zero crossings from an interleaved pair cannot work
    out = search_anchored(interleaved_pair(), k=0)
    assert out.status is Status.EXHAUSTED_UNSAT
    assert out.certificate is None


def test_adjacent_triangle_found_planar():
    g = Graph((0, 1, 2), ((0, 1), (1, 2), (0, 2)))
    ag = AnchoredGraph(g, (0, 1, 2))
    out = search_anchored(ag, k=0, require_simple=True)
    assert out.status is Status.FOUND
    assert len(out.certificate.crossings) == 0
    assert brute_oracle(ag, 0, require_simple=True).status is Status.FOUND


def test_three_interleaved_chords():
    ag = three_interleaved()
    # each pair must cross oddly, so all three edges end up heavy at k=1
    for simple in (True, False):
        assert search_anchored(ag, 1, simple).status is Status.EXHAUSTED_UNSAT
        assert brute_oracle(ag, 1, simple).status is Status.EXHAUSTED_UNSAT
    out = search_anchored(ag, 2, require_simple=True)
    assert out.status is Status.FOUND
    assert verify_certificate(out, ag, 2, True)


def test_reduced_counterexample_found():
    ag = reduced_g2()
    out = search_anchored(ag, k=2, require_simple=True)
    assert out.status is Status.FOUND
    assert validate(out.certificate) == []
    assert verify_certificate(out, ag, 2, True)


# -------------------------------------------------------------- full size


def test_full_counterexample_unsat_simple():
    g = build_G2().anchored_graph
    out = search_anchored(g, k=2, require_simple=True,
                          budget=Budget(seconds=1800))
    assert out.status is Status.EXHAUSTED_UNSAT


def test_full_counterexample_found_nonsimple():
    g = build_G2().anchored_graph
    out = search_anchored(g, k=2, require_simple=False)
    assert out.status is Status.FOUND
    assert verify_certificate(out, g, 2, False)
    d = out.certificate
    assert is_min_k_planar(d, 2)[0]
    assert not is_simple(d)[0]


def test_family_member_unsat_one_level_down():
    g3 = build_Gk(3).anchored_graph
    out = search_anchored(g3, k=2, require_simple=True,
                          budget=Budget(seconds=1800))
    assert out.status is Status.EXHAUSTED_UNSAT


# ------------------------------------------------------------------ budgets


def test_node_budget_reported_as_exceeded():
    g = build_G2().anchored_graph
    out = search_anchored(g, k=2, require_simple=False, budget=Budget(nodes=50))
    assert out.status is Status.BUDGET_EXCEEDED
    assert out.certificate is None
    assert out.stats.nodes == 51


def test_seconds_budget_reported_as_exceeded():
    g = build_G2().anchored_graph
    out = search_anchored(g, k=2, require_simple=True,
                          budget=Budget(seconds=0.0))
    assert out.status is Status.BUDGET_EXCEEDED


def test_generous_budget_does_not_change_status():
    ag = interleaved_pair()
    out = search_anchored(ag, k=1, require_simple=True,
                          budget=Budget(nodes=10_000, seconds=60.0))
    assert out.status is Status.FOUND


def test_status_and_stats_deterministic():
    g = reduced_g2()
    a = search_anchored(g, k=2, require_simple=True)
    b = search_anchored(g, k=2, require_simple=True)
    assert a.status is b.status
    assert (a.stats.nodes, a.stats.routes, a.stats.max_depth) == \
           (b.stats.nodes, b.stats.routes, b.stats.max_depth)


# ------------------------------------------------------------------ octagon


def test_octagon_diameters_agree_with_oracle():
    # the four diameters of an octagon: every pair interleaves, and every
    # rotation of the boundary maps the instance onto itself
    g4 = Graph(tuple(range(8)), ((0, 4), (1, 5), (2, 6), (3, 7)))
    ag4 = AnchoredGraph(g4, tuple(range(8)))
    for k, simple, expected in [(2, True, Status.EXHAUSTED_UNSAT),
                                (1, True, Status.EXHAUSTED_UNSAT),
                                (3, False, Status.FOUND)]:
        out = search_anchored(ag4, k, simple)
        assert out.status is expected
        assert brute_oracle(ag4, k, simple).status is expected
    assert verify_certificate(out, ag4, 3, False)


# ------------------------------------------------------------- certificates


def test_verify_rejects_mirrored_anchors():
    ag = interleaved_pair()
    out = search_anchored(ag, k=1, require_simple=True)
    flipped = SearchOutcome(status=Status.FOUND,
                            certificate=mirror(out.certificate),
                            stats=out.stats)
    assert flipped.certificate.anchors == (0, 3, 2, 1)
    assert not verify_certificate(flipped, ag, 1, True)


def test_verify_rejects_wrong_graph():
    ag = interleaved_pair()
    out = search_anchored(ag, k=1, require_simple=True)
    other = AnchoredGraph(Graph((0, 1, 2, 3), ((0, 1), (2, 3))), (0, 1, 2, 3))
    assert not verify_certificate(out, other, 1, True)
    assert not verify_certificate(
        SearchOutcome(Status.EXHAUSTED_UNSAT, None, out.stats), ag, 1, True)


# ------------------------------------------------------------------- errors


def test_rejects_anchor_free_component():
    g = Graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    ag = AnchoredGraph(g, (0, 1))
    with pytest.raises(InputError):
        search_anchored(ag, k=1)
    with pytest.raises(InputError):
        brute_oracle(ag, 1)


def test_rejects_bad_parameters():
    ag = interleaved_pair()
    with pytest.raises(InputError):
        search_anchored(ag, k=-1)
    with pytest.raises(InputError):
        brute_oracle(ag, -1)
    lone = AnchoredGraph(Graph((0, 1), ((0, 1),)), (0,))
    with pytest.raises(InputError):
        search_anchored(lone, k=1)
    big = Graph(tuple(range(12)), tuple((2 * i, 2 * i + 1) for i in range(6)))
    with pytest.raises(InputError):
        brute_oracle(AnchoredGraph(big, tuple(range(12))), 1)


def test_insertion_order_most_interleaving_first():
    b = build_G2()
    order = insertion_order(b.anchored_graph)
    assert order[0] == b.edge("a1a2")
    assert set(order) == set(range(11))
    # the two interior-endpoint edges go last
    assert {order[-1], order[-2]} == {b.edge("c1c2"), b.edge("c2c3")}


# ------------------------------------------------------------ open question


def test_open_question_tiny_budget_exceeds():
    out = explore_open_question(Budget(nodes=5))
    assert out.status is Status.BUDGET_EXCEEDED


def test_open_question_reports_consistently():
    # the outcome is reported, never presumed; whatever comes back must
    # at least be internally coherent
    out = explore_open_question(Budget(seconds=60.0))
    assert out.status in (Status.FOUND, Status.EXHAUSTED_UNSAT,
                          Status.BUDGET_EXCEEDED)
    if out.status is Status.FOUND:
        assert verify_certificate(out, build_G2().anchored_graph, 3, True)


# ---------------------------------------------------------------- agreement


def family_up_to_rotation(max_edges):
    seen = set()
    out = []
    for m in range(1, max_edges + 1):
        for n in range(2, 2 * m + 1):
            pairs = list(itertools.combinations(range(n), 2))
            for edge_set in itertools.combinations(pairs, m):
                if len({v for e in edge_set for v in e}) != n:
                    continue
                canon = min(
                    tuple(sorted(tuple(sorted(((a + r) % n, (b + r) % n)))
                                 for a, b in edge_set))
                    for r in range(n))
                if (n, canon) in seen:
                    continue
                seen.add((n, canon))
                out.append(AnchoredGraph(Graph(tuple(range(n)), canon),
                                         tuple(range(n))))
    return out


def test_engines_agree_on_three_edge_family():
    for ag in family_up_to_rotation(3):
        for k, simple in [(0, False), (1, True), (1, False)]:
            got = search_anchored(ag, k, simple).status
            want = brute_oracle(ag, k, simple).status
            assert got is want, (ag.graph.edges, k, simple)


def test_engines_agree_on_random_instances():
    rng = random.Random(4242)
    for _ in range(25):
        ag = random_anchored_graph(rng, n_edges=5)
        for k, simple in [(0, False), (1, True), (2, True)]:
            got = search_anchored(ag, k, simple).status
            want = brute_oracle(ag, k, simple).status
            assert got is want, (ag.graph.edges, ag.anchors, k, simple)


# ------------------------------------------------------- arrangement bowels


def test_arrangement_undo_restores_state_exactly():
    rng = random.Random(77)
    for _ in range(40):
        ag = random_anchored_graph(rng, n_edges=4)
        arr = Arrangement(ag)
        pristine = (copy.deepcopy(arr.rot), copy.deepcopy(arr.arc_nodes),
                    copy.deepcopy(arr.arc_owner))
        e = rng.randrange(ag.graph.m)
        u, v = ag.graph.edges[e]
        arr.begin_edge(e, u)
        cursor = Cursor(u, rng.choice(list(arr.corners(u))), ())
        tokens = []
        for _ in range(rng.randint(0, 3)):
            orbit = arr.face(arr.corner_dart(cursor.node, cursor.gap))
            opts = [d for d in orbit
                    if arr.arc_owner[d[0]] >= 0
                    and arr.arc_owner[d[0]] != e
                    and d[0] not in cursor.banned]
            if not opts:
                break
            cursor, tok = arr.commit_cross(e, cursor, rng.choice(opts))
            tokens.append(tok)
        orbit = arr.face(arr.corner_dart(cursor.node, cursor.gap))
        oset = set(orbit)
        lands = [gap for gap in arr.corners(v)
                 if arr.corner_dart(v, gap) in oset]
        if lands:
            tokens.append(arr.commit_finish(e, cursor, v, rng.choice(lands)))
        for tok in reversed(tokens):
            arr.undo(tok)
        arr.abort_edge(e)
        assert arr.rot == pristine[0]
        assert arr.arc_nodes == pristine[1]
        assert arr.arc_owner == pristine[2]
        assert not arr.crossing_edges
        assert not arr.chains
