"""Existence search and brute oracle: statuses, certificates, budgets."""

import gc
import itertools
import random

import pytest

from minkplanar.arrangement import BOUNDARY, Arrangement, Cursor
from minkplanar.constructions import build_G2, build_Gk
from minkplanar.drawings import (crossing_profile, face_orbit, is_min_k_planar,
                                 is_simple, mirror, validate)
from minkplanar.errors import InputError
from minkplanar.graphs import AnchoredGraph, Graph
from minkplanar.oracle import brute_oracle
from minkplanar.sampling import random_anchored_graph
from minkplanar.search import (Budget, SearchOutcome, Status, _assemble,
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


def _rings_hold(arr):
    # every ring is a cycle of its own node's darts and every dart is in
    # one, walked with a bound so that a broken ring fails and ends
    n = len(arr.dart_tail)
    seen = []
    for node, start in arr.ring_start.items():
        dart = start
        for _ in range(n):
            seen.append(dart)
            if arr.dart_tail[dart] != node:
                return False
            dart = arr.ring_next[dart]
            if dart == start:
                break
        else:
            return False
    return (sorted(seen) == list(range(n))
            and all(arr.ring_prev[arr.ring_next[d]] == d for d in range(n)))


def _state(arr):
    return (list(arr.arc_owner), list(arr.dart_tail), list(arr.ring_next),
            list(arr.ring_prev), dict(arr.ring_start), dict(arr.crossing_edges),
            +arr.pair_counts, +arr.edge_counts)


def test_arrangement_undo_restores_state_exactly():
    # chords plus a pendant path a - x - c through an interior vertex x:
    # the route of (x, c) starts before the dart of (a, x) at x, whose
    # twin lies in the same face, so crossing it moves the cursor's dart
    rng = random.Random(77)
    twin_crossings = complete = 0
    for _ in range(40):
        chords = random_anchored_graph(rng, n_edges=3)
        n = len(chords.anchors)
        a, c = rng.sample(range(n), 2)
        g = Graph(tuple(range(n + 1)), chords.graph.edges + ((a, n), (n, c)))
        ag = AnchoredGraph(g, chords.anchors)
        arr = Arrangement(ag)
        pristine = _state(arr)
        commits = 0
        for e in insertion_order(ag):
            u, v = g.edges[e]
            if u not in arr.ring_start:
                u, v = v, u
            cursor = Cursor(rng.choice(arr.corners(u)), ())
            for _ in range(rng.randint(0, 3)):
                orbit = face_orbit(arr.ring_next, cursor.dart)
                opts = [d for d in orbit
                        if arr.arc_owner[d >> 1] not in (BOUNDARY, e)
                        and d >> 1 not in cursor.banned]
                if not opts:
                    break
                dart = rng.choice(opts)
                if cursor.dart ^ 1 in opts and rng.random() < 0.5:
                    dart = cursor.dart ^ 1
                twin_crossings += dart == cursor.dart ^ 1
                cursor = arr.commit_cross(e, cursor, dart)
                commits += 1
                assert _rings_hold(arr)
            oset = set(face_orbit(arr.ring_next, cursor.dart))
            if v in arr.ring_start:
                lands = [d for d in arr.corners(v) if d in oset]
                if not lands:
                    break
                arr.commit_finish(e, cursor, v, rng.choice(lands))
            else:
                arr.commit_finish(e, cursor, v, None)
            commits += 1
            assert _rings_hold(arr)
        else:
            assert validate(_assemble(arr, ag)) == []
            complete += 1
        for _ in range(commits):
            arr.undo()
        assert _state(arr) == pristine
    assert twin_crossings and complete


def test_search_leaves_nothing_to_the_cyclic_collector():
    ag = build_G2().anchored_graph
    was = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(3):
            search_anchored(ag, 2, require_simple=True)
        gc.collect()
        left = [x for x in gc.garbage if isinstance(x, Arrangement)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was:
            gc.enable()
    assert left == []
