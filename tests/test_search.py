"""Existence search and brute oracle: statuses, certificates, budgets."""

import gc
import hashlib
import itertools
import json
import random

import pytest

from minkplanar.arrangement import BOUNDARY, Arrangement
from minkplanar.constructions import build_G2, build_Gk
from minkplanar.drawings import (crossing_profile, face_orbit, is_min_k_planar,
                                 is_simple, mirror, validate)
from minkplanar.errors import InputError
from minkplanar.graphs import AnchoredGraph, Graph
from minkplanar.jsonio import drawing_to_json
from minkplanar.oracle import _patterns, brute_oracle
from minkplanar.sampling import random_anchored_graph
from minkplanar.search import (Budget, SearchOutcome, Status, _assemble,
                               insertion_order, search_anchored,
                               verify_certificate)


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


@pytest.mark.parametrize("nodes, seconds", [
    (-5, None), (2.5, None), (True, None), ("10", None),
    (None, -1.0), (None, float("nan")), (None, float("inf")), (None, "1"),
])
def test_bad_budgets_are_input_errors(nodes, seconds):
    with pytest.raises(InputError):
        Budget(nodes=nodes, seconds=seconds)


def test_zero_budgets_are_allowed():
    assert Budget(nodes=0, seconds=0).nodes == 0
    out = search_anchored(interleaved_pair(), 1, budget=Budget(nodes=0))
    assert out.status is Status.BUDGET_EXCEEDED and out.stats.nodes == 1


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


# ----------------------------------------------------------- pinned traversal


def _octagon_diameters():
    g = Graph(tuple(range(8)), ((0, 4), (1, 5), (2, 6), (3, 7)))
    return AnchoredGraph(g, tuple(range(8)))


def _hanging_path():
    # the path 0 - 8 - 7 - 6 - 5 hangs into one face, so the last edge
    # (5, 8) can end at either of two corners of vertex 8 in that face,
    # and the face walk meets them against the rotation order
    g = Graph(tuple(range(9)), ((0, 8), (6, 7), (7, 8), (5, 6), (5, 8)))
    return AnchoredGraph(g, (0, 1, 2, 3, 4))


def _g2():
    return build_G2().anchored_graph


def _gk3():
    return build_Gk(3).anchored_graph


def _gk4():
    return build_Gk(4).anchored_graph


def _trace(ag, k, simple):
    out = search_anchored(ag, k, require_simple=simple)
    cert = None
    if out.certificate is not None:
        doc = json.dumps(drawing_to_json(out.certificate), sort_keys=True)
        cert = hashlib.sha256(doc.encode()).hexdigest()
    return (out.status.value, out.stats.nodes, out.stats.routes,
            out.stats.max_depth, cert)


_PINNED = [
    (_g2, 2, True, ("ExhaustedUnsat", 101, 16, 10, None)),
    (_g2, 3, True,
     ("Found", 52, 14, 11, "f502488439b541a701089d162afce240"
                           "ac864a72fd6fa1ab4d507fd73f953ee2")),
    (_g2, 2, False,
     ("Found", 290, 28, 11, "b542550a2499b73c7aeb903b8cf19d28"
                            "268b706ec51da8c7224b9036d07c0bc7")),
    (_gk3, 3, True, ("ExhaustedUnsat", 271, 21, 13, None)),
    (_gk4, 4, True, ("ExhaustedUnsat", 459, 26, 16, None)),
    # item 1's known-wrong answers: the deep min-k and pair-cap branches
    (_gk3, 3, False, ("ExhaustedUnsat", 1775, 70, 13, None)),
    (_gk4, 4, False, ("ExhaustedUnsat", 22262, 380, 16, None)),
    (_octagon_diameters, 2, True, ("ExhaustedUnsat", 15, 4, 3, None)),
    (_octagon_diameters, 1, True, ("ExhaustedUnsat", 6, 2, 2, None)),
    (_octagon_diameters, 3, False,
     ("Found", 10, 4, 4, "756767a1e5fe6c9f5c7b5e0f520fa143"
                         "df6fa06db313ce2c146c0377f7f63500")),
    (_hanging_path, 0, False,
     ("Found", 5, 5, 5, "6a3246821a383471fe16b714eef76dad"
                        "ad6f51f14d3da6fa460103eea381d3ad")),
]
_RANDOM_SETTINGS = ((0, False), (1, False), (1, True), (2, False), (2, True),
                    (3, False))
_RANDOM_DIGEST = ("d9fb648ee2755ca894a391e686255c20"
                  "498b886f7bf60956644414b9ed0dbcbe")


def test_traversal_is_pinned():
    """The exact walk of the search: status, nodes, routes, max_depth and
    the sha256 of each certificate's ``drawing_to_json``.

    Speed work on the search must leave all of these unchanged.  A change
    to the cuts or to the insertion order (ROADMAP item 1) changes the walk
    by design: it must update these pins and say so in CHANGES.md.
    """
    for build, k, simple, want in _PINNED:
        assert _trace(build(), k, simple) == want, (build.__name__, k, simple)
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for i in range(200):
        ag = random_anchored_graph(rng, n_edges=5)
        k, simple = _RANDOM_SETTINGS[i % len(_RANDOM_SETTINGS)]
        digest.update(repr(_trace(ag, k, simple)).encode())
    assert digest.hexdigest() == _RANDOM_DIGEST


def test_min_k_cut_is_decided_before_the_crossing_is_built(monkeypatch):
    # every cut is decided before commit_cross, so each committed crossing
    # is explored as a node of its own (262 commits for 290 nodes here);
    # a crossing built and then cut would push the count past the nodes
    commits = 0
    real = Arrangement.commit_cross

    def counted(self, *args):
        nonlocal commits
        commits += 1
        return real(self, *args)

    monkeypatch.setattr(Arrangement, "commit_cross", counted)
    out = search_anchored(build_G2().anchored_graph, 2, require_simple=False)
    assert out.status is Status.FOUND
    assert 0 < commits <= out.stats.nodes


def test_stats_carry_the_pair_cap():
    ag = interleaved_pair()
    for simple, cap in ((True, 1), (False, 2)):
        assert search_anchored(ag, 1, simple).stats.pair_cap == cap
        assert brute_oracle(ag, 1, simple).stats.pair_cap == cap


# --------------------------------------------------------- oracle patterns


def _sorted_patterns(pairs, choices, m, k):
    """The oracle's count patterns as it once listed them: all of them,
    stably sorted by total, minus those with a crossing pair whose edges
    both carry more than k crossings."""
    out = []
    for counts in sorted(itertools.product(*choices), key=sum):
        load = [0] * m
        for (e, f), c in zip(pairs, counts):
            load[e] += c
            load[f] += c
        if not any(c and load[e] > k and load[f] > k
                   for (e, f), c in zip(pairs, counts)):
            out.append(counts)
    return out


def test_oracle_streams_patterns_in_sorted_order():
    rng = random.Random(37)
    allowed = [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]
    for _ in range(150):
        m = rng.randint(1, 5)
        pairs = list(itertools.combinations(range(m), 2))
        choices = [rng.choice(allowed) for _ in pairs]
        # with k past every load nothing is cut: the plain sorted product
        assert list(_patterns(pairs, choices, m, 4 * m)) == sorted(
            itertools.product(*choices), key=sum)
        k = rng.randint(0, 3)
        assert list(_patterns(pairs, choices, m, k)) == _sorted_patterns(
            pairs, choices, m, k), (choices, k)


_ORACLE_DIGEST = ("f0487846408be2373765726bab9d372f"
                  "e66af1cad082276c9629736f219b7647")


def test_oracle_answers_are_pinned():
    """Status, nodes and routes of the oracle on 300 random 5-edge queries,
    as the oracle that sorted every pattern up front gave them."""
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for i in range(300):
        ag = random_anchored_graph(rng, n_edges=5)
        k, simple = _RANDOM_SETTINGS[i % len(_RANDOM_SETTINGS)]
        out = brute_oracle(ag, k, simple)
        digest.update(repr((out.status.value, out.stats.nodes,
                            out.stats.routes)).encode())
    assert digest.hexdigest() == _ORACLE_DIGEST


# ------------------------------------------------------------------ octagon


def test_octagon_diameters_agree_with_oracle():
    # the four diameters of an octagon: every pair interleaves, and every
    # rotation of the boundary maps the instance onto itself
    ag4 = _octagon_diameters()
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
    with pytest.raises(InputError):
        lone = AnchoredGraph(Graph((0, 1), ((0, 1),)), (0,))
        search_anchored(lone, k=1)
    big = Graph(tuple(range(12)), tuple((2 * i, 2 * i + 1) for i in range(6)))
    with pytest.raises(InputError):
        brute_oracle(AnchoredGraph(big, tuple(range(12))), 1)


def test_insertion_order_most_interleaving_first():
    b = build_G2()
    order = insertion_order(b.anchored_graph)
    assert search_anchored(b.anchored_graph, 2, True).stats.order == order
    assert order[0] == b.edge("a1a2")
    assert set(order) == set(range(11))
    # the two interior-endpoint edges go last
    assert {order[-1], order[-2]} == {b.edge("c1c2"), b.edge("c2c3")}


def _reference_order(ag):
    """The insertion order as ``insertion_order``'s docstring states it:
    an edge between anchors scores the anchors strictly inside the
    shorter of the two boundary stretches its ends cut off, an edge with
    an interior endpoint scores -1, and of the edges with an endpoint
    already placed (an anchor, or an end of an edge taken before) the
    highest score goes first, ties to the lower id."""
    g, anchors = ag.graph, list(ag.anchors)

    def score(e):
        u, v = g.edges[e]
        if u not in anchors or v not in anchors:
            return -1
        inside = []
        for a, b in ((u, v), (v, u)):
            i, count = anchors.index(a), 0
            while anchors[(i + 1) % len(anchors)] != b:
                i, count = i + 1, count + 1
            inside.append(count)
        return min(inside)

    placed, order = set(anchors), []
    while len(order) < g.m:
        ready = [e for e in range(g.m) if e not in order
                 and placed.intersection(g.edges[e])]
        if not ready:
            raise InputError("no edge can be routed")
        best = max(score(e) for e in ready)
        e = min(e for e in ready if score(e) == best)
        order.append(e)
        placed.update(g.edges[e])
    return tuple(order)


def _with_interior(rng):
    # 3-6 anchors in a shuffled clockwise order among shuffled ids, 1-3
    # interior vertices and 3-7 distinct edges, which may leave a part of
    # the graph with no anchor
    n, inner = rng.randint(3, 6), rng.randint(1, 3)
    ids = rng.sample(range(20), n + inner)
    anchors = tuple(ids[:n])
    pairs = list(itertools.combinations(ids, 2))
    pairs = rng.sample(pairs, rng.randint(3, min(7, len(pairs))))
    return AnchoredGraph(Graph(tuple(sorted(ids)), tuple(pairs)), anchors)


def test_insertion_order_follows_its_rule_with_interior_vertices():
    rng = random.Random(36)
    routed = refused = 0
    for _ in range(300):
        ag = _with_interior(rng)
        try:
            want = _reference_order(ag)
        except InputError:
            with pytest.raises(InputError):
                insertion_order(ag)
            refused += 1
        else:
            assert insertion_order(ag) == want, ag
            routed += 1
    assert routed > 200 and refused
    # a path hanging off no anchor: its component has edges but no anchor
    g = Graph(tuple(range(6)), ((0, 1), (1, 2), (3, 4), (4, 5)))
    with pytest.raises(InputError, match="contains no anchor"):
        insertion_order(AnchoredGraph(g, (0, 1, 2)))


# ------------------------------------------------------------ open question


def test_open_question_tiny_budget_exceeds():
    out = search_anchored(build_G2().anchored_graph, 3, require_simple=True,
                          budget=Budget(nodes=5))
    assert out.status is Status.BUDGET_EXCEEDED


def test_open_question_reports_consistently():
    # the outcome is reported, never presumed; whatever comes back must
    # at least be internally coherent
    g = build_G2().anchored_graph
    out = search_anchored(g, 3, require_simple=True,
                          budget=Budget(seconds=60.0))
    assert out.status in (Status.FOUND, Status.EXHAUSTED_UNSAT,
                          Status.BUDGET_EXCEEDED)
    if out.status is Status.FOUND:
        assert verify_certificate(out, g, 3, True)


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
    # every ring is a cycle of its own node's darts and every live dart is
    # in one, walked with a bound so that a broken ring fails and ends;
    # the slots past the live arcs are spare and never read
    n = 2 * arr.arcs
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


def _counts_hold(arr):
    # the count state agrees with the crossings in place, recomputed from
    # the crossing nodes' rings: the log names each crossing's edge pair,
    # the pair counts sit under both ordered slots, and the partners agree
    # as multisets, one entry per crossing
    m, first = len(arr.edge_counts), arr.first_crossing
    edges, pairs, partners = [0] * m, [0] * (m * m), [[] for _ in range(m)]
    placed = []
    for q in sorted(x for x in arr.ring_start if x >= first):
        g, e = sorted({arr.arc_owner[d >> 1] for d in arr.ring(q)})
        placed.append((q - first, g, e))
        for x, y in ((g, e), (e, g)):
            edges[x] += 1
            pairs[x * m + y] += 1
            partners[x].append(y)
    logged = [(i, *sorted(pair)) for i, pair in enumerate(arr.crossed)]
    return (placed, edges, pairs, [sorted(p) for p in partners]) == (
        logged, arr.edge_counts, arr.pair_counts,
        [sorted(p) for p in arr.partners])


def _state(arr):
    # the live state: the arc and dart slots below ``arcs``
    a = arr.arcs
    return (a, arr.arc_owner[:a], arr.dart_tail[:2 * a],
            arr.ring_next[:2 * a], arr.ring_prev[:2 * a], dict(arr.ring_start),
            list(arr.crossed), list(arr.pair_counts), list(arr.edge_counts),
            [list(p) for p in arr.partners])


def test_arrangement_undo_restores_state_exactly():
    # chords plus a pendant path a - x - c through an interior vertex x:
    # the route of (x, c) starts before the dart of (a, x) at x, whose
    # twin lies in the same face, so crossing it moves the cursor's dart.
    # (a, x) goes in first, so chords cross it while x is alone in its
    # ring and the split hands x's only dart to a new arc.  The slots
    # start with room for as many crossings as edges, so a run with more
    # doubles them, and its undos go back past the doubling
    rng = random.Random(77)
    twin_crossings = lone_crossings = complete = grown = 0
    for _ in range(40):
        chords = random_anchored_graph(rng, n_edges=3)
        n = len(chords.anchors)
        a, c = rng.sample(range(n), 2)
        g = Graph(tuple(range(n + 1)), chords.graph.edges + ((a, n), (n, c)))
        ag = AnchoredGraph(g, chords.anchors)
        arr = Arrangement(ag)
        pristine = _state(arr)
        slots = len(arr.arc_owner)
        assert slots == len(ag.anchors) + 3 * g.m
        commits = 0
        first = g.m - 2
        for e in (first, *(x for x in insertion_order(ag) if x != first)):
            u, v = g.edges[e]
            if u not in arr.ring_start:
                u, v = v, u
            cursor = (rng.choice(arr.corners(u)), ())
            for _ in range(rng.randint(0, 5)):
                orbit = face_orbit(arr.ring_next, cursor[0])
                opts = [d for d in orbit
                        if arr.arc_owner[d >> 1] not in (BOUNDARY, e)
                        and d >> 1 not in cursor[1]]
                if not opts:
                    break
                dart = rng.choice(opts)
                if cursor[0] ^ 1 in opts and rng.random() < 0.5:
                    dart = cursor[0] ^ 1
                twin_crossings += dart == cursor[0] ^ 1
                lone_crossings += arr.ring_next[dart ^ 1] == dart ^ 1
                cursor = arr.commit_cross(e, cursor, dart)
                commits += 1
                assert _rings_hold(arr) and _counts_hold(arr)
            oset = set(face_orbit(arr.ring_next, cursor[0]))
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
        grown += len(arr.arc_owner) > slots
        for _ in range(commits):
            arr.undo()
            assert _counts_hold(arr)
        assert _state(arr) == pristine
    assert twin_crossings and lone_crossings and complete and grown


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
