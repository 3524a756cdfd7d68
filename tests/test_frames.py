"""Frame bundles: frozen counts, certification, separation, composition.

Counts asserted here come from the construction arithmetic worked out on
paper first (spoke count d = a*q, edge total 3d + 18dt, one crossing per
core edge per copy so 3dt in all) and were confirmed once against the
built drawings before freezing.
"""

import functools
import hashlib
from dataclasses import replace

import networkx as nx
import pytest

from minkplanar import frames
from minkplanar.constructions import build_G2, build_Gk
from minkplanar.drawings import (
    crossing_profile,
    is_min_k_planar,
    is_simple,
    restrict,
    validate,
)
from minkplanar.errors import InputError, MinkplanarError
from minkplanar.frames import (
    FrameParams,
    build_frame,
    compose,
    separation_property_check,
)
from minkplanar.geometry import scene_to_drawing
from minkplanar.graphs import AnchoredGraph, Graph
from minkplanar.jsonio import drawing_text
from minkplanar.obstructions import extract_planar_amplification

from gadgets import build_biclique_gadget


def _toy_source() -> AnchoredGraph:
    # a path-plus-chord on four vertices, three of them anchors; the lone
    # interior vertex sits at distance 1 from an anchor
    g = Graph(frozenset(range(4)), ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3)))
    return AnchoredGraph(g, (0, 2, 3))


def _bare_pair() -> AnchoredGraph:
    # two isolated anchors; no interior vertex, so the distance bound is 0
    return AnchoredGraph(Graph(frozenset([0, 1]), ()), (0, 1))


# ------------------------------------------------------------ frozen toy


def test_toy_frame_parameters():
    fr = build_frame(_toy_source(), 1, 2)
    assert fr.params == FrameParams(a=3, k=1, ell=1, d=15, t=2)
    assert fr.graph.n == 319
    assert fr.graph.m == 585
    assert len(fr.drawing.crossings) == 90
    assert len(fr.anchors) == 3
    assert fr.source == _toy_source()


def test_toy_frame_certified():
    fr = build_frame(_toy_source(), 1, 2)
    assert validate(fr.drawing) == []
    assert is_simple(fr.drawing) == (True, None)
    assert is_min_k_planar(fr.drawing, 1) == (True, None)
    prof = crossing_profile(fr.drawing)
    core = set(fr.core_edges)
    for e in core:
        assert prof.per_edge[e] == fr.params.t
    for e in range(fr.graph.m):
        if e not in core:
            assert prof.per_edge[e] <= 1
    # heavy edges never meet: every crossing pairs a core edge with a half
    for (e1, e2) in prof.per_pair:
        assert (e1 in core) != (e2 in core)


def test_default_copy_count():
    fr = build_frame(_toy_source(), 1)
    assert fr.params.t == 4


def test_count_formulas_small_sweep():
    cases = [
        (_bare_pair(), 1, 1, 3),   # ell=0 -> q=3, d=6
        (_bare_pair(), 2, 1, 5),   # ell=0 -> q=5, d=10
        (_toy_source(), 1, 1, 5),  # ell=1 -> q=5, d=15
    ]
    for src, k, t, q in cases:
        fr = build_frame(src, k, t)
        d = fr.params.d
        assert fr.params.d == len(src.anchors) * q
        assert q % 2 == 1
        assert fr.graph.m == 3 * d + 18 * d * t
        assert fr.graph.n == 1 + 3 * d + len(src.anchors) + 9 * d * t
        assert len(fr.drawing.crossings) == 3 * d * t


@pytest.mark.parametrize("predicate, what", [
    ("is_simple", "not simple"),
    ("is_min_k_planar", "not min-1-planar"),
])
def test_frame_self_checks_can_fail(monkeypatch, predicate, what):
    # point one self-check at G2's drawing, which is neither simple nor
    # min-1-planar, and the build must refuse
    real = getattr(frames, predicate)
    g2 = build_G2().drawing
    monkeypatch.setattr(frames, predicate,
                        lambda d, *args, **kw: real(g2, *args, **kw))
    with pytest.raises(MinkplanarError, match=what):
        build_frame(_toy_source(), 1, 2)


# ------------------------------------------------- skeleton cross-checks


def test_web_part_is_planar_and_crossing_free():
    fr = build_frame(_toy_source(), 1, 2)
    web, _ = restrict(fr.drawing, fr.classes.half_ids())
    assert web.crossings == ()
    assert nx.check_planarity(nx.Graph(web.graph.edges))[0]


# ------------------------------------------------------------ separation


def test_separation_property_holds():
    assert separation_property_check(build_frame(_toy_source(), 1, 2))


def test_separation_needs_the_incidence_classes():
    fr = build_frame(_toy_source(), 1, 2)
    d = fr.params.d
    ladder_only = {
        e: v for e, v in fr.classes.by_edge.items() if e < 6 * d
    }
    crippled = replace(fr, classes=replace(fr.classes, by_edge=ladder_only))
    assert not separation_property_check(crippled)


# ----------------------------------------------------------- larger case


def test_g2_frame_frozen():
    fr = build_frame(build_G2().anchored_graph, 2, 2)
    assert fr.params == FrameParams(a=19, k=2, ell=1, d=171, t=2)
    assert len(fr.drawing.crossings) == 1026


# --------------------------------------------------------- amplification


@functools.lru_cache(maxsize=1)
def _built_and_converted(family: int, t: int):
    # the frame as built (its t = 1 drawing amplified) and the converter's
    # drawing of the full frame scene at t, which judges it; G2 at t = 3
    # comes last below and is kept for the nesting test
    src = (build_G2() if family == 2 else build_Gk(family)).anchored_graph
    fr = build_frame(src, family, t)
    p = fr.params
    scene = frames._frame_scene(fr.graph, fr.classes, fr.anchors,
                                p.a, p.d // p.a, t)
    return fr, scene_to_drawing(scene)[0]


@pytest.mark.parametrize("family, t", [(2, 2), (2, 6), (3, 2), (2, 3)])
def test_amplified_frame_is_the_converters_drawing(family, t):
    fr, converted = _built_and_converted(family, t)
    got, want = drawing_text(fr.drawing), drawing_text(converted)
    if got != want:  # name the first difference; a full diff takes minutes
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"differs at character {i}: {got[i - 60:i + 60]!r} "
                    f"against {want[i - 60:i + 60]!r}")
    # the same dict order too, which faces and layouts iterate in
    assert list(fr.drawing.rotation) == list(converted.rotation)
    assert list(fr.drawing.chains) == list(converted.chains)


def _web_crossed(d, owner, wheel):
    """Per wheel edge, the (web class, copy) of each half it crosses, in
    order along it."""
    by_id = d.crossing_by_id()
    return {w: [owner[by_id[x].edges[1]][:2] for x in d.chains[w][1:-1]]
            for w in wheel}


def test_frame_copies_nest_along_every_wheel_edge():
    # what the amplification rests on: drawn at t, each wheel edge crosses
    # the web classes it crosses at t = 1, in the same order, each as a
    # run of its t copies in increasing or decreasing copy order
    t = 3
    one = build_frame(build_G2().anchored_graph, 2, 1)
    built, converted = _built_and_converted(2, t)
    at_one = _web_crossed(one.drawing, one.classes.half_owner, one.core_edges)
    orders = set()
    for d in (built.drawing, converted):
        for w, seen in _web_crossed(d, built.classes.half_owner,
                                    built.core_edges).items():
            assert [s for s, _ in seen] == [s for s, _ in at_one[w]
                                            for _ in range(t)]
            for i in range(0, len(seen), t):
                run = [c for _, c in seen[i:i + t]]
                assert run in (list(range(t)), list(range(t))[::-1])
                orders.add(run[0])
    assert orders == {0, t - 1}


def test_a_frame_with_swapped_crossing_arms_fails_its_self_check(
        monkeypatch):
    # every rotation of the amplified frame is read off the scene's
    # directions, so a wrong direction must reach the certified claims:
    # here the two edges through each crossing trade pieces, which
    # mirrors every crossing's rotation and breaks Euler's formula
    real = frames._crossing_arms

    def swapped(*args):
        tail, head = real(*args)
        return tail[::-1], head[::-1]

    monkeypatch.setattr(frames, "_crossing_arms", swapped)
    with pytest.raises(MinkplanarError,
                       match="frame self-check failed: not drawing-valid"):
        build_frame(build_G2().anchored_graph, 2, 2)


def test_a_frame_scene_that_misses_a_crossing_fails_its_self_check(
        monkeypatch):
    # the crossings at t are copied from the drawing at t = 1, so a scene
    # at t that does not draw one of them must be refused: here hub spoke
    # 0 is drawn along spoke 1, away from the inner ring halves it crosses
    real = frames._frame_scene

    def moved(graph, classes, anchors, a, q, t):
        scene = real(graph, classes, anchors, a, q, t)
        if t > 1:
            scene.routes[a * q] = scene.routes[a * q + 1]
        return scene

    monkeypatch.setattr(frames, "_frame_scene", moved)
    with pytest.raises(MinkplanarError, match="frame scene does not cross "
                       "where its drawing does"):
        build_frame(build_G2().anchored_graph, 2, 2)


def test_the_gk3_frame_at_its_default_t_is_pinned():
    # the digest of the Gk(3) frame at t = 2k + 2 = 8, larger than any the
    # converter judges above, recorded while its rotations were rebuilt
    # from the drawing at t = 1
    fr = build_frame(build_Gk(3).anchored_graph, 3, 8)
    text = drawing_text(fr.drawing)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "055e64ff23b5f7b67d28725f9a226e69ffeb0151d8211f6a7888ace16c8397ee")


# ----------------------------------------------------------- composition


def test_compose_with_g2():
    b = build_G2()
    fr = build_frame(b.anchored_graph, 2, 1)
    out = compose(fr, b)
    assert validate(out) == []
    assert out.anchors is None
    assert len(out.crossings) == len(fr.drawing.crossings) + len(
        b.drawing.crossings
    )
    assert is_min_k_planar(out, 2) == (True, None)


def test_compose_self_checks_can_fail(monkeypatch):
    # point the min-k check at a gadget whose 3 copies per class cross 3
    # times each, and the composition must refuse to be min-2-planar
    b = build_G2()
    fr = build_frame(b.anchored_graph, 2, 1)
    real = frames.is_min_k_planar
    heavy = build_biclique_gadget(2, 3).drawing
    monkeypatch.setattr(frames, "is_min_k_planar",
                        lambda d, *args, **kw: real(heavy, *args, **kw))
    with pytest.raises(MinkplanarError, match="composition self-check "
                                              "failed: not min-2-planar"):
        compose(fr, b)


def test_compose_rejects_foreign_bundle():
    fr = build_frame(_toy_source(), 1, 1)
    with pytest.raises(InputError):
        compose(fr, build_G2())


# -------------------------------------------------------------- rejects


def test_build_frame_rejects_bad_input():
    with pytest.raises(InputError):
        build_frame(_toy_source(), 0)
    with pytest.raises(InputError):
        build_frame(_toy_source(), 1, 0)
    with pytest.raises(InputError):
        lone = AnchoredGraph(Graph(frozenset([0, 1]), ((0, 1),)), (0,))
        build_frame(lone, 1)
    multi = Graph(frozenset([0, 1]), ((0, 1), (0, 1)), simple=False)
    with pytest.raises(InputError):
        build_frame(AnchoredGraph(multi, (0, 1)), 1)


def test_build_is_deterministic():
    f1 = build_frame(_toy_source(), 1, 2)
    f2 = build_frame(_toy_source(), 1, 2)
    assert drawing_text(f1.drawing) == drawing_text(f2.drawing)


# ------------------------------------------------------------ extraction


def test_full_width_extraction_succeeds():
    fr = build_frame(_toy_source(), 1, 2)
    ex = extract_planar_amplification(fr.drawing, fr.classes, w=fr.params.t)
    assert ex is not None
    assert set(ex.chosen) == set(fr.classes.by_edge)
    for copies in ex.chosen.values():
        assert len(copies) == fr.params.t
