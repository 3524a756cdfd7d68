"""Barycentric layouts, the redraw audit, and SVG output."""

import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from minkplanar.constructions import build_G2, build_Gk
from minkplanar.drawings import Drawing, PlanarizationMap, validate
from minkplanar import layout
from minkplanar.errors import GeometryError, LayoutError
from minkplanar.frames import build_frame
from minkplanar.geometry import Scene, scene_to_drawing
from minkplanar.graphs import AnchoredGraph, Graph
from minkplanar.layout import (
    Layout,
    audit_layout,
    to_svg,
    tutte_layout,
)


def _triangle_hub(anchored: bool = True) -> Drawing:
    g = Graph(frozenset(range(4)), ((0, 3), (1, 3), (2, 3)))
    chains = {e: g.edges[e] for e in range(3)}
    rot = {
        0: ((0, 0),),
        1: ((1, 0),),
        2: ((2, 0),),
        3: ((0, 0), (1, 0), (2, 0)),
    }
    return Drawing(g, (), chains, rot, (0, 1, 2) if anchored else None)


def _square_cycle() -> Drawing:
    g = Graph(frozenset(range(4)), ((0, 1), (1, 2), (2, 3), (0, 3)))
    chains = {e: g.edges[e] for e in range(4)}
    rot = {
        0: ((0, 0), (3, 0)),
        1: ((1, 0), (0, 0)),
        2: ((2, 0), (1, 0)),
        3: ((3, 0), (2, 0)),
    }
    return Drawing(g, (), chains, rot, None)


def _toy_frame():
    g = Graph(frozenset(range(4)), ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3)))
    return build_frame(AnchoredGraph(g, (0, 2, 3)), 1, 2)


# ----------------------------------------------------------------- solve


def test_hub_lands_at_centroid():
    lay = tutte_layout(_triangle_hub())
    x, y = lay.coordinates[3]
    assert math.hypot(x, y) < 1e-12
    assert lay.residual < 1e-9
    assert lay.boundary == (0, 1, 2)
    for a in (0, 1, 2):
        assert math.isclose(math.hypot(*lay.coordinates[a]), 1.0)


def test_interior_stays_strictly_inside():
    b = build_G2()
    lay = tutte_layout(b.drawing)
    assert lay.residual < 1e-9
    anchors = set(b.anchored_graph.anchors)
    for node, (x, y) in lay.coordinates.items():
        r = math.hypot(x, y)
        if node in anchors:
            assert math.isclose(r, 1.0, abs_tol=1e-9)
        else:
            assert r < 1.0 - 1e-12


def test_plain_cycle_is_all_boundary():
    lay = tutte_layout(_square_cycle())
    assert len(lay.boundary) == 4
    assert lay.residual == 0.0


def test_layout_is_deterministic():
    a = tutte_layout(build_G2().drawing)
    b = tutte_layout(build_G2().drawing)
    assert a.coordinates == b.coordinates
    assert a.boundary == b.boundary


def test_tree_without_anchors_has_no_boundary_cycle():
    with pytest.raises(LayoutError):
        tutte_layout(_triangle_hub(anchored=False))


def test_isolated_node_is_singular():
    g = Graph(frozenset([0]), ())
    d = Drawing(g, (), {}, {0: ()}, None)
    with pytest.raises(LayoutError):
        tutte_layout(d)


def test_detached_component_is_refused():
    # a triangle floating inside the anchored one reaches no pinned node
    g = Graph(frozenset(range(6)),
              ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    chains = {e: g.edges[e] for e in range(6)}
    rot = {0: ((0, 0), (2, 0)), 1: ((1, 0), (0, 0)), 2: ((2, 0), (1, 0)),
           3: ((3, 0), (5, 0)), 4: ((4, 0), (3, 0)), 5: ((5, 0), (4, 0))}
    for anchors in ((0, 1, 2), None):
        d = Drawing(g, (), chains, rot, anchors)
        assert validate(d) == []
        with pytest.raises(LayoutError, match="^planarization has a "
                           "component detached from the boundary$"):
            tutte_layout(d)


def _pendant_hub() -> Drawing:
    # the triangle hub with a pendant edge 3-4: the face left of it walks
    # 1, 0, 3, 4, 3, so the hub occurs twice in one face's walk
    g = Graph(frozenset(range(5)), ((0, 3), (1, 3), (2, 3), (3, 4)))
    chains = {e: g.edges[e] for e in range(4)}
    rot = {0: ((0, 0),), 1: ((1, 0),), 2: ((2, 0),),
           3: ((0, 0), (3, 0), (1, 0), (2, 0)), 4: ((3, 0),)}
    return Drawing(g, (), chains, rot, (0, 1, 2))


def _stellated_system(d: Drawing, pinned: dict):
    """The whole stellated system, built from the drawing's faces: the
    planarization's arcs, and one apex per face with more than three sides,
    joined to each node of its face walk as often as the walk visits it.
    Returns the matrix, the right-hand side from the ``pinned`` nodes, and
    the unknowns: the free nodes in ``tutte_layout``'s order, then the
    apexes.  An apex of the pinned face meets no free node, so stellating
    that face too changes nothing."""
    pm = d.planarization
    walks = [[pm.tail(dart) for dart in face] for face in pm.faces]
    apexes = [("apex", i) for i, w in enumerate(walks) if len(w) > 3]
    ends = [*zip(pm.arc_tail, pm.arc_head),
            *((a, v) for a in apexes for v in walks[a[1]])]
    nodes = [*d.graph.vertices, *d.crossing_ids()]
    free = [v for v in nodes if v not in pinned] + apexes
    row = {v: i for i, v in enumerate(free)}
    a, b = np.zeros((len(free), len(free))), np.zeros((len(free), 2))
    for u, v in ends:
        for s, t in ((u, v), (v, u)):
            if s in row:
                a[row[s], row[s]] += 1.0
                if t in row:
                    a[row[s], row[t]] -= 1.0
                else:
                    b[row[s]] += pinned[t]
    return a, b, free


_JUDGED = pytest.mark.parametrize(
    "build", [lambda: build_G2().drawing, lambda: build_Gk(3).drawing,
              _pendant_hub], ids=["G2", "Gk3", "pendant"])


@_JUDGED
def test_layout_agrees_with_a_dense_solve_of_the_stellated_system(build):
    d = build()
    lay = tutte_layout(d)
    pinned = {v: lay.coordinates[v] for v in lay.boundary}
    a, b, free = _stellated_system(d, pinned)
    solved = np.linalg.solve(a, b)
    want = {v: solved[i] for i, v in enumerate(free)
            if v in lay.coordinates}
    assert want and lay.coordinates.keys() == want.keys() | pinned.keys()
    for v, (x, y) in want.items():
        got = lay.coordinates[v]
        assert abs(got[0] - x) < 1e-12 and abs(got[1] - y) < 1e-12, v
    assert lay.residual < 1e-12


@_JUDGED
def test_cg_is_handed_the_schur_complement_of_the_apexes(monkeypatch, build):
    # S = A_ff - B D^-1 B^T with B the free nodes' spokes, and its diagonal
    # as the preconditioner
    d = build()
    [(diag, times, rhs)] = _solver_calls(monkeypatch, d)
    lay = tutte_layout(d)
    a, b, _ = _stellated_system(
        d, {v: lay.coordinates[v] for v in lay.boundary})
    n = diag.shape[0]
    elim = a[:n, n:] @ np.linalg.inv(a[n:, n:])
    s = a[:n, :n] - elim @ a[n:, :n]
    assert np.abs(diag - np.diag(s)).max() < 1e-12
    assert np.abs(rhs - (b[:n] - elim @ b[n:])).max() < 1e-12
    p = np.random.default_rng(0).standard_normal((2, n))
    assert np.abs(times(p) - p @ s).max() < 1e-12


def _solver_calls(monkeypatch, d: Drawing) -> list[tuple]:
    """The arguments of each ``layout.cg`` call that ``tutte_layout(d)``
    makes."""
    calls, solve = [], layout.cg
    monkeypatch.setattr(layout, "cg",
                        lambda *args: calls.append(args) or solve(*args))
    tutte_layout(d)
    monkeypatch.undo()
    return calls


def test_cg_returns_zeros_at_once_for_a_zero_right_hand_side(monkeypatch):
    [(diag, times, rhs)] = _solver_calls(monkeypatch, build_G2().drawing)
    monkeypatch.setattr(np, "bincount", None)  # no product with A is taken
    got = layout.cg(diag, times, np.zeros_like(rhs))
    assert got.shape == rhs.shape and not got.any()


@pytest.mark.parametrize("diag, rhs", [
    ([1.0, -1.0], [[1.0, 1.0], [1.0, 1.0]]),          # indefinite
    ([2.0, 3.0], [[1.0, float("nan")], [1.0, 1.0]]),  # a NaN
])
def test_cg_refuses_a_system_that_is_not_positive_definite(diag, rhs):
    diag = np.array(diag)
    with pytest.raises(LayoutError, match="singular barycentric system"):
        layout.cg(diag, diag.__mul__, np.array(rhs))


def test_cg_raises_when_its_iterations_run_out(monkeypatch):
    [args] = _solver_calls(monkeypatch, build_G2().drawing)
    monkeypatch.setattr(layout, "range", lambda n: iter([0]), raising=False)
    with pytest.raises(LayoutError, match="did not converge"):
        layout.cg(*args)


def test_solver_sees_one_unknown_per_free_node(monkeypatch):
    # bench/layers.py records args[0].shape[0] as layout.solve.unknowns:
    # the apexes are eliminated, so only the planarization's nodes off the
    # pinned walk are unknowns
    for d in (build_G2().drawing, _pendant_hub()):
        [(diag, *_)] = _solver_calls(monkeypatch, d)
        nodes = len(d.graph.vertices) + len(d.crossings)
        assert diag.shape == (nodes - len(d.anchors),)


# ----------------------------------------------------------------- audit


def test_audit_passes_on_bundles():
    b = build_G2()
    audit_layout(b.drawing, tutte_layout(b.drawing))
    fr = _toy_frame()
    lay = tutte_layout(fr.drawing)
    assert lay.residual < 1e-9
    audit_layout(fr.drawing, lay)


def test_audit_rejects_escaped_node():
    d = _triangle_hub()
    lay = tutte_layout(d)
    bad = dict(lay.coordinates)
    bad[3] = (1.5, 0.0)
    with pytest.raises(LayoutError):
        audit_layout(d, Layout(bad, lay.boundary, lay.residual))


def test_audit_rejects_mirrored_picture():
    # unanchored, the mirror image passes every check but the cyclic arc
    # order at a node: here a corner of the crossed square, with three arcs
    g = Graph(frozenset(range(4)),
              ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)))
    pos = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)}
    square, _ = scene_to_drawing(Scene(g, pos, {
        e: (pos[u], pos[v]) for e, (u, v) in enumerate(g.edges)}))
    for d, message in ((build_G2().drawing, None),
                       (square, "^arc order differs at node ")):
        lay = tutte_layout(d)
        flipped = {v: (-x, y) for v, (x, y) in lay.coordinates.items()}
        with pytest.raises(LayoutError, match=message):
            audit_layout(d, Layout(flipped, lay.boundary, lay.residual))


def test_audit_names_stray_arcs_by_their_refs():
    d = build_G2().drawing
    lay = tutte_layout(d)
    # vertex 19 pulled down past edge 10's lower arc
    moved = {**lay.coordinates, 19: (0.0, -0.95)}
    with pytest.raises(LayoutError, match=r"^stray intersection between "
                       r"arcs \(1, 4\) and \(10, 1\)$"):
        audit_layout(d, Layout(moved, lay.boundary, lay.residual))


def test_audit_turns_only_geometry_faults_into_layout_errors(monkeypatch):
    d = _triangle_hub()
    lay = tutte_layout(d)

    def raising(exc):
        def convert(scene):
            raise exc
        return convert

    monkeypatch.setattr(layout, "scene_to_drawing",
                        raising(GeometryError("pieces touch")))
    with pytest.raises(LayoutError,
                       match="layout does not redraw cleanly: pieces touch"):
        audit_layout(d, lay)
    # running out of memory is no verdict on the layout
    oom = MemoryError()
    monkeypatch.setattr(layout, "scene_to_drawing", raising(oom))
    with pytest.raises(MemoryError) as err:
        audit_layout(d, lay)
    assert err.value is oom


# ------------------------------------------------------------------- svg


def test_svg_deterministic_and_marks_heavy():
    b = build_G2()
    lay = tutte_layout(b.drawing)
    one = to_svg(b.drawing, lay, k=2)
    two = to_svg(b.drawing, lay, k=2)
    assert one == two
    assert "#c0392b" in one  # some edge carries more than two crossings
    plain = to_svg(b.drawing, lay)
    assert "#c0392b" not in plain


def test_svg_of_empty_drawing_is_just_the_disk():
    g = Graph((), ())
    d = Drawing(g, (), {}, {}, None)
    lay = tutte_layout(d)
    svg = to_svg(d, lay)
    assert svg.startswith("<?xml")
    assert "<circle" in svg
    assert "<polyline" not in svg
    # no edge is heavy, and the converter redraws a scene with no routes
    assert to_svg(d, lay, k=2) == svg
    audit_layout(d, lay)


def test_svg_prints_no_negative_zero():
    # the hub drawn a hair left of the picture's edge: its pixel x is
    # -0.003, which prints as 0.00, never -0.00
    d = _triangle_hub()
    lay = tutte_layout(d)
    half = layout.SVG_SIZE / 2.0
    edge = (-0.003 - half) / (half * (1.0 - layout.SVG_MARGIN))
    svg = to_svg(d, replace(lay, coordinates={**lay.coordinates,
                                              3: (edge, 0.0)}))
    assert "-0.00" not in svg
    assert svg.count(' 0.00,320.00"') == 3  # each edge ends at the hub
    assert '<circle cx="0.00" cy="320.00" r="2.4"' in svg


def test_svg_needs_full_coordinates():
    d = _triangle_hub()
    lay = tutte_layout(d)
    partial = {v: p for v, p in lay.coordinates.items() if v != 3}
    with pytest.raises(LayoutError):
        to_svg(d, Layout(partial, lay.boundary, lay.residual))


def test_layout_audit_and_svg_share_one_map(monkeypatch):
    built = []
    init = PlanarizationMap.__init__

    def counting_init(self, d):
        built.append(d)
        init(self, d)

    monkeypatch.setattr(PlanarizationMap, "__init__", counting_init)
    d = build_G2().drawing
    lay = tutte_layout(d)
    audit_layout(d, lay)
    to_svg(d, lay, k=2)
    # one map for the drawing itself, however many layers ask for it; the
    # audit's redrawn planarization is a different object with its own
    assert sum(x is d for x in built) == 1


_AUDIT_T3 = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from minkplanar.constructions import build_G2
from minkplanar.frames import build_frame, compose
from minkplanar.layout import audit_layout, tutte_layout
b = build_G2()
d = compose(build_frame(b.anchored_graph, 2, 3), b)
audit_layout(d, tutte_layout(d))
"""


def _run_limited(script: str, **env_extra: str) -> subprocess.CompletedProcess:
    """Runs ``script`` in a fresh interpreter that imports this checkout."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
               **env_extra)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)


def test_composed_g2_audit_at_t3_fits_in_two_gib():
    run = _run_limited(_AUDIT_T3)
    assert run.returncode == 0, run.stderr[-2000:]


_COMPOSE_AT_DEFAULT_T = """
import resource
resource.setrlimit(resource.RLIMIT_AS, ({mib} << 20, {mib} << 20))
from minkplanar.constructions import build_G2, build_Gk
from minkplanar.frames import build_frame, compose
b = {bundle}
compose(build_frame(b.anchored_graph, {k}, {t}), b)
"""

# one thread per native pool, since each pool thread reserves address
# space of its own
_ONE_THREAD = dict(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")


def test_composed_g2_at_the_default_t_fits_in_400_mib():
    # t = 2k+2 = 6 is the paper's default; the converter used to hold
    # every pair of pieces that end at the hub, and then every candidate
    # pair's classification arrays at once, which took the frame build
    # past this limit
    run = _run_limited(_COMPOSE_AT_DEFAULT_T.format(
        mib=400, bundle="build_G2()", k=2, t=6), **_ONE_THREAD)
    assert run.returncode == 0, run.stderr[-2000:]


def test_composed_gk3_at_the_default_t_fits_in_one_gib():
    # t = 2k+2 = 8: the frame scene has 7.66 M candidate pairs, but the
    # build converts only the t = 1 scene and amplifies its drawing
    run = _run_limited(_COMPOSE_AT_DEFAULT_T.format(
        mib=1024, bundle="build_Gk(3)", k=3, t=8), **_ONE_THREAD)
    assert run.returncode == 0, run.stderr[-2000:]


def test_composed_gk4_at_the_default_t_fits_in_512_mib():
    # t = 2k+2 = 10, 99,552 frame edges; with the t = 1 drawing amplified
    # the run peaks near 0.3 GB of address space, against 1.2 GB when the
    # whole frame scene went through the converter
    run = _run_limited(_COMPOSE_AT_DEFAULT_T.format(
        mib=512, bundle="build_Gk(4)", k=4, t=10), **_ONE_THREAD)
    assert run.returncode == 0, run.stderr[-2000:]


_FACES_OF_BROKEN_MAPS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from dataclasses import replace
from minkplanar.constructions import build_G2
from minkplanar.errors import InputError
d = build_G2().drawing
for bad in (replace(d, rotation={**d.rotation, 19: d.rotation[19][:1]}),
            replace(d, anchors=d.anchors[:1] * 2 + d.anchors[2:])):
    try:
        bad.planarization.faces
    except InputError as err:
        print(err)
"""


def test_faces_of_a_map_that_is_no_permutation_raise():
    # a rotation that drops an arc end, or a repeated anchor, leaves some
    # dart without a predecessor in the next-dart map: tracing its face
    # would grow one orbit until memory runs out, hence the limit
    run = _run_limited(_FACES_OF_BROKEN_MAPS, **_ONE_THREAD)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.count("faces cannot be traced") == 2


class _Ref(tuple):
    """An arc reference that is a tuple, but not of type ``tuple``."""


def test_rotation_entries_may_be_tuple_subclasses():
    d = build_G2().drawing
    sub = replace(d, rotation={node: tuple(map(_Ref, refs))
                               for node, refs in d.rotation.items()})
    # the drawing keeps them as plain tuples
    assert sub.rotation == d.rotation
    assert {type(ref) for refs in sub.rotation.values() for ref in refs} == {
        tuple}
    assert validate(sub) == []
    lay = tutte_layout(sub)
    audit_layout(sub, lay)
    assert to_svg(sub, lay) == to_svg(d, tutte_layout(d))
