"""Chain surgery: ``restrict`` and ``swap_at`` cut and splice edge chains.

The pinned test hashes what both transforms and ``simplify_min1`` return
on seeded inputs, so a change to how arc ends are renamed shows up as a
changed digest even where the result would still be a valid drawing.
The fuzz test runs both transforms on drawings with interior vertices,
which the samplers in ``minkplanar.sampling`` never draw.
"""

import hashlib
import random

from hypothesis import given, seed, settings, strategies as st

from minkplanar.drawings import is_min_k_planar, is_simple, restrict, validate
from minkplanar.errors import GeometryError
from minkplanar.geometry import scene_to_drawing
from minkplanar.jsonio import drawing_text
from minkplanar.sampling import random_min1_drawing
from minkplanar.simplify import simplify_min1, swap_at, violating_pairs

from test_drawings import _built
from test_geometry import anchored_scenes

# (name, number of seeded edge subsets) for the restrict half of the pin
_RESTRICT_BASES = (("g2", 40), ("gk4", 40), ("frame-t1", 3),
                   ("frame-t2", 2), ("composed-t1", 2))

# sha256 of every output below, recorded before the two transforms shared
# one arc-end renaming routine
_TRANSFORMS_DIGEST = (
    "79e904a6d6be6b1b66ca69cdd622d527fa27747fdba7ab2f55494d25d70d8f72")


def _restrict_outputs():
    rng = random.Random(24)
    for name, count in _RESTRICT_BASES:
        d = _built(name)
        for _ in range(count):
            keep = [e for e in range(d.graph.m) if rng.random() < rng.random()]
            out, edge_map = restrict(d, keep)
            yield f"restrict {name} {keep}\n{drawing_text(out)}\n{edge_map}"


def _swap_outputs():
    rng = random.Random(2401)
    for i in range(400):
        d = random_min1_drawing(rng)
        for e, f in violating_pairs(d):
            y = next(x.id for x in d.crossings if set(x.edges) == {e, f})
            for a, b in ((e, f), (f, e)):
                yield f"swap {i} {a} {b} {y}\n" + drawing_text(
                    swap_at(d, a, b, y))
        trace = []
        out = simplify_min1(d, trace=trace)
        yield f"simplify {i}\n{drawing_text(out)}\n{trace}"


def test_transform_outputs_are_pinned():
    digest = hashlib.sha256()
    for text in (*_restrict_outputs(), *_swap_outputs()):
        digest.update(text.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == _TRANSFORMS_DIGEST


# The samplers draw every vertex on the boundary.  These scenes have one
# or two interior vertices, every edge ends at one of them and bends at
# most twice, so two edges at a vertex cross often enough to be swapped.
_SPOKED_SCENES = anchored_scenes(interior=(1, 2), bent=(0, 2), spokes=True,
                                 faults=("none",))


# the seed hypothesis derived from the test's source when it was pinned,
# so that an edit to the test's body keeps every draw
_SPOKED_SEED = int(
    "4d7ebb807176252c2808cb748373f2ce0f4e268853a369cf"
    "025bce094f2ac4832c2b9233e3b03b9a0ed3038de23c0c45", 16)


def test_transforms_on_drawings_with_interior_vertices():
    swapped = []

    @seed(_SPOKED_SEED)
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(scene=_SPOKED_SCENES, data=st.data())
    def check(scene, data):
        try:
            d, _ = scene_to_drawing(scene)
        except GeometryError:
            return
        keep = data.draw(st.sets(st.integers(0, d.graph.m - 1)))
        sub, edge_map = restrict(d, keep)
        assert validate(sub) == []
        assert {x.id: x.edges for x in sub.crossings} == {
            x.id: (edge_map[x.edges[0]], edge_map[x.edges[1]])
            for x in d.crossings if keep.issuperset(x.edges)}
        if not is_min_k_planar(d, 1):
            return
        trace = []
        out = simplify_min1(d, trace=trace)
        assert validate(out) == []
        assert is_simple(out) and is_min_k_planar(out, 1)
        assert (out.graph, out.anchors) == (d.graph, d.anchors)
        # each swap deletes its crossing; the violating pairs need not
        # drop every round (test_simplify's lens)
        assert len(d.crossings) - len(out.crossings) == len(trace)
        if trace:
            swapped.append(d)

    check()
    # every edge has an interior end, so each swapped drawing has one
    assert len(swapped) >= 20
