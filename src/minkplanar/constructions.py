"""Generators for the bundled disk counterexamples.

Each generator lays out an explicit scene (vertex coordinates plus one
polyline route per edge), converts it into a combinatorial drawing, and
checks the construction's list of named claims on it.  A false claim
raises instead of returning, so a bundle in hand is already certified;
the ``repro`` pipelines print the same lists.  All coordinates are fixed
tables, making the output deterministic byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .drawings import (
    Drawing,
    adjacent_crossing_pairs,
    crossing_profile,
    is_min_k_planar,
    is_simple,
    validate,
)
from .errors import InputError, MinkplanarError
from .geometry import Point, Scene, on_circle, scene_to_drawing
from .graphs import AnchoredGraph, Graph

DISK_RADIUS = 2.1


# A construction's claims: (name, holds) pairs, produced lazily so that a
# builder stops at the first false one.
Claims = Iterator[tuple[str, bool]]


def certify(what: str, claims: Claims) -> None:
    """Raise on the first false claim of a construction's list."""
    for name, holds in claims:
        if not holds:
            raise MinkplanarError(f"{what} self-check failed: not {name}")


# ------------------------------------------------------------------ bundles


@dataclass(frozen=True)
class CounterexampleBundle:
    """An anchored graph with a certified drawing.

    ``vertex_names`` and ``edge_names`` map human-readable labels (``a1``,
    ``c1c2``, ``m1_0``, ...) to the numeric ids used in the graph, so
    callers never depend on the id assignment.
    """

    anchored_graph: AnchoredGraph
    drawing: Drawing
    claimed_min_k: int
    claimed_simple: bool
    claimed_adjacency_free: bool
    vertex_names: dict[str, int]
    edge_names: dict[str, int]

    def edge(self, name: str) -> int:
        return self.edge_names[name]


# ------------------------------------------------- shared scene assembly

# Anchor specs are (name, angle in degrees) in strictly clockwise order;
# edge specs are (name, tail name, head name, interior route points).


def _disk_bundle(
    anchor_specs: list[tuple[str, float]],
    interior_specs: list[tuple[str, Point]],
    edge_specs: list[tuple[str, str, str, list[Point]]],
    claimed_min_k: int,
    claimed_simple: bool,
    claimed_adjacency_free: bool,
) -> CounterexampleBundle:
    vertex_names: dict[str, int] = {}
    positions: dict[int, Point] = {}
    for name, angle in anchor_specs:
        vid = len(vertex_names)
        vertex_names[name] = vid
        positions[vid] = on_circle(DISK_RADIUS, angle)
    anchors = tuple(range(len(anchor_specs)))
    for name, pt in interior_specs:
        vid = len(vertex_names)
        vertex_names[name] = vid
        positions[vid] = pt

    edge_names: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    routes: dict[int, tuple[Point, ...]] = {}
    for name, uname, vname, mids in edge_specs:
        eid = len(edges)
        edge_names[name] = eid
        u, v = vertex_names[uname], vertex_names[vname]
        edges.append((u, v))
        routes[eid] = tuple([positions[u], *mids, positions[v]])

    graph = Graph(tuple(range(len(vertex_names))), tuple(edges))
    scene = Scene(graph, positions, routes, anchors=anchors, radius=DISK_RADIUS)
    drawing, _ = scene_to_drawing(scene)
    return CounterexampleBundle(
        anchored_graph=AnchoredGraph(graph, anchors),
        drawing=drawing,
        claimed_min_k=claimed_min_k,
        claimed_simple=claimed_simple,
        claimed_adjacency_free=claimed_adjacency_free,
        vertex_names=vertex_names,
        edge_names=edge_names,
    )


def _disk_claims(b: CounterexampleBundle) -> Claims:
    """What every disk bundle claims about its drawing."""
    d, mk = b.drawing, b.claimed_min_k
    yield "drawing-valid", validate(d) == []
    yield f"min-{mk}-planar", is_min_k_planar(d, mk).ok
    yield ("simple" if b.claimed_simple else "not-simple",
           is_simple(d).ok == b.claimed_simple)
    yield ("no-adjacent-pair-crosses" if b.claimed_adjacency_free
           else "some-adjacent-pair-crosses",
           (not adjacent_crossing_pairs(d)) == b.claimed_adjacency_free)


def _chord_angles(k: int) -> list[float]:
    # offsets of the two side matchings from their poles, innermost first
    return [14.0 + 28.0 * i / k for i in range(k + 1)]


def _side_matching_specs(k: int):
    """Anchor and edge specs for the two matchings that pad a1 and c1."""
    thetas = _chord_angles(k)
    m1_top = [(f"m1_{i}t", 180.0 - th) for i, th in enumerate(thetas)]
    m1_bot = [(f"m1_{i}b", th - 180.0) for i, th in enumerate(thetas)]
    m2_left = [(f"m2_{i}l", -90.0 - th) for i, th in enumerate(thetas)]
    m2_right = [(f"m2_{i}r", -90.0 + th) for i, th in enumerate(thetas)]
    m1_edges = [(f"m1_{i}", f"m1_{i}t", f"m1_{i}b", []) for i in range(k + 1)]
    m2_edges = [(f"m2_{i}", f"m2_{i}l", f"m2_{i}r", []) for i in range(k + 1)]
    return m1_top, m1_bot, m2_left, m2_right, m1_edges, m2_edges


def _assemble_family(
    k: int,
    upper_anchors: list[tuple[str, float]],
    upper_edges: list[tuple[str, str, str, list[Point]]],
    c2: Point,
    claimed_min_k: int,
    claimed_simple: bool,
    claimed_adjacency_free: bool,
) -> CounterexampleBundle:
    m1_top, m1_bot, m2_left, m2_right, m1_edges, m2_edges = _side_matching_specs(k)
    anchor_specs = (
        [("a1", 180.0)]
        + m1_top
        + upper_anchors
        + [("a2", 0.0)]
        + list(reversed(m2_right))
        + [("c1", -90.0)]
        + m2_left
        + list(reversed(m1_bot))
    )
    edge_specs = (
        [
            ("a1a2", "a1", "a2", []),
            ("c1c2", "c1", "c2", []),
            ("c2c3", "c2", "c3", []),
        ]
        + upper_edges
        + m1_edges
        + m2_edges
    )
    return _disk_bundle(
        anchor_specs,
        [("c2", c2)],
        edge_specs,
        claimed_min_k,
        claimed_simple,
        claimed_adjacency_free,
    )


# ------------------------------------------------------------ k=2 family


def build_G2() -> CounterexampleBundle:
    """The 20-vertex anchored counterexample with its min-2 drawing.

    Side matchings of three chords each pad the anchors a1 and c1, one top
    chord crosses c2c3, and the long edge b1a2 detours below the centre,
    picking up one crossing with a1a2 (its disk neighbour at a2, which is
    what breaks simplicity) and one with c1c2.
    """
    upper_anchors = [
        ("b1", 128.0),
        ("m3_topl", 106.0),
        ("c3", 90.0),
        ("m3_topr", 74.0),
    ]
    upper_edges = [
        ("b1a2", "b1", "a2", [(-0.75, -0.2), (0.4, -1.05)]),
        ("m3_top", "m3_topl", "m3_topr", []),
    ]
    bundle = _assemble_family(
        2,
        upper_anchors,
        upper_edges,
        c2=(0.0, -0.7),
        claimed_min_k=2,
        claimed_simple=False,
        claimed_adjacency_free=False,
    )
    certify("G2", g2_claims(bundle))
    return bundle


def g2_claims(b: CounterexampleBundle) -> Claims:
    """Lemma 3's claims on G2: the disk claims, the frozen shape, and the
    adjacent pair (a1a2, b1a2) as the first offence against simplicity."""
    yield from _disk_claims(b)
    g = b.anchored_graph
    yield "vertex-count", g.graph.n == 20
    yield "edge-count", g.graph.m == 11
    yield "anchor-count", len(g.anchors) == 19
    prof = crossing_profile(b.drawing)
    yield "crossing-count", prof.total == 10
    yield "a1a2-crossed-5-times", prof.per_edge[b.edge("a1a2")] == 5
    yield "c1c2-crossed-4-times", prof.per_edge[b.edge("c1c2")] == 4
    simple = is_simple(b.drawing)
    yield ("offender-is-a1a2-b1a2", not simple
           and simple.witness[0] == (b.edge("a1a2"), b.edge("b1a2")))
    yield "not-min-1-planar", not is_min_k_planar(b.drawing, 1)


# ----------------------------------------------------------- k>=3 family


def build_Gk(k: int) -> CounterexampleBundle:
    """The anchored family member for a given k >= 3, with min-3 drawing.

    Side matchings get k+1 chords.  Of the k edges of the top matching,
    one is a straight chord over c3 and the remaining k-1 dip below the
    centre: each deep edge crosses a1a2 twice and c1c2 once, so it carries
    exactly 3 crossings no matter how large k is.  b1b2 is the outermost
    and deepest of them.  The only adjacent edge pair of the graph is
    (c1c2, c2c3), which meets at c2 without crossing, hence no two edges
    sharing a vertex cross anywhere in the bundled drawing.
    """
    if k < 3:
        raise InputError("k must be at least 3 for this family; the k=2 "
                         "construction is its own generator")
    deep = k - 1
    phis = [35.0 - 15.0 * j / deep for j in range(deep)]
    dips = [-1.45 + 0.35 * j / deep for j in range(deep)]

    def left_name(j: int) -> str:
        return "b1" if j == 0 else f"m3_dip{j}l"

    def right_name(j: int) -> str:
        return "b2" if j == 0 else f"m3_dip{j}r"

    def edge_name(j: int) -> str:
        return "b1b2" if j == 0 else f"m3_dip{j}"

    upper_anchors = (
        [(left_name(j), 90.0 + phis[j]) for j in range(deep)]
        + [("m3_topl", 106.0), ("c3", 90.0), ("m3_topr", 74.0)]
        + [(right_name(j), 90.0 - phis[j]) for j in reversed(range(deep))]
    )
    upper_edges = [("m3_top", "m3_topl", "m3_topr", [])] + [
        (
            edge_name(j),
            left_name(j),
            right_name(j),
            [(-0.5, dips[j]), (0.5, dips[j])],
        )
        for j in range(deep)
    ]
    bundle = _assemble_family(
        k,
        upper_anchors,
        upper_edges,
        c2=(0.0, -0.85),
        claimed_min_k=3,
        claimed_simple=False,
        claimed_adjacency_free=True,
    )
    certify("Gk", gk_claims(bundle, k))
    return bundle


def gk_claims(b: CounterexampleBundle, k: int) -> Claims:
    """Lemma 3's claims on Gk: the disk claims, k+1 chords in each side
    matching and k in the top one, and the frozen counts."""
    yield from _disk_claims(b)
    g = b.anchored_graph
    yield "vertex-count", g.graph.n == 6 * k + 9
    yield "edge-count", g.graph.m == 3 * k + 5
    yield "anchor-count", len(g.anchors) == 6 * k + 8
    names = b.edge_names
    yield ("side-matchings-k-plus-1",
           all(sum(n.startswith(side) for n in names) == k + 1
               for side in ("m1_", "m2_")))
    yield ("top-matching-k",
           sum(n.startswith("m3_") for n in names) + ("b1b2" in names) == k)
    prof = crossing_profile(b.drawing)
    yield "crossing-count", prof.total == 5 * k + 1
    yield "a1a2-crossed-3k-times", prof.per_edge[b.edge("a1a2")] == 3 * k
    yield "c1c2-crossed-2k-times", prof.per_edge[b.edge("c1c2")] == 2 * k
    yield "b1b2-crossed-3-times", prof.per_edge[b.edge("b1b2")] == 3
