"""Which functions the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<function>``; the five crossing predicates share
``drawings.predicates`` and the two sparse solvers share ``layout.solve``.
Self times and counts are per traced pass, except the oracle's, which
runs once per run outside the timed region.
"""

from __future__ import annotations

import statistics

from minkplanar import drawings, frames, geometry, jsonio, layout, oracle, search, simplify
from minkplanar.errors import GeometryError, InputError

import spans

SPAN_METRICS = (
    "geometry.scene_to_drawing", "drawings.validate",
    "drawings.PlanarizationMap", "drawings.predicates",
    "layout.tutte_layout", "layout.solve", "layout.audit_layout",
    "layout.to_svg", "frames.build_frame", "frames.compose",
    "frames.separation_property_check", "jsonio.drawing_from_json",
    "jsonio.drawing_to_json", "cli.gen", "cli.repro", "cli.compose",
    "cli.validate", "cli.render", "search.search_anchored",
    "search.verify_certificate", "simplify.simplify_min1",
)
COUNT_METRICS = (
    ("geometry.scene_to_drawing.calls", "count", "lower"),
    ("geometry.scene_to_drawing.segments", "count", "lower"),
    ("geometry.scene_to_drawing.crossings", "count", "lower"),
    ("geometry.scene_to_drawing.rejected", "count", "lower"),
    ("geometry.scene_to_drawing.accept_ratio", "ratio", "higher"),
    ("drawings.validate.calls", "count", "lower"),
    ("drawings.PlanarizationMap.calls", "count", "lower"),
    ("layout.solve.unknowns", "count", "lower"),
    ("jsonio.bytes_read", "B", "lower"),
    ("search.nodes", "count", "lower"),
    ("search.nodes_per_s", "1/s", "higher"),
    ("search.routes", "count", "lower"),
    ("search.budget_stops", "count", "lower"),
    ("simplify.swaps", "count", "lower"),
    ("oracle.brute_oracle.s", "s", "lower"),
    ("oracle.brute_oracle.calls", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
)
# (metric, unit, better); BENCHMARK.json's per_layer lists the same
METRICS = tuple((f"{n}.s", "s", "lower") for n in SPAN_METRICS) + COUNT_METRICS


def _on_scene(tracer, args, kwargs, out, err):
    scene = args[0] if args else kwargs["scene"]
    tracer.count("geometry.scene_to_drawing.segments",
                 sum(len(r) - 1 for r in scene.routes.values()))
    if isinstance(err, (GeometryError, InputError)):
        tracer.count("geometry.scene_to_drawing.rejected")
    elif err is None:
        tracer.count("geometry.scene_to_drawing.crossings", len(out[0].crossings))


def _on_solve(tracer, args, kwargs, out, err):
    tracer.count("layout.solve.unknowns", args[0].shape[0])


def _on_search(tracer, args, kwargs, out, err):
    if err is None:
        tracer.count("search.nodes", out.stats.nodes)
        tracer.count("search.routes", out.stats.routes)
        if out.status is search.Status.BUDGET_EXCEEDED:
            tracer.count("search.budget_stops")


def _on_simplify(tracer, args, kwargs, out, err):
    tracer.count("simplify.swaps", len(kwargs.get("trace") or ()))


TARGETS = (
    ("geometry.scene_to_drawing", geometry, "scene_to_drawing", _on_scene),
    ("drawings.validate", drawings, "validate", None),
    ("drawings.PlanarizationMap", drawings, "PlanarizationMap.__init__", None),
    *(("drawings.predicates", drawings, fn, None)
      for fn in ("crossing_profile", "is_simple", "is_min_k_planar",
                 "is_k_planar", "adjacent_crossing_pairs")),
    ("layout.tutte_layout", layout, "tutte_layout", None),
    ("layout.solve", layout, "spsolve", _on_solve),
    ("layout.solve", layout, "cg", _on_solve),
    ("layout.audit_layout", layout, "audit_layout", None),
    ("layout.to_svg", layout, "to_svg", None),
    ("frames.build_frame", frames, "build_frame", None),
    ("frames.compose", frames, "compose", None),
    ("frames.separation_property_check", frames,
     "separation_property_check", None),
    ("jsonio.drawing_from_json", jsonio, "drawing_from_json", None),
    ("jsonio.drawing_to_json", jsonio, "drawing_to_json", None),
    ("search.search_anchored", search, "search_anchored", _on_search),
    ("search.verify_certificate", search, "verify_certificate", None),
    ("simplify.simplify_min1", simplify, "simplify_min1", _on_simplify),
    ("oracle.brute_oracle", oracle, "brute_oracle", None),
)


def per_layer(tracer: spans.Tracer, traced_walls: list[float],
              untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run, keyed as in METRICS."""
    n = len(traced_walls)
    self_s, total_s, calls = spans.aggregate(tracer.spans, "timed")
    check_self, _, check_calls = spans.aggregate(tracer.spans, "check")

    def count(name: str) -> float:
        return tracer.counts[("timed", name)] / n

    m: dict[str, float] = {f"{s}.s": self_s.get(s, 0.0) / n
                           for s in SPAN_METRICS}
    stray = set(self_s) - set(SPAN_METRICS)
    if stray:
        raise RuntimeError(f"spans without a metric: {sorted(stray)}")
    geo_calls = calls.get("geometry.scene_to_drawing", 0)
    rejected = tracer.counts[("timed", "geometry.scene_to_drawing.rejected")]
    m["geometry.scene_to_drawing.calls"] = geo_calls / n
    for key in ("segments", "crossings", "rejected"):
        m[f"geometry.scene_to_drawing.{key}"] = count(
            f"geometry.scene_to_drawing.{key}")
    m["geometry.scene_to_drawing.accept_ratio"] = (
        (geo_calls - rejected) / geo_calls if geo_calls else 0.0)
    m["drawings.validate.calls"] = calls.get("drawings.validate", 0) / n
    m["drawings.PlanarizationMap.calls"] = (
        calls.get("drawings.PlanarizationMap", 0) / n)
    m["layout.solve.unknowns"] = count("layout.solve.unknowns")
    m["jsonio.bytes_read"] = count("jsonio.bytes_read")
    m["search.nodes"] = count("search.nodes")
    search_s = total_s.get("search.search_anchored", 0.0) / n
    m["search.nodes_per_s"] = m["search.nodes"] / search_s if search_s else 0.0
    m["search.routes"] = count("search.routes")
    m["search.budget_stops"] = count("search.budget_stops")
    m["simplify.swaps"] = count("simplify.swaps")
    m["oracle.brute_oracle.s"] = check_self.get("oracle.brute_oracle", 0.0)
    m["oracle.brute_oracle.calls"] = check_calls.get("oracle.brute_oracle", 0)
    wall = sum(traced_walls) / n
    # the first pass of a process also warms caches; leave it out when
    # there are others
    untraced = statistics.median(untraced_walls[1:] or untraced_walls)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = wall - untraced
    m["trace.remainder_s"] = wall - sum(self_s.values()) / n
    return m
