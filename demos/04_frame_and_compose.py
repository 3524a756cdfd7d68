"""
Caging a counterexample inside a crossing frame
===============================================

The frame is a double wheel whose spokes are threaded through a circular
ladder of web edges, amplified t-fold.  Every wheel edge picks up exactly
t crossings and no web edge more than one, so the frame alone is an
anchored simple min-1 drawing.  Its anchors reserve arcs of the boundary
circle; gluing a counterexample drawing onto those anchors produces one
seamless drawing whose crossing load is the sum of its parts.
"""

from minkplanar import (
    biclique_obstruction,
    build_frame,
    build_G2,
    compose,
    crossing_profile,
    extract_planar_amplification,
    is_min_k_planar,
    is_simple,
    separation_property_check,
    validate,
)
from minkplanar.drawings import restrict

src = build_G2()
frame = build_frame(src.anchored_graph, k=2)  # t = 2k + 2, the paper's default
p = frame.params

print("frame parameters")
print(f"  anchors a = {p.a}, spokes per anchor q = 2*k*ell + 2k + 1 = "
      f"{2 * p.k * p.ell + 2 * p.k + 1}")
print(f"  wheel size d = {p.d}, amplification t = {p.t}")

prof = crossing_profile(frame.drawing)
print("  vertices:", frame.graph.n, " edges:", frame.graph.m,
      " crossings:", prof.total)
print("  each wheel edge crossed exactly t times:",
      all(prof.per_edge[e] == p.t for e in frame.core_edges))

print("  valid:", validate(frame.drawing) == [])
print("  simple:", is_simple(frame.drawing).ok)
print("  min-1:", is_min_k_planar(frame.drawing, 1).ok)

# the web on its own is a valid drawing without crossings, so its graph is
# planar, and it cages the wheel: any curve between the endpoints of a
# wheel edge must cross it
web, _ = restrict(frame.drawing, frame.classes.half_ids())
print("  web sub-drawing valid and crossing-free:",
      validate(web) == [] and not web.crossings)
print("  web separates every wheel edge:", separation_property_check(frame))

# one crossing-free copy per class can always be pulled back out
res = extract_planar_amplification(frame.drawing, frame.classes, p.t)
print("  extractor recovers t copies per class:", res is not None)

# ------------------------------------------------------------- gluing

composed = compose(frame, src)
cprof = crossing_profile(composed)
print("\ncomposed drawing")
print("  crossings:", cprof.total, "= frame", prof.total, "+ source",
      len(src.drawing.crossings))
print("  min-2-planar:", is_min_k_planar(composed, 2).ok)
# compose numbers the frame's edges first, so the frame's class map still
# names the web's double edges in the composed drawing
print("  heavy edges:", len(cprof.heavy_edges(2)))
print("  bundle-against-bundle obstruction at k = 2:",
      biclique_obstruction(composed, 2, frame.classes) or "none")
