"""
Probing one level up
====================

The 20-vertex instance admits no simple anchored drawing at level 2.
Does it admit one at level 3?  Nothing in the package assumes an answer;
the search below settles it by exhaustion, and the certificate (when one
exists) is re-verified from scratch before anything gets printed.
"""

from minkplanar import (
    Status,
    build_G2,
    build_Gk,
    crossing_profile,
    is_min_k_planar,
    is_simple,
    search_anchored,
    verify_certificate,
)

g2 = build_G2().anchored_graph
out = search_anchored(g2, k=3, require_simple=True)
print("simple anchored drawing of the 20-vertex instance at k = 3:",
      out.status.value)

if out.status is Status.FOUND:
    d = out.certificate
    assert verify_certificate(out, g2, 3, True)
    prof = crossing_profile(d)
    print("  certificate re-verified; it uses", prof.total, "crossings")
    print("  max crossings on one edge:", max(prof.per_edge.values()))
    print("  simple:", is_simple(d)[0], " min-3:", is_min_k_planar(d, 3)[0])

# the 14-edge family member is still out of reach for a simple drawing
# one level below its design point, mirroring the 20-vertex situation
g3 = build_Gk(3).anchored_graph
out3 = search_anchored(g3, k=2, require_simple=True)
print("\nsimple anchored drawing of the k = 3 member at k = 2:",
      out3.status.value)
print("  nodes explored:", out3.stats.nodes)

print("\nso the obstruction is sharp at its own level and dissolves "
      "one level up, at least here")
