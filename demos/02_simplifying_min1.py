"""
Removing dependent crossings from min-1 drawings
================================================

At level 1 every crossing pair that breaks simplicity can be swapped
away.  The simplifier picks the lowest offending pair and reroutes the
two edges around their crossing, then repeats; each swap deletes exactly
one crossing.  Below we fuzz random anchored min-1 drawings and watch
the violating-pair count fall to zero.
"""

import random

from minkplanar import is_min_k_planar, is_simple, simplify_min1, validate
from minkplanar.sampling import random_min1_drawing
from minkplanar.simplify import violating_pairs

rng = random.Random(7)

# hunt for a drawing that actually needs work
d = random_min1_drawing(rng)
while not violating_pairs(d):
    d = random_min1_drawing(rng)

print("found a messy instance:")
print("  edges:", d.graph.m, " crossings:", len(d.crossings),
      " violating pairs:", violating_pairs(d))

trace = []
s = simplify_min1(d, trace=trace)

print("swap rounds:")
for i, pairs in enumerate(trace):
    print(f"  round {i}: {len(pairs)} violating pair(s) {pairs}")
print("  done: 0 violating pairs,", len(s.crossings), "crossing(s) left")

print("result valid:", validate(s) == [])
print("result simple:", is_simple(s)[0])
print("result min-1: ", is_min_k_planar(s, 1)[0])
print("same graph:   ", s.graph == d.graph)

# a larger sweep, quietly
total = swaps = 0
for _ in range(300):
    d = random_min1_drawing(rng)
    trace = []
    s = simplify_min1(d, trace=trace)
    assert is_simple(s)[0]
    total += 1
    swaps += len(trace)
print(f"\nswept {total} fuzzed drawings, {swaps} swaps, all ended simple")
