"""Marked graphs as free splittings: invariance, twists, suspensions.

A splitting is fixed by an outer automorphism when some graph
self-isomorphism transports the vertex-group classes the same way and
matches the induced action on the loop quotient up to inner automorphisms.
"""

from aperiodic_lab.aut import (
    identity_automorphism,
    inversion,
    swap,
    transvection,
)
from aperiodic_lab.splittings import (
    edge_of_groups,
    induced_ffs,
    rose_marked,
    splitting_orbit_period,
    suspension_presentation,
    theta_marked,
    twist_descriptor,
    vertex_homology_image,
)
from aperiodic_lab.words import Alphabet, parse_word

F2 = Alphabet(2)
F3 = Alphabet(3)

rose = rose_marked(F2)
segment = edge_of_groups(F2, [parse_word(F2, "a")], [parse_word(F2, "b")])
theta = theta_marked(F2)

print("== which splittings does the basis swap fix? ==")
for name, marked in [("rose", rose), ("<a>*<b> segment", segment), ("theta", theta)]:
    out = splitting_orbit_period(marked, swap(F2, 1, 2), max_iter=4)
    print(f"  {name:16} {out}")

print("\n== a transvection fixes none of them within 4 steps ==")
for name, marked in [("rose", rose), ("<a>*<b> segment", segment)]:
    out = splitting_orbit_period(marked, transvection(F2, 1, 2), max_iter=4, length_cap=500)
    print(f"  {name:16} {out}")

print("\n== an asymmetric marking turns the swap genuinely periodic ==")
asym = rose_marked(
    F2,
    [parse_word(F2, "a"), parse_word(F2, "ab")],
    [parse_word(F2, "a"), parse_word(F2, "Ab")],
)
print(f"  petals marked a, ab: {splitting_orbit_period(asym, swap(F2, 1, 2), max_iter=4)}")

print("\n== induced free factor systems ==")
both = induced_ffs(segment, [], extra_vertices=[0, 1])
print(f"  both vertices alone: {both} (Grushko rank {both.grushko_rank()})")
joined = induced_ffs(segment, [0])
print(f"  full subforest:      {joined} (Grushko rank {joined.grushko_rank()})")

print("\n== vertex homology images mod 3 ==")
for v in (0, 1):
    print(f"  vertex {v}: span rows {[list(row) for row in vertex_homology_image(segment, v)]}")

print("\n== twist groups ==")
big = edge_of_groups(F3, [parse_word(F3, "a"), parse_word(F3, "b")], [parse_word(F3, "c")])
for name, marked in [("<a>*<b>", segment), ("<a,b>*<c>", big), ("rose", rose)]:
    print(f"  {name:10} twist group {twist_descriptor(marked)['descriptor']}")

print("\n== suspension presentations ==")
phi = transvection(F2, 1, 2)
print(f"  transvection: {suspension_presentation(phi)}")
print(f"  identity:     {suspension_presentation(identity_automorphism(F2))}")
