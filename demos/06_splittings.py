"""Marked graphs as free splittings: invariance and orbit periods.

A splitting is fixed by an outer automorphism when some graph
self-isomorphism transports the vertex-group classes the same way and
matches the induced action on the loop quotient up to inner automorphisms.
"""

from aperiodic_lab.aut import swap, transvection
from aperiodic_lab.splittings import edge_of_groups, rose_marked, splitting_orbit_period, theta_marked
from aperiodic_lab.words import Alphabet, parse_word

F2 = Alphabet(2)

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
