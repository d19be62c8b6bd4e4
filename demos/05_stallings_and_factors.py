"""Stallings cores, membership, conjugacy, and free factor systems.

A finitely generated subgroup folds to a labeled core graph; membership is
path tracing and conjugacy is equality of basepoint-free cores.  Free
factor systems are built as witness images of basis subsets.
"""

from aperiodic_lab.aut import basis_cycle, identity_automorphism, sample, standard_generators, swap
from aperiodic_lab.subgroups import (
    FreeFactorSystem,
    fold_core,
    membership,
    orbit_period,
    orbit_report,
    subgroup_class,
)
from aperiodic_lab.words import Alphabet, CyclicWord, parse_word

F2 = Alphabet(2)
F3 = Alphabet(3)

print("== folding <a^2, b> ==")
core = fold_core(F2, [parse_word(F2, "aa"), parse_word(F2, "b")])
print(f"  {core.n_vertices} vertices, {core.n_edges()} edges, rank {core.rank()}")
for text in ["aa", "a", "baab", "ab"]:
    print(f"  {text:5} member? {membership(parse_word(F2, text), core)}")

print("\n== conjugacy of subgroups ==")
print(f"  [<a>] == [<bab^-1>]: {subgroup_class(F2, [parse_word(F2, 'a')]) == subgroup_class(F2, [parse_word(F2, 'baB')])}")
print(f"  [<a>] == [<a^2>]:    {subgroup_class(F2, [parse_word(F2, 'a')]) == subgroup_class(F2, [parse_word(F2, 'aa')])}")

print("\n== free factor systems compare their classes ==")
plain = FreeFactorSystem(identity_automorphism(F2), [frozenset({1}), frozenset({2})])
swapped = FreeFactorSystem(swap(F2, 1, 2), [frozenset({1}), frozenset({2})])
print(f"  {plain} under the swap witness: {swapped}, equal: {plain == swapped}")

print("\n== orbits of classes ==")
cycle = basis_cycle(F3, [1, 2, 3])
cls = subgroup_class(F3, [parse_word(F3, "a")])
print(f"  3-cycle on [<a>]: {orbit_period(cycle, cls)}")
print(f"  swap on the class of the word a: {orbit_period(swap(F2, 1, 2), CyclicWord(F2, (1,)))}")

print("\n== a full orbit report ==")
report = orbit_report(cycle, cls)
print(f"  {report}")

print("\n== sampled congruence automorphisms never shuffle classes ==")
gens = standard_generators(3, "ia3")
for seed in range(4):
    phi = sample(gens, 4, seed)
    out = orbit_period(phi, cls, max_iter=8, length_cap=2000)
    print(f"  seed {seed}: {out}")
