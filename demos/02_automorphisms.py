"""Automorphisms with certified inverses, inner detection, and sampling.

Every automorphism carries explicit backward images, checked at
construction.  The homologically trivial family (partial conjugations,
commutator insertions, cube maps) generates inside the level-3 congruence
kernel, so seeded products always land there.
"""

from aperiodic_lab.aut import (
    ad,
    compose,
    inverse,
    is_inner,
    outer_eq,
    sample,
    standard_generators,
    transvection,
)
from aperiodic_lab.homology import abelianization, in_ia3
from aperiodic_lab.words import Alphabet, parse_word, word_str

F2 = Alphabet(2)
F3 = Alphabet(3)

print("== a Nielsen transvection and its carried inverse ==")
phi = transvection(F2, 1, 2)
print(f"  forward:  {phi}")
print(f"  backward: {inverse(phi)}")

print("\n== composition substitutes images ==")
square = compose(phi, phi)
print(f"  a under phi^2: {word_str(square.forward[0])}")

print("\n== inner automorphisms are recognized with their conjugator ==")
inner = ad(parse_word(F2, "ba"))
print(f"  conjugator found: {word_str(is_inner(inner))}")
print(f"  transvection inner? {is_inner(phi) is not None}")
print(f"  outer equality of phi and (ad_b . phi): {outer_eq(phi, compose(ad(parse_word(F2, 'b')), phi))}")

print("\n== the congruence-kernel generator family ==")
for gen in standard_generators(3, "ia3")[:6]:
    mat = abelianization(gen)
    print(f"  {gen}  abelianization rows {mat}")

print("\n== sampled products stay in the kernel ==")
gens = standard_generators(3, "ia3")
for seed in range(3):
    phi = sample(gens, budget=6, seed=seed)
    print(
        f"  seed {seed}: max image length {phi.max_image_length():3}, "
        f"in kernel: {in_ia3(phi)}"
    )
