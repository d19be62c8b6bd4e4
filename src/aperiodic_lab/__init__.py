"""Congruence subgroups of Out(F_N) and desk-scale aperiodicity experiments.

The library provides free-group word algebra, automorphisms with certified
inverses, abelianized actions and congruence-subgroup membership, Stallings
cores, free factor systems, marked-graph splittings, train track transition
analytics, and a seeded experiment harness.
"""

from .words import Alphabet, Word, CyclicWord, cyclic_reduce, apply_endo
from .aut import FreeAutomorphism, compose, inverse, is_inner, outer_eq

__all__ = [
    "Alphabet",
    "Word",
    "CyclicWord",
    "cyclic_reduce",
    "apply_endo",
    "FreeAutomorphism",
    "compose",
    "inverse",
    "is_inner",
    "outer_eq",
]
