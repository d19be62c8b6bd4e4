"""Transition matrices, strata, turns, and bounded cancellation.

A graph self-map stratifies into irreducible blocks ordered so every
initial union is invariant; each block carries a Perron-Frobenius
eigenvalue separating exponential from polynomial strata, and non-primitive
blocks split into cyclically permuted classes.
"""

import random

from aperiodic_lab.rtt import (
    aperiodic_partition,
    bcc_bound,
    bcc_inequality_holds,
    filtration_of,
    illegal_turns,
    map_path,
    random_tight_path,
    verify_rtt,
)
from aperiodic_lab.splittings import graph_map_from_words, rose_marked
from aperiodic_lab.words import Alphabet, parse_word

F2 = Alphabet(2)
rose = rose_marked(F2)


def rose_map(*words):
    return graph_map_from_words(rose, [parse_word(F2, w) for w in words])


print("== the fibonacci map a -> ab, b -> a ==")
fib = rose_map("ab", "a")
filt = filtration_of(fib)
stratum = filt.strata[0]
print(f"  one stratum, matrix {[list(row) for row in stratum.matrix]}")
print(f"  class {stratum.kind}, lambda = {stratum.pf_eigenvalue:.10f}")
print(f"  partition: {aperiodic_partition(fib, stratum)}")
print(f"  illegal turns (darts): {illegal_turns(fib)['illegal']}")
print(f"  train track conditions pass: {verify_rtt(fib)['all_pass']}")

print("\n== the doubling map a -> bb, b -> aa has period 2 ==")
doubling = rose_map("bb", "aa")
stratum = filtration_of(doubling).strata[0]
partition = aperiodic_partition(doubling, stratum)
print(f"  lambda = {stratum.pf_eigenvalue:.1f}, classes {partition['classes']}")
print("  each class maps into the next, so one edge orbit feeds the other")

print("\n== a lower triangular map splits into two polynomial strata ==")
lower = rose_map("a", "ba")
for r, stratum in enumerate(filtration_of(lower).strata):
    print(f"  stratum {r}: edges {stratum.edges}, class {stratum.kind}")

print("\n== bounded cancellation in action ==")
c = bcc_bound(fib)
print(f"  constant C = {c}")
rng = random.Random(1)
worst = 0
for _ in range(2000):
    path = random_tight_path(rose.graph, rng.randrange(2, 40), rng)
    split = rng.randrange(1, len(path))
    lhs = len(map_path(fib, path))
    rhs = len(map_path(fib, path[:split])) + len(map_path(fib, path[split:]))
    worst = max(worst, rhs - lhs)
    assert bcc_inequality_holds(fib, path[:split], path[split:])
print(f"  2000 random splittings: worst junction loss {worst} <= 2C = {2 * c}")
