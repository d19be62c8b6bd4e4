"""Graph automorphisms that fix leaves and homology mod 3.

Such an automorphism is the identity unless the graph is a circle, where a
rotation remains possible.  The claim is checked exhaustively over all
connected multigraphs with few edges.
"""

from collections import Counter

from aperiodic_lab.graphs import (
    FiniteGraph,
    connected_multigraphs,
    enumerate_automorphisms,
    h1_action_mod3,
    ivanov_check,
)

rose2 = FiniteGraph(1, [(0, 0), (0, 0)])
triangle = FiniteGraph(3, [(0, 1), (1, 2), (0, 2)])

print("== symmetry counts ==")
for name, graph in [("rose with 2 petals", rose2), ("triangle", triangle)]:
    print(f"  {name}: {len(enumerate_automorphisms(graph))} automorphisms")

print("\n== homology action of a petal swap ==")
swap = next(
    f
    for f in enumerate_automorphisms(rose2)
    if f.dart_perm[0] == 2 and f.dart_perm[2] == 0
)
print(f"  matrix mod 3: {[list(row) for row in h1_action_mod3(rose2, swap)]}")
print(f"  classification: {ivanov_check(rose2, swap).value}")

print("\n== triangle rotations survive the hypotheses ==")
for f in enumerate_automorphisms(triangle):
    outcome = ivanov_check(triangle, f)
    print(f"  vertex permutation {f.vertex_perm} -> {outcome.value}")

print("\n== exhaustive scan (this is the lemma; never a violation) ==")
outcomes = Counter()
graphs = 0
for graph in connected_multigraphs(5):
    graphs += 1
    for f in enumerate_automorphisms(graph):
        outcomes[ivanov_check(graph, f).value] += 1
print(f"  {graphs} connected multigraphs with <= 5 edges")
for outcome, count in sorted(outcomes.items()):
    print(f"  {outcome}: {count}")
