"""Finite multigraphs, their automorphisms, and the H_1 mod 3 action.

A graph automorphism that fixes every leaf and acts trivially on homology
mod 3 is either the identity or a rotation of a circle; ``ivanov_check``
classifies a given automorphism accordingly and raises if neither case
applies.

Oriented edges are darts: edge e gives darts 2e (forward) and 2e+1
(backward); reversal toggles the low bit.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .homology import IntMatrix, identity_matrix
from .words import Frozen


class FiniteGraph(Frozen):
    """Vertices 0..n-1 and an edge list; loops and parallel edges allowed.

    The darts at each vertex are listed once, in ascending order, when the
    graph is built.  ``_lemma`` holds the leaves and the H_1 basis that
    ``ivanov_check`` needs, filled on first use by ``_lemma_data``.
    """

    __slots__ = ("n_vertices", "edges", "_incidence", "_lemma")

    def __init__(self, n_vertices: int, edges: Sequence[Tuple[int, int]]):
        edges = tuple((int(u), int(v)) for u, v in edges)
        incidence: List[List[int]] = [[] for _ in range(n_vertices)]
        for e, (u, v) in enumerate(edges):
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            incidence[u].append(2 * e)
            incidence[v].append(2 * e + 1)
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_incidence", tuple(tuple(ds) for ds in incidence))
        object.__setattr__(self, "_lemma", None)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGraph)
            and self.n_vertices == other.n_vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n_vertices, self.edges))

    def __repr__(self):
        return f"FiniteGraph({self.n_vertices}, {list(self.edges)})"

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def n_darts(self) -> int:
        return 2 * len(self.edges)

    def dart_origin(self, dart: int) -> int:
        return self.edges[dart >> 1][dart & 1]

    def dart_head(self, dart: int) -> int:
        return self.dart_origin(dart ^ 1)

    def darts_at(self, vertex: int) -> Tuple[int, ...]:
        """The darts leaving ``vertex``, in ascending order."""
        return self._incidence[vertex]

    def valence(self, vertex: int) -> int:
        return len(self._incidence[vertex])

    def is_connected(self) -> bool:
        return len(self.spanning_tree()) == max(self.n_vertices - 1, 0)

    def spanning_tree(self) -> List[int]:
        """Edge ids of the BFS tree from vertex 0, in the order it adds them;
        the tree spans the graph iff the graph is connected."""
        tree_edges: List[int] = []
        seen = {0}
        queue = [0] if self.n_vertices else []
        # the loop also visits the vertices appended while it runs
        for v in queue:
            for d in self._incidence[v]:
                w = self.dart_head(d)
                if w not in seen:
                    seen.add(w)
                    tree_edges.append(d >> 1)
                    queue.append(w)
        return tree_edges

    def fundamental_loops(self, tree_edges: Iterable[int]) -> Dict[int, List[int]]:
        """For each non-tree edge e, in increasing order, the closed dart path
        at vertex 0 that runs along the tree to the origin of e, crosses e
        forward and returns along the tree.

        Raises ``ValueError`` unless ``tree_edges`` is a spanning tree: the
        walk from vertex 0 along them must reach every vertex, and use every
        one of them, exactly once.
        """
        tree = frozenset(tree_edges)
        parent_dart: Dict[int, int] = {}
        stack = [0] if self.n_vertices else []
        while stack:
            for d in self._incidence[stack.pop()]:
                w = self.dart_head(d)
                if (d >> 1) in tree and w != 0 and w not in parent_dart:
                    parent_dart[w] = d
                    stack.append(w)
        # n - 1 edges that reach every vertex form a spanning tree
        if not len(tree) == len(parent_dart) == max(self.n_vertices - 1, 0):
            raise ValueError(f"edges {sorted(tree)} do not span the graph as a tree")

        def up(v: int) -> List[int]:
            """The tree darts into v, into its parent, ..., out of vertex 0."""
            darts = []
            while v:
                darts.append(parent_dart[v])
                v = self.dart_origin(darts[-1])
            return darts

        return {
            e: up(u)[::-1] + [2 * e] + [d ^ 1 for d in up(v)]
            for e, (u, v) in enumerate(self.edges)
            if e not in tree
        }


class GraphAutomorphism(Frozen):
    """Vertex permutation plus a dart permutation commuting with reversal."""

    __slots__ = ("graph", "vertex_perm", "dart_perm")

    def __init__(self, graph: FiniteGraph, vertex_perm: Sequence[int], dart_perm: Sequence[int]):
        vertex_perm = tuple(vertex_perm)
        dart_perm = tuple(dart_perm)
        if sorted(vertex_perm) != list(range(graph.n_vertices)):
            raise ValueError("vertex_perm is not a permutation")
        if sorted(dart_perm) != list(range(graph.n_darts())):
            raise ValueError("dart_perm is not a permutation")
        for d in range(graph.n_darts()):
            if dart_perm[d ^ 1] != dart_perm[d] ^ 1:
                raise ValueError("dart_perm does not commute with reversal")
            if graph.dart_origin(dart_perm[d]) != vertex_perm[graph.dart_origin(d)]:
                raise ValueError("dart_perm does not respect incidence")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "vertex_perm", vertex_perm)
        object.__setattr__(self, "dart_perm", dart_perm)

    def __eq__(self, other):
        return (
            isinstance(other, GraphAutomorphism)
            and self.graph == other.graph
            and self.vertex_perm == other.vertex_perm
            and self.dart_perm == other.dart_perm
        )

    def __hash__(self):
        return hash((self.graph, self.vertex_perm, self.dart_perm))

    def __repr__(self):
        return f"GraphAutomorphism(v={self.vertex_perm}, d={self.dart_perm})"

    def is_identity(self) -> bool:
        return self.vertex_perm == tuple(range(self.graph.n_vertices)) and (
            self.dart_perm == tuple(range(self.graph.n_darts()))
        )

    def compose(self, other: "GraphAutomorphism") -> "GraphAutomorphism":
        """self after other."""
        return GraphAutomorphism(
            self.graph,
            tuple(self.vertex_perm[v] for v in other.vertex_perm),
            tuple(self.dart_perm[d] for d in other.dart_perm),
        )

    def inverse(self) -> "GraphAutomorphism":
        n, m = self.graph.n_vertices, self.graph.n_darts()
        v_inv = [0] * n
        d_inv = [0] * m
        for i, v in enumerate(self.vertex_perm):
            v_inv[v] = i
        for i, d in enumerate(self.dart_perm):
            d_inv[d] = i
        return GraphAutomorphism(self.graph, v_inv, d_inv)


def _adjacency_counts(graph: FiniteGraph) -> Dict[Tuple[int, int], int]:
    counts: Dict[Tuple[int, int], int] = {}
    for u, v in graph.edges:
        key = (min(u, v), max(u, v))
        counts[key] = counts.get(key, 0) + 1
    return counts


# the enumeration lists every automorphism, and k parallel edges or k loops
# at one vertex alone give k! or 2^k k! of them, so larger graphs are refused
MAX_AUTOMORPHISM_EDGES = 10


def enumerate_automorphisms(graph: FiniteGraph) -> List[GraphAutomorphism]:
    """All automorphisms, by backtracking on vertex images with incidence
    pruning, then assigning parallel-edge bijections and loop orientations."""
    if graph.n_edges > MAX_AUTOMORPHISM_EDGES:
        raise ValueError(f"graph has {graph.n_edges} edges, cap is {MAX_AUTOMORPHISM_EDGES}")
    counts = _adjacency_counts(graph)
    n = graph.n_vertices

    # vertex invariant: (valence, loop count) must be preserved
    invariant = [
        (graph.valence(v), counts.get((v, v), 0)) for v in range(n)
    ]

    vertex_perms: List[Tuple[int, ...]] = []

    def backtrack(assigned: List[int], used: set) -> None:
        v = len(assigned)
        if v == n:
            vertex_perms.append(tuple(assigned))
            return
        for image in range(n):
            if image in used or invariant[image] != invariant[v]:
                continue
            ok = True
            for w in range(v):
                key = (min(v, w), max(v, w))
                image_key = (min(image, assigned[w]), max(image, assigned[w]))
                if counts.get(key, 0) != counts.get(image_key, 0):
                    ok = False
                    break
            if ok:
                backtrack(assigned + [image], used | {image})

    backtrack([], set())

    # group edge ids by unordered endpoint pair
    classes: Dict[Tuple[int, int], List[int]] = {}
    for e, (u, v) in enumerate(graph.edges):
        classes.setdefault((min(u, v), max(u, v)), []).append(e)

    autos: List[GraphAutomorphism] = []
    for vp in vertex_perms:
        # per parallel class, enumerate bijections onto the image class;
        # loops additionally choose an orientation
        class_keys = sorted(classes)
        options_per_class = []
        consistent = True
        for key in class_keys:
            u, v = key
            image_key = (min(vp[u], vp[v]), max(vp[u], vp[v]))
            src, dst = classes[key], classes.get(image_key, [])
            if len(src) != len(dst):
                consistent = False
                break
            is_loop = u == v
            opts = []
            for perm in itertools.permutations(dst):
                if is_loop:
                    for flips in itertools.product((0, 1), repeat=len(src)):
                        opts.append((perm, flips))
                else:
                    opts.append((perm, None))
            options_per_class.append((key, src, opts))
        if not consistent:
            continue
        for combo in itertools.product(*(opts for _, _, opts in options_per_class)):
            dart_perm = [0] * graph.n_darts()
            for ((u, v), src, _), (perm, flips) in zip(options_per_class, combo):
                for idx, e in enumerate(src):
                    e_img = perm[idx]
                    if flips is not None:
                        # loop: orientation free
                        flip = flips[idx]
                        dart_perm[2 * e] = 2 * e_img + flip
                        dart_perm[2 * e + 1] = 2 * e_img + (flip ^ 1)
                    else:
                        # orientation forced by endpoint images
                        eu, _ = graph.edges[e]
                        img_u, _ = graph.edges[e_img]
                        if vp[eu] == img_u:
                            dart_perm[2 * e] = 2 * e_img
                            dart_perm[2 * e + 1] = 2 * e_img + 1
                        else:
                            dart_perm[2 * e] = 2 * e_img + 1
                            dart_perm[2 * e + 1] = 2 * e_img
            # each dart image is built from the vertex images, so the
            # per-dart checks of the constructor can never fail here
            autos.append(GraphAutomorphism._trusted(graph, vp, tuple(dart_perm)))
    return autos


def _cycle_coordinates(darts: Sequence[int], non_tree: Dict[int, int]) -> List[int]:
    """Coordinates of a closed dart path in the non-tree-edge cycle basis."""
    coords = [0] * len(non_tree)
    for d in darts:
        e = d >> 1
        if e in non_tree:
            coords[non_tree[e]] += 1 if d & 1 == 0 else -1
    return coords


def h1_basis(graph: FiniteGraph) -> Tuple[Dict[int, int], List[List[int]]]:
    """The H_1 basis of the BFS tree: (non-tree edge index map, fundamental
    cycles as dart paths), both in increasing edge order."""
    loops = graph.fundamental_loops(graph.spanning_tree())
    return {e: i for i, e in enumerate(loops)}, list(loops.values())


def _lemma_data(graph: FiniteGraph) -> Tuple[Tuple[int, ...], Dict[int, int], List[List[int]]]:
    """(leaves, non-tree edge index map, fundamental cycles) of a connected
    graph, computed on the first call and kept on the graph."""
    if graph._lemma is None:
        non_tree, cycles = h1_basis(graph)
        leaves = tuple(v for v in range(graph.n_vertices) if graph.valence(v) == 1)
        object.__setattr__(graph, "_lemma", (leaves, non_tree, cycles))
    return graph._lemma


def h1_action_mod3(graph: FiniteGraph, f: GraphAutomorphism) -> IntMatrix:
    """Matrix of f_* on H_1(X, Z/3Z) in the non-tree-edge basis of a fixed
    spanning tree; column i is the image of the i-th fundamental cycle."""
    _, non_tree, cycles = _lemma_data(graph)
    columns = [
        _cycle_coordinates([f.dart_perm[d] for d in cycle], non_tree)
        for cycle in cycles
    ]
    return tuple(tuple(col[i] % 3 for col in columns) for i in range(len(non_tree)))


class IvanovOutcome(Enum):
    HYPOTHESIS_FAILS = "HypothesisFails"
    IDENTITY = "Identity"
    CIRCLE_ROTATION = "CircleRotation"


class TheoremViolation(AssertionError):
    """An automorphism satisfied the hypotheses but is neither the identity
    nor a circle rotation.  Must never fire."""


def is_circle(graph: FiniteGraph) -> bool:
    """Connected with every vertex of valence 2 (single loop included)."""
    return graph.n_vertices >= 1 and graph.is_connected() and all(
        graph.valence(v) == 2 for v in range(graph.n_vertices)
    )


def _circle_next_dart(graph: FiniteGraph, dart: int) -> int:
    head = graph.dart_head(dart)
    candidates = [d for d in graph.darts_at(head) if d != (dart ^ 1)]
    if not candidates:
        # single loop: continuing past the reversal means the loop itself
        return dart
    return candidates[0]


def _is_rotation(graph: FiniteGraph, f: GraphAutomorphism) -> bool:
    """On a circle: f preserves the cyclic orientation of the dart walk."""
    return all(
        f.dart_perm[_circle_next_dart(graph, d)] == _circle_next_dart(graph, f.dart_perm[d])
        for d in range(graph.n_darts())
    )


def ivanov_check(graph: FiniteGraph, f: GraphAutomorphism) -> IvanovOutcome:
    """Classify an automorphism that fixes all leaves and acts trivially on
    H_1 mod 3: it is the identity or a circle rotation.

    Any other outcome raises TheoremViolation.
    """
    leaves, _, _ = _lemma_data(graph)  # raises if the graph is not connected
    if any(f.vertex_perm[v] != v for v in leaves):
        return IvanovOutcome.HYPOTHESIS_FAILS
    action = h1_action_mod3(graph, f)
    if action != identity_matrix(len(action)):
        return IvanovOutcome.HYPOTHESIS_FAILS
    if f.is_identity():
        return IvanovOutcome.IDENTITY
    if is_circle(graph) and _is_rotation(graph, f):
        return IvanovOutcome.CIRCLE_ROTATION
    raise TheoremViolation(
        f"nontrivial automorphism with trivial H_1 mod 3 action on a non-circle: {f!r}"
    )


# ---------------------------------------------------------------------------
# exhaustive generation of connected multigraphs up to isomorphism


def _refine_classes(n: int, counts: Dict[Tuple[int, int], int]) -> List[int]:
    """Iterated neighbourhood refinement; returns a class id per vertex."""
    valence = [0] * n
    loops = [0] * n
    for (u, v), c in counts.items():
        if u == v:
            loops[u] += c
            valence[u] += 2 * c
        else:
            valence[u] += c
            valence[v] += c
    # rank-compress by sorted signature each round, so class ids depend
    # only on the isomorphism type, not on the vertex numbering
    initial = sorted(set((valence[v], loops[v]) for v in range(n)))
    rank_of = {sig: i for i, sig in enumerate(initial)}
    labels = [rank_of[(valence[v], loops[v])] for v in range(n)]
    while True:
        signature = []
        for v in range(n):
            neigh = []
            for (a, b), c in counts.items():
                if a == v and b != v:
                    neigh.append((labels[b], c))
                elif b == v and a != v:
                    neigh.append((labels[a], c))
            signature.append((labels[v], tuple(sorted(neigh))))
        ranks = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        new_labels = [ranks[sig] for sig in signature]
        if new_labels == labels:
            break
        labels = new_labels
    return labels


def canonical_key(graph: FiniteGraph) -> tuple:
    """Isomorphism-invariant key: minimum edge multiset over relabelings
    compatible with the refined vertex classes."""
    n = graph.n_vertices
    counts = _adjacency_counts(graph)
    labels = _refine_classes(n, counts)
    by_class: Dict[int, List[int]] = {}
    for v in range(n):
        by_class.setdefault(labels[v], []).append(v)
    # vertices of lexicographically smaller class signatures come first
    class_order = sorted(by_class)
    best = None
    for orderings in itertools.product(
        *(itertools.permutations(by_class[c]) for c in class_order)
    ):
        perm: Dict[int, int] = {}
        position = 0
        for ordering in orderings:
            for v in ordering:
                perm[v] = position
                position += 1
        edges = sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in graph.edges
        )
        key = (n, tuple(edges))
        if best is None or key < best:
            best = key
    return best


def from_canonical_key(key: tuple) -> FiniteGraph:
    return FiniteGraph(key[0], key[1])


def connected_multigraphs(max_edges: int) -> Iterator[FiniteGraph]:
    """All connected multigraphs with 1..max_edges edges, up to isomorphism.

    Grown one edge at a time: either an edge between existing vertices or a
    pendant edge to a fresh vertex; canonical keys deduplicate levels.
    """
    level = {canonical_key(FiniteGraph(1, ()))}
    for _ in range(max_edges):
        next_level = set()
        for key in level:
            graph = from_canonical_key(key)
            n = graph.n_vertices
            for u in range(n):
                for v in range(u, n):
                    bigger = FiniteGraph(n, graph.edges + ((u, v),))
                    next_level.add(canonical_key(bigger))
                bigger = FiniteGraph(n + 1, graph.edges + ((u, n),))
                next_level.add(canonical_key(bigger))
        for key in sorted(next_level):
            yield from_canonical_key(key)
        level = next_level


# ---------------------------------------------------------------------------
# text format: "V n" then one "u v" line per edge; automorphisms as two
# permutation lines (vertex images, then dart images)


def graph_str(graph: FiniteGraph) -> str:
    lines = [f"V {graph.n_vertices}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> FiniteGraph:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if not lines or not lines[0].startswith("V"):
        raise ValueError("graph text must start with 'V n'")
    n = int(lines[0].split()[1])
    edges = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    return FiniteGraph(n, edges)


def automorphism_str(f: GraphAutomorphism) -> str:
    return (
        " ".join(str(v) for v in f.vertex_perm)
        + "\n"
        + " ".join(str(d) for d in f.dart_perm)
        + "\n"
    )


def parse_automorphism(graph: FiniteGraph, text: str) -> GraphAutomorphism:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if len(lines) != 2:
        raise ValueError("expected two permutation lines")
    vp = [int(x) for x in lines[0].split()]
    dp = [int(x) for x in lines[1].split()]
    return GraphAutomorphism(graph, vp, dp)
