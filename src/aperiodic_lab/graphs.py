"""Finite multigraphs, their automorphisms, and the H_1 mod 3 action.

A graph automorphism that fixes every leaf and acts trivially on homology
mod 3 is either the identity or a rotation of a circle; ``ivanov_check``
classifies a given automorphism accordingly and raises if neither case
applies.

Oriented edges are darts: edge e gives darts 2e (forward) and 2e+1
(backward); reversal toggles the low bit.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .homology import IntMatrix
from .words import Frozen


class FiniteGraph(Frozen):
    """Vertices 0..n-1 and an edge list; loops and parallel edges allowed.

    The darts at each vertex are listed once, in ascending order, when the
    graph is built.  Two tables are filled on first use and kept on the
    graph, so that the many graphs ``connected_multigraphs`` builds pay for
    neither: ``_lemma`` holds the leaves, the H_1 basis and its dart-letter
    table that ``ivanov_check`` needs (``_lemma_data``), and ``_turns`` the
    turn table of ``turn_table``.
    """

    __slots__ = ("n_vertices", "edges", "_incidence", "_lemma", "_turns")

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
        object.__setattr__(self, "_turns", None)

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

    def turn_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Entry d lists the darts that can follow dart d in a tight path:
        the darts at the head of d other than its reverse, in ascending
        order.  Built on the first call and kept on the graph.

        >>> FiniteGraph(2, [(0, 1), (1, 1)]).turn_table()
        ((2, 3), (), (1, 2), (1, 3))
        """
        if self._turns is None:
            incidence = self._incidence
            table = tuple(
                tuple(x for x in incidence[self.dart_head(d)] if x != d ^ 1)
                for d in range(self.n_darts())
            )
            object.__setattr__(self, "_turns", table)
        return self._turns

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


# the search raises ValueError rather than list more rows than this: k loops
# at a vertex give 2^k k! automorphisms, 46 080 at k = 6 and 645 120 at k = 7
MAX_AUTOMORPHISMS = 10**5
# enumeration refuses more edges before it searches, as a branch that fails
# at its last edge lists no row and so escapes the row cap
MAX_AUTOMORPHISM_EDGES = 10


def _profiles(graph: FiniteGraph) -> List[Tuple[int, int]]:
    """(valence, loop count) of each vertex; isomorphisms preserve it."""
    return [
        (len(ds), sum(1 for d in ds if d & 1 == 0 and graph.dart_head(d) == v))
        for v, ds in enumerate(graph._incidence)
    ]


# the byte of an unbound vertex image in the search rows; the rows hold
# vertex and dart numbers below it
_UNSET = 255


def _isomorphisms(source: FiniteGraph, target: FiniteGraph, first: bool) -> bytearray:
    """The isomorphisms from source to target, one row each in search
    order: the vertex images and then the dart images, a byte per image.
    With ``first`` the search stops at the first row, so for graphs with a
    vertex the rows are empty iff there is no isomorphism; the empty
    graph's one isomorphism is the empty row.

    Edge by edge: the forward dart of each source edge maps to an unused
    dart of target whose ends agree with the vertex images chosen so far,
    and a vertex maps only to an unused vertex of the same profile.  After
    the last edge, the vertices on no edge are permuted among themselves.
    One recursive search writes every row in place, and returns True to
    end itself early.
    """
    n, n_darts = source.n_vertices, source.n_darts()
    rows = bytearray()
    if (n, n_darts) != (target.n_vertices, target.n_darts()):
        return rows
    if max(n, n_darts) > _UNSET:
        raise ValueError(f"the isomorphism search takes at most {_UNSET} vertices and darts")
    edges, n_edges = source.edges, source.n_edges
    source_profile, target_profile = _profiles(source), _profiles(target)
    ends = [(target.dart_origin(d), target.dart_head(d)) for d in range(n_darts)]
    vertex_image = bytearray([_UNSET] * n)
    vertex_used = [False] * n
    dart_image = bytearray(n_darts)
    dart_used = [False] * n_darts

    def bind(v: int, w: int) -> bool:
        if vertex_used[w] or source_profile[v] != target_profile[w]:
            return False
        vertex_image[v], vertex_used[w] = w, True
        return True

    def unbind(v: int) -> None:
        vertex_used[vertex_image[v]], vertex_image[v] = False, _UNSET

    def search(e: int) -> bool:
        if e == n_edges:
            v = vertex_image.find(_UNSET)
            if v < 0:
                if rows and len(rows) == MAX_AUTOMORPHISMS * (n + n_darts):
                    raise ValueError(f"more than {MAX_AUTOMORPHISMS} isomorphisms to list")
                rows.extend(vertex_image)
                rows.extend(dart_image)
                return first
            # v lies on no edge, and so do the unused target vertices
            for w in range(n):
                if bind(v, w):
                    stop = search(e)
                    unbind(v)
                    if stop:
                        return True
            return False
        u, v = edges[e]
        at = vertex_image[u]
        for d in target.darts_at(at) if at != _UNSET else range(n_darts):
            if dart_used[d]:
                continue
            # a loop sent to a non-loop, or the reverse, breaks here: its
            # second end finds its vertex bound elsewhere or its image used
            bound = []
            stop = False
            for x, y in zip((u, v), ends[d]):
                if vertex_image[x] == y:
                    continue
                if vertex_image[x] != _UNSET or not bind(x, y):
                    break
                bound.append(x)
            else:
                dart_image[2 * e], dart_image[2 * e + 1] = d, d ^ 1
                dart_used[d] = dart_used[d ^ 1] = True
                stop = search(e + 1)
                dart_used[d] = dart_used[d ^ 1] = False
            for x in bound:
                unbind(x)
            if stop:
                return True
        return False

    search(0)
    # search refers to itself through its cell; emptying the cell frees the
    # search state now rather than at the next cyclic collection
    del search
    return rows


class PackedAutomorphisms(Frozen):
    """The automorphisms of ``graph``, as ``enumerate_automorphisms`` finds
    them, in a read-only sequence: ``rows`` holds one row per automorphism,
    the vertex images and then the dart images, a byte each, and indexing
    or iterating builds each ``GraphAutomorphism`` only when it is read."""

    __slots__ = ("graph", "rows", "_count")

    def __len__(self):
        return self._count

    def __getitem__(self, index: int) -> GraphAutomorphism:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("automorphism index out of range")
        return next(self._build(index, index + 1))

    def __iter__(self) -> Iterator[GraphAutomorphism]:
        return self._build(0, self._count)

    def __repr__(self):
        return f"PackedAutomorphisms({self._count} of {self.graph!r})"

    def _build(self, begin: int, end: int) -> Iterator[GraphAutomorphism]:
        """The automorphisms of rows begin to end - 1."""
        graph, rows = self.graph, self.rows
        n = graph.n_vertices
        width = n + graph.n_darts()
        trusted = GraphAutomorphism._trusted
        for index in range(begin, end):
            start = index * width
            # each dart image is built from the vertex images, so the
            # per-dart checks of the constructor can never fail here
            vertex_perm = tuple(rows[start : start + n])
            yield trusted(graph, vertex_perm, tuple(rows[start + n : start + width]))


def enumerate_automorphisms(graph: FiniteGraph) -> PackedAutomorphisms:
    """All automorphisms, from the isomorphism search of the graph onto
    itself, packed as its rows; ``ValueError`` for a graph with more than
    ``MAX_AUTOMORPHISM_EDGES`` edges or ``MAX_AUTOMORPHISMS`` automorphisms."""
    if graph.n_edges > MAX_AUTOMORPHISM_EDGES:
        raise ValueError(f"graph has {graph.n_edges} edges, cap is {MAX_AUTOMORPHISM_EDGES}")
    rows = _isomorphisms(graph, graph, False)
    width = graph.n_vertices + graph.n_darts()
    # the empty graph has one automorphism, with an empty row
    return PackedAutomorphisms._trusted(graph, bytes(rows), len(rows) // width if width else 1)


def dart_letters(graph: FiniteGraph, loops: Dict[int, List[int]]) -> Tuple[int, ...]:
    """The signed loop letter of each dart of ``graph``, for the non-tree
    edges of ``loops`` (as ``FiniteGraph.fundamental_loops`` gives them):
    the i-th non-tree edge reads i forward and -i backward, and a tree edge
    reads 0.

    >>> graph = FiniteGraph(2, [(0, 1), (1, 0), (0, 0)])
    >>> dart_letters(graph, h1_basis(graph))
    (0, 0, 1, -1, 2, -2)
    """
    table = [0] * graph.n_darts()
    for i, e in enumerate(loops, 1):
        table[2 * e], table[2 * e + 1] = i, -i
    return tuple(table)


def loop_image_letters(
    loops: Dict[int, List[int]], letters: Sequence[int], f: GraphAutomorphism
) -> List[List[int]]:
    """The image under f of each fundamental loop of ``loops``, read as
    signed letters through ``letters``, the ``dart_letters`` table of the
    same loops; tree edges read nothing."""
    perm = f.dart_perm
    return [[x for x in (letters[perm[d]] for d in loop) if x] for loop in loops.values()]


def h1_basis(graph: FiniteGraph) -> Dict[int, List[int]]:
    """The H_1 basis of the BFS tree: the fundamental loop of each non-tree
    edge, in increasing edge order."""
    return graph.fundamental_loops(graph.spanning_tree())


def _lemma_data(
    graph: FiniteGraph,
) -> Tuple[Tuple[int, ...], Dict[int, List[int]], Tuple[int, ...]]:
    """(leaves, ``h1_basis``, its ``dart_letters``) of a connected graph,
    computed on the first call and kept on the graph."""
    if graph._lemma is None:
        leaves = tuple(v for v in range(graph.n_vertices) if graph.valence(v) == 1)
        loops = h1_basis(graph)
        object.__setattr__(graph, "_lemma", (leaves, loops, dart_letters(graph, loops)))
    return graph._lemma


def h1_action_mod3(graph: FiniteGraph, f: GraphAutomorphism) -> IntMatrix:
    """Matrix of f_* on H_1(X, Z/3Z) in the non-tree-edge basis of a fixed
    spanning tree; column i is the image of the i-th fundamental cycle."""
    _, loops, letters = _lemma_data(graph)
    rank = len(loops)
    columns = [[0] * rank for _ in range(rank)]
    for column, image in zip(columns, loop_image_letters(loops, letters, f)):
        for letter in image:
            column[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(tuple(column[i] % 3 for column in columns) for i in range(rank))


def _acts_trivially_mod3(
    loops: Dict[int, List[int]], letters: Tuple[int, ...], f: GraphAutomorphism
) -> bool:
    """True iff ``h1_action_mod3`` of f is the identity: loop by loop, the
    image of the i-th loop counts to e_i mod 3, and the first loop that
    does not ends the test."""
    perm = f.dart_perm
    for i, loop in enumerate(loops.values(), 1):
        # slot j counts letter j; slot 0 is never touched, and e_i starts
        # subtracted so that the column passes iff every slot is 0 mod 3
        column = [0] * (len(loops) + 1)
        column[i] = -1
        for d in loop:
            x = letters[perm[d]]
            if x > 0:
                column[x] += 1
            elif x:
                column[-x] -= 1
        if any(c % 3 for c in column):
            return False
    return True


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
    candidates = graph.turn_table()[dart]
    # on a single loop nothing follows but the reversal: the loop itself
    return candidates[0] if candidates else dart


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
    leaves, loops, letters = _lemma_data(graph)  # raises if the graph is not connected
    if any(f.vertex_perm[v] != v for v in leaves):
        return IvanovOutcome.HYPOTHESIS_FAILS
    if not _acts_trivially_mod3(loops, letters, f):
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


def connected_multigraphs(max_edges: int) -> Iterator[FiniteGraph]:
    """All connected multigraphs with 1..max_edges edges, up to isomorphism.

    Grown one edge at a time: either an edge between existing vertices or a
    pendant edge to a fresh vertex.  A new graph is kept unless the
    isomorphism search maps it onto a graph already kept with the same
    sorted vertex profiles (and so the same vertex count).
    """
    level = [FiniteGraph(1, ())]
    for _ in range(max_edges):
        next_level: List[FiniteGraph] = []
        kept: Dict[Tuple[Tuple[int, int], ...], List[FiniteGraph]] = {}
        for graph in level:
            n = graph.n_vertices
            for u in range(n):
                # v == n adds a pendant edge to a fresh vertex
                for v in range(u, n + 1):
                    bigger = FiniteGraph(max(n, v + 1), graph.edges + ((u, v),))
                    bucket = kept.setdefault(tuple(sorted(_profiles(bigger))), [])
                    if not any(_isomorphisms(bigger, other, True) for other in bucket):
                        bucket.append(bigger)
                        next_level.append(bigger)
        yield from next_level
        level = next_level


# ---------------------------------------------------------------------------
# text format: "V n" then one "u v" line per edge


def graph_str(graph: FiniteGraph) -> str:
    lines = [f"V {graph.n_vertices}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def _ints(line: str, tokens: Sequence[str], count: int) -> List[int]:
    """``tokens`` of ``line`` as ``count`` non-negative integers, else a
    ``ValueError`` that names the line."""
    if len(tokens) != count or not all(t.isdecimal() for t in tokens):
        raise ValueError(f"bad line {line!r}: expected {count} non-negative integer(s)")
    return [int(t) for t in tokens]


def parse_graph(text: str) -> FiniteGraph:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if not lines or lines[0].split()[0] != "V":
        raise ValueError("graph text must start with 'V n'")
    (n,) = _ints(lines[0], lines[0].split()[1:], 1)
    edges = [_ints(line, line.split(), 2) for line in lines[1:]]
    return FiniteGraph(n, edges)

