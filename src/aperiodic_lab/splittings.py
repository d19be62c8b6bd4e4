"""Marked graphs encoding Grushko free splittings of F_N.

A marked graph is a finite graph with a spanning tree, a word of F_N for
each non-tree edge, and a (possibly trivial) free vertex group at each
vertex given by generator words (conjugating paths baked in).  The marking
words form a basis of F_N, certified once, at construction, as the
witness; graph maps are likewise tight at construction.

"Fixed by an outer automorphism" is operationalized as: some graph
self-isomorphism transports the vertex-group conjugacy classes exactly as
the automorphism does, and the two induced actions on the free-part
quotient (F_N modulo the normal closure of all vertex groups) agree up to
inner automorphisms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .aut import (
    FreeAutomorphism,
    _inner_conjugator,
    _next_power,
    compose,
    identity_automorphism,
    inverse,
)
from .graphs import (
    FiniteGraph, GraphAutomorphism, _ints, dart_letters, enumerate_automorphisms, graph_str,
    loop_image_letters, parse_graph,
)
from .homology import IntMatrix, certify_infinite_order, certify_lattice, word_exponent_vector
from .subgroups import OrbitOutcome, _CyclicCore, _first_return, _same_class, fold_core
from .words import Alphabet, Frozen, Substitution, Word, parse_word, reduce_letters, word_str


class MarkedGraph(Frozen):
    """A Grushko free splitting as marked-graph data.

    ``loop_words[e]`` marks non-tree edge e in its forward orientation;
    ``vertex_groups[v]`` lists generator words of the vertex group (empty or
    absent for trivial groups).  The constructor lays these words out once,
    vertex generators first (sorted by vertex), then loop words (sorted by
    edge), and certifies them with their inverse images ``backward`` (the
    standard basis by default) as ``witness``, which proves the rank
    bookkeeping; backward images that do not invert them raise
    ``aut.CompositeNotIdentity``.
    """

    __slots__ = (
        "alphabet",
        "graph",
        "tree_edges",
        "loop_words",
        "vertex_groups",
        "witness",
        "basis_layout",
    )

    def __init__(
        self,
        alphabet: Alphabet,
        graph: FiniteGraph,
        tree_edges: Sequence[int],
        loop_words: Dict[int, Word],
        vertex_groups: Dict[int, Sequence[Word]],
        backward: Optional[Sequence[Word]] = None,
    ):
        tree_set = frozenset(tree_edges)
        non_tree = list(graph.fundamental_loops(tree_set))  # raises unless a spanning tree
        if sorted(loop_words) != non_tree:
            raise ValueError("need exactly one marking word per non-tree edge")
        vertex_groups = {
            v: tuple(gens) for v, gens in vertex_groups.items() if gens
        }
        total_rank = len(non_tree) + sum(len(g) for g in vertex_groups.values())
        if total_rank != alphabet.rank:
            raise ValueError(
                f"rank bookkeeping failed: {len(non_tree)} loops + "
                f"{total_rank - len(non_tree)} vertex generators != {alphabet.rank}"
            )
        for v in range(graph.n_vertices):
            if graph.valence(v) == 1 and v not in vertex_groups:
                raise ValueError(f"valence-1 vertex {v} with trivial group")
        layout: List[Tuple[str, int, int]] = []
        forward: List[Word] = []
        for v in sorted(vertex_groups):
            for j, gen in enumerate(vertex_groups[v]):
                layout.append(("vertex", v, j))
                forward.append(gen)
        for e in non_tree:
            layout.append(("loop", e, 0))
            forward.append(loop_words[e])
        witness = FreeAutomorphism(alphabet, forward, backward or identity_automorphism(alphabet).forward)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "tree_edges", tree_set)
        object.__setattr__(self, "loop_words", dict(loop_words))
        object.__setattr__(self, "vertex_groups", vertex_groups)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "basis_layout", tuple(layout))

    def non_tree_edges(self) -> List[int]:
        return [e for e in range(self.graph.n_edges) if e not in self.tree_edges]

    def fundamental_loops(self) -> Dict[int, List[int]]:
        """``FiniteGraph.fundamental_loops`` of this marking's tree."""
        return self.graph.fundamental_loops(self.tree_edges)

    def vertex_rank(self, v: int) -> int:
        return len(self.vertex_groups.get(v, ()))

    def free_rank(self) -> int:
        return len(self.non_tree_edges())

    def __repr__(self):
        loops = ", ".join(
            f"{e}: {word_str(w)}" for e, w in sorted(self.loop_words.items())
        )
        groups = ", ".join(
            "%d: <%s>" % (v, ", ".join(word_str(g) for g in gens))
            for v, gens in sorted(self.vertex_groups.items())
        )
        return (
            f"MarkedGraph(N={self.alphabet.rank}, {self.graph!r}, "
            f"loops={{{loops}}}, groups={{{groups}}})"
        )


# ---------------------------------------------------------------------------
# convenience builders


def rose_marked(
    alphabet: Alphabet, words: Optional[Sequence[Word]] = None, backward: Optional[Sequence[Word]] = None
) -> MarkedGraph:
    """Rose with one petal per basis letter, petal e marked ``words[e]``
    (the standard basis by default) with inverse images ``backward``."""
    if words is None:
        words = identity_automorphism(alphabet).forward
    graph = FiniteGraph(1, [(0, 0)] * alphabet.rank)
    return MarkedGraph(alphabet, graph, [], dict(enumerate(words)), {}, backward)


def edge_of_groups(
    alphabet: Alphabet,
    left_gens: Sequence[Word],
    right_gens: Sequence[Word],
    backward: Optional[Sequence[Word]] = None,
) -> MarkedGraph:
    """Two vertices joined by an edge, with vertex groups generated by the
    given words: an A * B style splitting, with inverse images
    ``backward``."""
    graph = FiniteGraph(2, [(0, 1)])
    return MarkedGraph(alphabet, graph, [0], {}, {0: left_gens, 1: right_gens}, backward)


def theta_marked(alphabet: Alphabet) -> MarkedGraph:
    """Theta graph (two vertices, three parallel edges) marked for F_2:
    tree edge 0; edges 1 and 2 marked a and b."""
    if alphabet.rank != 2:
        raise ValueError("theta marking is for rank 2")
    graph = FiniteGraph(2, [(0, 1), (0, 1), (0, 1)])
    a, b = parse_word(alphabet, "a"), parse_word(alphabet, "b")
    return MarkedGraph(alphabet, graph, [0], {1: a, 2: b}, {})


# ---------------------------------------------------------------------------
# the free-part quotient


def _vertex_letters(marked: MarkedGraph) -> Dict[int, List[int]]:
    """Basis letters of each nontrivial vertex group in marking coordinates,
    read off ``basis_layout``."""
    letters: Dict[int, List[int]] = {}
    for idx, (kind, v, _) in enumerate(marked.basis_layout):
        if kind == "vertex":
            letters.setdefault(v, []).append(idx + 1)
    return letters


def _project_free_part(
    word: Word, loop_index: Dict[int, int], free_alphabet: Alphabet
) -> Word:
    """Quotient by the normal closure of all vertex generators: delete
    vertex-generator letters, renumber loop letters by ``loop_index``,
    reduce."""
    letters = []
    for letter in word.letters:
        j = loop_index.get(abs(letter))
        if j is not None:
            letters.append(j if letter > 0 else -j)
    # loop_index maps onto 1..rank of free_alphabet, so every letter is in
    # range and only the reduction is left to do
    return Word._trusted(free_alphabet, reduce_letters(letters))


def _coordinates(marked: MarkedGraph, phi: FreeAutomorphism) -> FreeAutomorphism:
    """Conjugate phi into splitting coordinates via the marking witness."""
    mu = marked.witness
    return compose(inverse(mu), compose(phi, mu))


def invariance_test(
    marked: MarkedGraph, phi: FreeAutomorphism
) -> Optional[GraphAutomorphism]:
    """A graph self-isomorphism realizing phi on the marking, or None.

    None means the splitting is not phi-invariant.  Write psi = mu^-1 phi mu
    for phi in marking coordinates, G_v for the vertex group at v, and rho
    for the action of psi on the free part, F_N modulo the normal closure of
    the vertex groups, which is free on the loop letters.  A witness h sends
    each group vertex v to a vertex w with psi(G_v) conjugate to G_w, and
    its action h* on the free part equals rho up to an inner automorphism.

    - h* collapses the spanning tree after h, reading the non-tree letters
      of each image loop (``graphs.loop_image_letters``, through one
      ``graphs.dart_letters`` table per marking).  This is an
      automorphism even when h moves vertex 0: h is a homeomorphism from
      the graph based at 0 to the graph based at h(0), and collapsing the
      tree is a homotopy equivalence onto a rose whatever the basepoint.
      Reading h^-1 the same way does not give its inverse: h* (h^-1)* is
      conjugation by the read of h applied to the tree path from 0 to
      h^-1(0), which need not stay in the tree.  So no inverse of h* is
      built.
    - Conjugate subgroups have equal rank, so matching classes checks
      ranks.  A bijection that maps the group vertices into the group
      vertices maps them onto themselves, so trivial vertices land on
      trivial vertices.
    - Once h matches the classes, psi permutes them, so it maps the normal
      closure N of the vertex groups onto itself, and so does psi^-1.  So
      psi^-1 descends to the quotient, and projecting psi's backward images
      gives exactly rho^-1.  Then rho^-1 h* is inner iff rho and h* agree
      in Out, which one ``is_inner`` on forward images decides.
    """
    return _realizing_symmetry(marked, _coordinates(marked, phi))


def _realizing_symmetry(
    marked: MarkedGraph, psi: FreeAutomorphism
) -> Optional[GraphAutomorphism]:
    """``invariance_test`` for psi already in marking coordinates."""
    alphabet = marked.alphabet
    groups = _vertex_letters(marked)
    # one cyclic core per base group and per image, each trimmed once
    base_cores = {
        w: _CyclicCore(fold_core(alphabet, [Word(alphabet, (l,)) for l in letters]))
        for w, letters in groups.items()
    }
    matches = {}
    for v, letters in groups.items():
        image = _CyclicCore(fold_core(alphabet, [psi.forward[l - 1] for l in letters]))
        matches[v] = {w for w, core in base_cores.items() if _same_class(image, core)}
        if not matches[v]:
            return None

    loop_letters = [
        idx + 1 for idx, (kind, _, _) in enumerate(marked.basis_layout) if kind == "loop"
    ]
    if loop_letters:
        free_alphabet = Alphabet(len(loop_letters))
        loop_index = {l: j for j, l in enumerate(loop_letters, 1)}
        rho_inverse = Substitution(
            free_alphabet,
            [_project_free_part(psi.backward[l - 1], loop_index, free_alphabet) for l in loop_letters],
        )
        loops = marked.fundamental_loops()
        letters = dart_letters(marked.graph, loops)
    for h in enumerate_automorphisms(marked.graph):
        if any(h.vertex_perm[v] not in matches[v] for v in matches):
            continue
        if loop_letters:
            images = [
                rho_inverse(Word(free_alphabet, image))
                for image in loop_image_letters(loops, letters, h)
            ]
            if _inner_conjugator(free_alphabet, images) is None:
                continue
        return h
    return None


class GraphMapRep(Frozen):
    """A self-map of a marked graph: vertex images plus one dart path per
    edge (the image of the reversed edge is the reversed path).

    Continuity and tightness are checked: each image path runs between the
    images of the edge's endpoints and never follows a dart by its reverse.
    ``_dart_images`` is the dart-image table, built once with the map:
    entry 2e is the image of edge e and entry 2e + 1 the reversed path,
    which ``dart_image`` reads.
    """

    __slots__ = ("domain", "vertex_images", "edge_images", "_dart_images")

    def __init__(
        self,
        domain: MarkedGraph,
        vertex_images: Sequence[int],
        edge_images: Sequence[Sequence[int]],
    ):
        graph = domain.graph
        vertex_images = tuple(vertex_images)
        edge_images = tuple(tuple(path) for path in edge_images)
        if len(vertex_images) != graph.n_vertices:
            raise ValueError("need one image per vertex")
        if len(edge_images) != graph.n_edges:
            raise ValueError("need one image path per edge")
        for e, path in enumerate(edge_images):
            if not path:
                raise ValueError(f"edge {e} must map to a nontrivial edge path")
            u, v = graph.edges[e]
            if graph.dart_origin(path[0]) != vertex_images[u]:
                raise ValueError(f"image of edge {e} starts at the wrong vertex")
            if graph.dart_head(path[-1]) != vertex_images[v]:
                raise ValueError(f"image of edge {e} ends at the wrong vertex")
            for d1, d2 in zip(path, path[1:]):
                if graph.dart_head(d1) != graph.dart_origin(d2):
                    raise ValueError(f"image of edge {e} is not an edge path")
                if d2 == d1 ^ 1:
                    raise ValueError(f"image of edge {e} has backtracking")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "vertex_images", vertex_images)
        object.__setattr__(self, "edge_images", edge_images)
        dart_images = []
        for path in edge_images:
            dart_images += (path, tuple(d ^ 1 for d in reversed(path)))
        object.__setattr__(self, "_dart_images", tuple(dart_images))

    def dart_image(self, dart: int) -> Tuple[int, ...]:
        return self._dart_images[dart]

    def __repr__(self):
        return (
            f"GraphMapRep(v={self.vertex_images}, "
            f"e={[list(p) for p in self.edge_images]})"
        )


def graph_map_from_words(marked: MarkedGraph, images: Sequence[Word]) -> GraphMapRep:
    """For a rose with identity-like marking: edge i maps to the dart path
    spelling the image word of basis letter i+1."""
    graph = marked.graph
    if graph.n_vertices != 1:
        raise ValueError("word-defined maps live on roses")
    paths = []
    for image in images:
        path = []
        for letter in image.letters:
            e = abs(letter) - 1
            path.append(2 * e if letter > 0 else 2 * e + 1)
        paths.append(path)
    return GraphMapRep(marked, (0,), paths)


def splitting_orbit_period(
    marked: MarkedGraph,
    phi: FreeAutomorphism,
    max_iter: int = 12,
    length_cap: int = 10_000,
) -> OrbitOutcome:
    """Least p with the splitting phi^p-invariant, else NoPeriodWithin.

    The orbit runs in marking coordinates: psi = mu^-1 phi mu is built once
    and psi^p = mu^-1 phi^p mu is one ``_next_power`` per step, which
    applies only psi's maps.  Blowup when the
    basis images of psi^p outgrow the length cap; for a marking whose
    witness is the identity, psi^p is phi^p.
    """
    psi = _coordinates(marked, phi)
    return _first_return(
        lambda power: _next_power(psi, power),
        identity_automorphism(marked.alphabet),
        FreeAutomorphism.max_image_length,
        lambda power: _realizing_symmetry(marked, power) is not None,
        max_iter,
        length_cap,
    )[0]


def certify_splitting(m: IntMatrix, marked: MarkedGraph) -> bool:
    """True proves that the splitting has no period under any phi whose
    abelianization is m.

    - Trivial vertex groups: ``certify_infinite_order(m)``, whose docstring
      has the proof.
    - Vertex groups: ``certify_lattice(m, L_v)`` for some group vertex v,
      where L_v is the span of the exponent vectors of G_v.  Suppose
      phi^p fixes the splitting.  The realizing graph automorphism sends
      v to a group vertex w with phi^p(G_v) conjugate to G_w, so
      M^p L_v = L_w.  The vertex generators are disjoint parts of a basis
      of F_N, so the L_v are spans of disjoint parts of a basis of Z^N:
      saturated, and with distinct images in (Z/3)^N.  ``certify_lattice``
      is True only for M = I mod 3, and then M^p L_v has the image of L_v,
      so w = v.  So M^p fixes L_v, which ``certify_lattice`` rules out.
    """
    if not marked.vertex_groups:
        return certify_infinite_order(m)
    return any(
        certify_lattice(m, [word_exponent_vector(g) for g in gens])
        for gens in marked.vertex_groups.values()
    )


# ---------------------------------------------------------------------------
# marked-graph file format: graph section, tree edges, loop markings,
# vertex groups


def marked_graph_str(marked: MarkedGraph) -> str:
    lines = [graph_str(marked.graph).rstrip("\n")]
    lines.append("tree " + " ".join(str(e) for e in sorted(marked.tree_edges)))
    for e in marked.non_tree_edges():
        lines.append(f"loop {e} {word_str(marked.loop_words[e])}")
    for v in sorted(marked.vertex_groups):
        gens = " ".join(word_str(g) for g in marked.vertex_groups[v])
        lines.append(f"group {v} {gens}")
    return "\n".join(lines) + "\n"


def parse_marked_graph(
    alphabet: Alphabet, text: str, backward: Optional[Sequence[Word]] = None
) -> MarkedGraph:
    """Parse the marked-graph format; ``backward`` are the inverse images
    of the marking, as ``MarkedGraph`` takes them."""
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    graph_lines = []
    tree: List[int] = []
    loops: Dict[int, Word] = {}
    loop_lines: Dict[int, str] = {}
    groups: Dict[int, List[Word]] = {}
    for line in lines:
        keyword, *rest = line.split()
        if keyword == "tree":
            tree = _ints(line, rest, len(rest))
        elif keyword == "loop":
            if len(rest) != 2:
                raise ValueError(f"bad line {line!r}: expected 'loop e word'")
            (e,) = _ints(line, rest[:1], 1)
            if e in loops:
                raise ValueError(f"bad line {line!r}: edge {e} marked twice")
            loops[e], loop_lines[e] = parse_word(alphabet, rest[1]), line
        elif keyword == "group":
            if len(rest) < 2:
                raise ValueError(f"bad line {line!r}: expected 'group v words...'")
            (v,) = _ints(line, rest[:1], 1)
            if v in groups:
                raise ValueError(f"bad line {line!r}: vertex {v} given twice")
            groups[v] = [parse_word(alphabet, w) for w in rest[1:]]
        else:
            graph_lines.append(line)
    graph = parse_graph("\n".join(graph_lines))
    tree_set = set(tree)
    for e, line in loop_lines.items():
        if e in tree_set or e >= graph.n_edges:
            raise ValueError(f"bad line {line!r}: edge {e} is a tree edge or not in the graph")
    for e in range(graph.n_edges):
        if e not in tree_set and e not in loops:
            raise ValueError(f"missing line 'loop {e} word' for non-tree edge {e}")
    return MarkedGraph(alphabet, graph, tree, loops, groups, backward)
