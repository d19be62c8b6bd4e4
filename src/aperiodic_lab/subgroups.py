"""Stallings cores for finitely generated subgroups of F_N.

A core is a folded, edge-labeled, based graph; membership is path tracing,
conjugacy of subgroups is isomorphism of basepoint-free cores.
Free factor systems are produced by construction (images of basis subsets
under certified automorphisms) and carry their witness.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, TypeVar, Union

from .aut import FreeAutomorphism
from .words import Alphabet, CyclicWord, Frozen, Word, _strip_conjugation, cyclic_reduce, word_str


class StallingsCore(Frozen):
    """Folded labeled based graph; transitions[(v, letter)] = target vertex.

    Transitions come in inverse pairs: (v, l) -> w iff (w, -l) -> v.
    Every vertex except possibly the basepoint has valence >= 2.  Being a
    dict keyed on (v, letter), ``transitions`` cannot hold two edges with
    one label at one vertex, so any input is folded; the constructor checks
    only letter and vertex ranges and the pairing.
    """

    __slots__ = ("alphabet", "n_vertices", "transitions", "base")

    def __init__(
        self,
        alphabet: Alphabet,
        n_vertices: int,
        transitions: Dict[Tuple[int, int], int],
        base: int = 0,
    ):
        for (v, letter), w in transitions.items():
            alphabet.check_letter(letter)
            if not (0 <= v < n_vertices and 0 <= w < n_vertices):
                raise ValueError("transition endpoint out of range")
            if transitions.get((w, -letter)) != v:
                raise ValueError("transitions must come in inverse pairs")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "transitions", dict(transitions))
        object.__setattr__(self, "base", base)

    def n_edges(self) -> int:
        return len(self.transitions) // 2

    def rank(self) -> int:
        return self.n_edges() - self.n_vertices + 1

    def trace(self, word: Word) -> Optional[int]:
        v = self.base
        for letter in word.letters:
            nxt = self.transitions.get((v, letter))
            if nxt is None:
                return None
            v = nxt
        return v

    def generators(self) -> List[Word]:
        """A free basis of the represented subgroup, from a spanning tree."""
        out_letters: Dict[int, List[int]] = {}
        for (u, l) in self.transitions:
            out_letters.setdefault(u, []).append(l)
        for letters in out_letters.values():
            letters.sort(key=lambda l: (abs(l), l < 0))

        parent: Dict[int, Tuple[int, int]] = {}  # vertex -> (prev vertex, letter)
        order = [self.base]
        seen = {self.base}
        tree_pairs = set()
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for letter in out_letters.get(v, ()):
                w = self.transitions[(v, letter)]
                if w not in seen:
                    seen.add(w)
                    parent[w] = (v, letter)
                    tree_pairs.add((v, letter))
                    tree_pairs.add((w, -letter))
                    order.append(w)

        def path_to(v: int) -> Tuple[int, ...]:
            letters = []
            while v != self.base:
                u, letter = parent[v]
                letters.append(letter)
                v = u
            return tuple(reversed(letters))

        gens = []
        done = set()
        for (v, letter), w in sorted(
            self.transitions.items(), key=lambda kv: (kv[0][0], abs(kv[0][1]), kv[0][1] < 0)
        ):
            if (v, letter) in tree_pairs or (v, letter) in done:
                continue
            done.add((w, -letter))
            # reduced as it stands: tree paths are reduced, and neither
            # (v, letter) nor (w, -letter) is the tree edge leading from its
            # start towards the base, so at each junction the non-tree letter
            # differs from the inverse of the tree letter
            word = Word._trusted(
                self.alphabet,
                path_to(v) + (letter,) + tuple(-l for l in reversed(path_to(w))),
            )
            gens.append(word)
        return gens


def _trim(
    n: int, transitions: Dict[Tuple[int, int], int], base: Optional[int]
) -> Tuple[int, Dict[Tuple[int, int], int], Optional[int]]:
    """Iteratively remove valence-1 vertices (except the basepoint); queue
    based, linear in the graph size."""
    transitions = dict(transitions)
    out: Dict[int, set] = {v: set() for v in range(n)}
    for (v, letter) in transitions:
        out[v].add(letter)
    alive = set(range(n))
    queue = [v for v in alive if v != base and len(out[v]) == 1]
    while queue:
        v = queue.pop()
        if v not in alive or v == base or len(out[v]) != 1:
            continue
        letter = next(iter(out[v]))
        w = transitions.pop((v, letter))
        transitions.pop((w, -letter), None)
        out[v].discard(letter)
        out[w].discard(-letter)
        alive.discard(v)
        if w in alive and w != base and len(out[w]) == 1:
            queue.append(w)
    relabel = {v: i for i, v in enumerate(sorted(alive))}
    new_transitions = {
        (relabel[v], letter): relabel[w] for (v, letter), w in transitions.items()
    }
    return len(alive), new_transitions, (relabel[base] if base is not None else None)


def _letter_order(alphabet: Alphabet) -> List[int]:
    """x1 < X1 < x2 < X2 < ...: the order in which BFS numberings visit
    the edges at a vertex."""
    return sorted(alphabet.signed_letters(), key=lambda l: (abs(l), l < 0))


def _find(parent: List[int], x: int) -> int:
    """Root of ``x`` in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _identify(out: List[Dict[int, int]], parent: List[int], a: int, b: int) -> None:
    """Identify vertices ``a`` and ``b`` of a folded graph and fold what the
    identification makes clash.

    ``out[v]`` maps each label at a live vertex v to a target, which is
    resolved through ``parent`` when read.  The vertex of smaller out-degree
    moves its edges into the other's dict, and each clash (existing target,
    moved target) is pushed onto a stack to be identified in turn; the
    moved edge of a clash is dropped, since it is the kept one folded.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        a, b = _find(parent, a), _find(parent, b)
        if a == b:
            continue
        if len(out[a]) < len(out[b]):
            a, b = b, a
        parent[b] = a
        edges = out[a]
        for label, moved in out[b].items():
            kept = edges.setdefault(label, moved)
            if kept != moved:
                stack.append((kept, moved))
        out[b] = {}


def fold_core(alphabet: Alphabet, generators: Sequence[Word]) -> StallingsCore:
    """The based Stallings core of the subgroup generated by ``generators``,
    numbered by breadth-first search from the basepoint in the letter order
    of ``_letter_order``.

    The graph is kept folded while it grows: each vertex has one dict from
    letter to target, and ``parent`` is a union-find forest (path halving)
    whose roots are the live vertices; targets are resolved through it when
    read.  A generator is read in by following its prefix forward and its
    suffix backward (by inverse letters) from the basepoint while edges
    exist; fresh vertices are made only for the unmatched middle.  If
    nothing is left in the middle, the two traces meet and their ends are
    identified, and if the edge that closes the middle collides with one
    already there, their other ends are, by ``_identify``.  This is
    near-linear in the total generator length.

    No trimming is needed.  Each vertex made for the middle of a reduced
    word has two distinct outgoing letters, since the word does not
    backtrack there, and identifying two vertices gives the union of their
    letter sets, so no vertex other than the basepoint ever has valence 1.
    The result is therefore the based core, which is unique for the
    subgroup, and its BFS numbering makes ``transitions`` equal for every
    generating set of the same subgroup.
    """
    out: List[Dict[int, int]] = [{}]
    parent = [0]
    for gen in generators:
        letters = gen.letters
        i, u = 0, _find(parent, 0)
        while i < len(letters):
            nxt = out[u].get(letters[i])
            if nxt is None:
                break
            u = _find(parent, nxt)
            i += 1
        j, v = len(letters), _find(parent, 0)
        while j > i:
            nxt = out[v].get(-letters[j - 1])
            if nxt is None:
                break
            v = _find(parent, nxt)
            j -= 1
        if i == j:
            _identify(out, parent, u, v)
            continue
        # u has no edge for the middle's first letter and v none for the
        # inverse of its last, so only the closing edge can collide: when
        # u == v and the middle is not cyclically reduced
        for letter in letters[i : j - 1]:
            x = len(out)
            out.append({-letter: u})
            parent.append(x)
            out[u][letter] = x
            u = x
        out[u][letters[j - 1]] = v
        kept = out[v].setdefault(-letters[j - 1], u)
        if kept != u:
            _identify(out, parent, kept, u)

    letter_order = _letter_order(alphabet)
    base = _find(parent, 0)
    number = {base: 0}
    order = [base]
    transitions: Dict[Tuple[int, int], int] = {}
    i = 0
    while i < len(order):
        edges = out[order[i]]
        for letter in letter_order:
            w = edges.get(letter)
            if w is None:
                continue
            w = _find(parent, w)
            if w not in number:
                number[w] = len(order)
                order.append(w)
            transitions[(i, letter)] = number[w]
        i += 1
    # the transitions are paired, folded and on letters taken from reduced
    # words, so the constructor's checks would find nothing
    return StallingsCore._trusted(alphabet, len(order), transitions, 0)


def membership(word: Word, core: StallingsCore) -> bool:
    """True iff the word traces a closed loop at the basepoint."""
    return core.trace(word) == core.base


class _CyclicCore(Frozen):
    """A core trimmed of every hanging tree, the basepoint's too: the cyclic
    core of the subgroup's conjugacy class, numbered from 0.

    Its signatures, built on first use, are the sorted letters at each
    vertex, and those sorted in turn; the sorted ones, with the vertex and
    edge counts, are isomorphism invariants (``_same_class``).
    """

    __slots__ = ("n_vertices", "transitions", "_signatures")

    def __init__(self, core: StallingsCore):
        n, transitions, _ = _trim(core.n_vertices, core.transitions, None)
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "_signatures", None)

    def signatures(self) -> Tuple[List[tuple], Tuple[tuple, ...]]:
        """(the signature of each vertex, all of them sorted)."""
        if self._signatures is None:
            letters: List[List[int]] = [[] for _ in range(self.n_vertices)]
            for (v, letter) in self.transitions:
                letters[v].append(letter)
            per_vertex = [tuple(sorted(ls)) for ls in letters]
            object.__setattr__(self, "_signatures", (per_vertex, tuple(sorted(per_vertex))))
        return self._signatures


def _same_class(a: _CyclicCore, b: _CyclicCore) -> bool:
    """Whether two cyclic cores are isomorphic as labelled graphs, that is,
    whether their subgroups are conjugate: vertex and edge counts first,
    then sorted signatures, then pointed propagation from vertex 0 of
    ``a`` to each vertex of ``b`` with its signature (``_pointed_iso``)."""
    if (a.n_vertices, len(a.transitions)) != (b.n_vertices, len(b.transitions)):
        return False
    sig_a, sorted_a = a.signatures()
    sig_b, sorted_b = b.signatures()
    return sorted_a == sorted_b and any(
        sig_b[v] == sig_a[0] and _pointed_iso(a, b, v) for v in range(b.n_vertices)
    )


class SubgroupConjClass(Frozen):
    """Conjugacy class of a finitely generated subgroup: a representative
    core and its cyclic core.

    Two subgroups are conjugate iff their cyclic cores are isomorphic as
    labelled graphs, so ``==`` is ``_same_class`` and the hash reads its
    invariants: the vertex and edge counts and the sorted signatures.
    """

    __slots__ = ("alphabet", "representative", "_cyclic_core")

    def __init__(self, representative: StallingsCore):
        object.__setattr__(self, "alphabet", representative.alphabet)
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "_cyclic_core", _CyclicCore(representative))

    def __eq__(self, other):
        return (
            isinstance(other, SubgroupConjClass)
            and self.alphabet == other.alphabet
            and _same_class(self._cyclic_core, other._cyclic_core)
        )

    def __hash__(self):
        core = self._cyclic_core
        return hash((self.alphabet, core.n_vertices, len(core.transitions), core.signatures()[1]))

    def __repr__(self):
        gens = ", ".join(word_str(g) for g in self.representative.generators())
        return f"[<{gens}>]"

    def rank(self) -> int:
        return self.representative.rank()


def subgroup_class(alphabet: Alphabet, generators: Sequence[Word]) -> SubgroupConjClass:
    return SubgroupConjClass(fold_core(alphabet, generators))


def _pointed_iso(a: _CyclicCore, b: _CyclicCore, start: int) -> bool:
    """Whether ``a`` maps onto ``b``, of the same size, with vertex 0 to
    ``start``: deterministic propagation along the letters at each vertex,
    as folded labelled graphs are rigid once one vertex's image is chosen."""
    ta, tb = a.transitions, b.transitions
    letters = a.signatures()[0]
    mapping = {0: start}
    queue = [0]
    while queue:
        v = queue.pop()
        image = mapping[v]
        for letter in letters[v]:
            w_b = tb.get((image, letter))
            if w_b is None:
                return False
            w = ta[(v, letter)]
            if w not in mapping:
                mapping[w] = w_b
                queue.append(w)
            elif mapping[w] != w_b:
                return False
    return len(mapping) == a.n_vertices and len(set(mapping.values())) == b.n_vertices


def cores_conjugate(a: StallingsCore, b: StallingsCore) -> bool:
    """Conjugacy of the represented subgroups without canonicalizing: the
    cyclic cores compared by ``_same_class``."""
    return a.alphabet == b.alphabet and _same_class(_CyclicCore(a), _CyclicCore(b))


class FreeFactorSystem(Frozen):
    """A finite set of conjugacy classes of free factors, with a witness.

    The witness is a certified automorphism plus a partition of basis
    indices: class i is the image of the free factor generated by the
    corresponding basis subset, so the decomposition into these factors and
    the image of the remaining letters is a free product by construction.
    """

    __slots__ = ("alphabet", "classes", "witness")

    def __init__(
        self,
        witness: FreeAutomorphism,
        subsets: Sequence[FrozenSet[int]],
    ):
        alphabet = witness.alphabet
        subsets = tuple(frozenset(s) for s in subsets)
        all_indices = [i for s in subsets for i in s]
        if len(all_indices) != len(set(all_indices)):
            raise ValueError("basis subsets must be disjoint")
        for i in all_indices:
            alphabet.check_letter(i)
        if any(not s for s in subsets):
            raise ValueError("basis subsets must be nonempty")
        classes = []
        for s in subsets:
            gens = [witness.forward[i - 1] for i in sorted(s)]
            cls = subgroup_class(alphabet, gens)
            if cls.rank() != len(s):
                raise ValueError("witness image does not have the expected rank")
            classes.append(cls)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "classes", tuple(classes))
        object.__setattr__(self, "witness", witness)

    def __repr__(self):
        return f"FreeFactorSystem({list(self.classes)!r})"

    def __eq__(self, other):
        return (
            isinstance(other, FreeFactorSystem)
            and self.alphabet == other.alphabet
            and Counter(self.classes) == Counter(other.classes)
        )

    def __hash__(self):
        return hash((self.alphabet, tuple(sorted(map(hash, self.classes)))))


# ---------------------------------------------------------------------------
# orbits under iteration


class OrbitOutcome(Frozen):
    """Outcome of a periodicity probe: Period(p), NoPeriodWithin, or Blowup."""

    __slots__ = ("kind", "period", "iterations")

    def __init__(self, kind: str, period: Optional[int] = None, iterations: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "iterations", iterations)

    def __eq__(self, other):
        return (
            isinstance(other, OrbitOutcome)
            and (self.kind, self.period) == (other.kind, other.period)
        )

    def __hash__(self):
        return hash((self.kind, self.period))

    def __repr__(self):
        if self.kind == "Period":
            return f"Period({self.period})"
        return self.kind


NO_PERIOD = "NoPeriodWithin"
BLOWUP = "Blowup"

_State = TypeVar("_State")


def _first_return(
    step: Callable[[_State], Optional[_State]],
    state: _State,
    size: Callable[[_State], int],
    returned: Callable[[_State], bool],
    max_iter: int,
    length_cap: int,
) -> Tuple[OrbitOutcome, List[int]]:
    """The one first-return loop behind every orbit probe and torsion power
    loop, with the size of every iterate it computed.

    Iterate k is ``step`` applied k times to ``state``.  Each iterate is
    measured and checked against ``length_cap`` before ``returned`` tests
    it, so an iterate over the cap reports Blowup at its step even if it
    has returned.  A step may instead return None, meaning that it proved
    its iterate over the cap without building it (``Substitution.capped``):
    that too reports Blowup at its step, and lists no size for it.  The
    outcome is Period(k) at the first k <= ``max_iter`` whose iterate has
    returned, else NoPeriodWithin; ``iterations`` counts the steps taken.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    sizes: List[int] = []
    for k in range(1, max_iter + 1):
        state = step(state)
        if state is None:
            return OrbitOutcome(BLOWUP, None, k), sizes
        sizes.append(size(state))
        if sizes[-1] > length_cap:
            return OrbitOutcome(BLOWUP, None, k), sizes
        if returned(state):
            return OrbitOutcome("Period", k, k), sizes
    return OrbitOutcome(NO_PERIOD, None, max_iter), sizes


def orbit_period(
    phi: FreeAutomorphism,
    start: Union[SubgroupConjClass, CyclicWord],
    max_iter: int = 12,
    length_cap: int = 10_000,
) -> OrbitOutcome:
    """First return of the conjugacy class of ``start`` under iteration.

    Compares each iterate against the starting class only; growth beyond
    ``length_cap`` (word length or total core edges) reports Blowup.
    """
    return _orbit(phi, start, max_iter, length_cap)[0]


def _orbit(
    phi: FreeAutomorphism,
    start: Union[SubgroupConjClass, CyclicWord],
    max_iter: int,
    length_cap: int,
) -> Tuple[OrbitOutcome, List[int]]:
    """``orbit_period`` with the size of every iterate it computed: the
    cyclic word length or the core's edge count."""
    if isinstance(start, CyclicWord):
        # iterate on cyclically reduced words; the least rotation is taken
        # only for an iterate as long as the start
        return _first_return(
            lambda word: _strip_conjugation(phi.apply(word))[0],
            start.as_word(),
            len,
            lambda word: len(word) == len(start) and cyclic_reduce(word)[0] == start,
            max_iter,
            length_cap,
        )
    # iterate on raw folded cores, each compared with the start's cyclic
    # core, whose signatures are built once
    return _first_return(
        lambda core: fold_core(start.alphabet, [phi.apply(g) for g in core.generators()]),
        start.representative,
        StallingsCore.n_edges,
        lambda core: _same_class(_CyclicCore(core), start._cyclic_core),
        max_iter,
        length_cap,
    )


def orbit_report(
    phi: FreeAutomorphism,
    start: Union[SubgroupConjClass, CyclicWord],
    max_iter: int = 12,
    length_cap: int = 10_000,
) -> dict:
    """JSON-ready record of an orbit probe: input, outcome, period,
    iterations, and the sizes seen along the way."""
    outcome, sizes = _orbit(phi, start, max_iter, length_cap)
    if isinstance(start, CyclicWord):
        label = word_str(start.as_word())
    else:
        label = repr(start)
    return {
        "input": label,
        "outcome": outcome.kind,
        "period": outcome.period,
        "iterations": outcome.iterations,
        "core_sizes": sizes,
    }


def exact_word_orbit(
    phi: FreeAutomorphism, start: Word, max_iter: int = 12, length_cap: int = 10_000
) -> OrbitOutcome:
    """First return of the exact word (not its class) under a fixed
    automorphism representative.  Each step stops as soon as its image is
    proved longer than ``length_cap``."""
    capped = phi.forward_map.capped
    return _first_return(
        lambda word: capped(word, length_cap), start, len, start.__eq__, max_iter, length_cap
    )[0]

