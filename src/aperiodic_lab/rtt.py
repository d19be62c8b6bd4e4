"""Analytics for topological representatives.

Tightening, maximal filtrations, transition matrices with Perron-Frobenius
data, stratum classification, aperiodicity partitions of irreducible
strata, turn legality under the direction map, verification of the train
track axioms on EG strata, and the bounded cancellation constant.

Strata are strongly connected components of the edge-transition digraph
(e -> e' when e' appears in the tight image of e), ordered so that every
initial union is invariant under the map.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graphs import FiniteGraph, _ints
from .homology import IntMatrix
from .splittings import GraphMapRep, marked_graph_str, parse_marked_graph
from .subgroups import _find, _identify
from .words import Frozen


def tighten(darts: Sequence[int]) -> Tuple[int, ...]:
    """Remove backtracking (a dart followed by its reverse) until none is
    left; the unique reduced path homotopic rel endpoints."""
    out: List[int] = []
    for d in darts:
        if out and out[-1] == (d ^ 1):
            out.pop()
        else:
            out.append(d)
    return tuple(out)


def map_path(f: GraphMapRep, darts: Sequence[int]) -> Tuple[int, ...]:
    """Tight image of an edge path, tightened as each dart's image is
    appended.

    On the fibonacci map a -> ab, b -> a, the path B a maps to A . a b, and
    the junction cancels:

    >>> from aperiodic_lab.splittings import graph_map_from_words, rose_marked
    >>> from aperiodic_lab.words import Alphabet, parse_word
    >>> a2 = Alphabet(2)
    >>> fib = graph_map_from_words(rose_marked(a2), [parse_word(a2, "ab"), parse_word(a2, "a")])
    >>> map_path(fib, (3, 0))
    (2,)
    """
    out: List[int] = []
    pop, push = out.pop, out.append
    images = f._dart_images
    for d in darts:
        for x in images[d]:
            if out and out[-1] == x ^ 1:
                pop()
            else:
                push(x)
    return tuple(out)


def transition_matrix(f: GraphMapRep) -> IntMatrix:
    """Whole-graph edge-transition matrix of f.

    Entry (e', e) counts occurrences of e' in either orientation inside the
    tight image of e.  The matrix of each stratum of ``filtration_of(f)``
    is its principal submatrix on the stratum's edges.
    """
    n = f.domain.graph.n_edges
    counts = [[0] * n for _ in range(n)]
    for e, path in enumerate(f.edge_images):
        for d in path:
            counts[d >> 1][e] += 1
    return tuple(tuple(row) for row in counts)


class TransitionMatrix(Frozen):
    """Nonnegative integer matrix of a stratum: the principal submatrix of
    ``transition_matrix(f)`` on the stratum's edges, so entry (e', e)
    counts occurrences of e' in either orientation inside the tight image
    of e.  Carries the PF eigenvalue and the classification.
    """

    __slots__ = ("edges", "matrix", "kind", "pf_eigenvalue")

    def __init__(self, edges: Tuple[int, ...], matrix: IntMatrix):
        kind, lam = _classify(matrix)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pf_eigenvalue", lam)

    def __repr__(self):
        return (
            f"TransitionMatrix(edges={self.edges}, kind={self.kind}, "
            f"lambda={self.pf_eigenvalue})"
        )


def _exceeds_spectral_radius(matrix: IntMatrix, p: int, q: int) -> bool:
    """Whether p/q > rho(M), for M >= 0 and q > 0.

    x > rho(M) exactly when xI - M is a nonsingular M-matrix, that is when
    every leading principal minor of xI - M is positive (Berman and
    Plemmons, ch. 6); scaling by q > 0 keeps the signs.  Fraction-free
    (Bareiss) elimination without row exchanges leaves the k-th leading
    principal minor of pI - qM as its k-th pivot, so the pass stops at the
    first pivot that is not positive.
    """
    n = len(matrix)
    a = [
        [(p if i == j else 0) - q * x for j, x in enumerate(row)]
        for i, row in enumerate(matrix)
    ]
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return True


def _pf_eigenvalue(matrix: IntMatrix) -> float:
    """rho(M) of a nonnegative integer matrix, correctly rounded to a float.

    The least and greatest row sums bound rho(M) (Collatz-Wielandt), so
    rho lies in [lo, hi) for lo = least row sum and hi = greatest row sum
    + 1.  Bisection over dyadic rationals keeps that invariant with the
    exact test ``_exceeds_spectral_radius`` and stops once both ends round
    to the same float; rounding is monotone, so rho rounds to it too.  The
    loop ends because rho is an integer or irrational (it is an algebraic
    integer), never a tie between two floats.
    """
    q = 1
    lo = min(sum(row) for row in matrix)
    hi = max(sum(row) for row in matrix) + 1
    while lo / q != hi / q:
        if (lo + hi) & 1:
            lo, hi, q = 2 * lo, 2 * hi, 2 * q
        mid = (lo + hi) // 2
        if _exceeds_spectral_radius(matrix, mid, q):
            hi = mid
        else:
            lo = mid
    return lo / q


def _classify(matrix: IntMatrix) -> Tuple[str, float]:
    """Zero, NEG, or EG with the PF eigenvalue, decided exactly.

    A stratum matrix is zero or irreducible, and an irreducible matrix has
    rho = 1 exactly when it is a permutation matrix (Lind and Marcus,
    section 4.5).  Proof: an irreducible nonzero integer matrix has a
    positive entry in every row, so every row sum is at least 1, and the
    least and greatest row sums bound rho.  If every row sum is 1, then
    rho = 1, and the matrix has one 1 per row, so its digraph is a single
    cycle: a permutation matrix.  Otherwise the row sums are all equal to
    some k >= 2, giving rho = k, or they differ, and for an irreducible
    matrix rho then exceeds the least row sum (Perron-Frobenius); either
    way rho > 1 and the stratum is EG.
    """
    if not any(any(row) for row in matrix):
        return "Zero", 0.0
    if all(sum(row) == 1 for row in matrix):
        return "NEG", 1.0
    return "EG", _pf_eigenvalue(matrix)


class Filtration(Frozen):
    """Strata (each irreducible or zero) in an order making every initial
    union invariant under the map."""

    __slots__ = ("strata",)

    def __init__(self, strata: Sequence[TransitionMatrix]):
        object.__setattr__(self, "strata", tuple(strata))

    def stratum_of_edge(self, e: int) -> int:
        for r, stratum in enumerate(self.strata):
            if e in stratum.edges:
                return r
        raise KeyError(e)

    def edges_below(self, r: int) -> Set[int]:
        below: Set[int] = set()
        for stratum in self.strata[:r]:
            below.update(stratum.edges)
        return below

    def __repr__(self):
        return f"Filtration({list(self.strata)!r})"


def filtration_of(f: GraphMapRep) -> Filtration:
    """Maximal filtration from the condensation of the edge-transition
    digraph, with one transition matrix per stratum.

    Edges e and e' share a stratum iff each reaches the other; reachability
    sets take O(n (n + m)) for n edges and m arrows.  A stratum is named by
    its least edge, so the order of the strata depends on the map alone.
    """
    counts = transition_matrix(f)
    n = len(counts)
    # digraph arrow e -> e' when e' appears in the image of e
    arcs = [[e2 for e2 in range(n) if counts[e2][e]] for e in range(n)]
    reach: List[Set[int]] = []
    for e in range(n):
        seen = {e}
        stack = [e]
        while stack:
            for e2 in arcs[stack.pop()]:
                if e2 not in seen:
                    seen.add(e2)
                    stack.append(e2)
        reach.append(seen)
    labels = [min(e2 for e2 in reach[e] if e in reach[e2]) for e in range(n)]
    # order components so successors (image edges) come earlier
    comp_edges: Dict[int, List[int]] = {}
    successors: Dict[int, Set[int]] = {}
    for e in range(n):
        comp_edges.setdefault(labels[e], []).append(e)
        successors.setdefault(labels[e], set()).update(
            labels[e2] for e2 in arcs[e] if labels[e2] != labels[e]
        )
    # depth-first post-order from each component in ascending order,
    # children in ascending order, on an explicit stack
    order: List[int] = []
    placed: Set[int] = set()
    for root in sorted(comp_edges):
        if root in placed:
            continue
        stack = [(root, iter(sorted(successors[root])))]
        while stack:
            c, children = stack[-1]
            for child in children:
                if child not in placed:
                    stack.append((child, iter(sorted(successors[child]))))
                    break
            else:
                stack.pop()
                placed.add(c)
                order.append(c)

    strata = []
    for c in order:
        edges = tuple(comp_edges[c])
        block = tuple(tuple(counts[i][j] for j in edges) for i in edges)
        strata.append(TransitionMatrix(edges, block))
    return Filtration(strata)


class VerificationFailed(AssertionError):
    """The computed cyclic classes contradict the expected mapping property."""


def aperiodic_partition(f: GraphMapRep, stratum: TransitionMatrix) -> dict:
    """Period d and cyclic classes of an irreducible stratum.

    d is the gcd of directed cycle lengths of the stratum digraph; the
    classes are residue classes of digraph distance from a base edge.  The
    mapping property (images of class i meet the stratum only in class i+1)
    is verified explicitly.
    """
    if stratum.kind == "Zero":
        raise ValueError("aperiodic_partition requires an irreducible stratum")
    edges = stratum.edges
    index = {e: i for i, e in enumerate(edges)}
    k = len(edges)
    arcs: Dict[int, List[int]] = {i: [] for i in range(k)}
    for i, e in enumerate(edges):
        for d in f.edge_images[e]:
            e2 = d >> 1
            if e2 in index:
                arcs[i].append(index[e2])
    # BFS layers from edge 0; the loop also visits the edges appended while
    # it runs, so the list is its own queue
    dist = {0: 0}
    queue = [0]
    for u in queue:
        for v in arcs[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    period = 0
    for u in range(k):
        for v in arcs[u]:
            period = math.gcd(period, dist[u] + 1 - dist[v])
    if period <= 1:
        return {"aperiodic": True, "period": 1, "classes": [list(edges)]}
    classes: List[List[int]] = [[] for _ in range(period)]
    for i, e in enumerate(edges):
        classes[dist[i] % period].append(e)
    # the image of class i must meet the stratum only in class i+1
    for i in range(period):
        target = {index[e] for e in classes[(i + 1) % period]}
        for e in classes[i]:
            for v in arcs[index[e]]:
                if v not in target:
                    raise VerificationFailed(
                        f"edge {e} of class {i} maps over an edge outside class {(i + 1) % period}"
                    )
    return {"aperiodic": False, "period": period, "classes": classes}


# ---------------------------------------------------------------------------
# directions, turns, legality


def direction_map(f: GraphMapRep) -> Dict[int, int]:
    """DF: each dart maps to the first dart of its tight image."""
    return {
        d: f.dart_image(d)[0] for d in range(f.domain.graph.n_darts())
    }


def illegal_turns(f: GraphMapRep) -> dict:
    """Classify every turn (unordered pair of darts at a common vertex).

    A turn is degenerate if its darts coincide, illegal if some DF-iterate
    merges them, legal otherwise.
    """
    return _classify_turns(f.domain.graph, direction_map(f))


def _classify_turns(graph: FiniteGraph, df: Dict[int, int]) -> dict:
    """``illegal_turns`` from the direction map ``df``.

    Two darts that ever merge do so within n = |darts| steps.  At the step
    before their first merge the two walks stand on distinct darts with one
    image, and DF is injective on the darts of its cycles, so one walk is
    still off every cycle.  That walk has so far visited pairwise distinct
    darts off the cycles, fewer than n of them since a cycle exists.  Merged
    walks stay merged, so a turn is illegal iff DF^n, taken by repeated
    squaring, sends both darts to one.
    """
    n = graph.n_darts()
    power, step = list(range(n)), [df[d] for d in range(n)]
    k = n
    while k:
        if k & 1:
            power = [step[d] for d in power]
        step = [step[d] for d in step]
        k >>= 1
    degenerate, illegal, legal = [], [], []
    for v in range(graph.n_vertices):
        # darts_at lists ascending, so each pair is already (min, max)
        for turn in itertools.combinations_with_replacement(graph.darts_at(v), 2):
            d1, d2 = turn
            if d1 == d2:
                degenerate.append(turn)
            elif power[d1] == power[d2]:
                illegal.append(turn)
            else:
                legal.append(turn)
    return {"degenerate": degenerate, "illegal": illegal, "legal": legal}


def _turns_in_path(darts: Sequence[int]) -> List[Tuple[int, int]]:
    return [(min(d1 ^ 1, d2), max(d1 ^ 1, d2)) for d1, d2 in zip(darts, darts[1:])]


def verify_rtt(f: GraphMapRep, filtration: Optional[Filtration] = None) -> dict:
    """Check the three train track conditions on every EG stratum H_r,
    each exactly.

    Condition 1: DF maps the directions of H_r into H_r.  Condition 2:
    every nontrivial tight path in G_{r-1} with endpoints u, v at vertices
    of H_r has a nontrivial tight image, from f(u) to f(v), both again
    vertices of H_r; ``_condition2`` decides it by folding and proves it.
    Condition 3, the local criterion: images of stratum edges cross only
    legal turns of stratum height.  ``condition2.bounded`` stays in the
    report for its readers and is always false.
    """
    if filtration is None:
        filtration = filtration_of(f)
    graph = f.domain.graph
    df = direction_map(f)
    illegal_set = set(_classify_turns(graph, df)["illegal"])
    report = {"strata": [], "all_pass": True}
    for r, stratum in enumerate(filtration.strata):
        if stratum.kind != "EG":
            continue
        edges = set(stratum.edges)
        stratum_darts = {d for d in range(graph.n_darts()) if (d >> 1) in edges}
        stratum_vertices = {graph.dart_origin(d) for d in stratum_darts}

        cond1 = all(df[d] in stratum_darts for d in stratum_darts)
        cond2_violations = _condition2(f, filtration.edges_below(r), stratum_vertices)
        cond3_violations = [
            {"edge": e, "turn": list(turn)}
            for e in stratum.edges
            for dart in (2 * e, 2 * e + 1)
            for turn in _turns_in_path(f.dart_image(dart))
            if (turn[0] >> 1) in edges and (turn[1] >> 1) in edges and turn in illegal_set
        ]
        entry = {
            "stratum": r,
            "edges": list(stratum.edges),
            "lambda": stratum.pf_eigenvalue,
            "condition1": cond1,
            "condition2": {"violations": cond2_violations, "bounded": False},
            "condition3": {"violations": cond3_violations},
        }
        passed = cond1 and not cond2_violations and not cond3_violations
        entry["passed"] = passed
        report["all_pass"] = report["all_pass"] and passed
        report["strata"].append(entry)
    return report


def _condition2(f: GraphMapRep, lower: Set[int], stratum_vertices: Set[int]) -> List[dict]:
    """Violations of train track condition 2 for the stratum on
    ``stratum_vertices`` above the edges ``lower`` of G_{r-1}.  Each names
    the ends u, v of a nontrivial tight path in G_{r-1} whose tight image is
    trivial (kind "trivial"; u == v for a loop) or ends off the stratum's
    vertices (kind "endpoint").

    Take a component C of G_{r-1} holding vertices W of H_r.  Subdivide
    each edge e of C into one edge per dart of f(e), labelled by that dart
    (its reverse by the reverse dart), and fold to Gamma with quotient q.
    The labels make Gamma -> G an immersion that takes q(sigma) to f(sigma)
    for a path sigma in C, and immersions keep paths reduced, so the tight
    image of sigma is trivial iff q(sigma) is null-homotopic rel endpoints.
    Folding is onto on pi_1 (Stallings), and the path classes from u to v
    form a pi_1(C, v)-torsor, so q maps them onto those from q(u) to q(v).
    Hence, for u != v in W, some path from u to v has a trivial image iff
    q(u) == q(v).  Some nontrivial loop at u in W has a trivial image iff
    q_* has a kernel (for one u iff for all, moving loops along paths).  A
    free group of finite rank is Hopfian, so the surjection q_* has a
    kernel iff rank(Gamma) < rank(C).

    A nontrivial tight path from u in W to W exists iff C has rank >= 1 (a
    loop) or W has a second vertex (the tree path); its image starts at
    f(u), which must lie in the stratum.  The work is near-linear in the
    length of the images of C's edges.
    """
    graph = f.domain.graph
    lower_darts = [
        [d for d in graph.darts_at(v) if (d >> 1) in lower]
        for v in range(graph.n_vertices)
    ]
    violations: List[dict] = []
    seen: Set[int] = set()
    for root in sorted(stratum_vertices):
        if root in seen or not lower_darts[root]:
            continue
        # the component C of root in G_{r-1}, numbered in discovery order
        index = {root: 0}
        order = [root]
        component_edges = set()
        for x in order:
            for d in lower_darts[x]:
                component_edges.add(d >> 1)
                y = graph.dart_head(d)
                if y not in index:
                    index[y] = len(order)
                    order.append(y)
        seen.update(order)
        rank = len(component_edges) - len(order) + 1
        W = [v for v in sorted(order) if v in stratum_vertices]

        # subdivide and fold: each edge x -> y becomes a chain through
        # fresh vertices spelling f(e), and every labelled edge is folded
        # onto any edge with its label at its tail as it is added
        out: List[Dict[int, int]] = [{} for _ in order]
        parent = list(range(len(order)))
        for e in sorted(component_edges):
            x, y = graph.edges[e]
            path = f.edge_images[e]
            fresh = range(len(out), len(out) + len(path) - 1)
            out.extend({} for _ in fresh)
            parent.extend(fresh)
            chain = [index[x], *fresh, index[y]]
            for a, d, b in zip(chain, path, chain[1:]):
                # fold onto an edge labelled d at a, else enter the edge and
                # fold its reverse onto an edge labelled d ^ 1 at b
                a, b = _find(parent, a), _find(parent, b)
                kept = out[a].setdefault(d, b)
                if kept == b:
                    kept, b = out[b].setdefault(d ^ 1, a), a
                _identify(out, parent, kept, b)
        roots = {_find(parent, x) for x in range(len(out))}
        folded_rank = sum(len(out[x]) for x in roots) // 2 - len(roots) + 1

        if rank >= 1 or len(W) >= 2:
            for u in W:
                if f.vertex_images[u] not in stratum_vertices:
                    v = u if rank >= 1 else next(w for w in W if w != u)
                    violations.append({"kind": "endpoint", "from": u, "to": v})
        first: Dict[int, int] = {}
        for v in W:
            u = first.setdefault(_find(parent, index[v]), v)
            if u != v:
                violations.append({"kind": "trivial", "from": u, "to": v})
        if folded_rank < rank:
            violations.append({"kind": "trivial", "from": W[0], "to": W[0]})
    return violations


# ---------------------------------------------------------------------------
# bounded cancellation


def bcc_bound(f: GraphMapRep) -> int:
    """Sum of the image lengths over the unoriented edges, the constant c of
    ``bcc_inequality_holds``.  It need not bound the cancellation of a map
    that is no homotopy equivalence: 1000 trials at seed 0 exceed it 106
    times for a -> a, b -> a and 135 times for a -> abab, b -> ab.  So a
    report's ``violations`` are sampled evidence about c, not a proof."""
    return sum(len(path) for path in f.edge_images)


def bcc_inequality_holds(f: GraphMapRep, rho1: Sequence[int], rho2: Sequence[int]) -> bool:
    """The bounded cancellation inequality for a tight splitting rho = rho1 rho2:
    |[f(rho)]| >= |[f(rho1)]| + |[f(rho2)]| - 2 ``bcc_bound(f)``."""
    joined = len(map_path(f, tuple(rho1) + tuple(rho2)))
    return joined >= len(map_path(f, rho1)) + len(map_path(f, rho2)) - 2 * bcc_bound(f)


def _walker(graph: FiniteGraph, getrandbits):
    """``random_tight_path``'s walk, by length; step entry -1, read first, offers every dart."""
    table = (*graph.turn_table(), range(graph.n_darts()))
    steps = [(options, len(options), len(options).bit_length()) for options in table]

    def walk(length: int) -> List[int]:
        path, d = [], -1
        for _ in range(max(length, 1)):
            options, n, k = steps[d]
            if not n:
                break
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            d = options[r]
            path.append(d)
        return path

    return walk


def random_tight_path(graph: FiniteGraph, length: int, rng) -> Tuple[int, ...]:
    """A uniformly grown backtracking-free dart path (may be shorter when a
    dead end is hit), walked along ``graph.turn_table()``.

    The stream is part of the contract, since seeded reports list the paths
    they draw: ``rng.choice(range(n_darts))``, then ``rng.choice(options)``
    per step over the darts at the head of the last one but its reverse, in
    ascending order.  Each r below n reads ``rng.getrandbits(n.bit_length())``
    until r < n, as CPython's ``choice`` does in ``_randbelow_with_getrandbits``;
    under a ``Random`` that draws otherwise, the tests replaying ``choice`` fail.
    """
    return tuple(_walker(graph, rng.getrandbits)(length))


def cancellation_trials(f: GraphMapRep, c: int, trials: int, seed: int) -> List[dict]:
    """The seeded random splittings of ``rtt-analyze`` whose junction
    cancels more than c darts, as records {"trial", "path", "split"}.

    Trial t draws from ``rng = random.Random(seed)`` the ``path =
    random_tight_path(graph, rng.randrange(2, 50), rng)`` and the split
    ``rng.randrange(0, len(path) + 1)``, each r below n read as CPython's
    ``randrange`` reads it, in ``_randbelow_with_getrandbits``; under a
    ``Random`` that draws otherwise, the tests replaying that loop fail.

    Junction lemma: as the images of both halves are tight, [f(rho1 rho2)] loses
    just the k darts of each that cancel at the junction; the inequality is k <= c.
    """
    getrandbits = random.Random(seed).getrandbits
    walk = _walker(f.domain.graph, getrandbits)
    violations = []
    for trial in range(trials):
        length = getrandbits(6)  # randrange(2, 50): 48 values, 6 bits
        while length >= 48:
            length = getrandbits(6)
        path = walk(length + 2)
        n = len(path) + 1
        split = getrandbits(n.bit_length())
        while split >= n:
            split = getrandbits(n.bit_length())
        head, tail = map_path(f, path[:split]), map_path(f, path[split:])
        k = 0
        while k < len(head) and k < len(tail) and head[-1 - k] == tail[k] ^ 1:
            k += 1
        if k > c:
            violations.append({"trial": trial, "path": path, "split": split})
    return violations


# ---------------------------------------------------------------------------
# graph-map file format: marked-graph section plus "edge -> edgepath" lines,
# where an edge path is written as comma-separated darts "e+" / "e-"


def graph_map_str(f: GraphMapRep) -> str:
    lines = [marked_graph_str(f.domain).rstrip("\n")]
    lines.append("vertices " + " ".join(str(v) for v in f.vertex_images))
    for e, path in enumerate(f.edge_images):
        spelled = ",".join(
            f"{d >> 1}{'+' if d & 1 == 0 else '-'}" for d in path
        )
        lines.append(f"{e} -> {spelled}")
    return "\n".join(lines) + "\n"


def parse_graph_map(alphabet, text: str) -> GraphMapRep:
    """Parse the graph-map format.  A line that is malformed, names an edge
    or dart the graph lacks, or maps an edge a second time raises
    ``ValueError`` naming it, and so does a missing edge line."""
    marked_lines, map_lines, vertex_lines = [], [], []
    for line in text.strip().splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.split()[0] == "vertices":
            vertex_lines.append(stripped)
        elif "->" in stripped:
            map_lines.append(stripped)
        else:
            marked_lines.append(stripped)
    marked = parse_marked_graph(alphabet, "\n".join(marked_lines))
    if len(vertex_lines) != 1:
        raise ValueError("need exactly one 'vertices' line")
    graph = marked.graph
    vertex_images = _ints(vertex_lines[0], vertex_lines[0].split()[1:], graph.n_vertices)
    edge_images: Dict[int, List[int]] = {}
    for line in map_lines:
        lhs, _, rhs = line.partition("->")
        (e,) = _ints(line, lhs.split(), 1)
        tokens = [token.strip() for token in rhs.split(",")]
        if any(token[-1:] not in ("+", "-") for token in tokens):
            raise ValueError(f"bad line {line!r}: darts are written 'e+' or 'e-'")
        darts = _ints(line, [token[:-1] for token in tokens], len(tokens))
        if e in edge_images or max(e, *darts) >= graph.n_edges:
            raise ValueError(
                f"bad line {line!r}: edges are 0..{graph.n_edges - 1}, each mapped once"
            )
        edge_images[e] = [
            2 * idx if token[-1] == "+" else 2 * idx + 1 for idx, token in zip(darts, tokens)
        ]
    missing = [e for e in range(graph.n_edges) if e not in edge_images]
    if missing:
        raise ValueError(f"missing line '{missing[0]} -> path' for edge {missing[0]}")
    paths = [edge_images[e] for e in range(graph.n_edges)]
    return GraphMapRep(marked, vertex_images, paths)
