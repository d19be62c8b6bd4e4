import itertools
import math
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from aperiodic_lab.homology import det, mat_mul, mat_pow

from aperiodic_lab.rtt import (
    Filtration,
    VerificationFailed,
    _classify,
    _exceeds_spectral_radius,
    _pf_eigenvalue,
    aperiodic_partition,
    bcc_bound,
    bcc_inequality_holds,
    cancellation_trials,
    direction_map,
    filtration_of,
    graph_map_str,
    illegal_turns,
    map_path,
    parse_graph_map,
    random_tight_path,
    tighten,
    transition_matrix,
    verify_rtt,
)
from aperiodic_lab.cli import _builtin_map
from aperiodic_lab.graphs import FiniteGraph
from aperiodic_lab.splittings import GraphMapRep, MarkedGraph, graph_map_from_words, rose_marked
from aperiodic_lab.words import Alphabet, Word, parse_word

A2 = Alphabet(2)
A3 = Alphabet(3)


def rose_map(words, alphabet=A2):
    rose = rose_marked(alphabet)
    return graph_map_from_words(rose, [parse_word(alphabet, s) for s in words])


FIB = rose_map(["ab", "a"])
PERIOD2 = rose_map(["bb", "aa"])
LOWER = rose_map(["a", "ba"])
IDENT = rose_map(["a", "b"])

GOLDEN = (1 + math.sqrt(5)) / 2


class TestTighten:
    def test_cancel_reversal(self):
        assert tighten((0, 1)) == ()

    def test_already_tight(self):
        assert tighten((0, 2)) == (0, 2)

    def test_inner_cancellation(self):
        assert tighten((0, 2, 3, 0)) == (0, 0)

    def test_idempotent_on_random_paths(self):
        rng = random.Random(0)
        graph = FIB.domain.graph
        for _ in range(50):
            raw = [rng.randrange(4) for _ in range(rng.randrange(20))]
            path = []
            # build a concatenable path by walking
            for d in raw:
                if not path or graph.dart_head(path[-1]) == graph.dart_origin(d):
                    path.append(d)
            once = tighten(path)
            assert tighten(once) == once
            assert len(once) <= len(path)


class TestFiltration:
    def test_fibonacci_single_stratum(self):
        filt = filtration_of(FIB)
        assert len(filt.strata) == 1
        assert filt.strata[0].matrix == ((1, 1), (1, 0))

    def test_lower_triangular_two_strata(self):
        filt = filtration_of(LOWER)
        assert len(filt.strata) == 2
        # the a-edge stratum must come first: b maps over a
        assert filt.strata[0].edges == (0,)
        assert all(s.kind == "NEG" for s in filt.strata)

    def test_identity_all_unit_strata(self):
        filt = filtration_of(IDENT)
        assert len(filt.strata) == 2
        assert all(s.matrix == ((1,),) for s in filt.strata)

    def test_invariance_of_initial_unions(self):
        for graph_map in (FIB, PERIOD2, LOWER, IDENT):
            filt = filtration_of(graph_map)
            for r in range(len(filt.strata)):
                union = filt.edges_below(r + 1)
                for e in union:
                    image_edges = {d >> 1 for d in graph_map.edge_images[e]}
                    assert image_edges <= union

    def test_untight_rejected(self):
        # a map is tight at construction, so no analytic meets this image
        with pytest.raises(ValueError, match="image of edge 0 has backtracking"):
            GraphMapRep(rose_marked(A2), (0,), [(0, 1, 0), (2,)])

    @pytest.mark.parametrize(
        "images, edge",
        [([(0,), (0, 2, 3)], 1), ([(2, 3, 0), (2,)], 0), ([(0,), (3, 2)], 1)],
    )
    def test_backtracking_anywhere_in_an_image_rejected(self, images, edge):
        with pytest.raises(ValueError, match=f"image of edge {edge} has backtracking"):
            GraphMapRep(rose_marked(A2), (0,), images)

    def test_backtracking_across_a_tree_edge_rejected(self):
        # on the theta graph, edge 1 running out along the tree edge 0 and
        # straight back
        theta = FiniteGraph(2, [(0, 1), (0, 1), (0, 1)])
        marked = MarkedGraph(A2, theta, [0], {1: parse_word(A2, "a"), 2: parse_word(A2, "b")}, {})
        with pytest.raises(ValueError, match="image of edge 1 has backtracking"):
            GraphMapRep(marked, (0, 1), [(0,), (0, 1, 2), (4,)])

    def test_stratum_order_matches_recursive_post_order(self):
        rng = random.Random(1200)
        for _ in range(300):
            rank = rng.randrange(2, 13)
            alphabet = Alphabet(rank)
            words = []
            for _ in range(rank):
                # images over a few petals give chains and branching DAGs
                petals = rng.sample(range(1, rank + 1), rng.randrange(1, min(rank, 3) + 1))
                letters = []
                while not letters:
                    raw = [rng.choice(petals) * rng.choice((1, -1)) for _ in range(rng.randrange(1, 5))]
                    letters = Word(alphabet, raw).letters
                words.append(Word(alphabet, letters))
            graph_map = graph_map_from_words(rose_marked(alphabet), words)
            strata = filtration_of(graph_map).strata
            assert [s.edges[0] for s in strata] == _recursive_stratum_order(graph_map, strata)

    def test_long_chain_needs_no_recursion(self):
        # a_i -> a_i a_(i+1), last petal fixed: 1200 strata in one chain,
        # deeper than the interpreter's recursion limit
        n = 1200
        alphabet = Alphabet(n)
        words = [Word(alphabet, (i, i + 1)) for i in range(1, n)] + [Word(alphabet, (n,))]
        strata = filtration_of(graph_map_from_words(rose_marked(alphabet), words)).strata
        assert [s.edges for s in strata] == [(e,) for e in reversed(range(n))]
        assert all(s.kind == "NEG" for s in strata)


def _recursive_stratum_order(graph_map, strata):
    """Oracle: least edges of the strata in the order of a recursive
    depth-first post-order, from each stratum in order of its least edge,
    the strata its images meet first."""
    label = {e: s.edges[0] for s in strata for e in s.edges}
    successors = {c: set() for c in label.values()}
    for e, path in enumerate(graph_map.edge_images):
        successors[label[e]].update(label[d >> 1] for d in path if label[d >> 1] != label[e])
    order, placed = [], set()

    def place(c):
        if c in placed:
            return
        for child in sorted(successors[c]):
            place(child)
        placed.add(c)
        order.append(c)

    for c in sorted(successors):
        place(c)
    return order


class TestClassification:
    def test_golden_ratio(self):
        stratum = filtration_of(FIB).strata[0]
        assert stratum.kind == "EG"
        assert abs(stratum.pf_eigenvalue - GOLDEN) < 1e-8

    def test_permutation_is_neg(self):
        stratum = filtration_of(rose_map(["b", "a"])).strata[0]
        assert stratum.kind == "NEG" and stratum.pf_eigenvalue == 1.0

    def test_doubling(self):
        stratum = filtration_of(PERIOD2).strata[0]
        assert stratum.kind == "EG" and abs(stratum.pf_eigenvalue - 2.0) < 1e-8

    def test_exact_lambdas(self):
        # correctly rounded: the golden ratio's nearest float, and exactly 2
        assert filtration_of(FIB).strata[0].pf_eigenvalue == 1.618033988749895
        assert filtration_of(PERIOD2).strata[0].pf_eigenvalue == 2.0

    def test_pf_row_sum_bounds(self):
        for graph_map in (FIB, PERIOD2):
            stratum = filtration_of(graph_map).strata[0]
            sums = [sum(row) for row in stratum.matrix]
            assert min(sums) <= stratum.pf_eigenvalue <= max(sums)


def _warshall(n, arcs):
    """Reflexive-transitive closure of a digraph on 0..n-1 as a boolean
    matrix, by Warshall's triple loop."""
    reach = [[i == j or j in arcs[i] for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


def _is_irreducible(matrix):
    n = len(matrix)
    arcs = [{j for j in range(n) if matrix[i][j]} for i in range(n)]
    return all(all(row) for row in _warshall(n, arcs))


nonnegative_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
).map(lambda rows: tuple(tuple(row) for row in rows))


class TestExactSpectralRadius:
    @settings(max_examples=200, deadline=None)
    @given(nonnegative_matrices)
    def test_within_row_sum_bounds_of_powers(self, m):
        # (min row sum of M^k)^(1/k) <= rho(M) <= (max row sum of M^k)^(1/k)
        lam = _pf_eigenvalue(m)
        for k in range(1, 7):
            sums = [sum(row) for row in mat_pow(m, k)]
            assert min(sums) <= lam**k * (1 + 1e-12)
            assert lam**k <= max(sums) * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(nonnegative_matrices, st.integers(0, 40), st.integers(1, 8))
    def test_exceeds_matches_leading_minors(self, m, p, q):
        # the Bareiss pass without row exchanges against determinants of the
        # leading principal submatrices of pI - qM, computed one by one
        n = len(m)
        shifted = [[(p if i == j else 0) - q * m[i][j] for j in range(n)] for i in range(n)]
        minors = [det(tuple(tuple(row[:k]) for row in shifted[:k])) for k in range(1, n + 1)]
        assert _exceeds_spectral_radius(m, p, q) == all(x > 0 for x in minors)

    @settings(max_examples=200, deadline=None)
    @given(nonnegative_matrices)
    def test_classification_matches_bisection(self, m):
        # the row-sum shortcut for NEG agrees with bisecting every irreducible
        # matrix: rho = 1 exactly for permutation matrices, rho > 1 otherwise
        assume(_is_irreducible(m) and any(any(row) for row in m))
        n = len(m)
        permutations = {
            tuple(tuple(int(j == perm[i]) for j in range(n)) for i in range(n))
            for perm in itertools.permutations(range(n))
        }
        kind, lam = _classify(m)
        assert (kind == "NEG") == (m in permutations)
        if kind == "NEG":
            assert lam == _pf_eigenvalue(m) == 1.0
        else:
            assert kind == "EG" and lam == _pf_eigenvalue(m) > 1.0

    def test_zero_matrix(self):
        assert _classify(((0,),)) == ("Zero", 0.0)
        assert _pf_eigenvalue(((0, 0), (0, 0))) == 0.0


rose_words = st.integers(1, 5).flatmap(
    lambda rank: st.lists(
        st.lists(
            st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i))),
            min_size=1,
            max_size=5,
        ),
        min_size=rank,
        max_size=rank,
    )
)


class TestStrataPartition:
    @settings(max_examples=200, deadline=None)
    @given(rose_words)
    def test_strata_are_mutual_reachability_classes(self, images):
        alphabet = Alphabet(len(images))
        words = [Word(alphabet, letters) for letters in images]
        assume(all(word.letters for word in words))
        graph_map = graph_map_from_words(rose_marked(alphabet), words)
        n = len(images)
        arcs = [{d >> 1 for d in graph_map.edge_images[e]} for e in range(n)]
        reach = _warshall(n, arcs)
        classes = {
            tuple(j for j in range(n) if reach[i][j] and reach[j][i]) for i in range(n)
        }
        strata = filtration_of(graph_map).strata
        assert sorted(s.edges for s in strata) == sorted(classes)
        # every arrow stays in its stratum or points to an earlier one
        position = {e: r for r, s in enumerate(strata) for e in s.edges}
        assert all(position[e2] <= position[e] for e in range(n) for e2 in arcs[e])


class TestAperiodicPartition:
    def test_fibonacci_aperiodic(self):
        part = aperiodic_partition(FIB, filtration_of(FIB).strata[0])
        assert part["aperiodic"] and part["period"] == 1
        # cross-check: some power of the matrix is positive
        m = filtration_of(FIB).strata[0].matrix
        assert all(x > 0 for row in mat_pow(m, 2) for x in row)

    def test_doubling_period_two(self):
        part = aperiodic_partition(PERIOD2, filtration_of(PERIOD2).strata[0])
        assert part["period"] == 2
        assert sorted(map(sorted, part["classes"])) == [[0], [1]]

    def test_single_loop_aperiodic(self):
        loop = rose_map(["a", "b"])
        stratum = filtration_of(loop).strata[0]
        part = aperiodic_partition(loop, stratum)
        assert part["aperiodic"]

    def test_mapping_property_explicitly(self):
        # each class maps into the next, indices mod the period
        part = aperiodic_partition(PERIOD2, filtration_of(PERIOD2).strata[0])
        classes = part["classes"]
        for i, cls in enumerate(classes):
            nxt = set(classes[(i + 1) % len(classes)])
            for e in cls:
                image_edges = {d >> 1 for d in PERIOD2.edge_images[e]}
                assert image_edges <= nxt

    def test_zero_stratum_rejected(self):
        filt = filtration_of(LOWER)
        with pytest.raises(ValueError):
            aperiodic_partition(LOWER, _zero_stratum())


def _zero_stratum():
    from aperiodic_lab.rtt import TransitionMatrix

    return TransitionMatrix((0,), ((0,),))


def _merge_time_bounded(df, d1, d2, cap):
    """Oracle: whether iterating DF merges the pair within ``cap`` steps."""
    a, b = d1, d2
    for _ in range(cap):
        if a == b:
            return True
        a, b = df[a], df[b]
    return a == b


def _illegal_turns_oracle(graph_map):
    """Oracle: every turn classified by walking both darts n_darts^2 + 1
    steps, the darts of each vertex found by a scan over all darts."""
    graph = graph_map.domain.graph
    df = direction_map(graph_map)
    cap = graph.n_darts() ** 2 + 1
    degenerate, illegal, legal = [], [], []
    for v in range(graph.n_vertices):
        darts = [d for d in range(graph.n_darts()) if graph.dart_origin(d) == v]
        for d1, d2 in itertools.combinations_with_replacement(darts, 2):
            turn = (min(d1, d2), max(d1, d2))
            if d1 == d2:
                degenerate.append(turn)
            elif _merge_time_bounded(df, d1, d2, cap):
                illegal.append(turn)
            else:
                legal.append(turn)
    return {"degenerate": degenerate, "illegal": illegal, "legal": legal}


def _chain_map(n):
    """The rose map a_i -> a_i a_(i+1), last petal fixed."""
    alphabet = Alphabet(n)
    words = [Word(alphabet, (i, i + 1)) for i in range(1, n)] + [Word(alphabet, (n,))]
    return graph_map_from_words(rose_marked(alphabet), words)


class TestTurns:
    def test_identity_no_illegal(self):
        assert not illegal_turns(IDENT)["illegal"]

    def test_chain_matches_oracle(self):
        # DF walks down the chain before merging: merge times up to n - 1
        graph_map = _chain_map(45)
        report = illegal_turns(graph_map)
        assert report == _illegal_turns_oracle(graph_map)
        assert report["illegal"]

    @settings(max_examples=200, deadline=None)
    @given(rose_words)
    def test_matches_oracle_on_roses(self, images):
        alphabet = Alphabet(len(images))
        words = [Word(alphabet, letters) for letters in images]
        assume(all(word.letters for word in words))
        graph_map = graph_map_from_words(rose_marked(alphabet), words)
        assert illegal_turns(graph_map) == _illegal_turns_oracle(graph_map)

    def test_matches_oracle_on_two_vertex_maps(self):
        rng = random.Random(88)
        for _ in range(200):
            graph_map = _random_two_vertex_map(rng)
            if graph_map is not None:
                assert illegal_turns(graph_map) == _illegal_turns_oracle(graph_map)

    def test_fibonacci_illegal_turn(self):
        # darts: a = 0, a^-1 = 1, b = 2, b^-1 = 3; DF merges a and b
        report = illegal_turns(FIB)
        assert report["illegal"] == [(0, 2)]

    def test_degenerate_turns_listed(self):
        report = illegal_turns(FIB)
        assert (0, 0) in report["degenerate"]

    def test_direction_map(self):
        df = direction_map(FIB)
        assert df[0] == 0 and df[2] == 0
        assert df[1] == 3 and df[3] == 1


class TestVerifyRTT:
    def test_fibonacci_passes(self):
        report = verify_rtt(FIB)
        assert report["all_pass"]
        assert len(report["strata"]) == 1
        entry = report["strata"][0]
        assert entry["condition1"] and not entry["condition3"]["violations"]

    def test_neg_only_vacuous(self):
        report = verify_rtt(LOWER)
        assert report["all_pass"] and report["strata"] == []

    def test_eg_over_neg_conditions(self):
        # a fixed plus an EG pair above it: images avoid illegal turns
        graph_map = rose_map(["a", "bc", "b"], alphabet=A3)
        report = verify_rtt(graph_map)
        assert report["all_pass"]


    def test_three_petal_map_passes(self):
        # condition 2 over the lower petals a, b, which carry tight paths of
        # every length
        graph_map = rose_map(["ab", "a", "cac"], alphabet=A3)
        report = verify_rtt(graph_map)
        assert report["all_pass"]
        assert [s["edges"] for s in report["strata"]] == [[0, 1], [2]]
        assert report["strata"][1]["condition2"] == {"violations": [], "bounded": False}
        filtration = filtration_of(graph_map)
        assert _condition2_oracle(graph_map, filtration, 1, 8) == ([], True)

    def test_lower_path_with_trivial_image(self):
        # a -> a, b -> a, c -> cbc: the lower path a b^-1 maps to a a^-1, a
        # point, so the folded lower rose loses a petal
        graph_map = rose_map(["a", "a", "cbc"], alphabet=A3)
        report = verify_rtt(graph_map)
        assert not report["all_pass"]
        (entry,) = report["strata"]
        assert entry["edges"] == [2]
        assert entry["condition2"]["violations"] == [{"kind": "trivial", "from": 0, "to": 0}]
        violations, _ = _condition2_oracle(graph_map, filtration_of(graph_map), 2, 4)
        assert (0, 3) in violations

    def test_fold_identifies_stratum_vertices(self):
        # lower edges e0 = (0, 1) -> e1 and the loop e1 at 0 -> e1; the EG
        # pair e2 = (0, 1), e3 = (1, 0) both map to e2 e3.  Both vertices
        # map to 0, and the lower path e1^-1 e0 from 0 to 1 maps to a point.
        graph_map = _graph_map(
            [(0, 1), (0, 0), (0, 1), (1, 0)], (0, 0), [[2], [2], [4, 6], [4, 6]]
        )
        filtration = filtration_of(graph_map)
        assert [s.edges for s in filtration.strata] == [(1,), (0,), (2, 3)]
        report = verify_rtt(graph_map, filtration)
        (entry,) = report["strata"]
        assert entry["condition1"] and not entry["condition3"]["violations"]
        assert entry["condition2"]["violations"] == [{"kind": "trivial", "from": 0, "to": 1}]
        violations, _ = _condition2_oracle(graph_map, filtration, 2, 4)
        assert (3, 0) in violations

    def test_fold_of_a_tree_identifies_stratum_vertices(self):
        # the lower tree 0 -e0- 1 -e1- 2 with e0 -> e0 and e1 = (2, 1) -> e0
        # folds 0 onto 2; the EG pair e2 = (0, 2), e3 = (2, 0) maps to e2 e3.
        # The enumeration is complete here and flags the path e0 e1^-1.
        graph_map = _graph_map(
            [(0, 1), (2, 1), (0, 2), (2, 0)], (0, 1, 0), [[0], [0], [4, 6], [4, 6]]
        )
        filtration = filtration_of(graph_map)
        assert [s.edges for s in filtration.strata] == [(0,), (1,), (2, 3)]
        (entry,) = verify_rtt(graph_map, filtration)["strata"]
        assert entry["condition1"] and not entry["condition3"]["violations"]
        assert entry["condition2"]["violations"] == [{"kind": "trivial", "from": 0, "to": 2}]
        assert _condition2_oracle(graph_map, filtration, 2, 8) == ([(2, 1), (0, 3)], False)

    def test_matches_enumeration_on_random_roses(self):
        rng = random.Random(2024)
        compared = flagged = 0
        for _ in range(150):
            rank = rng.randrange(2, 5)
            alphabet = Alphabet(rank)
            words = []
            for i in range(1, rank + 1):
                # images over petals up to i + 1 give a stack of strata
                petals = list(range(1, min(rank, i + 1) + 1))
                letters = ()
                while not letters:
                    raw = [rng.choice(petals) * rng.choice((1, -1)) for _ in range(rng.randrange(1, 5))]
                    letters = Word(alphabet, raw).letters
                words.append(Word(alphabet, letters))
            graph_map = graph_map_from_words(rose_marked(alphabet), words)
            c, f, _ = _compare_with_enumeration(graph_map)
            compared += c
            flagged += f
        assert compared >= 25 and flagged >= 4

    def test_matches_enumeration_on_random_two_vertex_maps(self):
        rng = random.Random(77)
        compared = flagged = complete = 0
        for _ in range(400):
            graph_map = _random_two_vertex_map(rng)
            if graph_map is not None:
                c, f, k = _compare_with_enumeration(graph_map)
                compared += c
                flagged += f
                complete += k
        assert compared >= 100 and flagged >= 20 and complete >= 20


def _paths_in_subgraph(graph, edges, endpoints, cap):
    """Oracle: tight edge paths of length <= cap inside ``edges`` joining
    two vertices of ``endpoints``."""
    allowed = [d for d in range(graph.n_darts()) if (d >> 1) in edges]
    stack = [(d,) for d in allowed if graph.dart_origin(d) in endpoints]
    while stack:
        path = stack.pop()
        head = graph.dart_head(path[-1])
        if head in endpoints:
            yield path
        if len(path) < cap:
            for d in allowed:
                if graph.dart_origin(d) == head and d != (path[-1] ^ 1):
                    stack.append(path + (d,))


def _count_longer_paths_exist(graph, edges, endpoints, cap):
    """Oracle: 1 if tight paths longer than the cap start at ``endpoints``
    inside ``edges`` (the enumeration is then truncated), else 0."""
    allowed = [d for d in range(graph.n_darts()) if (d >> 1) in edges]
    frontier = [(d,) for d in allowed if graph.dart_origin(d) in endpoints]
    for _ in range(cap):
        next_frontier = []
        for path in frontier:
            head = graph.dart_head(path[-1])
            for d in allowed:
                if graph.dart_origin(d) == head and d != (path[-1] ^ 1):
                    next_frontier.append(path + (d,))
        frontier = next_frontier
        if not frontier:
            return 0
    return 1 if frontier else 0


def _stratum_vertices(graph_map, filtration, r):
    graph = graph_map.domain.graph
    edges = set(filtration.strata[r].edges)
    return {graph.dart_origin(d) for d in range(graph.n_darts()) if (d >> 1) in edges}


def _condition2_oracle(graph_map, filtration, r, cap):
    """Oracle: (violating paths, truncated) of condition 2 for stratum r by
    enumerating the tight lower paths of length <= cap between stratum
    vertices."""
    graph = graph_map.domain.graph
    vertices = _stratum_vertices(graph_map, filtration, r)
    lower = filtration.edges_below(r)
    if not lower:
        return [], False
    violations = []
    for sigma in _paths_in_subgraph(graph, lower, vertices, cap):
        image = map_path(graph_map, sigma)
        if (
            not image
            or graph.dart_origin(image[0]) not in vertices
            or graph.dart_head(image[-1]) not in vertices
        ):
            violations.append(sigma)
    return violations, bool(_count_longer_paths_exist(graph, lower, vertices, cap))


def _compare_with_enumeration(graph_map):
    """Check every EG stratum's condition-2 verdict against enumeration.

    Each path the enumeration flags must be accounted for by a reported
    violation: a trivial image by the reported identifications (u != v) or
    by a lost loop in its component (u == v), an image off the stratum by
    an endpoint violation at one of its ends.  Where the enumeration is not
    truncated, the verdicts must agree.  Returns the number of strata whose
    lower part touches them, of those with a violation, and of those
    enumerated in full.
    """
    graph = graph_map.domain.graph
    filtration = filtration_of(graph_map)
    report = verify_rtt(graph_map, filtration)
    compared = flagged = complete = 0
    for entry in report["strata"]:
        r = entry["stratum"]
        lower = filtration.edges_below(r)
        touching = any(
            (d >> 1) in lower
            for v in _stratum_vertices(graph_map, filtration, r)
            for d in graph.darts_at(v)
        )
        cap = 8 if len(lower) <= 2 else 5
        expected, truncated = _condition2_oracle(graph_map, filtration, r, cap)
        found = entry["condition2"]["violations"]
        assert entry["condition2"]["bounded"] is False
        component = _components(graph, lower)
        identified = {v: v for v in range(graph.n_vertices)}

        def root(v):
            while identified[v] != v:
                v = identified[v]
            return v

        for violation in found:
            if violation["kind"] == "trivial" and violation["from"] != violation["to"]:
                identified[root(violation["to"])] = root(violation["from"])
        lost_loops = {
            component[v["from"]] for v in found if v["kind"] == "trivial" and v["from"] == v["to"]
        }
        off_stratum = {v["from"] for v in found if v["kind"] == "endpoint"}
        for sigma in expected:
            u, v = graph.dart_origin(sigma[0]), graph.dart_head(sigma[-1])
            if not map_path(graph_map, sigma):
                if u == v:
                    assert component[u] in lost_loops, (graph_map, sigma)
                else:
                    assert root(u) == root(v), (graph_map, sigma)
            else:
                assert u in off_stratum or v in off_stratum, (graph_map, sigma)
        if not truncated:
            assert bool(found) == bool(expected), (graph_map, r)
            complete += touching
        compared += touching
        flagged += bool(found)
    return compared, flagged, complete


def _components(graph, edges):
    """Component label (least vertex) of every vertex in the subgraph of
    ``edges``; a vertex off those edges is its own component."""
    label = list(range(graph.n_vertices))
    for v in range(graph.n_vertices):
        stack, seen = [v], {v}
        while stack:
            x = stack.pop()
            for d in graph.darts_at(x):
                y = graph.dart_head(d)
                if (d >> 1) in edges and y not in seen:
                    seen.add(y)
                    stack.append(y)
        label[v] = min(seen)
    return label


def _graph_map(edges, vertex_images, images):
    """A graph map on vertices 0..n-1 whose first n - 1 edges form the tree
    and whose other edges, in order, mark the standard basis."""
    n = len(vertex_images)
    graph = FiniteGraph(n, edges)
    alphabet = Alphabet(len(edges) - n + 1)
    loops = {e: Word(alphabet, (e - n + 2,)) for e in range(n - 1, len(edges))}
    marked = MarkedGraph(alphabet, graph, range(n - 1), loops, {})
    return GraphMapRep(marked, vertex_images, images)


def _random_two_vertex_map(rng):
    """A seeded random map on a two-vertex graph whose edge i maps to a
    tight walk over edges up to i + 1, so the strata stack up; None when no
    walk with the right ends turns up."""
    n_edges = rng.randrange(3, 6)
    edges = [(0, 1)] + [rng.choice([(0, 0), (1, 1), (0, 1), (1, 0)]) for _ in range(n_edges - 1)]
    graph = FiniteGraph(2, edges)
    if min(graph.valence(0), graph.valence(1)) < 2:
        return None
    vertex_images = (rng.randrange(2), rng.randrange(2))
    images = []
    for e, (u, v) in enumerate(edges):
        allowed = [d for d in range(2 * n_edges) if (d >> 1) <= e + 1]
        for _ in range(50):
            length = rng.randrange(1, 5)
            walk = []
            at, back = vertex_images[u], None
            while len(walk) < length:
                options = [d for d in allowed if graph.dart_origin(d) == at and d != back]
                if not options:
                    break
                walk.append(rng.choice(options))
                at, back = graph.dart_head(walk[-1]), walk[-1] ^ 1
            if walk and at == vertex_images[v]:
                images.append(walk)
                break
        else:
            return None
    return _graph_map(edges, vertex_images, images)


BUILTIN = {name: _builtin_map(name, 2) for name in ("fibonacci", "period2", "two-strata", "identity")}


def _scanned_tight_path(graph, length, rng):
    """``random_tight_path`` with each step's options found by a scan over
    all darts."""
    path = [rng.choice(range(graph.n_darts()))]
    while len(path) < length:
        head = graph.dart_head(path[-1])
        options = [
            d
            for d in range(graph.n_darts())
            if graph.dart_origin(d) == head and d != (path[-1] ^ 1)
        ]
        if not options:
            break
        path.append(rng.choice(options))
    return tuple(path)


def _map_path_oracle(graph_map, darts):
    """The image of each dart read off ``edge_images``, concatenated, then
    tightened."""
    image = []
    for d in darts:
        path = graph_map.edge_images[d >> 1]
        image.extend(path if d & 1 == 0 else [x ^ 1 for x in reversed(path)])
    return tighten(image)


def _trials_oracle(graph_map, trials, seed):
    """rtt-analyze's trials drawn with ``rng.choice`` over scanned darts, as
    (path, split, darts cancelled from each half at the junction), the
    halves mapped by ``_map_path_oracle`` and rejoined by ``tighten``."""
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        path = _scanned_tight_path(graph_map.domain.graph, rng.randrange(2, 50), rng)
        split = rng.randrange(0, len(path) + 1)
        image1, image2 = _map_path_oracle(graph_map, path[:split]), _map_path_oracle(graph_map, path[split:])
        lost = len(image1) + len(image2) - len(tighten(image1 + image2))
        out.append((list(path), split, lost // 2))
    return out


def _records(oracle, c):
    return [
        {"trial": t, "path": path, "split": split}
        for t, (path, split, overlap) in enumerate(oracle)
        if overlap > c
    ]


def _constant_map():
    """Every edge of the 3-vertex 6-edge graph onto the loop at vertex 0: no
    homotopy equivalence, so the junctions cancel without bound."""
    return _graph_map(
        [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (0, 2)], (0, 0, 0), [(6,)] * 6
    )


def _tree_fold():
    """A segment of two edges with groups at its ends, edge 1 folded onto
    edge 0: every path stops at an end of the tree."""
    marked = MarkedGraph(
        A2, FiniteGraph(3, [(0, 1), (1, 2)]), [0, 1], {}, {0: [Word(A2, (1,))], 2: [Word(A2, (2,))]}
    )
    return GraphMapRep(marked, (0, 1, 0), [(0,), (1,)])


class TestBoundedCancellation:
    def test_identity_constant(self):
        assert bcc_bound(IDENT) == 2

    def test_fibonacci_constant(self):
        assert bcc_bound(FIB) == 3

    def test_randomized_inequality(self):
        rng = random.Random(13)
        for graph_map in (FIB, PERIOD2, LOWER):
            graph = graph_map.domain.graph
            for _ in range(300):
                path = random_tight_path(graph, rng.randrange(1, 50), rng)
                split = rng.randrange(0, len(path) + 1)
                assert bcc_inequality_holds(graph_map, path[:split], path[split:])

    def test_random_tight_path_matches_dart_scan(self):
        # the turn table must hold what a scan over all darts finds, in the
        # same order, so that a seeded rng draws the same path; each graph
        # is walked twice, the second time from its kept table
        graphs = [
            *(BUILTIN[name].domain.graph for name in sorted(BUILTIN)),
            FiniteGraph(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (0, 2)]),
            FiniteGraph(3, [(0, 1), (1, 2)]),  # a tree: paths hit dead ends
        ]
        for graph in graphs:
            for _ in range(2):
                for seed, length in itertools.product(range(40), (0, 1, 25)):
                    expected = _scanned_tight_path(graph, length, random.Random(seed))
                    assert random_tight_path(graph, length, random.Random(seed)) == expected
        assert random_tight_path(FiniteGraph(1, []), 25, random.Random(0)) == ()

    def test_trial_stream_matches_dart_scan(self):
        # at c = -1 every trial is a record, so the records are the
        # (path, split) draws of rtt-analyze's 1000 trials at seed 0
        for graph_map in (BUILTIN["fibonacci"], _tree_fold()):
            draws = [(path, split) for path, split, _ in _trials_oracle(graph_map, 1000, 0)]
            records = cancellation_trials(graph_map, -1, 1000, 0)
            assert [r["trial"] for r in records] == list(range(1000))
            assert [(r["path"], r["split"]) for r in records] == draws

    def test_dart_image_table(self):
        rng = random.Random(17)
        maps = list(BUILTIN.values()) + [_random_two_vertex_map(rng) for _ in range(40)]
        for graph_map in filter(None, maps):
            for e, path in enumerate(graph_map.edge_images):
                assert graph_map.dart_image(2 * e) == path
                assert graph_map.dart_image(2 * e + 1) == tuple(d ^ 1 for d in reversed(path))

    def test_junction_overlap_against_tightening(self):
        # the kernel's overlap test against tightening the two mapped halves
        # again, on random maps, at the bound and at small constants, so
        # that both outcomes occur
        rng = random.Random(23)
        maps = [_random_two_vertex_map(rng) for _ in range(60)]
        violations = runs = 0
        for seed, graph_map in enumerate(filter(None, maps)):
            oracle = _trials_oracle(graph_map, 100, seed)
            for c in (0, 1, 2, bcc_bound(graph_map)):
                records = cancellation_trials(graph_map, c, 100, seed)
                assert records == _records(oracle, c)
                violations, runs = violations + len(records), runs + 1
        assert 0 < violations < 100 * runs

    @pytest.mark.parametrize(
        "name", ["fibonacci", "identity", "period2", "two-strata", "a,a", "abab,ab", "constant", "tree"]
    )
    def test_trial_records_match_the_choice_oracle(self, name):
        # the kernel reads getrandbits where the oracle calls rng.choice and
        # rng.randrange, and tightens in place where the oracle maps each
        # half and tightens the join
        graph_map = {
            **BUILTIN,
            "a,a": rose_map(["a", "a"]),
            "abab,ab": rose_map(["abab", "ab"]),
            "constant": _constant_map(),
            "tree": _tree_fold(),
        }[name]
        for seed in range(10):
            oracle = _trials_oracle(graph_map, 300, seed)
            for c in (0, 1, 2, bcc_bound(graph_map)):
                assert cancellation_trials(graph_map, c, 300, seed) == _records(oracle, c)
            # the public inequality agrees at c = bcc_bound, where both
            # outcomes occur on the maps that are no homotopy equivalence
            violating = {r["trial"] for r in _records(oracle, bcc_bound(graph_map))}
            for t, (path, split, _) in enumerate(oracle):
                holds = bcc_inequality_holds(graph_map, path[:split], path[split:])
                assert holds == (t not in violating)

    def test_map_path_against_concatenation(self):
        rng = random.Random(29)
        maps = list(BUILTIN.values()) + [_random_two_vertex_map(rng) for _ in range(40)]
        for graph_map in filter(None, maps):
            graph = graph_map.domain.graph
            for _ in range(50):
                # any dart sequence, tight or not
                darts = [rng.randrange(graph.n_darts()) for _ in range(rng.randrange(0, 12))]
                assert map_path(graph_map, darts) == _map_path_oracle(graph_map, darts)

    def test_actual_cancellation_occurs(self):
        # some split loses length at the junction, so the bound is needed
        graph = FIB.domain.graph
        rng = random.Random(5)
        slack_seen = False
        for _ in range(200):
            path = random_tight_path(graph, rng.randrange(2, 30), rng)
            split = rng.randrange(1, len(path))
            lhs = len(map_path(FIB, path))
            rhs = len(map_path(FIB, path[:split])) + len(map_path(FIB, path[split:]))
            if lhs < rhs:
                slack_seen = True
                break
        assert slack_seen


def _self_composite(graph_map):
    vertex_images = tuple(
        graph_map.vertex_images[v] for v in graph_map.vertex_images
    )
    edge_images = [
        map_path(graph_map, path) for path in graph_map.edge_images
    ]
    return GraphMapRep(graph_map.domain, vertex_images, edge_images)


CANCELLING = rose_map(["ab", "Ba"])


def _entries(a, b):
    """Pairs of corresponding entries of two matrices of one shape."""
    assert len(a) == len(b) and all(len(ra) == len(rb) for ra, rb in zip(a, b))
    return [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]


class TestTransitionFunctoriality:
    # whole-graph matrices: the strata of f . f need not match those of f

    def test_square_bounded_by_matrix_square(self):
        # tightening only cancels occurrences, so M(f . f) <= M(f)^2
        for graph_map in (FIB, PERIOD2, LOWER):
            m = transition_matrix(graph_map)
            m2 = transition_matrix(_self_composite(graph_map))
            assert all(x <= y for x, y in _entries(m2, mat_mul(m, m)))

    def test_equality_without_cancellation(self):
        # positive maps compose without cancellation at junctions
        m = transition_matrix(FIB)
        m2 = transition_matrix(_self_composite(FIB))
        assert m2 == mat_mul(m, m)

    def test_strict_drop_with_cancellation(self):
        # a -> ab, b -> Ba: f(f(a)) = ab Ba tightens to aa, so entry (b, a)
        # falls from 2 to 0
        m = transition_matrix(CANCELLING)
        m2 = transition_matrix(_self_composite(CANCELLING))
        assert all(x <= y for x, y in _entries(m2, mat_mul(m, m)))
        assert any(x < y for x, y in _entries(m2, mat_mul(m, m)))

    def test_strata_are_principal_submatrices(self):
        # the square of CANCELLING is reducible: two strata in a 2x2 matrix
        for graph_map in (FIB, PERIOD2, LOWER, CANCELLING, _self_composite(CANCELLING)):
            whole = transition_matrix(graph_map)
            for stratum in filtration_of(graph_map).strata:
                edges = stratum.edges
                assert stratum.matrix == tuple(tuple(whole[i][j] for j in edges) for i in edges)


class TestFileFormat:
    def test_round_trip(self):
        text = graph_map_str(FIB)
        parsed = parse_graph_map(A2, text)
        assert parsed.edge_images == FIB.edge_images
        assert parsed.vertex_images == FIB.vertex_images

    def test_backtracking_image_names_its_edge(self):
        text = graph_map_str(FIB).replace("1 -> 0+", "1 -> 0+,1+,1-")
        with pytest.raises(ValueError, match="image of edge 1 has backtracking"):
            parse_graph_map(A2, text)

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("1 -> 0+", "1 -> 0x", "'1 -> 0x'"),
            ("1 -> 0+", "1 -> 0+\n7 -> 0+", "'7 -> 0+'"),
            ("1 -> 0+", "1 -> 0+\n1 -> 1+", "'1 -> 1+'"),
            ("1 -> 0+", "", "'1 -> path'"),
            ("loop 1 b", "", "'loop 1 word'"),
            ("V 1", "V", "'V'"),
            ("loop 1 b", "loop", "'loop'"),
            ("loop 1 b", "loop 1 b\nloop 1 a", "'loop 1 a'"),
            ("vertices 0", "vertices 0\nvertices 0", "'vertices'"),
            ("1 -> 0+", "1 -> 5+", "'1 -> 5+'"),
        ],
        ids=["sign", "no-such-edge", "repeated-edge", "missing-edge", "missing-loop",
             "bare-V", "bare-loop", "repeated-loop", "repeated-vertices",
             "dart-past-graph"],
    )
    def test_malformed_text_names_its_line(self, old, new, named):
        # FIB's text is "V 1 / 0 0 / 0 0 / tree / loop 0 a / loop 1 b /
        # vertices 0 / 0 -> 0+,1+ / 1 -> 0+", one item a line
        text = graph_map_str(FIB)
        assert text.count(old) == 1
        with pytest.raises(ValueError, match=re.escape(named)):
            parse_graph_map(A2, text.replace(old, new))

    def test_reports_strata_order(self):
        filt = filtration_of(LOWER)
        assert filt.stratum_of_edge(0) == 0
        assert filt.stratum_of_edge(1) == 1
