import itertools
import random

import pytest

from aperiodic_lab.graphs import (
    FiniteGraph,
    GraphAutomorphism,
    IvanovOutcome,
    TheoremViolation,
    _acts_trivially_mod3,
    _isomorphisms,
    _lemma_data,
    connected_multigraphs,
    dart_letters,
    enumerate_automorphisms,
    graph_str,
    h1_action_mod3,
    h1_basis,
    is_circle,
    ivanov_check,
    loop_image_letters,
    parse_graph,
)
from aperiodic_lab.homology import identity_matrix, mat_mod, mat_mul
from aperiodic_lab.splittings import MarkedGraph
from aperiodic_lab.words import Alphabet

ROSE2 = FiniteGraph(1, [(0, 0), (0, 0)])
SEGMENT = FiniteGraph(2, [(0, 1)])
TRIANGLE = FiniteGraph(3, [(0, 1), (1, 2), (0, 2)])
THETA = FiniteGraph(2, [(0, 1), (0, 1), (0, 1)])
LOOP = FiniteGraph(1, [(0, 0)])
A2 = Alphabet(2)


def read_rows(graph, rows):
    """(vertex images, dart images) of each packed row of an isomorphism
    search from ``graph``."""
    n, width = graph.n_vertices, graph.n_vertices + graph.n_darts()
    return [
        (tuple(rows[i : i + n]), tuple(rows[i + n : i + width]))
        for i in range(0, len(rows), width)
    ]


def petal_swap():
    # swap the two petals keeping orientations
    return GraphAutomorphism(ROSE2, (0,), (2, 3, 0, 1))


class TestEnumeration:
    def test_segment_has_two(self):
        assert len(enumerate_automorphisms(SEGMENT)) == 2

    def test_rose2_has_eight(self):
        assert len(enumerate_automorphisms(ROSE2)) == 8

    def test_triangle_is_dihedral(self):
        assert len(enumerate_automorphisms(TRIANGLE)) == 6

    def test_closure_under_composition_and_inverse(self):
        autos = enumerate_automorphisms(THETA)
        table = set(autos)
        for f in autos:
            assert f.inverse() in table
            for g in autos:
                assert f.compose(g) in table

    def test_every_enumerated_automorphism_passes_the_constructor(self):
        # enumeration skips the constructor's checks; the validating
        # constructor must accept each result and rebuild it unchanged
        checked = 0
        for graph in connected_multigraphs(4):
            autos = enumerate_automorphisms(graph)
            assert len(set(autos)) == len(autos)
            for f in autos:
                assert GraphAutomorphism(graph, f.vertex_perm, f.dart_perm) == f
                checked += 1
        assert checked == 800

    def test_matches_brute_force(self):
        # every vertex permutation with every signed edge permutation,
        # kept when the validating constructor accepts it
        for graph in connected_multigraphs(4):
            oracle = set()
            for vp in itertools.permutations(range(graph.n_vertices)):
                for edge_perm in itertools.permutations(range(graph.n_edges)):
                    for flips in itertools.product((0, 1), repeat=graph.n_edges):
                        dp = [0] * graph.n_darts()
                        for e, (image, flip) in enumerate(zip(edge_perm, flips)):
                            dp[2 * e], dp[2 * e + 1] = 2 * image + flip, 2 * image + 1 - flip
                        try:
                            oracle.add(GraphAutomorphism(graph, vp, dp))
                        except ValueError:
                            pass
            autos = enumerate_automorphisms(graph)
            assert len(autos) == len(oracle) and set(autos) == oracle
            # the packed rows, read without building an automorphism
            rows = read_rows(graph, autos.rows)
            assert len(rows) == len(oracle)
            assert set(rows) == {(f.vertex_perm, f.dart_perm) for f in oracle}

    @pytest.mark.parametrize(
        "graph, count",
        [
            (FiniteGraph(0, ()), 1),
            (FiniteGraph(1, ()), 1),
            (FiniteGraph(3, ()), 6),
            (FiniteGraph(2, [(0, 0), (1, 1)]), 8),
            (FiniteGraph(3, [(0, 0)]), 4),
            (FiniteGraph(4, [(0, 1), (2, 3)]), 8),
        ],
        ids=["empty", "point", "three-points", "two-loops", "loop-and-points", "two-segments"],
    )
    def test_small_and_disconnected_graphs(self, graph, count):
        autos = enumerate_automorphisms(graph)
        assert len(set(autos)) == len(autos) == count
        for f in autos:
            assert GraphAutomorphism(graph, f.vertex_perm, f.dart_perm) == f
        assert autos[0].is_identity() and autos[-1] == autos[count - 1]
        assert len(autos.rows) == count * (graph.n_vertices + graph.n_darts())

    def test_isomorphisms_between_relabelings(self):
        # a relabeled copy has as many isomorphisms onto it as the graph
        # has automorphisms, and each row carries incidence across
        rng = random.Random(9)
        for graph in connected_multigraphs(4):
            relabel = list(range(graph.n_vertices))
            rng.shuffle(relabel)
            edges = [
                (relabel[v], relabel[u]) if rng.random() < 0.5 else (relabel[u], relabel[v])
                for u, v in graph.edges
            ]
            rng.shuffle(edges)
            copy = FiniteGraph(graph.n_vertices, edges)
            rows = _isomorphisms(graph, copy, False)
            found = read_rows(graph, rows)
            assert len(set(found)) == len(found) == len(enumerate_automorphisms(graph))
            for vp, dp in found:
                assert sorted(vp) == list(range(graph.n_vertices))
                assert sorted(dp) == list(range(graph.n_darts()))
                for d in range(graph.n_darts()):
                    assert dp[d ^ 1] == dp[d] ^ 1
                    assert copy.dart_origin(dp[d]) == vp[graph.dart_origin(d)]
            # the search for one isomorphism stops at the first row
            width = graph.n_vertices + graph.n_darts()
            assert _isomorphisms(graph, copy, True) == rows[:width]

    def test_no_isomorphism_gives_no_row(self):
        assert _isomorphisms(TRIANGLE, THETA, True) == bytearray()
        assert _isomorphisms(SEGMENT, LOOP, False) == bytearray()
        assert _isomorphisms(FiniteGraph(2, [(0, 0)]), SEGMENT, False) == bytearray()

    def test_search_refuses_rows_past_a_byte(self):
        many = FiniteGraph(256, ())
        with pytest.raises(ValueError, match="at most 255"):
            _isomorphisms(many, many, True)

    def test_packed_sequence(self):
        autos = enumerate_automorphisms(THETA)
        listed = list(autos)
        assert len(autos) == len(listed) == 12
        assert [autos[i] for i in range(12)] == listed
        assert [autos[i] for i in range(-12, 0)] == listed
        for index in (12, -13):
            with pytest.raises(IndexError):
                autos[index]
        assert isinstance(autos.rows, bytes)
        assert len(autos.rows) == 12 * (THETA.n_vertices + THETA.n_darts())
        with pytest.raises(AttributeError):
            autos.rows = b""

    def test_size_cap(self):
        big = FiniteGraph(1, [(0, 0)] * 11)
        with pytest.raises(ValueError):
            enumerate_automorphisms(big)


class TestH1Action:
    def test_identity_matrix(self):
        ident = [f for f in enumerate_automorphisms(THETA) if f.is_identity()][0]
        assert h1_action_mod3(THETA, ident) == identity_matrix(2)

    def test_petal_swap_swaps_basis(self):
        assert h1_action_mod3(ROSE2, petal_swap()) == ((0, 1), (1, 0))

    def test_circle_rotation_acts_trivially(self):
        rotations = [
            f
            for f in enumerate_automorphisms(TRIANGLE)
            if ivanov_check(TRIANGLE, f) == IvanovOutcome.CIRCLE_ROTATION
        ]
        assert rotations
        for f in rotations:
            assert h1_action_mod3(TRIANGLE, f) == ((1,),)

    def test_functorial(self):
        autos = enumerate_automorphisms(THETA)
        rng = random.Random(0)
        for _ in range(15):
            f, g = rng.choice(autos), rng.choice(autos)
            lhs = h1_action_mod3(THETA, f.compose(g))
            rhs = mat_mod(mat_mul(h1_action_mod3(THETA, f), h1_action_mod3(THETA, g)), 3)
            assert lhs == rhs

    def test_disconnected_rejected(self):
        two_loops = FiniteGraph(2, [(0, 0), (1, 1)])
        ident = GraphAutomorphism(two_loops, (0, 1), (0, 1, 2, 3))
        with pytest.raises(ValueError):
            h1_action_mod3(two_loops, ident)


class TestIvanovCheck:
    def test_identity_on_theta(self):
        ident = [f for f in enumerate_automorphisms(THETA) if f.is_identity()][0]
        assert ivanov_check(THETA, ident) == IvanovOutcome.IDENTITY

    def test_triangle_rotation(self):
        outcomes = {
            ivanov_check(TRIANGLE, f) for f in enumerate_automorphisms(TRIANGLE)
        }
        assert IvanovOutcome.CIRCLE_ROTATION in outcomes

    def test_petal_swap_fails_hypothesis(self):
        assert ivanov_check(ROSE2, petal_swap()) == IvanovOutcome.HYPOTHESIS_FAILS

    def test_loop_inversion_fails_hypothesis(self):
        inversions = [
            f for f in enumerate_automorphisms(LOOP) if not f.is_identity()
        ]
        assert inversions
        for f in inversions:
            assert ivanov_check(LOOP, f) == IvanovOutcome.HYPOTHESIS_FAILS

    def test_leaf_mover_fails_hypothesis(self):
        flip = [
            f for f in enumerate_automorphisms(SEGMENT) if not f.is_identity()
        ][0]
        assert ivanov_check(SEGMENT, flip) == IvanovOutcome.HYPOTHESIS_FAILS

    def test_is_circle(self):
        assert is_circle(TRIANGLE) and is_circle(LOOP)
        assert not is_circle(THETA) and not is_circle(SEGMENT)

    def test_exhaustive_up_to_four_edges(self):
        # every automorphism of every connected multigraph classifies
        # without a TheoremViolation
        count = 0
        for graph in connected_multigraphs(4):
            for f in enumerate_automorphisms(graph):
                ivanov_check(graph, f)
                count += 1
        assert count > 500


    def test_basis_and_leaves_once_per_graph(self, monkeypatch):
        import aperiodic_lab.graphs as graphs_module

        calls = []
        original = graphs_module.h1_basis

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(graphs_module, "h1_basis", counting)
        n_graphs = 0
        for graph in connected_multigraphs(3):
            n_graphs += 1
            for f in enumerate_automorphisms(graph):
                ivanov_check(graph, f)
                h1_action_mod3(graph, f)
        assert len(calls) == n_graphs

    def test_trivial_action_against_matrix(self):
        # the loop-by-loop test with early exit against the whole matrix
        for graph in connected_multigraphs(5):
            _, loops, letters = _lemma_data(graph)
            for f in enumerate_automorphisms(graph):
                trivial = h1_action_mod3(graph, f) == identity_matrix(len(loops))
                assert _acts_trivially_mod3(loops, letters, f) == trivial, (graph, f)

    def test_five_edge_outcomes(self):
        outcomes = {}
        for graph in connected_multigraphs(5):
            for f in enumerate_automorphisms(graph):
                name = ivanov_check(graph, f).name
                outcomes[name] = outcomes.get(name, 0) + 1
        assert outcomes == {"IDENTITY": 142, "HYPOTHESIS_FAILS": 6554, "CIRCLE_ROTATION": 10}

    def test_disconnected_rejected(self):
        two_loops = FiniteGraph(2, [(0, 0), (1, 1)])
        ident = GraphAutomorphism(two_loops, (0, 1), (0, 1, 2, 3))
        for _ in range(2):
            with pytest.raises(ValueError):
                ivanov_check(two_loops, ident)


def _bfs_tree_oracle(graph, root=0):
    """The BFS tree as the dart scan built it: darts found by testing every
    dart's origin, a queue popped from the front."""
    parent_dart, tree_edges, seen, queue = {}, [], {root}, [root]
    while queue:
        v = queue.pop(0)
        for d in [d for d in range(graph.n_darts()) if graph.dart_origin(d) == v]:
            w = graph.dart_head(d)
            if w not in seen:
                seen.add(w)
                parent_dart[w] = d
                tree_edges.append(d >> 1)
                queue.append(w)
    return parent_dart, tree_edges


class TestIncidence:
    def test_darts_at_matches_origin_scan(self):
        rng = random.Random(5)
        for graph in list(connected_multigraphs(4)) + [FiniteGraph(0, ())]:
            edges = list(graph.edges)
            rng.shuffle(edges)
            for g in (graph, FiniteGraph(graph.n_vertices, edges)):
                for v in range(g.n_vertices):
                    scan = [d for d in range(g.n_darts()) if g.dart_origin(d) == v]
                    assert list(g.darts_at(v)) == scan
                    assert g.valence(v) == len(scan)

    def test_spanning_tree_is_the_bfs_tree(self):
        rng = random.Random(6)
        for graph in connected_multigraphs(4):
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges]
            rng.shuffle(edges)
            for g in (graph, FiniteGraph(graph.n_vertices, edges)):
                assert g.spanning_tree() == _bfs_tree_oracle(g)[1]

    def test_is_connected_matches_dfs(self):
        rng = random.Random(7)
        for graph in connected_multigraphs(4):
            n, edges = graph.n_vertices, list(graph.edges)
            # a second component, or an isolated vertex, disconnects it
            plus_loop = FiniteGraph(n + 1, edges + [(n, n)])
            plus_vertex = FiniteGraph(n + 1, edges)
            rng.shuffle(edges)
            for g in (graph, FiniteGraph(n, edges), plus_loop, plus_vertex):
                assert g.is_connected() == _dfs_connected_oracle(g)
        for g in (FiniteGraph(0, ()), FiniteGraph(1, ()), FiniteGraph(2, ())):
            assert g.is_connected() == _dfs_connected_oracle(g)


def _dfs_connected_oracle(graph):
    """Connectivity by a depth-first search from vertex 0."""
    if graph.n_vertices == 0:
        return True
    seen, stack = {0}, [0]
    while stack:
        for d in graph.darts_at(stack.pop()):
            w = graph.dart_head(d)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.n_vertices


def _random_spanning_tree(graph, rng):
    """Edge ids of a spanning tree of a connected graph: the edges, in a
    shuffled order, that join two components so far."""
    component = list(range(graph.n_vertices))

    def find(v):
        while component[v] != v:
            v = component[v]
        return v

    order = list(range(graph.n_edges))
    rng.shuffle(order)
    tree = []
    for e in order:
        u, v = (find(x) for x in graph.edges[e])
        if u != v:
            component[u] = v
            tree.append(e)
    return tree


def _loops_from_parent_darts(graph, parent_dart, tree_edges):
    """Fundamental loops read from parent darts, walking each tree path up
    to vertex 0 and reversing it."""

    def path_to(v):
        path = []
        while v != 0:
            path.append(parent_dart[v])
            v = graph.dart_origin(parent_dart[v])
        return path[::-1]

    tree = set(tree_edges)
    return {
        e: path_to(u) + [2 * e] + [d ^ 1 for d in reversed(path_to(v))]
        for e, (u, v) in enumerate(graph.edges)
        if e not in tree
    }


def _loop_letters_oracle(loops, f):
    """Image loops read through an edge-to-letter index."""
    index = {e: i for i, e in enumerate(loops, 1)}
    images = []
    for loop in loops.values():
        letters = []
        for d in loop:
            d = f.dart_perm[d]
            if d >> 1 in index:
                letters.append(index[d >> 1] if d & 1 == 0 else -index[d >> 1])
        images.append(letters)
    return images


class TestDartLetters:
    def test_table_marks_non_tree_darts(self):
        graph = FiniteGraph(3, [(0, 1), (1, 2), (2, 0), (1, 1)])
        loops = graph.fundamental_loops([0, 1])
        assert dart_letters(graph, loops) == (0, 0, 0, 0, 1, -1, 2, -2)

    def test_image_letters_on_any_tree(self):
        rng = random.Random(11)
        for graph in connected_multigraphs(4):
            for loops in (h1_basis(graph), graph.fundamental_loops(_random_spanning_tree(graph, rng))):
                letters = dart_letters(graph, loops)
                for f in enumerate_automorphisms(graph):
                    assert loop_image_letters(loops, letters, f) == _loop_letters_oracle(loops, f)


class TestFundamentalLoops:
    def test_loops_of_every_small_graph(self):
        rng = random.Random(8)
        for graph in connected_multigraphs(4):
            bfs = graph.spanning_tree()
            for tree in (bfs, _random_spanning_tree(graph, rng)):
                loops = graph.fundamental_loops(tree)
                assert list(loops) == [e for e in range(graph.n_edges) if e not in tree]
                for e, loop in loops.items():
                    # a closed dart path at vertex 0
                    assert graph.dart_origin(loop[0]) == 0 == graph.dart_head(loop[-1])
                    for d1, d2 in zip(loop, loop[1:]):
                        assert graph.dart_head(d1) == graph.dart_origin(d2)
                    # its own edge once, forward; tree darts otherwise
                    assert loop.count(2 * e) == 1 and 2 * e + 1 not in loop
                    assert all(d >> 1 in tree for d in loop if d >> 1 != e)
            parent_dart, oracle_tree = _bfs_tree_oracle(graph)
            assert graph.fundamental_loops(bfs) == _loops_from_parent_darts(
                graph, parent_dart, oracle_tree
            )

    @pytest.mark.parametrize(
        "graph, tree",
        [
            (FiniteGraph(2, [(0, 0), (1, 1)]), []),  # disconnected graph
            (FiniteGraph(2, [(0, 1), (0, 1), (0, 0)]), [0, 1]),  # spans, with a cycle
            (FiniteGraph(3, [(0, 1), (1, 0), (1, 2), (2, 2)]), [0, 1]),  # n - 1 edges, a cycle
            (FiniteGraph(2, [(0, 0), (0, 1), (0, 1)]), [0]),  # a loop reaches nothing
            (FiniteGraph(3, [(0, 1), (1, 2), (2, 2)]), [0]),  # too few edges
            (FiniteGraph(2, [(0, 1), (1, 1)]), [5]),  # no such edge
        ],
        ids=["disconnected", "spanning-cycle", "cycle", "loop", "short", "no-edge"],
    )
    def test_non_trees_rejected(self, graph, tree, monkeypatch):
        with pytest.raises(ValueError, match="span"):
            graph.fundamental_loops(tree)
        with pytest.raises(ValueError, match="span"):
            MarkedGraph(A2, graph, tree, {}, {})
        # ivanov_check reads the graph through its own spanning tree; handed
        # this one instead, it must refuse it too
        monkeypatch.setattr(FiniteGraph, "spanning_tree", lambda self: tree)
        ident = GraphAutomorphism(graph, range(graph.n_vertices), range(graph.n_darts()))
        with pytest.raises(ValueError, match="span"):
            ivanov_check(graph, ident)


class TestGeneration:
    def test_counts_small(self):
        by_edges = {}
        for g in connected_multigraphs(2):
            by_edges.setdefault(g.n_edges, []).append(g)
        # 1 edge: loop, segment
        # 2 edges: double loop, loop + pendant edge, double edge, path
        assert len(by_edges[1]) == 2
        assert len(by_edges[2]) == 4

    def test_counts_by_edges(self):
        graphs, autos = {}, {}
        for g in connected_multigraphs(5):
            graphs[g.n_edges] = graphs.get(g.n_edges, 0) + 1
            autos[g.n_edges] = autos.get(g.n_edges, 0) + len(enumerate_automorphisms(g))
        assert graphs == {1: 2, 2: 4, 3: 11, 4: 30, 5: 95}
        assert autos == {1: 4, 2: 16, 3: 102, 4: 678, 5: 5906}

    def test_no_isomorphic_duplicates(self):
        def brute_iso(g1, g2):
            if (g1.n_vertices, g1.n_edges) != (g2.n_vertices, g2.n_edges):
                return False
            target = sorted((min(u, v), max(u, v)) for u, v in g2.edges)
            return any(
                sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g1.edges)
                == target
                for p in itertools.permutations(range(g1.n_vertices))
            )

        graphs = list(connected_multigraphs(4))
        for a, b in itertools.combinations(graphs, 2):
            assert not brute_iso(a, b)

    def test_connectivity(self):
        for g in connected_multigraphs(3):
            assert g.is_connected()


class TestTextFormats:
    def test_graph_round_trip(self):
        text = graph_str(THETA)
        assert parse_graph(text) == THETA

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            GraphAutomorphism(SEGMENT, (0, 0), (0, 1))
        with pytest.raises(ValueError):
            GraphAutomorphism(SEGMENT, (1, 0), (0, 1))
