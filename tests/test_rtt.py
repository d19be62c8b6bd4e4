import math
import random

import numpy as np
import pytest

from aperiodic_lab.rtt import (
    Filtration,
    VerificationFailed,
    aperiodic_partition,
    bcc_bound,
    bcc_inequality_holds,
    classify_stratum,
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
from aperiodic_lab.graphs import FiniteGraph
from aperiodic_lab.splittings import GraphMapRep, graph_map_from_words, rose_marked
from aperiodic_lab.words import Alphabet, parse_word

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
        graph = FIB.domain.graph
        assert tighten(graph, (0, 1)) == ()

    def test_already_tight(self):
        graph = FIB.domain.graph
        assert tighten(graph, (0, 2)) == (0, 2)

    def test_inner_cancellation(self):
        graph = FIB.domain.graph
        assert tighten(graph, (0, 2, 3, 0)) == (0, 0)

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
            once = tighten(graph, path)
            assert tighten(graph, once) == once
            assert len(once) <= len(path)


class TestFiltration:
    def test_fibonacci_single_stratum(self):
        filt = filtration_of(FIB)
        assert len(filt.strata) == 1
        assert filt.strata[0].matrix.tolist() == [[1, 1], [1, 0]]

    def test_lower_triangular_two_strata(self):
        filt = filtration_of(LOWER)
        assert len(filt.strata) == 2
        # the a-edge stratum must come first: b maps over a
        assert filt.strata[0].edges == (0,)
        assert all(s.kind == "NEG" for s in filt.strata)

    def test_identity_all_unit_strata(self):
        filt = filtration_of(IDENT)
        assert len(filt.strata) == 2
        assert all(s.matrix.tolist() == [[1]] for s in filt.strata)

    def test_invariance_of_initial_unions(self):
        for graph_map in (FIB, PERIOD2, LOWER, IDENT):
            filt = filtration_of(graph_map)
            for r in range(len(filt.strata)):
                union = filt.edges_below(r + 1)
                for e in union:
                    image_edges = {d >> 1 for d in graph_map.edge_images[e]}
                    assert image_edges <= union

    def test_untight_rejected(self):
        rose = rose_marked(A2)
        bad = GraphMapRep(rose, (0,), [(0, 1, 0), (2,)])
        with pytest.raises(ValueError):
            filtration_of(bad)


class TestClassification:
    def test_golden_ratio(self):
        kind, lam = classify_stratum(filtration_of(FIB).strata[0])
        assert kind == "EG"
        assert abs(lam - GOLDEN) < 1e-8

    def test_permutation_is_neg(self):
        kind, lam = classify_stratum(filtration_of(rose_map(["b", "a"])).strata[0])
        assert kind == "NEG" and lam == 1.0

    def test_doubling(self):
        kind, lam = classify_stratum(filtration_of(PERIOD2).strata[0])
        assert kind == "EG" and abs(lam - 2.0) < 1e-8

    def test_pf_row_sum_bounds(self):
        for graph_map in (FIB, PERIOD2):
            stratum = filtration_of(graph_map).strata[0]
            sums = stratum.matrix.sum(axis=1)
            assert sums.min() - 1e-9 <= stratum.pf_eigenvalue <= sums.max() + 1e-9


class TestAperiodicPartition:
    def test_fibonacci_aperiodic(self):
        part = aperiodic_partition(FIB, filtration_of(FIB).strata[0])
        assert part["aperiodic"] and part["period"] == 1
        # cross-check: some power of the matrix is positive
        m = np.array([[1, 1], [1, 0]])
        assert (np.linalg.matrix_power(m, 2) > 0).all()

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

    return TransitionMatrix((0,), np.zeros((1, 1), dtype=np.int64))


class TestTurns:
    def test_identity_no_illegal(self):
        assert not illegal_turns(IDENT)["illegal"]

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
        # the per-vertex dart lists must hold what a scan over all darts
        # finds, in the same order, so that a seeded rng draws the same path
        def scanned(graph, length, rng):
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

        graphs = [
            FIB.domain.graph,
            FiniteGraph(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (0, 2)]),
            FiniteGraph(3, [(0, 1), (1, 2)]),  # a tree: paths hit dead ends
        ]
        for graph in graphs:
            for seed in range(40):
                expected = scanned(graph, 25, random.Random(seed))
                assert random_tight_path(graph, 25, random.Random(seed)) == expected

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


class TestTransitionFunctoriality:
    # whole-graph matrices: the strata of f . f need not match those of f

    def test_square_bounded_by_matrix_square(self):
        # tightening only cancels occurrences, so M(f . f) <= M(f)^2
        for graph_map in (FIB, PERIOD2, LOWER):
            m = transition_matrix(graph_map)
            m2 = transition_matrix(_self_composite(graph_map))
            assert (m2 <= m @ m).all()

    def test_equality_without_cancellation(self):
        # positive maps compose without cancellation at junctions
        m = transition_matrix(FIB)
        m2 = transition_matrix(_self_composite(FIB))
        assert (m2 == m @ m).all()

    def test_strict_drop_with_cancellation(self):
        # a -> ab, b -> Ba: f(f(a)) = ab Ba tightens to aa, so entry (b, a)
        # falls from 2 to 0
        m = transition_matrix(CANCELLING)
        m2 = transition_matrix(_self_composite(CANCELLING))
        assert (m2 <= m @ m).all()
        assert (m2 < m @ m).any()

    def test_strata_are_principal_submatrices(self):
        # the square of CANCELLING is reducible: two strata in a 2x2 matrix
        for graph_map in (FIB, PERIOD2, LOWER, CANCELLING, _self_composite(CANCELLING)):
            whole = transition_matrix(graph_map)
            for stratum in filtration_of(graph_map).strata:
                edges = stratum.edges
                assert (stratum.matrix == whole[np.ix_(edges, edges)]).all()


class TestFileFormat:
    def test_round_trip(self):
        text = graph_map_str(FIB)
        parsed = parse_graph_map(A2, text)
        assert parsed.edge_images == FIB.edge_images
        assert parsed.vertex_images == FIB.vertex_images

    def test_reports_strata_order(self):
        filt = filtration_of(LOWER)
        assert filt.stratum_of_edge(0) == 0
        assert filt.stratum_of_edge(1) == 1
