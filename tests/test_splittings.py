import random

import pytest

from aperiodic_lab.aut import (
    FreeAutomorphism,
    ad,
    compose,
    identity_automorphism,
    inverse,
    inversion,
    is_inner,
    outer_eq,
    sample,
    standard_generators,
    swap,
    transvection,
)
from aperiodic_lab.graphs import FiniteGraph
from aperiodic_lab.splittings import (
    GraphMapRep,
    MarkedGraph,
    edge_of_groups,
    graph_map_from_words,
    induced_ffs,
    induced_outer,
    invariance_test,
    marked_graph_str,
    parse_marked_graph,
    rose_marked,
    splitting_orbit_period,
    suspension_presentation,
    theta_marked,
    twist_descriptor,
    vertex_homology_image,
)
from aperiodic_lab.subgroups import OrbitOutcome, conjugacy_eq, subgroup_class
from aperiodic_lab.words import Alphabet, Word, parse_word

A2 = Alphabet(2)
A3 = Alphabet(3)


def w(text, alphabet=A2):
    return parse_word(alphabet, text)


def segment():
    return edge_of_groups(A2, [w("a")], [w("b")])


THETA = FiniteGraph(2, [(0, 1), (0, 1), (0, 1)])


def theta_with_tree(tree_edge):
    """The theta graph marked for F_2 with the given tree edge; the other
    two edges, in increasing order, are marked a and b.  A graph
    automorphism permuting the edges carries any of these markings to any
    other, so all three are one marked graph."""
    first, second = (e for e in range(3) if e != tree_edge)
    return MarkedGraph(
        A2, THETA, [tree_edge], {first: w("a"), second: w("b")}, {}, identity_automorphism(A2)
    )


class TestMarkedGraphValidation:
    def test_rank_bookkeeping(self):
        with pytest.raises(ValueError):
            # one loop marked for F_2 with no vertex groups
            MarkedGraph(
                A2,
                FiniteGraph(1, [(0, 0)]),
                [],
                {0: w("a")},
                {},
                identity_automorphism(A2),
            )

    def test_valence_one_needs_group(self):
        with pytest.raises(ValueError):
            edge_of_groups(A2, [w("a"), w("b")], [])

    def test_witness_must_match_marking(self):
        with pytest.raises(ValueError):
            MarkedGraph(
                A2,
                FiniteGraph(1, [(0, 0), (0, 0)]),
                [],
                {0: w("b"), 1: w("a")},
                {},
                identity_automorphism(A2),
            )


    def test_tree_with_cycle_rejected(self):
        # tree edges 0 and 1 form a 2-cycle that misses vertex 2
        graph = FiniteGraph(3, [(0, 1), (1, 0), (1, 2), (2, 2)])
        with pytest.raises(ValueError, match="span"):
            MarkedGraph(
                A2, graph, [0, 1], {2: w("a"), 3: w("b")}, {}, identity_automorphism(A2)
            )

    def test_tree_must_span(self):
        # a loop edge as the "tree" leaves vertex 1 unreached
        graph = FiniteGraph(2, [(0, 0), (0, 1), (0, 1)])
        with pytest.raises(ValueError, match="span"):
            MarkedGraph(
                A2, graph, [0], {1: w("a"), 2: w("b")}, {}, identity_automorphism(A2)
            )

    def test_parser_rejects_tree_with_cycle(self):
        text = "V 3\n0 1\n1 0\n1 2\n2 2\ntree 0 1\nloop 2 a\nloop 3 b\n"
        with pytest.raises(ValueError, match="span"):
            parse_marked_graph(A2, text)

class TestInvarianceTest:
    def test_rose_swap_found(self):
        assert invariance_test(rose_marked(A2), swap(A2, 1, 2)) is not None

    def test_rose_transvection_absent(self):
        assert invariance_test(rose_marked(A2), transvection(A2, 1, 2)) is None

    def test_identity_always_found(self):
        for marked in (rose_marked(A2), segment(), theta_marked(A2)):
            assert invariance_test(marked, identity_automorphism(A2)) is not None

    def test_identity_found_for_every_theta_tree(self):
        for tree_edge in range(3):
            marked = theta_with_tree(tree_edge)
            assert invariance_test(marked, identity_automorphism(A2)) is not None

    def test_theta_verdicts_agree_across_trees(self):
        # one marked graph written with three trees must get one verdict
        gens = standard_generators(2, "nielsen") + [transvection(A2, 2, 1), ad(w("ab"))]
        verdicts = []
        for phi in gens + [compose(g, h) for g in gens for h in gens]:
            found = {invariance_test(theta_with_tree(t), phi) is not None for t in range(3)}
            assert len(found) == 1, phi
            verdicts.extend(found)
        assert True in verdicts and False in verdicts

    def test_segment_swap_exchanges_vertices(self):
        h = invariance_test(segment(), swap(A2, 1, 2))
        assert h is not None and h.vertex_perm == (1, 0)

    def test_segment_inversion_found(self):
        # inverts one vertex group: classes preserved, so invariant
        assert invariance_test(segment(), inversion(A2, 1)) is not None

    def test_segment_transvection_absent(self):
        assert invariance_test(segment(), transvection(A2, 1, 2)) is None

    def test_inner_automorphisms_always_found(self):
        rng = random.Random(6)
        for marked in (rose_marked(A2), segment(), theta_marked(A2)):
            for _ in range(5):
                word = Word(
                    A2, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(4))]
                )
                assert invariance_test(marked, ad(word)) is not None

    def test_stabilizer_closed_under_composition(self):
        marked = rose_marked(A2)
        found = [
            phi
            for phi in (
                swap(A2, 1, 2),
                inversion(A2, 1),
                inversion(A2, 2),
                identity_automorphism(A2),
            )
            if invariance_test(marked, phi) is not None
        ]
        for phi in found:
            for psi in found:
                assert invariance_test(marked, compose(phi, psi)) is not None


class TestSplittingOrbit:
    def test_rose_swap_period_one(self):
        assert splitting_orbit_period(rose_marked(A2), swap(A2, 1, 2)) == OrbitOutcome(
            "Period", 1
        )

    def test_segment_swap_period_one(self):
        assert splitting_orbit_period(segment(), swap(A2, 1, 2)) == OrbitOutcome(
            "Period", 1
        )

    def test_asymmetric_rose_control_period_two(self):
        asym = rose_marked(A2, [w("a"), w("ab")], [w("a"), w("Ab")])
        out = splitting_orbit_period(asym, swap(A2, 1, 2), max_iter=4)
        assert out == OrbitOutcome("Period", 2)

    def test_growth_hits_cap(self):
        out = splitting_orbit_period(
            rose_marked(A2), transvection(A2, 1, 2), max_iter=40, length_cap=30
        )
        assert out.kind == "Blowup"

    def test_sampled_ia3_never_properly_periodic(self):
        gens = standard_generators(2, "ia3")
        rng = random.Random(8)
        pool = [rose_marked(A2), segment(), theta_marked(A2)]
        for _ in range(15):
            phi = sample(gens, 3, rng.randrange(2**32))
            for marked in pool:
                out = splitting_orbit_period(marked, phi, max_iter=6, length_cap=2000)
                assert not (out.kind == "Period" and out.period > 1)


class TestInducedFFS:
    def test_rose_single_vertex_empty_system(self):
        system = induced_ffs(rose_marked(A2), [], extra_vertices=[0])
        assert len(system.classes) == 0

    def test_segment_both_vertices(self):
        system = induced_ffs(segment(), [], extra_vertices=[0, 1])
        assert len(system.classes) == 2
        assert system.grushko_rank() == 2

    def test_segment_full_subforest_joins(self):
        system = induced_ffs(segment(), [0])
        assert len(system.classes) == 1
        assert system.classes[0].rank() == 2

    def test_theta_one_vertex_empty(self):
        system = induced_ffs(theta_marked(A2), [], extra_vertices=[0])
        assert len(system.classes) == 0

    def test_missing_group_vertex_rejected(self):
        with pytest.raises(ValueError):
            induced_ffs(segment(), [], extra_vertices=[0])

    def test_non_tree_edges_rejected(self):
        with pytest.raises(ValueError):
            induced_ffs(theta_marked(A2), [1])

    def test_below_full_system_with_rank_bookkeeping(self):
        from aperiodic_lab.subgroups import basis_ffs, ffs_poset_leq

        system = induced_ffs(segment(), [], extra_vertices=[0, 1])
        full = basis_ffs(A2, [[1, 2]])
        assert ffs_poset_leq(system, full) is True
        assert full.grushko_rank() <= system.grushko_rank()


class TestVertexHomology:
    def test_cyclic_group_span(self):
        assert vertex_homology_image(segment(), 0) == ((1, 0),)

    def test_trivial_group_zero(self):
        assert vertex_homology_image(rose_marked(A2), 0) == ()

    def test_ab_generator(self):
        marked = edge_of_groups(
            A2, [w("ab")], [w("b")], backward=[w("aB"), w("b")]
        )
        assert vertex_homology_image(marked, 0) == ((1, 1),)

    def test_dimensions_additive_and_summands(self):
        marked = edge_of_groups(
            A3,
            [parse_word(A3, "a"), parse_word(A3, "b")],
            [parse_word(A3, "c")],
        )
        img0 = vertex_homology_image(marked, 0)
        img1 = vertex_homology_image(marked, 1)
        assert len(img0) == 2 and len(img1) == 1
        combined = img0 + img1
        # ranks add: the spans intersect trivially
        from aperiodic_lab.splittings import _row_reduce_mod3

        assert len(_row_reduce_mod3(combined)) == 3


class TestTwistDescriptor:
    def test_segment_trivial(self):
        assert twist_descriptor(segment())["descriptor"] == "1"

    def test_rank_two_vertex_group(self):
        marked = edge_of_groups(
            A3,
            [parse_word(A3, "a"), parse_word(A3, "b")],
            [parse_word(A3, "c")],
        )
        assert twist_descriptor(marked)["descriptor"] == "F_2"

    def test_rose_trivial(self):
        assert twist_descriptor(rose_marked(A3))["descriptor"] == "1"

    def test_higher_valence_cyclic(self):
        # cyclic vertex group of valence 2 contributes Z
        graph = FiniteGraph(2, [(0, 1), (0, 1)])
        marked = MarkedGraph(
            A2,
            graph,
            [0],
            {1: w("b")},
            {0: [w("a")]},
            identity_automorphism(A2),
        )
        assert twist_descriptor(marked)["descriptor"] == "Z^1"


class TestSuspension:
    def test_example(self):
        phi = FreeAutomorphism(A2, [w("ab"), w("a")], [w("b"), w("Ba")])
        assert (
            suspension_presentation(phi)
            == "< a, b, t | t*a*t^-1 = a*b, t*b*t^-1 = a >"
        )

    def test_identity_rank_two(self):
        assert (
            suspension_presentation(identity_automorphism(A2))
            == "< a, b, t | t*a*t^-1 = a, t*b*t^-1 = b >"
        )

    def test_identity_rank_one(self):
        assert (
            suspension_presentation(identity_automorphism(Alphabet(1)))
            == "< a, t | t*a*t^-1 = a >"
        )

    def test_inverse_letters(self):
        phi = FreeAutomorphism(A2, [w("bAB"), w("b")], [w("BAb"), w("b")])
        text = suspension_presentation(phi)
        assert "t*a*t^-1 = b*a^-1*b^-1" in text


class TestInducedOuter:
    def test_identity_map(self):
        rose = rose_marked(A2)
        f = graph_map_from_words(rose, [w("a"), w("b")])
        assert induced_outer(f, identity_automorphism(A2).forward).is_trivial()

    def test_transvection_map(self):
        rose = rose_marked(A2)
        f = graph_map_from_words(rose, [w("ab"), w("b")])
        oc = induced_outer(f, [w("aB"), w("b")])
        assert outer_eq(oc.representative, transvection(A2, 1, 2))

    def test_petal_swap(self):
        rose = rose_marked(A2)
        f = graph_map_from_words(rose, [w("b"), w("a")])
        oc = induced_outer(f, [w("b"), w("a")])
        assert outer_eq(oc.representative, swap(A2, 1, 2))

    def test_identity_map_for_every_theta_tree(self):
        for tree_edge in range(3):
            f = GraphMapRep(theta_with_tree(tree_edge), (0, 1), [(0,), (2,), (4,)])
            assert induced_outer(f, identity_automorphism(A2).forward).is_trivial()

    def test_theta_edge_swap_reads_the_marking_tree(self):
        # tree edge 1, a = e0 e1^-1, b = e2 e1^-1; swapping e1 and e2 sends
        # a to e0 e2^-1 = a b^-1 and b to e1 e2^-1 = b^-1, an involution
        f = GraphMapRep(theta_with_tree(1), (0, 1), [(0,), (4,), (2,)])
        oc = induced_outer(f, [w("aB"), w("B")])
        expected = FreeAutomorphism(A2, [w("aB"), w("B")], [w("aB"), w("B")])
        assert outer_eq(oc.representative, expected)

    def test_bad_inverse_rejected(self):
        rose = rose_marked(A2)
        f = graph_map_from_words(rose, [w("ab"), w("b")])
        with pytest.raises(Exception):
            induced_outer(f, [w("a"), w("b")])


class TestFileFormat:
    def test_round_trip_segment(self):
        text = marked_graph_str(segment())
        parsed = parse_marked_graph(A2, text)
        assert parsed.vertex_groups == segment().vertex_groups
        assert parsed.tree_edges == segment().tree_edges

    def test_round_trip_theta(self):
        text = marked_graph_str(theta_marked(A2))
        parsed = parse_marked_graph(A2, text)
        assert parsed.loop_words == theta_marked(A2).loop_words
