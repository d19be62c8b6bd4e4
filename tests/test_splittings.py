import random

import pytest

from aperiodic_lab.aut import (
    CompositeNotIdentity,
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
from aperiodic_lab.graphs import FiniteGraph, enumerate_automorphisms
from aperiodic_lab.splittings import (
    MarkedGraph,
    edge_of_groups,
    invariance_test,
    marked_graph_str,
    parse_marked_graph,
    rose_marked,
    splitting_orbit_period,
    theta_marked,
)
from aperiodic_lab.subgroups import OrbitOutcome, cores_conjugate, fold_core
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
        A2, THETA, [tree_edge], {first: w("a"), second: w("b")}, {}
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
            )

    def test_valence_one_needs_group(self):
        with pytest.raises(ValueError):
            edge_of_groups(A2, [w("a"), w("b")], [])

    def test_witness_must_match_marking(self):
        # the marking b, a laid out against the default backward images, the
        # standard basis, which do not invert it
        with pytest.raises(CompositeNotIdentity):
            MarkedGraph(
                A2,
                FiniteGraph(1, [(0, 0), (0, 0)]),
                [],
                {0: w("b"), 1: w("a")},
                {},
            )

    def test_segment_marking_carries_its_inverse(self):
        # <ab> * <b>: the witness a -> ab, b -> b is inverted by a -> aB,
        # b -> b, and the default identity images do not invert it
        marked = edge_of_groups(A2, [w("ab")], [w("b")], backward=[w("aB"), w("b")])
        assert marked.vertex_groups == {0: (w("ab"),), 1: (w("b"),)}
        assert marked.witness.backward == (w("aB"), w("b"))
        with pytest.raises(ValueError):
            edge_of_groups(A2, [w("ab")], [w("b")])

    def test_custom_rose_marking_needs_its_inverse(self):
        marked = rose_marked(A2, [w("b"), w("a")], [w("b"), w("a")])
        assert marked.loop_words == {0: w("b"), 1: w("a")}
        with pytest.raises(CompositeNotIdentity):
            rose_marked(A2, [w("b"), w("a")])

    def test_tree_with_cycle_rejected(self):
        # tree edges 0 and 1 form a 2-cycle that misses vertex 2
        graph = FiniteGraph(3, [(0, 1), (1, 0), (1, 2), (2, 2)])
        with pytest.raises(ValueError, match="span"):
            MarkedGraph(
                A2, graph, [0, 1], {2: w("a"), 3: w("b")}, {}
            )

    def test_tree_must_span(self):
        # a loop edge as the "tree" leaves vertex 1 unreached
        graph = FiniteGraph(2, [(0, 0), (0, 1), (0, 1)])
        with pytest.raises(ValueError, match="span"):
            MarkedGraph(
                A2, graph, [0], {1: w("a"), 2: w("b")}, {}
            )

    def test_wide_rose_builds(self):
        marked = rose_marked(Alphabet(1200))
        assert marked.free_rank() == 1200 and marked.witness.is_identity()

    def test_parser_rejects_tree_with_cycle(self):
        text = "V 3\n0 1\n1 0\n1 2\n2 2\ntree 0 1\nloop 2 a\nloop 3 b\n"
        with pytest.raises(ValueError, match="span"):
            parse_marked_graph(A2, text)

    def test_parser_rejects_repeated_group(self):
        text = marked_graph_str(segment()) + "group 1 a\n"
        with pytest.raises(ValueError, match="'group 1 a'"):
            parse_marked_graph(A2, text)

    @pytest.mark.parametrize(
        "marked, line",
        [(theta_marked(A2), "loop 0 a"), (rose_marked(A2), "loop 5 a")],
        ids=["tree-edge", "missing-edge"],
    )
    def test_parser_rejects_a_loop_off_the_non_tree_edges(self, marked, line):
        # the theta graph's tree is edge 0; the rose has edges 0 and 1
        text = marked_graph_str(marked) + line + "\n"
        with pytest.raises(ValueError, match=f"^bad line '{line}': edge"):
            parse_marked_graph(A2, text)


def layout_words(marked):
    """The marking words in layout order, read from the marking itself:
    vertex generators by vertex, then loop words by edge."""
    words = [g for v in sorted(marked.vertex_groups) for g in marked.vertex_groups[v]]
    return words + [marked.loop_words[e] for e in sorted(marked.loop_words)]


class TestWitnessIsTheMarking:
    def test_forward_images_are_the_marking_in_layout_order(self):
        # whichever way the marking is built, with the default inverse
        # images and with custom ones
        three = "\n".join(["V 2", "0 1", "0 1", "tree 0", "loop 1 c", "group 1 b", "group 0 ab"])
        built = [
            (rose_marked(A2), [w("a"), w("b")]),
            (rose_marked(A2, [w("ab"), w("b")], [w("aB"), w("b")]), [w("ab"), w("b")]),
            (segment(), [w("a"), w("b")]),
            (edge_of_groups(A2, [w("ab")], [w("b")], backward=[w("aB"), w("b")]), [w("ab"), w("b")]),
            (theta_marked(A2), [w("a"), w("b")]),
            (theta_with_tree(1), [w("a"), w("b")]),
            (parse_marked_graph(A2, marked_graph_str(theta_marked(A2))), [w("a"), w("b")]),
            (two_vertex_groups_marked(), [parse_word(A3, s) for s in ("a", "b", "c")]),
            (
                parse_marked_graph(A3, three, [parse_word(A3, s) for s in ("aB", "b", "c")]),
                [parse_word(A3, s) for s in ("ab", "b", "c")],
            ),
            (
                MarkedGraph(A2, THETA, [0], {1: w("b"), 2: w("a")}, {}, backward=[w("b"), w("a")]),
                [w("b"), w("a")],
            ),
        ]
        for marked, expected in built:
            assert list(marked.witness.forward) == layout_words(marked) == expected
            # and ``basis_layout`` names the marking word of each letter
            for (kind, x, j), word in zip(marked.basis_layout, expected):
                named = marked.vertex_groups[x][j] if kind == "vertex" else marked.loop_words[x]
                assert named == word


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


def one_vertex_group_marked():
    """One vertex with group <a> and one loop marked b."""
    return MarkedGraph(
        A2, FiniteGraph(1, [(0, 0)]), [], {0: w("b")}, {0: [w("a")]}
    )


def two_vertex_groups_marked():
    """Rank 3: vertices with groups <a> and <b>, joined by two edges; the
    non-tree edge is marked c."""
    return MarkedGraph(
        A3,
        FiniteGraph(2, [(0, 1), (0, 1)]),
        [0],
        {1: parse_word(A3, "c")},
        {0: [parse_word(A3, "a")], 1: [parse_word(A3, "b")]},
    )


def oracle_markings():
    return {
        2: [
            rose_marked(A2),
            segment(),
            *(theta_with_tree(t) for t in range(3)),
            one_vertex_group_marked(),
        ],
        3: [
            rose_marked(A3),
            edge_of_groups(A3, [parse_word(A3, "a")], [parse_word(A3, "b"), parse_word(A3, "c")]),
            two_vertex_groups_marked(),
        ],
    }


def _oracle_project(word, layout, free_alphabet):
    loop_positions = {}
    for idx, (kind, _, _) in enumerate(layout):
        if kind == "loop":
            loop_positions[idx + 1] = len(loop_positions) + 1
    letters = []
    for letter in word.letters:
        pos = abs(letter)
        if pos in loop_positions:
            letters.append(loop_positions[pos] if letter > 0 else -loop_positions[pos])
    return Word(free_alphabet, letters)


def _oracle_loop_images(loops, h, free_alphabet):
    index = {e: i + 1 for i, e in enumerate(loops)}
    images = []
    for cycle in loops.values():
        letters = []
        for d in cycle:
            d = h.dart_perm[d]
            if d >> 1 in index:
                letters.append(index[d >> 1] if d & 1 == 0 else -index[d >> 1])
        images.append(Word(free_alphabet, letters))
    return images


def oracle_invariance_test(marked, phi):
    """The former invariance_test: greedy class matching, per-h rank and
    trivial-vertex checks, and h* certified against the read of h^-1.  That
    read is the inverse of h* only when h fixes vertex 0, so this misses
    every witness that moves vertex 0."""
    mu = marked.witness
    psi = compose(inverse(mu), compose(phi, mu))
    alphabet = marked.alphabet
    group_vertices = sorted(marked.vertex_groups)
    start = {}
    position = 1
    for v in group_vertices:
        start[v] = position
        position += len(marked.vertex_groups[v])
    base_cores = {
        v: fold_core(alphabet, [Word(alphabet, (start[v] + j,)) for j in range(marked.vertex_rank(v))])
        for v in group_vertices
    }
    image_cores = {
        v: fold_core(alphabet, [psi.forward[start[v] + j - 1] for j in range(marked.vertex_rank(v))])
        for v in group_vertices
    }
    b = marked.free_rank()
    free_alphabet = Alphabet(b) if b else None
    rho = None
    if b:
        if not marked.vertex_groups:
            rho = psi
        else:
            available = list(group_vertices)
            for v in group_vertices:
                match = next(
                    (u for u in available if cores_conjugate(image_cores[v], base_cores[u])), None
                )
                if match is None:
                    return None
                available.remove(match)
            loop_letters = [
                idx + 1 for idx, (kind, _, _) in enumerate(marked.basis_layout) if kind == "loop"
            ]
            forward = [_oracle_project(psi.forward[l - 1], marked.basis_layout, free_alphabet) for l in loop_letters]
            backward = [_oracle_project(psi.backward[l - 1], marked.basis_layout, free_alphabet) for l in loop_letters]
            try:
                rho = FreeAutomorphism(free_alphabet, forward, backward)
            except ValueError:
                return None
    loops = marked.fundamental_loops()
    for h in enumerate_automorphisms(marked.graph):
        ok = True
        for v in group_vertices:
            u = h.vertex_perm[v]
            if marked.vertex_rank(u) != marked.vertex_rank(v):
                ok = False
                break
            if u not in base_cores or not cores_conjugate(image_cores[v], base_cores[u]):
                ok = False
                break
        if not ok:
            continue
        if any(
            marked.vertex_rank(h.vertex_perm[v]) != 0
            for v in range(marked.graph.n_vertices)
            if marked.vertex_rank(v) == 0
        ):
            continue
        if b:
            h_forward = _oracle_loop_images(loops, h, free_alphabet)
            h_backward = _oracle_loop_images(loops, h.inverse(), free_alphabet)
            try:
                h_star = FreeAutomorphism(free_alphabet, h_forward, h_backward)
            except ValueError:
                continue
            if not outer_eq(rho, h_star):
                continue
        return h
    return None


def oracle_samples():
    """Seeded nielsen and ia3 samples of budgets 1-3 at ranks 2 and 3."""
    for rank in (2, 3):
        for family in ("nielsen", "ia3"):
            gens = standard_generators(rank, family)
            for budget in (1, 2, 3):
                rng = random.Random(1000 * rank + 10 * budget + len(family))
                for _ in range(12):
                    yield rank, sample(gens, budget, rng.randrange(2**32))


def oracle_cases():
    """Every oracle sample on every oracle marking of its rank."""
    markings = oracle_markings()
    for rank, phi in oracle_samples():
        for marked in markings[rank]:
            yield marked, phi


# the 12 automorphisms of the theta graph, by vertex permutation and edge
# permutation, with the automorphism of F_2 each induces on theta_marked
# (forward images of a, b; then their certified inverse images)
THETA_SYMMETRIES = {
    ((0, 1), (0, 1, 2)): (("a", "b"), ("a", "b")),
    ((0, 1), (0, 2, 1)): (("b", "a"), ("b", "a")),
    ((0, 1), (1, 0, 2)): (("A", "bA"), ("A", "bA")),
    ((0, 1), (1, 2, 0)): (("bA", "A"), ("B", "aB")),
    ((0, 1), (2, 0, 1)): (("B", "aB"), ("bA", "A")),
    ((0, 1), (2, 1, 0)): (("aB", "B"), ("aB", "B")),
    ((1, 0), (0, 1, 2)): (("A", "B"), ("A", "B")),
    ((1, 0), (0, 2, 1)): (("B", "A"), ("B", "A")),
    ((1, 0), (1, 0, 2)): (("a", "Ba"), ("a", "aB")),
    ((1, 0), (1, 2, 0)): (("Ba", "a"), ("b", "bA")),
    ((1, 0), (2, 0, 1)): (("b", "Ab"), ("aB", "a")),
    ((1, 0), (2, 1, 0)): (("Ab", "b"), ("bA", "b")),
}


class TestInvarianceOracle:
    def test_theta_vertex_swap_found(self):
        # a -> a, b -> Ba is induced by the symmetry that swaps the two
        # vertices and the edges 0 and 1
        phi = FreeAutomorphism(A2, [w("a"), w("Ba")], [w("a"), w("aB")])
        h = invariance_test(theta_marked(A2), phi)
        assert h is not None and h.vertex_perm == (1, 0)
        assert splitting_orbit_period(theta_marked(A2), phi) == OrbitOutcome("Period", 1)

    def test_every_theta_symmetry_is_found(self):
        marked = theta_marked(A2)
        seen = set()
        for h in enumerate_automorphisms(THETA):
            key = (h.vertex_perm, tuple(h.dart_perm[2 * e] >> 1 for e in range(3)))
            forward, backward = THETA_SYMMETRIES[key]
            phi = FreeAutomorphism(A2, [w(t) for t in forward], [w(t) for t in backward])
            # theta's symmetries act faithfully on H_1, so h is the only
            # witness
            assert invariance_test(marked, phi) == h, key
            seen.add(key)
        assert seen == set(THETA_SYMMETRIES)

    def test_agrees_with_oracle_except_vertex_zero_moves(self):
        compared = differences = 0
        for marked, phi in oracle_cases():
            mine = invariance_test(marked, phi)
            old = oracle_invariance_test(marked, phi)
            compared += 1
            if (mine is None) != (old is None):
                # only a witness that moves vertex 0 is new
                assert old is None and mine.vertex_perm[0] != 0, (marked, phi)
                differences += 1
        assert compared == 2 * 3 * 12 * 9
        assert differences > 0

    def test_orbit_matches_iterated_invariance_test(self):
        # psi^p in marking coordinates against phi^p through the public
        # test.  With an identity witness psi^p is phi^p, so the caps agree;
        # the asymmetric rose runs uncapped.
        asym = rose_marked(A2, [w("a"), w("ab")], [w("a"), w("Ab")])
        cases = [(marked, phi, 300) for marked, phi in oracle_cases()]
        cases += [(asym, phi, 10**9) for rank, phi in oracle_samples() if rank == 2]
        for marked, phi, cap in cases:
            power = identity_automorphism(marked.alphabet)
            expected = OrbitOutcome("NoPeriodWithin", None, 4)
            for p in range(1, 5):
                power = compose(phi, power)
                if power.max_image_length() > cap:
                    expected = OrbitOutcome("Blowup", None, p)
                    break
                if invariance_test(marked, power) is not None:
                    expected = OrbitOutcome("Period", p, p)
                    break
            got = splitting_orbit_period(marked, phi, max_iter=4, length_cap=cap)
            assert (got, got.iterations) == (expected, expected.iterations), (marked, phi)


class TestFileFormat:
    def test_round_trip_segment(self):
        text = marked_graph_str(segment())
        parsed = parse_marked_graph(A2, text)
        assert parsed.vertex_groups == segment().vertex_groups
        assert parsed.tree_edges == segment().tree_edges

    def test_round_trip_custom_marking(self):
        # the rose marked a, ab: its witness inverse sends b to Ab, which the
        # parser cannot guess
        backward = [w("a"), w("Ab")]
        marked = rose_marked(A2, [w("a"), w("ab")], backward)
        text = marked_graph_str(marked)
        parsed = parse_marked_graph(A2, text, backward=backward)
        assert parsed.loop_words == marked.loop_words
        assert parsed.witness == marked.witness
        with pytest.raises(ValueError):
            parse_marked_graph(A2, text)

    def test_round_trip_theta(self):
        text = marked_graph_str(theta_marked(A2))
        parsed = parse_marked_graph(A2, text)
        assert parsed.loop_words == theta_marked(A2).loop_words
