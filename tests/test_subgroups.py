import itertools
import random

import pytest

from aperiodic_lab.aut import (
    ad,
    basis_cycle,
    identity_automorphism,
    partial_conjugation,
    sample,
    standard_generators,
    swap,
    transvection,
)
from aperiodic_lab.subgroups import (
    FreeFactorSystem,
    OrbitOutcome,
    StallingsCore,
    basis_ffs,
    conjugacy_eq,
    conjugate_into,
    cores_conjugate,
    exact_word_orbit,
    ffs_poset_leq,
    fold_core,
    image_class,
    membership,
    orbit_period,
    parse_subgroup,
    subgroup_class,
    subgroup_str,
)
from aperiodic_lab.words import Alphabet, CyclicWord, Word, all_reduced_words, parse_word

A2 = Alphabet(2)
A3 = Alphabet(3)


def w(text, alphabet=A2):
    return parse_word(alphabet, text)


class TestFolding:
    def test_single_loop(self):
        core = fold_core(A2, [w("a")])
        assert core.n_vertices == 1 and core.n_edges() == 1

    def test_generator_and_inverse_same_subgroup(self):
        assert fold_core(A2, [w("a"), w("A")]).n_edges() == 1

    def test_square_and_loop(self):
        core = fold_core(A2, [w("aa"), w("b")])
        assert core.n_vertices == 2 and core.n_edges() == 3
        assert core.rank() == 2

    def test_fold_order_confluence(self):
        gens = [w(s) for s in ["ab", "aab", "bbA", "abAB", "ba"]]
        rng = random.Random(4)
        keys = set()
        for _ in range(15):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            keys.add(subgroup_class(A2, shuffled).key)
        assert len(keys) == 1

    def test_trivial_subgroup(self):
        core = fold_core(A2, [])
        assert core.n_vertices == 1 and core.n_edges() == 0
        assert membership(w("1"), core)

    def test_fold_core_output_passes_constructor_checks(self):
        # fold_core skips the constructor's checks; they must hold anyway
        rng = random.Random(7)
        words = all_reduced_words(A3, 4)[1:]
        for _ in range(60):
            gens = rng.sample(words, rng.randint(1, 4))
            core = fold_core(A3, gens)
            rebuilt = StallingsCore(A3, core.n_vertices, core.transitions, core.base)
            assert rebuilt.transitions == core.transitions
            assert all(membership(g, core) for g in gens)

    def test_constructor_rejects_unpaired_transition(self):
        with pytest.raises(ValueError, match="inverse pairs"):
            StallingsCore(A2, 2, {(0, 1): 1})

    def test_constructor_rejects_out_of_range_letter(self):
        with pytest.raises(ValueError, match="out of range"):
            StallingsCore(A2, 1, {(0, 3): 0, (0, -3): 0})


class TestMembership:
    def test_examples(self):
        core = fold_core(A2, [w("aa"), w("b")])
        assert membership(w("aa"), core)
        assert not membership(w("a"), core)
        assert membership(w("1"), core)

    def test_against_brute_force_products(self):
        # subgroups with up to 3 generators of length <= 3: compare against
        # all products of <= 4 generator letters
        rng = random.Random(9)
        pool = [word for word in all_reduced_words(A2, 3) if len(word)]
        for _ in range(25):
            gens = rng.sample(pool, rng.randrange(1, 4))
            core = fold_core(A2, gens)
            elements = {Word(A2)}
            frontier = {Word(A2)}
            for _ in range(4):
                frontier = {
                    prev * g_or_inv
                    for prev in frontier
                    for g in gens
                    for g_or_inv in (g, g.inverse())
                }
                elements |= frontier
            for word in elements:
                assert membership(word, core), (gens, word)
            # short words outside the enumerated set that fail membership
            # must not appear in the enumeration
            for word in all_reduced_words(A2, 2):
                if not membership(word, core):
                    assert word not in elements


class TestConjugacy:
    def test_conjugate_cyclic_subgroups(self):
        assert conjugacy_eq(
            subgroup_class(A2, [w("a")]), subgroup_class(A2, [w("baB")])
        )

    def test_root_is_not_power(self):
        assert not conjugacy_eq(
            subgroup_class(A2, [w("a")]), subgroup_class(A2, [w("aa")])
        )

    def test_reflexive(self):
        cls = subgroup_class(A3, [parse_word(A3, "a"), parse_word(A3, "b")])
        assert conjugacy_eq(cls, cls)

    def test_equivalence_on_conjugates(self):
        rng = random.Random(12)
        pool = [word for word in all_reduced_words(A2, 3) if len(word)]
        for _ in range(20):
            gens = rng.sample(pool, 2)
            g = rng.choice(pool)
            twisted = [g * x * g.inverse() for x in gens]
            assert conjugacy_eq(subgroup_class(A2, gens), subgroup_class(A2, twisted))

    def test_agrees_with_bounded_conjugator_search(self):
        rng = random.Random(31)
        pool = [word for word in all_reduced_words(A2, 2) if len(word)]
        conjugators = all_reduced_words(A2, 6)
        for _ in range(20):
            gens_h = rng.sample(pool, 2)
            gens_k = rng.sample(pool, 2)
            h_core, k_core = fold_core(A2, gens_h), fold_core(A2, gens_k)
            brute = any(
                all(membership(g * x * g.inverse(), k_core) for x in gens_h)
                and all(
                    membership(g.inverse() * y * g, h_core) for y in gens_k
                )
                for g in conjugators
            )
            assert cores_conjugate(h_core, k_core) == brute

    def test_lazy_comparison_matches_canonical(self):
        rng = random.Random(17)
        pool = [word for word in all_reduced_words(A2, 3) if len(word)]
        for _ in range(30):
            a = fold_core(A2, rng.sample(pool, 2))
            b = fold_core(A2, rng.sample(pool, 2))
            from aperiodic_lab.subgroups import SubgroupConjClass

            assert cores_conjugate(a, b) == (
                SubgroupConjClass(a) == SubgroupConjClass(b)
            )


class TestConjugateInto:
    def test_containment_needs_no_conjugator(self):
        a = fold_core(A2, [w("a")])
        b = fold_core(A2, [w("a"), w("b")])
        assert conjugate_into(a, b, 4) == w("1")

    def test_undoes_conjugation(self):
        a = fold_core(A2, [w("baB")])
        b = fold_core(A2, [w("a")])
        assert conjugate_into(a, b, 4) == w("B")

    def test_distinct_supports_fail(self):
        a = fold_core(A2, [w("b")])
        b = fold_core(A2, [w("a")])
        assert conjugate_into(a, b, 4) is None

    def test_bound_cap(self):
        with pytest.raises(ValueError):
            conjugate_into(fold_core(A2, [w("a")]), fold_core(A2, [w("a")]), 9)


class TestFreeFactorSystems:
    def test_grushko_rank(self):
        assert basis_ffs(A3, [[1]]).grushko_rank() == 3
        assert basis_ffs(A3, [[1, 2]]).grushko_rank() == 2
        assert basis_ffs(A2, [[1], [2]]).grushko_rank() == 2

    def test_sporadic(self):
        assert basis_ffs(A2, [[1], [2]]).is_sporadic()
        assert not basis_ffs(A3, [[1]]).is_sporadic()

    def test_poset_examples(self):
        assert ffs_poset_leq(basis_ffs(A3, [[1]]), basis_ffs(A3, [[1, 2]])) is True
        assert ffs_poset_leq(basis_ffs(A3, [[1], [2]]), basis_ffs(A3, [[1]])) is False

    def test_poset_rank_reversal(self):
        f1, f2 = basis_ffs(A3, [[1]]), basis_ffs(A3, [[1, 2]])
        assert ffs_poset_leq(f1, f2) is True
        assert f2.grushko_rank() <= f1.grushko_rank()

    def test_witness_rank_check(self):
        with pytest.raises(ValueError):
            FreeFactorSystem(identity_automorphism(A2), [frozenset()])

    def test_disjointness(self):
        with pytest.raises(ValueError):
            FreeFactorSystem(
                identity_automorphism(A3), [frozenset([1, 2]), frozenset([2])]
            )

    def test_witness_image_classes(self):
        phi = transvection(A3, 1, 2)
        system = FreeFactorSystem(phi, [frozenset([1])])
        assert conjugacy_eq(
            system.classes[0], subgroup_class(A3, [parse_word(A3, "ab")])
        )


class TestImageClass:
    def test_identity_fixes(self):
        cls = subgroup_class(A2, [w("ab")])
        assert image_class(identity_automorphism(A2), cls) == cls

    def test_inner_fixes(self):
        cls = subgroup_class(A2, [w("a"), w("bab")])
        assert image_class(ad(w("abA")), cls) == cls

    def test_swap_exchanges(self):
        cls_a = subgroup_class(A2, [w("a")])
        cls_b = subgroup_class(A2, [w("b")])
        assert image_class(swap(A2, 1, 2), cls_a) == cls_b


class TestOrbits:
    def test_swap_period_two_on_word(self):
        assert orbit_period(swap(A2, 1, 2), CyclicWord(A2, (1,))) == OrbitOutcome(
            "Period", 2
        )

    def test_partial_conjugation_fixes_class(self):
        assert orbit_period(
            partial_conjugation(A2, 1, 2), CyclicWord(A2, (1,))
        ) == OrbitOutcome("Period", 1)

    def test_growth_reports_no_period(self):
        out = orbit_period(transvection(A2, 1, 2), CyclicWord(A2, (1,)))
        assert out.kind == "NoPeriodWithin"

    def test_blowup_cap(self):
        phi = transvection(A2, 1, 2)
        out = orbit_period(phi, CyclicWord(A2, (1,)), max_iter=50, length_cap=10)
        assert out.kind == "Blowup"

    def test_three_cycle_on_class(self):
        cls = subgroup_class(A3, [parse_word(A3, "a")])
        assert orbit_period(basis_cycle(A3, [1, 2, 3]), cls) == OrbitOutcome(
            "Period", 3
        )

    def test_exact_word_orbit_sees_conjugation(self):
        # the class of a is fixed by conjugation but the exact word moves
        # until the inner twist is undone
        phi = ad(w("b"))
        assert exact_word_orbit(phi, w("a")).kind == "NoPeriodWithin"
        assert orbit_period(phi, CyclicWord(A2, (1,))) == OrbitOutcome("Period", 1)

    def test_exact_word_orbit_period(self):
        assert exact_word_orbit(swap(A2, 1, 2), w("a")) == OrbitOutcome("Period", 2)


class TestTheoremInvariantSampled:
    def test_ia3_word_orbits_never_properly_periodic(self):
        gens = standard_generators(2, "ia3")
        rng = random.Random(20)
        words = [word for word in all_reduced_words(A2, 4) if len(word)]
        for _ in range(60):
            phi = sample(gens, 4, rng.randrange(2**32))
            start = CyclicWord(A2, rng.choice(words).letters)
            out = orbit_period(phi, start, max_iter=8, length_cap=2000)
            assert not (out.kind == "Period" and out.period > 1)

    def test_swap_control_produces_period_two(self):
        out = orbit_period(swap(A2, 1, 2), CyclicWord(A2, (1,)))
        assert out == OrbitOutcome("Period", 2)


class TestFileFormat:
    def test_round_trip(self):
        gens = [w("ab"), w("bA")]
        text = subgroup_str(gens)
        assert parse_subgroup(A2, text) == gens

    def test_orbit_report_shape(self):
        from aperiodic_lab.subgroups import orbit_report

        report = orbit_report(swap(A2, 1, 2), CyclicWord(A2, (1,)))
        assert report["outcome"] == "Period" and report["period"] == 2
        assert report["iterations"] == 2 and len(report["core_sizes"]) == 2
        import json

        json.dumps(report)

    def test_orbit_report_class(self):
        from aperiodic_lab.subgroups import orbit_report

        cls = subgroup_class(A3, [parse_word(A3, "a")])
        report = orbit_report(basis_cycle(A3, [1, 2, 3]), cls)
        assert report["period"] == 3 and report["core_sizes"] == [1, 1, 1]
