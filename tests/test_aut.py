import random

import pytest
from hypothesis import given, settings, strategies as st

from aperiodic_lab.aut import (
    CompositeNotIdentity,
    FreeAutomorphism,
    _next_power,
    ad,
    basis_cycle,
    commutator_insertion,
    compose,
    cube_map,
    identity_automorphism,
    inverse,
    inversion,
    is_inner,
    outer_eq,
    partial_conjugation,
    sample,
    standard_generators,
    swap,
    transvection,
)
from aperiodic_lab import words
from aperiodic_lab.words import Alphabet, Word, all_reduced_words, parse_word

A2 = Alphabet(2)
A3 = Alphabet(3)


def w(text, alphabet=A2):
    return parse_word(alphabet, text)


def brute_force_inner(phi, max_len=6):
    """Oracle: search all conjugators up to the length bound."""
    for g in all_reduced_words(phi.alphabet, max_len):
        if all(
            phi.forward[i - 1] == g * Word(phi.alphabet, (i,)) * g.inverse()
            for i in phi.alphabet.letters()
        ):
            return g
    return None


class TestCertify:
    def test_nielsen_pair_accepted(self):
        phi = FreeAutomorphism(A2, [w("ab"), w("b")], [w("aB"), w("b")])
        assert phi.apply(w("a")) == w("ab")

    def test_wrong_inverse_rejected(self):
        with pytest.raises(CompositeNotIdentity) as err:
            FreeAutomorphism(A2, [w("ab"), w("b")], [w("a"), w("b")])
        assert err.value.letter == 1
        assert err.value.got == w("ab")

    @pytest.mark.parametrize(
        "forward, backward, letter, got",
        [
            # x_1 passes both composites, and x_2 fails forward then backward
            (["a", "ab"], ["a", "b"], 2, "ab"),
            # x_1 passes forward then backward, and fails backward then forward
            (["b", "a"], ["a", "a"], 1, "b"),
        ],
    )
    def test_first_failing_composite_is_reported(self, forward, backward, letter, got):
        with pytest.raises(CompositeNotIdentity) as err:
            FreeAutomorphism(A2, [w(x) for x in forward], [w(x) for x in backward])
        assert (err.value.letter, err.value.got) == (letter, w(got))

    @pytest.mark.parametrize("rank", [1, 2, 5, 40])
    def test_construction_builds_two_substitutions(self, rank, monkeypatch):
        # one map per side certifies the composites and is kept, however
        # large the rank
        built = []
        init = words.Substitution.__init__
        trusted = words.Substitution._trusted

        def counting_init(self, alphabet, images):
            built.append("init")
            init(self, alphabet, images)

        def counting_trusted(cls, *values):
            built.append("trusted")
            return trusted(*values)

        monkeypatch.setattr(words.Substitution, "__init__", counting_init)
        monkeypatch.setattr(words.Substitution, "_trusted", classmethod(counting_trusted))
        alphabet = Alphabet(rank)
        basis = [Word(alphabet, (i,)) for i in alphabet.letters()]
        forward, backward = list(basis), list(basis)
        if rank > 1:
            forward[0] = Word(alphabet, (1, 2))
            backward[0] = Word(alphabet, (1, -2))
        phi = FreeAutomorphism(alphabet, forward, backward)
        assert built == ["init", "init"]
        assert phi.forward == tuple(forward) and phi.backward == tuple(backward)

    def test_identity_accepted(self):
        assert identity_automorphism(A2).is_identity()

    def test_identity_equals_validated_basis_pair(self):
        for rank in range(1, 7):
            alphabet = Alphabet(rank)
            basis = [Word(alphabet, (i,)) for i in alphabet.letters()]
            checked = FreeAutomorphism(alphabet, basis, basis)
            ident = identity_automorphism(alphabet)
            assert ident == checked and ident.backward == checked.backward

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            FreeAutomorphism(A2, [w("a")], [w("a")])


class TestCompose:
    def test_composition_with_inverse_is_identity(self):
        phi = transvection(A2, 1, 2)
        assert compose(phi, inverse(phi)).is_identity()
        assert compose(inverse(phi), phi).is_identity()

    def test_transvection_squared(self):
        phi = transvection(A2, 1, 2)
        assert compose(phi, phi).forward[0] == w("abb")

    def test_identity_neutral(self):
        phi = transvection(A2, 1, 2)
        assert compose(identity_automorphism(A2), phi) == phi
        assert compose(phi, identity_automorphism(A2)) == phi

    def test_associativity_on_samples(self):
        gens = standard_generators(2, "nielsen")
        rng = random.Random(5)
        for _ in range(25):
            f, g, h = (gens[rng.randrange(len(gens))] for _ in range(3))
            assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            compose(transvection(A2, 1, 2), transvection(A3, 1, 2))


class TestIsInner:
    def test_conjugation_by_b(self):
        phi = FreeAutomorphism(A2, [w("baB"), w("b")], [w("Bab"), w("b")])
        assert is_inner(phi) == w("b")

    def test_identity_has_empty_conjugator(self):
        assert is_inner(identity_automorphism(A2)) == w("1")

    def test_transvection_not_inner(self):
        assert is_inner(transvection(A2, 1, 2)) is None

    def test_rank_one(self):
        a1 = Alphabet(1)
        assert is_inner(identity_automorphism(a1)) == parse_word(a1, "1")
        assert is_inner(inversion(a1, 1)) is None

    def test_agrees_with_brute_force(self):
        gens = standard_generators(2, "nielsen") + standard_generators(2, "ia3")
        rng = random.Random(11)
        checked = 0
        while checked < 200:
            phi = sample(gens, rng.randrange(1, 4), rng.randrange(2**32))
            if phi.max_image_length() > 6:
                continue
            checked += 1
            mine = is_inner(phi)
            brute = brute_force_inner(phi)
            assert (mine is None) == (brute is None)
            if mine is not None:
                assert all(
                    phi.forward[i - 1]
                    == mine * Word(A2, (i,)) * mine.inverse()
                    for i in A2.letters()
                )


class TestOuterEq:
    def test_inner_twist_ignored(self):
        phi = transvection(A2, 1, 2)
        twisted = compose(ad(w("abA")), phi)
        assert outer_eq(phi, twisted)

    def test_distinct_abelianizations_differ(self):
        assert not outer_eq(identity_automorphism(A2), transvection(A2, 1, 2))

    def test_reflexive_symmetric_transitive_on_samples(self):
        gens = standard_generators(2, "ia3")
        rng = random.Random(3)
        autos = [sample(gens, 3, rng.randrange(2**32)) for _ in range(6)]
        for phi in autos:
            assert outer_eq(phi, phi)
        for phi in autos:
            for psi in autos:
                assert outer_eq(phi, psi) == outer_eq(psi, phi)


class TestGeneratorFamilies:
    def test_nielsen_contents(self):
        gens = standard_generators(2, "nielsen")
        assert transvection(A2, 1, 2) in gens
        assert inversion(A2, 1) in gens
        assert swap(A2, 1, 2) in gens

    def test_ia3_contains_partial_conjugation(self):
        assert partial_conjugation(A2, 1, 2) in standard_generators(2, "ia3")

    def test_ia3_contains_cube_map(self):
        gens = standard_generators(2, "ia3")
        assert cube_map(A2, 1, 2) in gens
        assert cube_map(A2, 1, 2).forward[0] == w("abbb")

    def test_ia3_commutator_insertion_needs_rank_3(self):
        gens3 = standard_generators(3, "ia3")
        assert commutator_insertion(A3, 1, 2, 3) in gens3
        image = commutator_insertion(A3, 1, 2, 3).forward[0]
        assert image == parse_word(A3, "abcBC")

    def test_all_ia3_generators_trivial_mod_3(self):
        from aperiodic_lab.homology import in_ia3

        for rank in (2, 3):
            for gen in standard_generators(rank, "ia3"):
                assert in_ia3(gen)

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            standard_generators(1, "nielsen")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            standard_generators(2, "dehn")


class TestSampling:
    def test_deterministic(self):
        gens = standard_generators(2, "ia3")
        assert sample(gens, 5, 99) == sample(gens, 5, 99)

    def test_budget_one_is_generator_or_inverse(self):
        gens = [transvection(A2, 1, 2)]
        for seed in range(10):
            got = sample(gens, 1, seed)
            assert got in (gens[0], inverse(gens[0]))

    def test_ia3_membership_of_products(self):
        from aperiodic_lab.homology import in_ia3

        gens = standard_generators(3, "ia3")
        for seed in range(25):
            assert in_ia3(sample(gens, 6, seed))

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            sample([], 1, 0)


class TestPowersAndClasses:
    def test_power_negative(self):
        phi = transvection(A2, 1, 2)
        assert (phi**-1) == inverse(phi)
        assert (phi**0).is_identity()


def _moderate_growth():
    """Automorphisms whose twelfth powers stay a few hundred letters long."""
    fib = compose(transvection(A2, 1, 2), swap(A2, 1, 2))  # a -> ab, b -> a
    return [
        transvection(A2, 1, 2),
        partial_conjugation(A3, 1, 2),
        cube_map(A2, 2, 1),
        commutator_insertion(A3, 1, 2, 3),
        fib,
        inverse(fib),
        ad(w("abA")),
        compose(ad(w("aB")), transvection(A2, 2, 1)),
    ]


class TestBlockMemos:
    @pytest.mark.parametrize("phi", _moderate_growth(), ids=repr)
    def test_power_step_matches_compose_and_pow(self, phi):
        by_compose = phi
        power = phi
        assert phi ** 1 == phi
        for p in range(2, 13):
            by_compose = compose(phi, by_compose)
            power = _next_power(phi, power)
            assert power.forward == by_compose.forward
            assert power.backward == by_compose.backward
            assert power == phi ** p
            assert (phi ** p).backward == power.backward
            assert (phi ** -p).forward == power.backward

    def test_inverse_shares_the_maps(self):
        phi = commutator_insertion(A3, 1, 2, 3)
        phi_inv = inverse(phi)
        assert phi_inv.forward_map is phi.backward_map
        assert phi_inv.backward_map is phi.forward_map
        assert inverse(phi_inv).forward_map is phi.forward_map
        long_word = parse_word(A3, "abcabcabcABCbcaCCa")
        assert phi_inv.apply(phi.apply(long_word)) == long_word

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6),
        st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=9, max_size=60),
    )
    def test_whole_blocks_cancel_under_ad_and_phi_inverse(self, conj, letters):
        word = Word(A3, letters)
        inner = ad(Word(A3, conj))
        # ad(u)(x) = u x u^-1: every block image is conjugated by u, and the
        # u^-1 u between consecutive blocks cancels whole
        expected = Word(A3, conj) * word * Word(A3, conj).inverse()
        assert inner.apply(word) == expected
        phi = compose(commutator_insertion(A3, 1, 2, 3), cube_map(A3, 2, 3))
        # the backward map undoes the forward one block by block
        assert inverse(phi).apply(phi.apply(word)) == word
        assert compose(phi, inverse(phi)).apply(word) == word

    def test_generator_memos_stay_bounded_over_a_long_sample_run(self, monkeypatch):
        # sample applies each generator's backward map to the backward
        # images of every product, so the generators' memos meet blocks
        # from the whole run
        monkeypatch.setattr(words, "_MEMO_BLOCKS", 64)
        gens = standard_generators(3, "ia3")
        samples = [sample(gens, 8, seed) for seed in range(100)]
        memos = [m._memo for g in gens for m in (g.forward_map, g.backward_map)]
        assert max(map(len, memos)) == 64
        fresh = [sample(standard_generators(3, "ia3"), 8, seed) for seed in range(0, 100, 9)]
        assert fresh == samples[::9]
        assert [p.backward for p in fresh] == [p.backward for p in samples[::9]]

