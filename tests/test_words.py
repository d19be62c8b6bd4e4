import random

import pytest
from hypothesis import given, settings, strategies as st

from aperiodic_lab import words
from aperiodic_lab.aut import sample, standard_generators
from aperiodic_lab.words import (
    Alphabet,
    CyclicWord,
    Substitution,
    Word,
    _least_rotation,
    _letter_key,
    all_reduced_words,
    apply_endo,
    cyclic_reduce,
    parse_word,
    reduce_letters,
    word_str,
)

A2 = Alphabet(2)
A3 = Alphabet(3)


def w(text, alphabet=A2):
    return parse_word(alphabet, text)


letters_2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12)
letters_3 = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=10)
# words that repeat a block, so that several rotations tie for least
periodic_3 = st.builds(
    lambda block, times: block * times,
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=4),
    st.integers(1, 4),
)
words_3 = st.one_of(letters_3, periodic_3).map(lambda l: Word(A3, l))


def least_rotation_oracle(letters):
    """Smallest index of the least rotation, by comparing all of them."""
    if not letters:
        return 0
    rotations = [letters[i:] + letters[:i] for i in range(len(letters))]
    keys = [[_letter_key(l) for l in rot] for rot in rotations]
    return keys.index(min(keys))


def cyclic_reduce_oracle(word):
    """Core and conjugator by stripping end pairs and searching rotations."""
    letters = word.letters
    i = 0
    while len(letters) - 2 * i >= 2 and letters[i] == -letters[-1 - i]:
        i += 1
    core = letters[i : len(letters) - i]
    j = least_rotation_oracle(core)
    return core[j:] + core[:j], Word(word.alphabet, letters[:i] + core[:j])


class TestReduce:
    def test_adjacent_cancellation(self):
        assert Word(A2, [1, -1, 2]) == w("b")

    def test_empty_is_identity(self):
        assert Word(A2, []) == w("1")
        assert len(Word(A2, [])) == 0

    def test_inner_cancellation(self):
        assert Word(A2, [1, 2, -2, 1]) == w("aa")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Word(A2, [3])
        with pytest.raises(ValueError):
            Word(A2, [0])

    @given(letters_2)
    def test_idempotent(self, letters):
        once = Word(A2, letters)
        assert Word(A2, once.letters) == once

    @given(letters_2, letters_2)
    def test_concatenation_length_bounds(self, s, t):
        u, v = Word(A2, s), Word(A2, t)
        product = u * v
        assert abs(len(u) - len(v)) <= len(product) <= len(u) + len(v)


class TestCyclicReduce:
    def test_single_conjugation_layer(self):
        core, conj = cyclic_reduce(w("baB"))
        assert core.as_word() == w("a")
        assert conj == w("b")

    def test_already_cyclically_reduced(self):
        core, conj = cyclic_reduce(w("ab"))
        assert core == CyclicWord(A2, (1, 2))
        assert conj == w("1")

    def test_aba_inverse(self):
        core, conj = cyclic_reduce(w("abA"))
        assert core.as_word() == w("b")
        assert conj == w("a")

    @given(letters_2)
    def test_round_trip(self, letters):
        word = Word(A2, letters)
        core, conj = cyclic_reduce(word)
        assert conj * core.as_word() * conj.inverse() == word

    @given(letters_2, letters_2)
    def test_conjugate_words_share_core(self, s, t):
        word = Word(A2, s)
        g = Word(A2, t)
        conjugated = g * word * g.inverse()
        assert cyclic_reduce(word)[0] == cyclic_reduce(conjugated)[0]


class TestConjugacyOracle:
    # for words of length <= 6 a conjugator of length <= 6 always suffices:
    # |conjugator| <= (|u| - |core|)/2 + (|v| - |core|)/2 + |core| - 1 <= 5

    @pytest.mark.parametrize("alphabet,word_len", [(A2, 4), (A3, 6)])
    def test_cores_detect_conjugacy(self, alphabet, word_len):
        import random

        rng = random.Random(0)
        words = all_reduced_words(alphabet, word_len)
        conjugators = all_reduced_words(alphabet, 6)
        pairs = [(rng.choice(words), rng.choice(words)) for _ in range(40)]
        # constructed positives exercise the conjugate branch
        for _ in range(20):
            u = rng.choice(words)
            g = rng.choice(conjugators[:200])
            pairs.append((u, g * u * g.inverse()))
        for u, v in pairs:
            brute = any(g * u * g.inverse() == v for g in conjugators)
            cores = cyclic_reduce(u)[0] == cyclic_reduce(v)[0]
            assert brute == cores, (word_str(u), word_str(v))


def substitution_oracle(images, word):
    """Letter at a time: concatenate the images, then reduce."""
    naive = []
    for letter in word.letters:
        image = images[abs(letter) - 1].letters
        naive.extend(image if letter > 0 else [-l for l in reversed(image)])
    return reduce_letters(naive)


class TestApplyEndo:
    def test_substitution_then_cancellation(self):
        images = [w("ab"), w("b")]
        assert apply_endo(images, w("aB")) == w("a")

    def test_identity(self):
        images = [w("a"), w("b")]
        assert apply_endo(images, w("abAB")) == w("abAB")

    def test_substitution_no_cancellation(self):
        images = [w("ab"), w("a")]
        assert apply_endo(images, w("ba")) == w("aab")

    def test_image_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_endo([w("a")], w("ab"))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            apply_endo([parse_word(A3, "a"), parse_word(A3, "b")], w("ab"))

    @given(st.lists(words_3, min_size=3, max_size=3), words_3)
    def test_matches_naive_substitution(self, images, word):
        assert apply_endo(images, word).letters == substitution_oracle(images, word)

    @given(letters_2, letters_2)
    def test_homomorphism(self, s, t):
        images = [w("ab"), w("bA")]
        u, v = Word(A2, s), Word(A2, t)
        assert apply_endo(images, u * v) == apply_endo(images, u) * apply_endo(
            images, v
        )


def reduced_of_length(alphabet, length):
    """Reduced words of exactly ``length`` letters: the first letter is free,
    each later one avoids the inverse of the one before."""
    signed = alphabet.signed_letters()

    def build(choices):
        letters = []
        for c in choices:
            options = [l for l in signed if not letters or l != -letters[-1]]
            letters.append(options[c % len(options)])
        return Word(alphabet, letters)

    return st.lists(st.integers(0, 2 * alphabet.rank), min_size=length, max_size=length).map(build)


# the block edges: empty, one letter, one short of a block, a block, one
# past it, two blocks, and any number of blocks plus a remainder
block_lengths = st.one_of(
    st.sampled_from([0, 1, 7, 8, 9, 16]),
    st.builds(lambda k, r: 8 * k + r, st.integers(0, 6), st.integers(0, 7)),
)
words_3_at_block_edges = block_lengths.flatmap(lambda n: reduced_of_length(A3, n))


class TestSubstitution:
    @given(st.lists(words_3, min_size=3, max_size=3), words_3_at_block_edges)
    def test_matches_letter_at_a_time_oracle(self, images, word):
        assert Substitution(A3, images)(word).letters == substitution_oracle(images, word)

    @given(words_3_at_block_edges)
    def test_images_that_cancel_whole_blocks(self, word):
        # x_2 -> 1 kills every block of b's; x_1 -> x_3^-1 x_1 x_3 and
        # x_3 -> x_3 cancel whole images against each other
        images = [parse_word(A3, "Cac"), Word(A3), parse_word(A3, "c")]
        assert Substitution(A3, images)(word).letters == substitution_oracle(images, word)

    @given(
        words_3_at_block_edges,
        st.lists(st.tuples(st.integers(0, 63), st.sampled_from([1, -1, 2, -2, 3, -3])), max_size=8),
    )
    def test_one_map_over_many_words_agrees_with_fresh_maps(self, word, edits):
        # variants of one word share most blocks and differ in single
        # letters, so a memo that confused two blocks would show
        variants = [word]
        for pos, letter in edits:
            letters = list(variants[-1].letters)
            if letters:
                letters[pos % len(letters)] = letter
            variants.append(Word(A3, letters))
        images = [parse_word(A3, "abC"), parse_word(A3, "bca"), parse_word(A3, "cA")]
        shared = Substitution(A3, images)
        for variant in variants + variants:
            assert shared(variant) == Substitution(A3, images)(variant)
            assert shared(variant).letters == substitution_oracle(images, variant)

    def test_memo_keeps_blocks_of_long_words_only(self):
        sub = Substitution(A2, [w("ab"), w("b")])
        sub(w("abababab"))
        assert all(isinstance(key, int) for key in sub._memo)
        sub(w("ababababa"))
        blocks = [key for key in sub._memo if not isinstance(key, int)]
        assert blocks == [(1, 2, 1, 2, 1, 2, 1, 2), (1,)]

    def test_memo_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(words, "_MEMO_BLOCKS", 16)
        images = [parse_word(A3, "abC"), parse_word(A3, "bca"), parse_word(A3, "cA")]
        sub = Substitution(A3, images)
        rng = random.Random(5)
        for _ in range(40):
            word = Word(A3, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(40)])
            assert sub(word).letters == substitution_oracle(images, word)
        assert len(sub._memo) == 16

    def test_memo_keeps_short_block_images_only(self, monkeypatch):
        monkeypatch.setattr(words, "_MEMO_IMAGE", 12)
        images = [parse_word(A3, "abC"), parse_word(A3, "bcab"), parse_word(A3, "c")]
        sub = Substitution(A3, images)
        word = parse_word(A3, "aaaaaaaacccccccc")
        assert sub(word).letters == substitution_oracle(images, word)
        blocks = {key: image for key, image in sub._memo.items() if not isinstance(key, int)}
        # a^8 has an image of 24 letters, c^8 one of 8
        assert blocks == {(3,) * 8: (3,) * 8}

    @pytest.mark.parametrize("rank, family", [(2, "ia3"), (3, "ia3"), (3, "nielsen")])
    def test_capped_matches_the_full_call(self, rank, family):
        # None exactly when the full image is longer than the cap, else the
        # full image; caps far below the image take the early exit
        alphabet = Alphabet(rank)
        gens = standard_generators(rank, family)
        rng = random.Random(rank)
        signed = alphabet.signed_letters()
        for _ in range(40):
            phi = sample(gens, rng.randrange(1, 7), rng.randrange(2**32))
            for sub in (phi.forward_map, phi.backward_map):
                word = Word(alphabet, [rng.choice(signed) for _ in range(rng.choice([0, 5, 9, 70, 300]))])
                image = sub(word)
                n = len(image)
                for cap in (0, n // 3, n - 1, n, n + 1, 10 * n):
                    got = sub.capped(word, cap)
                    if n > cap:
                        assert got is None
                    else:
                        assert got == image

    def test_capped_stops_once_the_image_is_proved_over_the_cap(self, monkeypatch):
        # x_1 -> x_1 x_2 on x_1^800: no cancellation, so after m letters the
        # image has 2m letters and the rest adds 2(800 - m); the bound
        # 2m - 2(800 - m) > 100 holds from m = 426, so the call stops at
        # the end of the chunk that holds letter 426
        chunk = words._CAP_CHUNK
        stop = -(-426 // chunk) * chunk
        assert stop < 800
        calls = []
        block_image = words._block_image
        monkeypatch.setattr(words, "_block_image", lambda memo, block: calls.append(block) or block_image(memo, block))
        sub = Substitution(A2, [w("ab"), w("b")])
        word = Word(A2, (1,) * 800)
        assert sub.capped(word, 100) is None
        assert len(calls) == stop // 8
        assert sub.capped(word, 1600) == sub(word) == Word(A2, (1, 2) * 800)

    def test_checks_its_images_and_words(self):
        with pytest.raises(ValueError):
            Substitution(A2, [w("a")])
        with pytest.raises(ValueError):
            Substitution(A2, [parse_word(A3, "a"), parse_word(A3, "b")])
        with pytest.raises(ValueError):
            Substitution(A2, [w("a"), w("b")])(parse_word(A3, "c"))
        with pytest.raises(ValueError):
            Substitution(A2, [w("a"), w("b")]).capped(parse_word(A3, "c"), 5)


class TestTrustedConstruction:
    @given(words_3, words_3)
    def test_product_matches_validated_constructor(self, u, v):
        assert u * v == Word(A3, u.letters + v.letters)

    @given(words_3)
    def test_inverse_matches_validated_constructor(self, u):
        assert u.inverse() == Word(A3, [-l for l in reversed(u.letters)])
        assert (u * u.inverse()).is_identity()

    @given(words_3)
    def test_cyclic_reduce_matches_rotation_search(self, word):
        core, conj = cyclic_reduce(word)
        assert conj * core.as_word() * conj.inverse() == word
        least, oracle_conj = cyclic_reduce_oracle(word)
        assert core.letters == least
        assert conj == oracle_conj
        assert core == CyclicWord(A3, word.letters)

    def test_periodic_core_keeps_smallest_rotation(self):
        core, conj = cyclic_reduce(w("baba"))
        assert word_str(core.as_word()) == "abab"
        assert conj == w("b")

    def test_constructors_reject_out_of_range_letters(self):
        for bad in ([3], [1, -3], [0], [1.0]):
            with pytest.raises(ValueError):
                Word(A2, bad)
            with pytest.raises(ValueError):
                CyclicWord(A2, bad)
        with pytest.raises(ValueError):
            parse_word(A2, "aC")


class TestCanonicalRotation:
    @given(st.one_of(letters_3, periodic_3))
    def test_booth_matches_all_rotations(self, letters):
        letters = tuple(letters)
        assert _least_rotation(letters) == least_rotation_oracle(letters)

    def test_rotation_invariance(self):
        assert CyclicWord(A2, (1, 2)) == CyclicWord(A2, (2, 1))

    def test_letter_order(self):
        # x_1 < x_1^-1 < x_2
        assert CyclicWord(A2, (2, 1)).letters[0] == 1
        assert CyclicWord(A2, (-1, 2)).letters == (-1, 2)

    def test_empty_cyclic_word(self):
        assert CyclicWord(A2, ()) == CyclicWord(A2, (1, -1))
        assert len(CyclicWord(A2, ())) == 0

    @given(letters_3)
    def test_hashable_conjugacy_keys(self, letters):
        word = Word(A3, letters)
        core = cyclic_reduce(word)[0]
        rotated = CyclicWord(A3, core.letters[1:] + core.letters[:1])
        assert hash(core) == hash(rotated) and core == rotated


class TestTextFormat:
    def test_round_trip(self):
        for text in ["1", "a", "abAB", "zZ"[:2]]:
            assert word_str(parse_word(Alphabet(26), text)) in (text, "1")

    def test_empty_spelled_one(self):
        assert word_str(w("1")) == "1"

    def test_bad_character(self):
        with pytest.raises(ValueError):
            parse_word(A2, "a!b")

    def test_out_of_alphabet(self):
        with pytest.raises(ValueError):
            parse_word(A2, "abc")

    def test_immutability(self):
        word = w("ab")
        with pytest.raises(AttributeError):
            word.letters = ()
