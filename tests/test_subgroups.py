import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from aperiodic_lab.aut import (
    ad,
    basis_cycle,
    compose,
    identity_automorphism,
    partial_conjugation,
    sample,
    standard_generators,
    swap,
    transvection,
)
from aperiodic_lab.splittings import rose_marked, splitting_orbit_period
from aperiodic_lab.subgroups import (
    FreeFactorSystem,
    OrbitOutcome,
    StallingsCore,
    cores_conjugate,
    exact_word_orbit,
    fold_core,
    membership,
    orbit_period,
    orbit_report,
    subgroup_class,
    SubgroupConjClass,
    _first_return,
    _letter_order,
    _pointed_iso,
    _trim,
)
from aperiodic_lab.words import (
    Alphabet,
    CyclicWord,
    Word,
    all_reduced_words,
    parse_word,
)

A2 = Alphabet(2)
A3 = Alphabet(3)


def w(text, alphabet=A2):
    return parse_word(alphabet, text)


def _fold_oracle(n, pairs, base):
    """Fold a nondeterministic labeled graph by re-examining every vertex
    whose targets changed, until no (vertex, letter) has two targets."""
    parent = list(range(n))
    out = [dict() for _ in range(n)]
    for (v, letter), targets in pairs.items():
        out[v].setdefault(letter, []).extend(targets)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a
            for letter, targets in out[b].items():
                out[a].setdefault(letter, []).extend(targets)
            out[b] = {}
        return a

    queue = list(range(n))
    while queue:
        v = find(queue.pop())
        for letter, targets in list(out[v].items()):
            canon = {find(t) for t in targets}
            out[v][letter] = list(canon)
            if len(canon) > 1:
                keep = canon.pop()
                for t in canon:
                    keep = union(keep, t)
                queue += [find(v), keep]
                break
    reps = sorted({find(v) for v in range(n)})
    relabel = {r: i for i, r in enumerate(reps)}
    transitions = {}
    for v in reps:
        for letter, targets in out[v].items():
            (target,) = {find(t) for t in targets}
            transitions[(relabel[v], letter)] = relabel[target]
    return len(reps), transitions, relabel[find(base)]


def wedge_core_oracle(generators):
    """The core as a wedge of generator loops at vertex 0, folded and then
    trimmed of valence-1 vertices other than the basepoint."""
    pairs = {}
    n = 1
    for gen in generators:
        prev = 0
        for i, letter in enumerate(gen.letters):
            nxt = 0 if i == len(gen.letters) - 1 else n
            if nxt == n:
                n += 1
            pairs.setdefault((prev, letter), set()).add(nxt)
            pairs.setdefault((nxt, -letter), set()).add(prev)
            prev = nxt
    return _trim(*_fold_oracle(n, pairs, 0))


def generating_sets(alphabet):
    letters = [l for i in range(1, alphabet.rank + 1) for l in (i, -i)]
    word = st.lists(st.sampled_from(letters), max_size=6).map(
        lambda l: Word(alphabet, l)
    )
    return st.lists(word, max_size=4)


def _bfs_encoding(alphabet, transitions, start):
    """Oracle: deterministic BFS encoding of the component of ``start``;
    isomorphic pointed graphs produce equal encodings."""
    letter_order = _letter_order(alphabet)
    number = {start: 0}
    order = [start]
    table = []
    for v in order:
        for letter in letter_order:
            target = transitions.get((v, letter))
            if target is None:
                continue
            if target not in number:
                number[target] = len(number)
                order.append(target)
            table.append((number[v], letter, number[target]))
    return tuple(sorted(table))


def canonical_key(core):
    """Oracle: the least BFS encoding of the basepoint-free trim over all
    its vertices, a complete conjugacy invariant of the subgroup."""
    n, transitions, _ = _trim(core.n_vertices, core.transitions, None)
    return min(_bfs_encoding(core.alphabet, transitions, v) for v in range(n))


ranked_generating_sets = st.sampled_from([A2, A3]).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet), generating_sets(alphabet))
)


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
        # the based core is unique and BFS-numbered, so reordering and
        # inverting generators changes neither the class nor the numbering
        rng = random.Random(4)
        for texts in (
            ["ab", "aab", "bbA", "abAB", "ba"],
            # a rank-4 subgroup with a 5-vertex core; the last is redundant
            ["aab", "bAb", "abbA", "bbb", "aabbAb"],
        ):
            gens = [w(s) for s in texts]
            keys = set()
            tables = set()
            for _ in range(15):
                shuffled = [g.inverse() if rng.random() < 0.5 else g for g in gens]
                rng.shuffle(shuffled)
                keys.add(canonical_key(fold_core(A2, shuffled)))
                tables.add(tuple(fold_core(A2, shuffled).transitions.items()))
            assert len(keys) == 1
            assert len(tables) == 1

    def test_numbering_is_canonical_across_bases(self):
        # a free basis read back from the core generates the same subgroup,
        # so folding it must reproduce the core exactly
        rng = random.Random(5)
        pool = [word for word in all_reduced_words(A3, 4) if len(word)]
        for _ in range(40):
            core = fold_core(A3, rng.sample(pool, rng.randint(1, 4)))
            again = fold_core(A3, core.generators())
            assert again.n_vertices == core.n_vertices
            assert again.transitions == core.transitions

    @settings(max_examples=300, deadline=None)
    @given(ranked_generating_sets)
    def test_matches_wedge_fold_oracle(self, case):
        alphabet, gens = case
        core = fold_core(alphabet, gens)
        n, transitions, base = wedge_core_oracle(gens)
        assert (core.n_vertices, core.n_edges()) == (n, len(transitions) // 2)
        assert core.base == 0
        assert _pointed_iso(core.transitions, core.n_vertices, transitions, n, 0, base)
        assert all(membership(g, core) for g in gens)
        valence = [0] * core.n_vertices
        for (v, _letter) in core.transitions:
            valence[v] += 1
        assert all(d >= 2 for d in valence[1:])

    def test_closing_edge_collision(self):
        # the middle of bab^-1 starts and ends at the basepoint with b, so
        # its closing edge collides with its first and the ends fold
        core = fold_core(A2, [w("baB")])
        assert (core.n_vertices, core.n_edges()) == (2, 2)
        assert membership(w("baB"), core) and not membership(w("a"), core)

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

    def test_generators_are_reduced_words(self):
        # generators() builds its words unchecked; the validating
        # constructor must leave each of them as it is
        rng = random.Random(8)
        pool = [word for word in all_reduced_words(A3, 5) if len(word)]
        for _ in range(80):
            core = fold_core(A3, rng.sample(pool, rng.randint(1, 4)))
            gens = core.generators()
            assert len(gens) == core.rank()
            for g in gens:
                assert Word(A3, g.letters).letters == g.letters
                assert membership(g, core)

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
        assert subgroup_class(A2, [w("a")]) == subgroup_class(A2, [w("baB")])

    def test_root_is_not_power(self):
        assert subgroup_class(A2, [w("a")]) != subgroup_class(A2, [w("aa")])

    def test_reflexive(self):
        cls = subgroup_class(A3, [parse_word(A3, "a"), parse_word(A3, "b")])
        assert cls == cls

    def test_equivalence_on_conjugates(self):
        rng = random.Random(12)
        pool = [word for word in all_reduced_words(A2, 3) if len(word)]
        for _ in range(20):
            gens = rng.sample(pool, 2)
            g = rng.choice(pool)
            twisted = [g * x * g.inverse() for x in gens]
            assert subgroup_class(A2, gens) == subgroup_class(A2, twisted)

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
        equal = 0
        for _ in range(300):
            gens = rng.sample(pool, rng.randint(1, 2))
            if rng.random() < 0.5:
                g = rng.choice(pool)
                others = [g * x * g.inverse() for x in reversed(gens)]
            else:
                others = rng.sample(pool, rng.randint(1, 2))
            a, b = fold_core(A2, gens), fold_core(A2, others)
            expected = canonical_key(a) == canonical_key(b)
            assert cores_conjugate(a, b) == expected
            assert (SubgroupConjClass(a) == SubgroupConjClass(b)) == expected
            if expected:
                assert hash(SubgroupConjClass(a)) == hash(SubgroupConjClass(b))
                equal += 1
        assert 50 <= equal <= 250

    def test_equal_invariants_need_not_be_conjugate(self):
        # <abaB> and <abAb>: cycles of four edges with the same vertex
        # signatures, so the same hash, but no rotation of either word or
        # its inverse spells the other, so the classes differ
        a = subgroup_class(A2, [w("abaB")])
        b = subgroup_class(A2, [w("abAb")])
        assert canonical_key(a.representative) != canonical_key(b.representative)
        assert hash(a) == hash(b) and a != b

    def test_classes_in_sets(self):
        classes = [
            subgroup_class(A2, [w("a")]),
            subgroup_class(A2, [w("baB")]),
            subgroup_class(A2, [w("aa")]),
            subgroup_class(A2, [w("b")]),
        ]
        assert len(set(classes)) == 3


class TestFreeFactorSystems:
    def test_equality_compares_classes_as_multisets(self):
        # the swap witness lists [<b>], [<a>]: the same classes in another
        # order, and conjugating a factor keeps its class
        plain = FreeFactorSystem(identity_automorphism(A3), [frozenset([1]), frozenset([2])])
        swapped = FreeFactorSystem(swap(A3, 1, 2), [frozenset([1]), frozenset([2])])
        twisted = FreeFactorSystem(
            compose(ad(parse_word(A3, "c")), swap(A3, 1, 2)),
            [frozenset([2]), frozenset([1])],
        )
        assert swapped == plain and hash(swapped) == hash(plain)
        assert twisted == plain and hash(twisted) == hash(plain)
        assert plain != FreeFactorSystem(identity_automorphism(A3), [frozenset([1]), frozenset([3])])
        assert plain != FreeFactorSystem(identity_automorphism(A3), [frozenset([1])])
        assert len({plain, swapped, twisted, FreeFactorSystem(identity_automorphism(A3), [frozenset([1, 2])])}) == 2

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
        assert system.classes[0] == subgroup_class(A3, [parse_word(A3, "ab")])


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

    def test_class_orbits_match_per_step_comparison(self):
        # oracle: compare every iterate with the untrimmed start through
        # cores_conjugate, as the probe did before it trimmed the start once
        def oracle(phi, start, max_iter, length_cap):
            current = start.representative
            for k in range(1, max_iter + 1):
                current = fold_core(start.alphabet, [phi.apply(g) for g in current.generators()])
                if current.n_edges() > length_cap:
                    return ("Blowup", None, k)
                if cores_conjugate(current, start.representative):
                    return ("Period", k, k)
            return ("NoPeriodWithin", None, max_iter)

        rng = random.Random(31)
        kinds = set()
        for alphabet in (A2, A3):
            gens = standard_generators(alphabet.rank, "nielsen")
            words = [word for word in all_reduced_words(alphabet, 3) if len(word)]
            for _ in range(40):
                phi = sample(gens, rng.randrange(1, 4), rng.randrange(2**32))
                start = subgroup_class(alphabet, rng.sample(words, rng.randrange(1, 3)))
                out = orbit_period(phi, start, max_iter=6, length_cap=200)
                assert (out.kind, out.period, out.iterations) == oracle(phi, start, 6, 200)
                kinds.add(out.kind)
        assert kinds == {"Period", "NoPeriodWithin", "Blowup"}


    def test_report_sizes_match_rerun(self):
        # oracle: the probe's outcome, then the orbit run again for as many
        # steps as it took, measuring each iterate
        from aperiodic_lab.subgroups import orbit_report
        from aperiodic_lab.words import _strip_conjugation

        def rerun(phi, start, steps):
            sizes = []
            if isinstance(start, CyclicWord):
                current = start.as_word()
                for _ in range(steps):
                    current, _ = _strip_conjugation(phi.apply(current))
                    sizes.append(len(current))
            else:
                core = start.representative
                for _ in range(steps):
                    core = fold_core(start.alphabet, [phi.apply(g) for g in core.generators()])
                    sizes.append(core.n_edges())
            return sizes

        rng = random.Random(32)
        kinds = set()
        for alphabet in (A2, A3):
            gens = standard_generators(alphabet.rank, "nielsen")
            words = [word for word in all_reduced_words(alphabet, 3) if len(word)]
            for _ in range(40):
                phi = sample(gens, rng.randrange(1, 4), rng.randrange(2**32))
                if rng.random() < 0.5:
                    start = CyclicWord(alphabet, rng.choice(words).letters)
                else:
                    start = subgroup_class(alphabet, rng.sample(words, rng.randrange(1, 3)))
                report = orbit_report(phi, start, max_iter=6, length_cap=60)
                out = orbit_period(phi, start, max_iter=6, length_cap=60)
                assert (report["outcome"], report["period"], report["iterations"]) == (
                    out.kind, out.period, out.iterations
                )
                assert report["core_sizes"] == rerun(phi, start, out.iterations)
                kinds.add(out.kind)
        assert kinds == {"Period", "NoPeriodWithin", "Blowup"}

    def test_word_orbits_match_plain_loops(self):
        # oracles: iterate the raw word phi^k(w) by plain substitution and
        # compare its canonical cyclic word, or the word itself, with the start
        def oracle(phi, start, max_iter, length_cap, canonical):
            current = start.as_word() if isinstance(start, CyclicWord) else start
            for k in range(1, max_iter + 1):
                current = phi.apply(current)
                image = canonical(current)
                if len(image) > length_cap:
                    return ("Blowup", None, k)
                if image == start:
                    return ("Period", k, k)
            return ("NoPeriodWithin", None, max_iter)

        rng = random.Random(33)
        cyclic_kinds, exact_kinds = set(), set()
        for alphabet in (A2, A3):
            gens = standard_generators(alphabet.rank, "nielsen")
            words = [word for word in all_reduced_words(alphabet, 3) if len(word)]
            for _ in range(60):
                phi = sample(gens, rng.randrange(1, 4), rng.randrange(2**32))
                word = rng.choice(words)
                start = CyclicWord(alphabet, word.letters)
                out = orbit_period(phi, start, max_iter=6, length_cap=40)
                expected = oracle(
                    phi, start, 6, 40, lambda u: CyclicWord(alphabet, u.letters)
                )
                assert (out.kind, out.period, out.iterations) == expected
                cyclic_kinds.add(out.kind)
                out = exact_word_orbit(phi, word, max_iter=6, length_cap=40)
                assert (out.kind, out.period, out.iterations) == oracle(
                    phi, word, 6, 40, lambda u: u
                )
                exact_kinds.add(out.kind)
        assert cyclic_kinds == exact_kinds == {"Period", "NoPeriodWithin", "Blowup"}

    def test_first_return_engine(self):
        # counting mod 3 from 0: the iterates are 1, 2, 0, each its own size
        def run(max_iter, length_cap, returned=lambda n: n == 0):
            out, sizes = _first_return(
                lambda n: (n + 1) % 3, 0, lambda n: n, returned, max_iter, length_cap
            )
            return (out.kind, out.period, out.iterations), sizes

        assert run(5, 2) == (("Period", 3, 3), [1, 2, 0])
        assert run(2, 2) == (("NoPeriodWithin", None, 2), [1, 2])
        assert run(5, 1) == (("Blowup", None, 2), [1, 2])
        # the cap is checked before the return test
        assert run(5, 1, returned=lambda n: True) == (("Period", 1, 1), [1])
        assert run(5, 0, returned=lambda n: True) == (("Blowup", None, 1), [1])

    def test_first_return_engine_with_a_step_proved_over_the_cap(self):
        # a step that returns None has proved its iterate over the cap: Blowup
        # at that step, before the return test, and no size for it
        def run(proved_at, returned=lambda n: False):
            out, sizes = _first_return(
                lambda n: None if n + 1 == proved_at else n + 1, 0, lambda n: n, returned, 5, 10
            )
            return (out.kind, out.period, out.iterations), sizes

        assert run(3) == (("Blowup", None, 3), [1, 2])
        assert run(1, returned=lambda n: True) == (("Blowup", None, 1), [])
        assert run(4, returned=lambda n: n == 2) == (("Period", 2, 2), [1, 2])
        assert run(9) == (("NoPeriodWithin", None, 5), [1, 2, 3, 4, 5])

    @pytest.mark.parametrize("max_iter", [0, -3])
    @pytest.mark.parametrize(
        "probe",
        [
            lambda n: orbit_period(swap(A2, 1, 2), CyclicWord(A2, (1,)), max_iter=n),
            lambda n: orbit_report(swap(A2, 1, 2), CyclicWord(A2, (1,)), max_iter=n),
            lambda n: exact_word_orbit(swap(A2, 1, 2), w("a"), max_iter=n),
            lambda n: splitting_orbit_period(rose_marked(A2), swap(A2, 1, 2), max_iter=n),
        ],
        ids=["orbit_period", "orbit_report", "exact_word_orbit", "splitting_orbit_period"],
    )
    def test_max_iter_below_one_raises(self, probe, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            probe(max_iter)


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
