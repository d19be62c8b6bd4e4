import csv
import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from aperiodic_lab import harness, words
from aperiodic_lab.aut import (
    basis_cycle,
    compose,
    identity_automorphism,
    inverse,
    is_inner,
    sample,
    standard_generators,
    swap,
)
from aperiodic_lab.cli import main
from aperiodic_lab.harness import (
    CERTIFIED,
    CERTIFIED_BY_CONJUGATOR,
    CERTIFIED_BY_COVER,
    CERTIFIED_BY_NILPOTENT,
    ExperimentConfig,
    _Family,
    _random_cyclic_word,
    _random_proper_subsets,
    default_splitting_pool,
    run_conjugacy_experiment,
    run_factor_experiment,
    run_splitting_experiment,
    run_torsion_experiment,
)
from aperiodic_lab.homology import (
    COVER_MAX_RANK,
    abelianization,
    certify_cover,
    certify_infinite_order,
    certify_lattice,
    congruent_to_identity,
    cover_action,
    cover_class,
    finite_order,
    identity_matrix,
    nilpotent_action,
    word_exponent_vector,
)
from aperiodic_lab.splittings import splitting_orbit_period
from aperiodic_lab.subgroups import FreeFactorSystem, exact_word_orbit, orbit_period
from aperiodic_lab.words import Alphabet, CyclicWord, Word, cyclic_reduce

FAST = dict(samples=8, budget=3, pool_size=2, seed=1, max_iter=6, length_cap=1500)


def strip_elapsed(report):
    return {k: v for k, v in report.items() if k != "elapsed"}


class TestDeterminism:
    def test_conjugacy_reports_identical(self):
        cfg = ExperimentConfig(rank=2, **FAST)
        a = run_conjugacy_experiment(cfg)
        b = run_conjugacy_experiment(cfg)
        assert json.dumps(strip_elapsed(a), sort_keys=True) == json.dumps(
            strip_elapsed(b), sort_keys=True
        )

    def test_seed_changes_outcomes(self):
        base = dict(FAST)
        base["seed"] = 2
        a = run_conjugacy_experiment(ExperimentConfig(rank=2, **FAST))
        b = run_conjugacy_experiment(ExperimentConfig(rank=2, **base))
        assert strip_elapsed(a) != strip_elapsed(b)

    @pytest.mark.parametrize(
        "runner, cfg",
        [
            (run_conjugacy_experiment, ExperimentConfig(rank=3, **FAST)),
            (run_factor_experiment, ExperimentConfig(rank=3, **FAST)),
            (run_splitting_experiment, ExperimentConfig(rank=2, **FAST)),
            (run_torsion_experiment, ExperimentConfig(rank=3, **FAST)),
        ],
        ids=["conjugacy", "factors", "splittings", "torsion"],
    )
    def test_second_call_reads_the_cached_family_and_reports_the_same(self, runner, cfg):
        harness._family_entry.cache_clear()
        first = runner(cfg)
        assert harness._family_entry.cache_info().misses >= 1
        second = runner(cfg)
        assert harness._family_entry.cache_info().hits >= 1
        assert strip_elapsed(first) == strip_elapsed(second)


class TestFamilyCache:
    @staticmethod
    def values(entry):
        # every leaf of a cached entry
        if isinstance(entry, tuple):
            for item in entry:
                yield from TestFamilyCache.values(item)
        else:
            yield entry

    def test_entries_hold_images_and_matrices(self):
        harness._family_entry.cache_clear()
        for rank, family in [(2, "ia3"), (3, "nielsen")]:
            images, matrices = harness._family_entry(rank, family)
            gens = standard_generators(rank, family)
            assert images == tuple((g.forward, g.backward) for g in gens)
            assert matrices == tuple((abelianization(g), abelianization(inverse(g))) for g in gens)
            assert {type(v) for v in self.values(images)} == {Word}
            assert {type(v) for v in self.values(matrices)} == {int}

    def test_each_call_gets_fresh_maps(self):
        first, second = (
            [g for g, _ in harness._Family(3, "ia3")._factors] for _ in range(2)
        )
        assert first == standard_generators(3, "ia3") == second
        assert all(
            g.forward_map is not h.forward_map and g.backward_map is not h.backward_map
            for g, h in zip(first, second)
        )

    def test_cache_stays_within_its_bound(self):
        harness._family_entry.cache_clear()
        bound = harness._family_entry.cache_info().maxsize
        keys = [(rank, family) for rank in (2, 3, 4) for family in ("ia3", "nielsen")]
        assert len(keys) > bound
        for key in keys:
            harness._Family(*key)
            assert harness._family_entry.cache_info().currsize <= bound
        assert harness._family_entry.cache_info().currsize == bound


class TestCappedSteps:
    """The torsion and exact-word loops stop a step once
    ``Substitution.capped`` proves its image over the cap; their reports
    equal those of a step that builds every image in full."""

    @pytest.mark.parametrize(
        "runner, cfg",
        [
            (run_torsion_experiment, dict(rank=2, samples=200, budget=4, seed=505)),
            (run_torsion_experiment, dict(rank=3, samples=50, budget=4, seed=506)),
            (run_torsion_experiment, dict(rank=2, samples=200, budget=4, seed=10505)),
            (run_torsion_experiment, dict(rank=3, samples=50, budget=4, seed=10506)),
            (run_conjugacy_experiment, dict(rank=2, samples=10, budget=5, pool_size=4, seed=101)),
            (run_conjugacy_experiment, dict(rank=3, samples=10, budget=4, pool_size=3, seed=202)),
        ],
        ids=["torsion-505", "torsion-506", "torsion-10505", "torsion-10506", "conjugacy-101", "conjugacy-202"],
    )
    def test_reports_match_an_uncapped_step(self, monkeypatch, runner, cfg):
        length_cap = 20_000 if runner is run_torsion_experiment else 10_000
        cfg = ExperimentConfig(max_iter=12, length_cap=length_cap, **cfg)
        capped = runner(cfg)
        monkeypatch.setattr(words.Substitution, "capped", lambda sub, word, cap: sub(word))
        uncapped = runner(cfg)
        assert strip_elapsed(capped) == strip_elapsed(uncapped)
        if runner is run_torsion_experiment and cfg.rank == 3:
            # rank 2 certifies every sample it keeps; rank 3 caps some
            assert capped["blowups"] > 0


class TestRunners:
    def test_conjugacy_small(self):
        report = run_conjugacy_experiment(ExperimentConfig(rank=2, **FAST))
        assert report["violations"] == []
        assert report["control"]["nontrivial_periods"] >= 1
        assert report["inner_sanity_period1"]
        total = sum(report["outcomes_outer"].values())
        assert total == FAST["samples"] * FAST["pool_size"]

    def test_factor_small(self):
        report = run_factor_experiment(ExperimentConfig(rank=3, **FAST))
        assert report["violations"] == []
        assert report["control"]["period"] == 3
        assert report["identity_sanity_period1"]

    def test_torsion_small(self):
        report = run_torsion_experiment(ExperimentConfig(rank=2, **FAST))
        assert report["violations"] == []
        assert report["control"]["order"] == 2
        assert report["trials"] == FAST["samples"]

    @pytest.mark.parametrize(
        "rank, budget, length_cap, seed, samples, max_iter",
        [
            pytest.param(2, 3, 1500, 1, 12, 6, id="2-3-1500-1"),
            pytest.param(3, 3, 40, 1, 12, 6, id="3-3-40-1"),
            pytest.param(3, 3, 40, 6, 12, 6, id="3-3-40-6"),
            pytest.param(3, 4, 1500, 2, 12, 6, id="3-4-1500-2"),
            # criterion 8 as pinned: the forward images of the Blowup
            # samples' powers run to the full cap
            pytest.param(2, 4, 20_000, 505, 200, 12, id="2-4-20000-505"),
            pytest.param(3, 4, 20_000, 506, 150, 12, id="3-4-20000-506"),
        ],
    )
    def test_torsion_report_matches_power_oracle(self, rank, budget, length_cap, seed, samples, max_iter):
        # oracle: redraw the samples and test each phi^k, built from nothing,
        # for being inner, with the cap on every power from phi itself
        def first_inner_power(phi):
            for k in range(1, cfg.max_iter + 1):
                power = phi**k
                if power.max_image_length() > length_cap:
                    return "Blowup"
                if is_inner(power) is not None:
                    return k
            return None

        cfg = ExperimentConfig(
            rank=rank, samples=samples, budget=budget, max_iter=max_iter, length_cap=length_cap, seed=seed
        )
        gens = standard_generators(rank, cfg.family)
        rng = random.Random(seed)
        clean = blowups = checked = attempts = 0
        violations = []
        while clean < cfg.samples and attempts < cfg.samples * 20:
            attempts += 1
            phi = sample(gens, budget, rng.randrange(2**32))
            if is_inner(phi) is not None:
                continue
            if abelianization(phi) != identity_matrix(rank):
                clean += 1
                continue
            order = first_inner_power(phi)
            if order == "Blowup":
                blowups += 1
                continue
            checked += 1
            clean += 1
            if order is not None:
                violations.append({"attempt": attempts, "order": order})
        report = run_torsion_experiment(cfg)
        assert (report["attempts"], report["blowups"]) == (attempts, blowups)
        assert (report["checked_by_iteration"], report["violations"]) == (checked, violations)
        assert report["control"]["order"] == first_inner_power(swap(Alphabet(rank), 1, 2)) == 2
        if length_cap < 100 or seed == 506:
            # a cap that stops some samples, not all
            assert blowups > 0 and checked > 0

    def test_torsion_outside_the_kernel_iterates(self):
        # Nielsen samples have finite-order abelianizations; none certifies,
        # and their genuine inner powers are reported, not an assertion
        cfg = ExperimentConfig(rank=2, family="nielsen", samples=30, budget=3, seed=1)
        report = run_torsion_experiment(cfg)
        assert report["certified_by_homology"] == 0
        assert {v["order"] for v in report["violations"]} >= {2}

    def test_conjugacy_outside_the_kernel_iterates(self):
        # Nielsen samples are not congruence-kernel samples: no assertion
        # stops the run, the mod-3 certificate takes nothing, and the
        # genuine periods are reported
        cfg = ExperimentConfig(rank=2, family="nielsen", samples=3, budget=3, seed=1)
        report = run_conjugacy_experiment(cfg)
        assert report["outcomes_outer"][CERTIFIED] == report["outcomes_aut"][CERTIFIED] == 0
        assert report["outcomes_outer"]["Period(>1)"] > 0
        assert report["violations"]

    def test_splitting_small(self):
        report = run_splitting_experiment(ExperimentConfig(rank=2, **FAST))
        assert report["violations"] == []
        assert report["identity_sanity_period1"]
        assert report["control"]["outcomes"]["Period(>1)"] >= 1

    def test_splitting_rank_past_the_symmetry_cap_is_refused(self, monkeypatch):
        def never(*args):
            raise AssertionError("sampled before the rank was refused")

        monkeypatch.setattr(harness, "draw", never)
        with pytest.raises(ValueError, match="645120 automorphisms"):
            run_splitting_experiment(ExperimentConfig(rank=7, samples=1))

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_splitting_cap_counts_the_rose(self, rank):
        from math import factorial

        from aperiodic_lab.graphs import enumerate_automorphisms
        from aperiodic_lab.splittings import rose_marked

        rose = rose_marked(Alphabet(rank)).graph
        assert len(enumerate_automorphisms(rose)) == 2**rank * factorial(rank)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rank=1)
        with pytest.raises(ValueError):
            ExperimentConfig(samples=0)
        assert ExperimentConfig(budget=harness.MAX_BUDGET).budget == 12
        with pytest.raises(ValueError, match="budget must be at most 12"):
            ExperimentConfig(budget=13)
        with pytest.raises(SystemExit) as err:
            main(["torsion", "--budget", "13"])
        assert err.value.code == 2

    def test_cli_refuses_a_large_budget(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aperiodic_lab.cli", "conjugacy", "--budget", "20", "--samples", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "budget must be at most 12" in proc.stderr
        assert proc.stdout == ""


def bucket(outcome):
    if outcome.kind == "Period":
        return "Period(1)" if outcome.period == 1 else "Period(>1)"
    return outcome.kind


def conjugacy_probes(cfg):
    """The conjugacy runner's draws, redrawn: (phi, cyclic word) per probe."""
    alphabet = Alphabet(cfg.rank)
    gens = standard_generators(cfg.rank, cfg.family)
    rng = random.Random(cfg.seed)
    for _ in range(cfg.samples):
        phi = sample(gens, cfg.budget, rng.randrange(2**32))
        pool = [_random_cyclic_word(alphabet, cfg.pool_length, rng) for _ in range(cfg.pool_size)]
        for cyclic in pool:
            yield phi, cyclic


def factor_probes(cfg):
    """The factor runner's draws, redrawn: (phi, factor class) per probe."""
    gens = standard_generators(cfg.rank, cfg.family)
    nielsen = standard_generators(cfg.rank, "nielsen")
    rng = random.Random(cfg.seed)
    for _ in range(cfg.samples):
        phi = sample(gens, cfg.budget, rng.randrange(2**32))
        witness = sample(nielsen, min(cfg.budget, 4), rng.randrange(2**32))
        subsets = _random_proper_subsets(cfg.rank, rng)
        for cls in FreeFactorSystem(witness, subsets).classes:
            yield phi, cls


def splitting_probes(cfg):
    """The splitting runner's draws, redrawn: (phi, marked graph) per probe."""
    gens = standard_generators(cfg.rank, cfg.family)
    pool = default_splitting_pool(Alphabet(cfg.rank))
    rng = random.Random(cfg.seed)
    for _ in range(cfg.samples):
        phi = sample(gens, cfg.budget, rng.randrange(2**32))
        for marked in pool:
            yield phi, marked


CERTIFICATES = (CERTIFIED, CERTIFIED_BY_NILPOTENT, CERTIFIED_BY_COVER, CERTIFIED_BY_CONJUGATOR)
# the certificates that hold only for M = I mod 3
MOD_3_CERTIFICATES = (CERTIFIED, CERTIFIED_BY_NILPOTENT, CERTIFIED_BY_CONJUGATOR)


def assert_runner_matches_iteration(hist, iterated, uncertified, certified):
    """``hist`` from a runner; ``iterated`` buckets every probe by its
    iterated outcome, ``uncertified`` only the probes no certificate took,
    and ``certified`` counts those each certificate took.  Only the Aut
    histogram has a CertifiedByConjugator bucket."""
    for key in CERTIFICATES:
        assert hist.get(key, 0) == certified[key], key
    for key in ("Period(1)", "Period(>1)"):
        assert hist[key] == iterated[key]
    assert (
        sum(hist.get(key, 0) for key in CERTIFICATES) + hist["NoPeriodWithin"] + hist["Blowup"]
        == iterated["NoPeriodWithin"] + iterated["Blowup"]
    )
    assert {k: v for k, v in hist.items() if k not in CERTIFICATES} == {
        k: uncertified[k] for k in ("Period(1)", "Period(>1)", "NoPeriodWithin", "Blowup")
    }


def rational_rank(vectors):
    """The rank of ``vectors`` over Q, by elimination over fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def in_rational_span(x, spanning):
    return rational_rank(list(spanning) + [x]) == rational_rank(spanning)


def omega_matrix(word):
    """Omega(w) from its definition, the sum over k of [l_1 ... l_(k-1)] ^
    [l_k], as the antisymmetric matrix whose entry (i, j) is the
    coefficient of e_i ^ e_j (a ^ b has entries a_i b_j - a_j b_i),
    flattened row by row."""
    n = word.alphabet.rank
    prefix = [0] * n
    omega = [[0] * n for _ in range(n)]
    for letter in word.letters:
        k, sign = abs(letter) - 1, 1 if letter > 0 else -1
        for i in range(n):
            omega[i][k] += sign * prefix[i]
            omega[k][i] -= sign * prefix[i]
        prefix[k] += sign
    return [x for row in omega for x in row]


def wedge_matrix(a, b):
    return [x * y - a[j] * b[i] for i, x in enumerate(a) for j, y in enumerate(b)]


def nilpotent_certifies(phi, word):
    """The class-2 rule read from scratch on the composed word phi(w): M = I
    mod 3, Mv = v for v = [w], and Omega(phi(w)) - Omega(w) is not v ^ u
    for any rational u."""
    image, v = phi.apply(word), word_exponent_vector(word)
    if not congruent_to_identity(abelianization(phi)) or word_exponent_vector(image) != v:
        return False
    delta = [x - y for x, y in zip(omega_matrix(image), omega_matrix(word))]
    units = identity_matrix(len(v))
    return not in_rational_span(delta, [wedge_matrix(v, e) for e in units])


def conjugator_certifies(phi, word):
    """The conjugator rule read from ``cyclic_reduce`` of the composed word
    phi(w), for w in least rotation: phi fixes the class of w, so phi(w) =
    c w c^-1, and M = I mod 3 with [c] not in Q [w]."""
    image = phi.apply(word)
    core, c = cyclic_reduce(image)
    if core != CyclicWord(word.alphabet, word.letters):
        return False
    assert image == c * word * c.inverse()
    moved = not in_rational_span(word_exponent_vector(c), [word_exponent_vector(word)])
    return congruent_to_identity(abelianization(phi)) and moved


def cover_certifies(phi, word):
    """The cover rule, read from scratch: ``word`` lies in K, and its class
    has no period under phi's action on H_1 of the mod-2 cover."""
    return phi.alphabet.rank <= COVER_MAX_RANK and certify_cover(cover_action(phi), cover_class(word))


def conjugacy_certificate(phi, word):
    """The certificate that takes a conjugacy probe, or None: the mod-3 rule
    on the exponent vector v written out, M = I mod 3 and Mv != v, then the
    class-2 rule, then the cover on w^2."""
    action, v = abelianization(phi), word_exponent_vector(word)
    moved = tuple(sum(x * y for x, y in zip(row, v)) for row in action) != v
    if congruent_to_identity(action) and moved:
        return CERTIFIED
    if nilpotent_certifies(phi, word):
        return CERTIFIED_BY_NILPOTENT
    if cover_certifies(phi, word**2):
        return CERTIFIED_BY_COVER
    return None


def exact_word_certificate(phi, word):
    """The certificate that takes an exact-word probe: that of its class,
    else the conjugator rule."""
    kind = conjugacy_certificate(phi, word)
    if kind is None and conjugator_certifies(phi, word):
        return CERTIFIED_BY_CONJUGATOR
    return kind


def factor_certificate(phi, cls):
    """The certificate that takes a factor probe, or None: the class-2 rule
    tests the generator w of a rank-1 factor <w>, and the cover w^2 for a
    rank-1 factor and [a, b] for a rank-2 factor <a, b>."""
    basis = cls.representative.generators()
    if certify_lattice(abelianization(phi), [word_exponent_vector(g) for g in basis]):
        return CERTIFIED
    if len(basis) == 1:
        if nilpotent_certifies(phi, basis[0]):
            return CERTIFIED_BY_NILPOTENT
        word = basis[0] ** 2
    else:
        a, b = basis
        word = a * b * a.inverse() * b.inverse()
    return CERTIFIED_BY_COVER if cover_certifies(phi, word) else None


def splitting_certificate(phi, marked):
    """The certificate that takes a splitting probe, or None: M != I for
    trivial vertex groups, M moving some vertex group's lattice otherwise,
    both only for M = I mod 3."""
    action = abelianization(phi)
    if not marked.vertex_groups:
        return CERTIFIED if certify_infinite_order(action) else None
    for gens in marked.vertex_groups.values():
        if certify_lattice(action, [word_exponent_vector(g) for g in gens]):
            return CERTIFIED
    return None


# max_iter 12 for the soundness of the certified probes, a low cap to keep
# their iteration short
ORACLE = dict(max_iter=12, length_cap=1500)


def check_against_oracle(probes, iterate, certificate, hist):
    """Iterate every probe, certified or not: no certified probe returns.
    The runner's histogram ``hist`` must take out of NoPeriodWithin and
    Blowup exactly the probes each certificate takes.  Returns the counts
    by certificate and the number of samples outside the kernel."""
    iterated, left, certified = Counter(), Counter(), Counter()
    outside = 0
    for phi, probe in probes:
        outcome = iterate(phi, probe)
        iterated[bucket(outcome)] += 1
        outside += not congruent_to_identity(abelianization(phi))
        kind = certificate(phi, probe)
        if kind is None:
            left[bucket(outcome)] += 1
            continue
        certified[kind] += 1
        assert outcome.kind != "Period", (kind, phi, probe)
        if kind in MOD_3_CERTIFICATES:
            assert congruent_to_identity(abelianization(phi))
    assert sum(certified.values()) < sum(iterated.values())
    assert_runner_matches_iteration(hist, iterated, left, certified)
    return certified, outside


class TestHomologyCertificates:
    """Each runner against iteration of every one of its probes through the
    public probe, certified or not: no certified probe returns, and the
    certified probes are exactly the runner's certificate buckets, taken out
    of NoPeriodWithin and Blowup.  The rules are read from scratch on the
    composed words, the class-2 one and the conjugator from phi(w).  The
    pinned seeds run at the budget and pool of their acceptance criterion,
    and so do their held-out shifts by 10 000."""

    @pytest.mark.parametrize(
        "rank, family, seed, budget, pool_size",
        [
            pytest.param(2, "ia3", 3, 3, 4, id="2-3"),
            pytest.param(3, "ia3", 4, 3, 4, id="3-4"),
            pytest.param(3, "ia3", 202, 3, 4, id="3-202"),
            pytest.param(2, "nielsen", 10, 3, 4, id="nielsen-2-10"),
            pytest.param(2, "ia3", 101, 5, 4, id="pinned-2-101"),
            pytest.param(3, "ia3", 202, 4, 3, id="pinned-3-202"),
            pytest.param(2, "ia3", 10_101, 5, 4, id="held-out-2-10101"),
            pytest.param(3, "ia3", 10_202, 4, 3, id="held-out-3-10202"),
        ],
    )
    def test_conjugacy_runner(self, rank, family, seed, budget, pool_size):
        cfg = ExperimentConfig(
            rank=rank, family=family, samples=40, budget=budget, pool_size=pool_size, seed=seed, **ORACLE
        )
        report = run_conjugacy_experiment(cfg)
        word_probes = [(phi, cyclic.as_word()) for phi, cyclic in conjugacy_probes(cfg)]

        def outer(phi, word):
            return orbit_period(phi, CyclicWord(word.alphabet, word.letters), cfg.max_iter, cfg.length_cap)

        def exact(phi, word):
            return exact_word_orbit(phi, word, cfg.max_iter, cfg.length_cap)

        certified, outside = check_against_oracle(
            word_probes, outer, conjugacy_certificate, report["outcomes_outer"]
        )
        certified_aut, outside_aut = check_against_oracle(
            word_probes, exact, exact_word_certificate, report["outcomes_aut"]
        )
        assert outside_aut == outside
        assert {k: v for k, v in certified_aut.items() if k != CERTIFIED_BY_CONJUGATOR} == certified
        assert CERTIFIED_BY_CONJUGATOR not in report["outcomes_outer"]
        if family == "ia3":
            assert certified[CERTIFIED] > 0 and outside == 0
            assert certified_aut[CERTIFIED_BY_CONJUGATOR] > 0
        else:
            assert outside > 0 and sum(certified_aut[key] for key in MOD_3_CERTIFICATES) == 0
        if rank == 2:
            # the class-2 rule cannot hold at rank 2
            assert certified[CERTIFIED_BY_NILPOTENT] == 0
        if seed in (202, 10_202):
            # rank 3 words whose exponent vectors M fixes
            assert certified[CERTIFIED_BY_NILPOTENT] > 0 and certified[CERTIFIED_BY_COVER] > 0

    @pytest.mark.parametrize(
        "family, seed",
        [
            ("ia3", 5),
            ("nielsen", 6),
            pytest.param("ia3", 303, id="pinned-303"),
            pytest.param("ia3", 10_303, id="held-out-10303"),
        ],
    )
    def test_factor_runner(self, family, seed):
        budget = 4 if seed in (303, 10_303) else 3
        cfg = ExperimentConfig(rank=3, family=family, samples=30, budget=budget, seed=seed, **ORACLE)

        def iterate(phi, cls):
            return orbit_period(phi, cls, cfg.max_iter, cfg.length_cap)

        certified, outside = check_against_oracle(
            factor_probes(cfg), iterate, factor_certificate, run_factor_experiment(cfg)["outcomes"]
        )
        assert certified[CERTIFIED_BY_COVER] > 0
        if family == "ia3":
            assert certified[CERTIFIED] > 0 and outside == 0
            # rank-1 factors <w> whose exponent vector M fixes
            assert certified[CERTIFIED_BY_NILPOTENT] > 0
        else:
            assert outside > 0 and sum(certified[key] for key in MOD_3_CERTIFICATES) == 0

    @pytest.mark.parametrize("rank, family, seed", [(2, "ia3", 7), (3, "ia3", 8), (2, "nielsen", 9)])
    def test_splitting_runner(self, rank, family, seed):
        cfg = ExperimentConfig(rank=rank, family=family, samples=10, budget=3, seed=seed, **ORACLE)

        def iterate(phi, marked):
            return splitting_orbit_period(marked, phi, cfg.max_iter, cfg.length_cap)

        probes = list(splitting_probes(cfg))
        certified, outside = check_against_oracle(
            probes, iterate, splitting_certificate, run_splitting_experiment(cfg)["outcomes"]
        )
        assert set(certified) <= {CERTIFIED}
        if family == "ia3":
            assert outside == 0
            with_groups = [(phi, m) for phi, m in probes if m.vertex_groups]
            assert 0 < sum(splitting_certificate(phi, m) is not None for phi, m in with_groups)
        else:
            assert outside > 0 and certified[CERTIFIED] == 0

    def test_controls_are_never_certified(self):
        a2, a3 = Alphabet(2), Alphabet(3)
        sw, cycle = abelianization(swap(a2, 1, 2)), abelianization(basis_cycle(a3, [1, 2, 3]))
        for v in ((1, 0), (0, 1), (1, 1), (1, -1)):
            assert not certify_lattice(sw, [v])
        for v in identity_matrix(3):
            assert not certify_lattice(cycle, [v])
        assert not certify_infinite_order(sw) and not certify_infinite_order(cycle)
        cfg = ExperimentConfig(rank=3, samples=2, budget=3, **ORACLE)
        for report in (
            run_conjugacy_experiment(ExperimentConfig(rank=2, samples=2, budget=3, **ORACLE)),
            run_factor_experiment(cfg),
            run_splitting_experiment(cfg),
        ):
            for key in CERTIFICATES:
                assert report["control"]["outcomes"].get(key, 0) == 0


def compose_from_identity(gens, budget, seed):
    """``aut.sample`` as one loop: each factor drawn and composed onto the
    product so far, from the identity."""
    rng = random.Random(seed)
    result = identity_automorphism(gens[0].alphabet)
    for _ in range(budget):
        gen = gens[rng.randrange(len(gens))]
        if rng.random() < 0.5:
            gen = inverse(gen)
        result = compose(result, gen)
    return result


PINNED_SEEDS = (101, 202, 303, 404, 505, 506)


class TestMatrixFirstSampling:
    """The runners know a sample first by the product of its factors'
    matrices, and build its words and its cover action on first use."""

    @pytest.mark.parametrize("family", ["ia3", "nielsen"])
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_drawn_product_matches_the_composed_sample(self, rank, family):
        # rank 4 is past COVER_MAX_RANK; nielsen brings det -1 factors
        gens = standard_generators(rank, family)
        drawn_family = _Family(rank, family)
        for seed in PINNED_SEEDS + tuple(s + 10_000 for s in PINNED_SEEDS):
            for budget in range(1, 7):
                oracle = compose_from_identity(gens, budget, seed)
                phi = sample(gens, budget, seed)
                assert (phi, phi.backward) == (oracle, oracle.backward)
                drawn = drawn_family.sample(budget, seed)
                assert drawn.action == abelianization(phi)
                assert (drawn.phi, drawn.phi.backward) == (oracle, oracle.backward)
                cover = cover_action(oracle) if rank <= COVER_MAX_RANK else None
                assert drawn.cover == cover

    @pytest.mark.parametrize("family", ["ia3", "nielsen"])
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_nilpotent_product_matches_the_composed_words(self, rank, family):
        # the product of the factors' class-2 matrices against the blocks
        # read from the composed words: ^2 M from the 2 x 2 minors of M, and
        # column i of L from Omega(phi(x_i)) by its definition
        gens = standard_generators(rank, family)
        drawn_family = _Family(rank, family)
        pairs = list(itertools.combinations(range(rank), 2))
        flat = [i * rank + j for i, j in pairs]
        for seed in PINNED_SEEDS + tuple(s + 10_000 for s in PINNED_SEEDS):
            for budget in range(1, 7):
                oracle = compose_from_identity(gens, budget, seed)
                m = abelianization(oracle)
                square = [[m[i][k] * m[j][l] - m[i][l] * m[j][k] for k, l in pairs] for i, j in pairs]
                omegas = [omega_matrix(image) for image in oracle.forward]
                low = [[omegas[c][f] for c in range(rank)] for f in flat]
                expected = tuple(
                    tuple(row)
                    for row in [list(r) + [0] * len(pairs) for r in m]
                    + [low[r] + square[r] for r in range(len(pairs))]
                )
                drawn = drawn_family.sample(budget, seed)
                assert drawn.nilpotent == expected, (seed, budget)
                assert nilpotent_action(oracle) == expected

    @staticmethod
    def count_calls(monkeypatch):
        calls = Counter()
        for name in ("compose", "cover_action"):
            real = getattr(harness, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(harness, name, counted)
        return calls

    @pytest.mark.parametrize("rank, seed, samples", [(2, 505, 200), (3, 506, 50)])
    def test_torsion_composes_only_uncertified_samples(self, monkeypatch, rank, seed, samples):
        calls = self.count_calls(monkeypatch)
        cfg = ExperimentConfig(rank=rank, samples=samples, budget=4, max_iter=12, length_cap=20_000, seed=seed)
        report = run_torsion_experiment(cfg)
        composed = report["attempts"] - report["certified_by_homology"]
        assert 0 < composed < report["attempts"]
        # budget - 1 compose calls build one sample's words
        assert calls == Counter(compose=(cfg.budget - 1) * composed)

    def test_conjugacy_builds_words_and_cover_only_where_a_certificate_declined(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        cfg = ExperimentConfig(
            rank=3, samples=10, budget=4, pool_size=3, pool_length=6, max_iter=12, length_cap=10_000, seed=202
        )
        run_conjugacy_experiment(cfg)
        probes = [(phi, cyclic.as_word()) for phi, cyclic in conjugacy_probes(cfg)]
        mod_3_declined = composed = 0
        for i in range(0, len(probes), cfg.pool_size):
            pool = probes[i : i + cfg.pool_size]
            action = abelianization(pool[0][0])
            mod_3_declined += any(
                not certify_lattice(action, [word_exponent_vector(w)]) and not nilpotent_certifies(phi, w)
                for phi, w in pool
            )
            composed += any(conjugacy_certificate(phi, w) is None for phi, w in pool)
        assert 0 < composed <= mod_3_declined < cfg.samples
        assert calls == Counter(compose=(cfg.budget - 1) * composed, cover_action=mod_3_declined)

    @pytest.mark.parametrize("shift", [0, 10_000])
    @pytest.mark.parametrize("rank, seed, samples", [(2, 505, 200), (3, 506, 150)])
    def test_torsion_certified_samples_have_infinite_order(self, monkeypatch, rank, seed, samples, shift):
        # every sample of criterion 8 and of its held-out shift that
        # certify_infinite_order takes has no finite order at all
        certified = []
        real = harness.certify_infinite_order

        def recorded(m):
            if real(m):
                certified.append(m)
                return True
            return False

        monkeypatch.setattr(harness, "certify_infinite_order", recorded)
        cfg = ExperimentConfig(
            rank=rank, samples=samples, budget=4, max_iter=12, length_cap=20_000, seed=seed + shift
        )
        report = run_torsion_experiment(cfg)
        assert len(certified) == report["certified_by_homology"] > 0
        assert all(finite_order(m) is None for m in certified)


def refusal(capsys, argv):
    """The message with which ``main`` refuses ``argv``: it exits 2 and
    writes nothing to stdout, and to stderr only argparse's usage and one
    error line, no traceback."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, stderr = capsys.readouterr()
    assert out == ""
    lines = stderr.splitlines()
    assert lines[0].startswith(f"usage: aperiodic-lab {argv[0]}")
    errors = [line for line in lines if ": error: " in line]
    assert errors == lines[-1:] and "Traceback" not in stderr
    prefix = f"aperiodic-lab {argv[0]}: error: "
    assert errors[0].startswith(prefix)
    return errors[0][len(prefix):]


class TestCLI:
    def test_minkowski_exit_zero(self, capsys):
        assert main(["minkowski", "--rank", "2", "--bound", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == []

    def test_minkowski_level_one_exit_one(self, capsys):
        assert main(["minkowski", "--rank", "2", "--bound", "2", "--level", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violations"]

    def test_abelian(self, capsys):
        assert main(["abelian", "--rank", "2", "--bound", "3"]) == 0

    def test_torsion_roundtrip(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(
            ["torsion", "--samples", "5", "--budget", "3", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["experiment"] == "torsion"

    @pytest.mark.parametrize("command", ["factors", "torsion", "splittings"])
    def test_pool_flags_only_on_conjugacy(self, command, capsys):
        # only the conjugacy experiment reads the word pool
        for flag in ("--pool-size", "--pool-length"):
            with pytest.raises(SystemExit) as err:
                main([command, flag, "3"])
            assert err.value.code == 2
        assert "--pool-size" in capsys.readouterr().err

    def test_rtt_analyze_builtin(self, capsys):
        assert main(["rtt-analyze", "--map", "fibonacci", "--trials", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bcc"] == 3
        assert report["strata"][0]["class"] == "EG"

    def test_rtt_analyze_refuses_negative_trials(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["rtt-analyze", "--map", "fibonacci", "--trials", "-5"])
        assert err.value.code == 2
        assert "--trials: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("rank", ["3", "1"])
    def test_rtt_analyze_refuses_a_builtin_map_at_another_rank(self, rank, capsys):
        # every builtin map is rank 2; --rank is read with --file
        assert refusal(capsys, ["rtt-analyze", "--map", "fibonacci", "--rank", rank]) == (
            f"builtin map 'fibonacci' is rank 2, not --rank {rank}; --rank is read with --file"
        )

    def test_rtt_analyze_computes_the_constant_once(self, monkeypatch, capsys):
        # one bcc_bound per report, not one per cancellation trial
        from aperiodic_lab import rtt

        calls = []
        bound = rtt.bcc_bound
        monkeypatch.setattr(rtt, "bcc_bound", lambda f: calls.append(f) or bound(f))
        assert main(["rtt-analyze", "--map", "period2", "--trials", "200"]) == 0
        assert json.loads(capsys.readouterr().out)["bcc"] == 4
        assert len(calls) == 1

    def test_rtt_analyze_file(self, tmp_path, capsys):
        from aperiodic_lab.rtt import graph_map_str
        from aperiodic_lab.splittings import graph_map_from_words, rose_marked
        from aperiodic_lab.words import Alphabet, parse_word

        a2 = Alphabet(2)
        fib = graph_map_from_words(
            rose_marked(a2), [parse_word(a2, "ab"), parse_word(a2, "a")]
        )
        path = tmp_path / "map.txt"
        path.write_text(graph_map_str(fib))
        assert main(["rtt-analyze", "--file", str(path), "--trials", "20"]) == 0

    @pytest.mark.parametrize(
        "edit, rank, error",
        [
            (lambda text: text, "3", "rank bookkeeping failed: 2 loops + 0 vertex generators != 3"),
            (
                lambda text: text.replace("0 -> 0+,1+", "0 -> 0*"),
                "2",
                "bad line '0 -> 0*': darts are written 'e+' or 'e-'",
            ),
        ],
        ids=["rank", "dart-token"],
    )
    def test_rtt_analyze_refuses_a_bad_file_in_one_line(self, tmp_path, capsys, edit, rank, error):
        from aperiodic_lab.rtt import graph_map_str
        from aperiodic_lab.splittings import graph_map_from_words, rose_marked

        a2 = Alphabet(2)
        fib = graph_map_from_words(rose_marked(a2), [words.parse_word(a2, "ab"), words.parse_word(a2, "a")])
        path = tmp_path / "map.txt"
        path.write_text(edit(graph_map_str(fib)))
        argv = ["rtt-analyze", "--file", str(path), "--rank", rank]
        assert refusal(capsys, argv) == f"graph-map file {path}: {error}"

    def test_rtt_analyze_refuses_a_missing_file_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "missing.txt"
        message = refusal(capsys, ["rtt-analyze", "--file", str(path)])
        assert message.startswith(f"graph-map file {path}: [Errno 2] No such file")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["conjugacy", "--rank", "1"], "free-group experiments need rank >= 2"),
            (["conjugacy", "--samples", "0"], "samples must be positive"),
            (["torsion", "--budget", "13"], "budget must be at most 12, got 13"),
            (["minkowski", "--rank", "4"], "scan limited to n <= 3, bound <= 8"),
            (["abelian", "--bound", "9"], "scan limited to n <= 3, bound <= 8"),
            (["splittings", "--rank", "7"], "rank 7: the rose has 645120 automorphisms, over 100000"),
            (["rtt-analyze", "--map", "fibonaci"], "unknown builtin map 'fibonaci'"),
            (["rtt-analyze"], "rtt-analyze needs --file or --map"),
        ],
    )
    def test_refused_input_exits_two(self, capsys, argv, message):
        # a run that finds violations exits 1 (test_minkowski_level_one_exit_one)
        assert refusal(capsys, argv).startswith(message)

    def test_error_after_the_run_starts_keeps_its_traceback(self, monkeypatch):
        def fail(*args):
            raise ValueError("raised inside the run")

        monkeypatch.setattr(harness, "run_torsion_experiment", fail)
        with pytest.raises(ValueError, match="raised inside the run"):
            main(["torsion", "--samples", "1"])

    @pytest.mark.parametrize("command", ["minkowski", "abelian", "rtt-analyze"])
    def test_csv_only_on_the_experiments(self, command, capsys):
        # only the experiments' reports hold outcome histograms
        with pytest.raises(SystemExit) as err:
            main([command, "--csv", "out.csv"])
        assert err.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "images, seed, n_trial_violations, digest",
        [
            (("a", "a"), 0, 106, "c2081acb113d1747"),
            (("a", "a"), 1, 112, "5c95e99c12aff09e"),
            (("abab", "ab"), 0, 135, "81c0ffd7fe5ab9b2"),
            (("abab", "ab"), 1, 144, "9296828e2cc23f5d"),
        ],
    )
    def test_rtt_analyze_trial_stream_is_pinned(
        self, tmp_path, capsys, images, seed, n_trial_violations, digest
    ):
        # no builtin map ever exceeds its constant, so only maps that are no
        # homotopy equivalence show the seeded paths and splits in a report
        import hashlib

        from aperiodic_lab.rtt import graph_map_str
        from aperiodic_lab.splittings import graph_map_from_words, rose_marked

        a2 = Alphabet(2)
        graph_map = graph_map_from_words(rose_marked(a2), [words.parse_word(a2, w) for w in images])
        path = tmp_path / "map.txt"
        path.write_text(graph_map_str(graph_map))
        argv = ["rtt-analyze", "--file", str(path), "--trials", "1000", "--seed", str(seed)]
        assert main(argv) == 1
        report = strip_elapsed(json.loads(capsys.readouterr().out))
        assert sum("trial" in v for v in report["violations"]) == n_trial_violations
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_csv_output(self, tmp_path):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        main(
            [
                "conjugacy",
                "--samples", "4",
                "--budget", "2",
                "--pool-size", "2",
                "--out", str(out),
                "--csv", str(csv_path),
            ]
        )
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "histogram,outcome,count"
        assert len(lines) > 1

    def test_factors_csv_has_certified_row(self, tmp_path):
        out, csv_path = tmp_path / "f.json", tmp_path / "f.csv"
        argv = ["factors", "--samples", "4", "--max-iter", "6", "--seed", "2"]
        assert main(argv + ["--out", str(out), "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["histogram", "outcome", "count"]
        counts = {outcome: int(count) for key, outcome, count in rows[1:] if key == "outcomes"}
        assert counts == json.loads(out.read_text())["outcomes"]
        assert counts[CERTIFIED] > 0
        assert counts[CERTIFIED_BY_COVER] > 0

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aperiodic_lab.cli", "minkowski", "--rank", "1", "--bound", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["violations"] == []
