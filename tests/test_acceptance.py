"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
tolerance and budget is pinned here.
"""

import itertools
import math
import random
import time

import pytest

from aperiodic_lab.aut import (
    sample,
    standard_generators,
    swap,
)
from aperiodic_lab.graphs import (
    connected_multigraphs,
    enumerate_automorphisms,
    ivanov_check,
)
from aperiodic_lab.homology import (
    abelian_standing_assumptions_check,
    mat_pow,
    minkowski_scan,
    per_subgroup,
    _congruence_matrices,
)
from aperiodic_lab.harness import (
    ExperimentConfig,
    run_conjugacy_experiment,
    run_factor_experiment,
    run_splitting_experiment,
    run_torsion_experiment,
)
from aperiodic_lab.rtt import (
    aperiodic_partition,
    bcc_bound,
    bcc_inequality_holds,
    filtration_of,
    random_tight_path,
    verify_rtt,
)
from aperiodic_lab.splittings import graph_map_from_words, rose_marked
from aperiodic_lab.subgroups import (
    cores_conjugate,
    fold_core,
    membership,
)
from aperiodic_lab.words import Alphabet, Word, all_reduced_words, parse_word

GOLDEN = (1 + math.sqrt(5)) / 2


def _announce(number, description):
    print(f"\nACCEPTANCE {number} PASS: {description}")


def test_criterion_1_minkowski_torsion_freeness():
    report = minkowski_scan(2, 6, level=3)
    assert report["violations"] == [], report["violations"]
    assert report["elapsed"] < 60.0
    control = minkowski_scan(2, 2, level=1)
    assert any(
        v["matrix"] == [[-1, 0], [0, -1]] for v in control["violations"]
    )
    _announce(
        1,
        f"GL_2(Z) box [-6,6] mod 3: {report['enumerated']} matrices, "
        f"0 finite-order violations in {report['elapsed']:.1f}s; "
        f"level-1 control finds {len(control['violations'])} violations",
    )


def test_criterion_2_abelian_per_equals_fix():
    report = abelian_standing_assumptions_check(2, 6)
    assert report["violations"] == []
    # brute-force lattice-orbit oracle: vectors with entries <= 5, k <= 12
    checked = 0
    for m in _congruence_matrices(2, 6, 3):
        lattice = per_subgroup(m)
        powers = [mat_pow(m, k) for k in range(1, 13)]
        for vec in itertools.product(range(-5, 6), repeat=2):
            periodic = any(
                tuple(
                    sum(p[i][j] * vec[j] for j in range(2)) for i in range(2)
                )
                == vec
                for p in powers
            )
            if periodic:
                assert lattice.contains(vec), (m, vec)
                checked += 1
    _announce(
        2,
        f"Per = Fix for all {report['enumerated']} congruence matrices; "
        f"{checked} brute-force periodic vectors all inside Per",
    )


def test_criterion_3_graph_automorphism_lemma():
    start = time.perf_counter()
    n_graphs = n_autos = 0
    for graph in connected_multigraphs(6):
        n_graphs += 1
        for f in enumerate_automorphisms(graph):
            n_autos += 1
            ivanov_check(graph, f)  # raises TheoremViolation on failure
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(
        3,
        f"{n_graphs} connected multigraphs (<= 6 edges), {n_autos} "
        f"automorphisms classified without TheoremViolation in {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def conjugacy_reports():
    start = time.perf_counter()
    reports = [
        run_conjugacy_experiment(
            ExperimentConfig(
                rank=2, samples=600, budget=5, pool_size=4, pool_length=6,
                max_iter=12, length_cap=10_000, seed=101,
            )
        ),
        run_conjugacy_experiment(
            ExperimentConfig(
                rank=3, samples=400, budget=4, pool_size=3, pool_length=6,
                max_iter=12, length_cap=10_000, seed=202,
            )
        ),
    ]
    return reports, time.perf_counter() - start


# the Period(1) counts that iteration finds on the pinned configurations; a
# certificate may only take probes out of NoPeriodWithin and Blowup
PERIOD_ONE = {
    ("conjugacy", 101, "outcomes_outer"): 593,
    ("conjugacy", 202, "outcomes_outer"): 154,
    ("conjugacy", 101, "outcomes_aut"): 78,
    ("conjugacy", 202, "outcomes_aut"): 76,
    ("factors", 303, "outcomes"): 105,
}


def _assert_periods_kept(report, key):
    hist = report[key]
    assert hist["Period(1)"] == PERIOD_ONE[report["experiment"], report["config"]["seed"], key]
    assert hist["Period(>1)"] == 0


def _assert_conjugacy_histogram(report, key):
    # every probe lands in one bucket, and only the Aut histogram has the
    # conjugator's
    _assert_periods_kept(report, key)
    config = report["config"]
    assert sum(report[key].values()) == config["samples"] * config["pool_size"]
    assert "CertifiedByConjugator" not in report["outcomes_outer"]
    assert "CertifiedByConjugator" in report["outcomes_aut"]


def test_criterion_4_periodic_conjugacy_classes_fixed(conjugacy_reports):
    reports, elapsed = conjugacy_reports
    total = sum(r["trials"] for r in reports)
    assert total >= 1000
    for report in reports:
        _assert_conjugacy_histogram(report, "outcomes_outer")
        assert [v for v in report["violations"] if v["mode"] == "outer"] == []
        assert report["control"]["nontrivial_periods"] >= 1
    assert elapsed < 120.0
    hist = {
        k: sum(r["outcomes_outer"][k] for r in reports)
        for k in reports[0]["outcomes_outer"]
    }
    _announce(
        4,
        f"{total} sampled congruence automorphisms (N = 2, 3), word orbits "
        f"{hist}, zero Period(>1), swap control has genuine 2-orbits, "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_periodic_elements_fixed_aut_version(conjugacy_reports):
    reports, _ = conjugacy_reports
    for report in reports:
        _assert_conjugacy_histogram(report, "outcomes_aut")
        assert [v for v in report["violations"] if v["mode"] == "aut"] == []
    hist = {
        k: sum(r["outcomes_aut"][k] for r in reports)
        for k in reports[0]["outcomes_aut"]
    }
    _announce(5, f"exact-word orbits under fixed representatives: {hist}, zero Period(>1)")


def test_criterion_6_periodic_free_factors_fixed():
    report = run_factor_experiment(
        ExperimentConfig(
            rank=3, samples=500, budget=4, max_iter=12, length_cap=3000, seed=303
        )
    )
    assert report["violations"] == []
    _assert_periods_kept(report, "outcomes")
    assert report["control"]["period"] == 3
    _announce(
        6,
        f"500 samples over witness factor pools (N = 3): {report['outcomes']}, "
        f"3-cycle control has Period(3)",
    )


def test_criterion_7_periodic_free_splittings_fixed():
    report = run_splitting_experiment(
        ExperimentConfig(
            rank=2, samples=200, budget=4, max_iter=8, length_cap=3000, seed=404
        )
    )
    assert report["pool_size"] >= 3
    assert report["violations"] == []
    assert report["outcomes"]["Period(>1)"] == 0
    _announce(
        7,
        f"200 samples against {report['pool_size']} marked graphs: "
        f"{report['outcomes']}, zero Period(>1)",
    )


def test_criterion_8_torsion_freeness():
    reports = [
        run_torsion_experiment(
            ExperimentConfig(
                rank=2, samples=200, budget=4, max_iter=12, length_cap=20_000, seed=505
            )
        ),
        run_torsion_experiment(
            ExperimentConfig(
                rank=3, samples=150, budget=4, max_iter=12, length_cap=20_000, seed=506
            )
        ),
    ]
    trials = sum(r["trials"] for r in reports)
    assert trials >= 300
    for report in reports:
        assert report["violations"] == []
        assert report["control"]["order"] == 2
    by_iteration = sum(r["checked_by_iteration"] for r in reports)
    # rank 3 produces genuinely integrally-trivial samples, so the power
    # iteration path must actually run
    assert by_iteration > 0
    _announce(
        8,
        f"{trials} non-inner congruence samples (N = 2, 3), no inner power "
        f"up to 12 ({sum(r['certified_by_homology'] for r in reports)} certified "
        f"by homology, {by_iteration} by iteration); swap control has order 2",
    )


def test_criterion_9_transition_analytics():
    a2 = Alphabet(2)
    fib = graph_map_from_words(
        rose_marked(a2), [parse_word(a2, "ab"), parse_word(a2, "a")]
    )
    stratum = filtration_of(fib).strata[0]
    assert stratum.kind == "EG"
    assert abs(stratum.pf_eigenvalue - 1.6180339887) <= 1e-8
    assert aperiodic_partition(fib, stratum)["aperiodic"]

    doubling = graph_map_from_words(
        rose_marked(a2), [parse_word(a2, "bb"), parse_word(a2, "aa")]
    )
    partition = aperiodic_partition(doubling, filtration_of(doubling).strata[0])
    assert partition["period"] == 2
    assert sorted(map(sorted, partition["classes"])) == [[0], [1]]
    # mapping property: class i maps into class i + 1 mod 2
    for i, cls in enumerate(partition["classes"]):
        nxt = set(partition["classes"][(i + 1) % 2])
        for e in cls:
            assert {d >> 1 for d in doubling.edge_images[e]} <= nxt

    rtt_report = verify_rtt(fib)
    assert rtt_report["all_pass"]
    _announce(
        9,
        f"lambda = {stratum.pf_eigenvalue:.10f} (golden ratio, tol 1e-8), "
        f"aperiodic; doubling map has period 2 with classes {{a}}, {{b}} "
        f"satisfying the mapping property; train track conditions pass",
    )


def test_criterion_10_bounded_cancellation():
    a2 = Alphabet(2)
    shipped = {
        "fibonacci": ["ab", "a"],
        "period2": ["bb", "aa"],
        "two-strata": ["a", "ba"],
        "identity": ["a", "b"],
    }
    rng = random.Random(606)
    total = 0
    for name, words in shipped.items():
        graph_map = graph_map_from_words(
            rose_marked(a2), [parse_word(a2, s) for s in words]
        )
        graph = graph_map.domain.graph
        for _ in range(1000):
            path = random_tight_path(graph, rng.randrange(1, 51), rng)
            split = rng.randrange(0, len(path) + 1)
            assert bcc_inequality_holds(graph_map, path[:split], path[split:]), (
                name,
                path,
                split,
            )
            total += 1
    _announce(
        10,
        f"{total} random tight splittings across {len(shipped)} shipped maps "
        f"satisfy the cancellation inequality",
    )


def test_criterion_11_oracle_agreements():
    a2 = Alphabet(2)
    rng = random.Random(707)

    # membership vs brute-force products: <= 4 generators of length <= 4,
    # products of <= 4 factors
    pool = [w for w in all_reduced_words(a2, 4) if len(w)]
    membership_checked = 0
    for _ in range(30):
        gens = rng.sample(pool, rng.randrange(1, 5))
        core = fold_core(a2, gens)
        elements = {Word(a2)}
        frontier = {Word(a2)}
        for _ in range(4):
            frontier = {
                prev * g
                for prev in frontier
                for gen in gens
                for g in (gen, gen.inverse())
            }
            elements |= frontier
        for word in elements:
            assert membership(word, core)
            membership_checked += 1

    # cores_conjugate vs bounded conjugator search (length <= 6)
    conjugators = all_reduced_words(a2, 6)
    short_pool = [w for w in all_reduced_words(a2, 2) if len(w)]
    conjugacy_checked = 0
    for _ in range(25):
        gens_h = rng.sample(short_pool, 2)
        gens_k = rng.sample(short_pool, 2)
        h_core, k_core = fold_core(a2, gens_h), fold_core(a2, gens_k)
        brute = any(
            all(membership(g * x * g.inverse(), k_core) for x in gens_h)
            and all(membership(g.inverse() * y * g, h_core) for y in gens_k)
            for g in conjugators
        )
        assert cores_conjugate(h_core, k_core) == brute
        conjugacy_checked += 1

    # is_inner vs brute-force conjugators (length <= 6)
    from aperiodic_lab.aut import is_inner

    gens = standard_generators(2, "nielsen") + standard_generators(2, "ia3")
    inner_checked = 0
    while inner_checked < 150:
        phi = sample(gens, rng.randrange(1, 4), rng.randrange(2**32))
        if phi.max_image_length() > 6:
            continue
        brute = next(
            (
                g
                for g in conjugators
                if all(
                    phi.forward[i - 1] == g * Word(a2, (i,)) * g.inverse()
                    for i in a2.letters()
                )
            ),
            None,
        )
        mine = is_inner(phi)
        assert (mine is None) == (brute is None)
        inner_checked += 1

    _announce(
        11,
        f"oracle agreement 100%: membership on {membership_checked} products, "
        f"conjugacy on {conjugacy_checked} pairs, innerness on {inner_checked} "
        f"automorphisms",
    )
