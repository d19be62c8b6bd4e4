"""Seeded theorem-verification experiments with JSON reports.

Each runner samples outer automorphisms from the homologically trivial
(mod 3) generator family, probes orbits of conjugacy classes, free factor
classes, or splittings, and records a histogram of outcomes.  Before a
probe iterates, a certificate may prove that it has no period at all: one
from the action on H_1(F_N) counts it as CertifiedByHomology, one from the
action on the free nilpotent quotient of class 2 as CertifiedByNilpotent,
one from the action on H_1 of the mod-2 cover as CertifiedByCover, and,
for an exact word whose class the sample fixes, one from the conjugator as
CertifiedByConjugator (see the certificates in ``homology``).  A
violation is a Period(p > 1) outcome under the congruence hypothesis; the
shipped configurations expect zero.  Control sections rerun the probe with
automorphisms outside the congruence kernel, where genuine periods exist,
so the hypotheses are shown necessary.

Reports are deterministic functions of (config, seed) apart from the
elapsed field.  The runners return them, and the CLI writes them.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from .aut import (
    FreeAutomorphism,
    _certified,
    _inner_conjugator,
    ad,
    basis_cycle,
    compose,
    draw,
    identity_automorphism,
    inverse,
    sample,
    standard_generators,
    swap,
)
from .homology import (
    COVER_MAX_RANK,
    IntMatrix,
    abelianization,
    certify_conjugator,
    certify_cover,
    certify_infinite_order,
    certify_lattice,
    certify_nilpotent,
    cover_action,
    cover_class,
    mat_mul,
    nilpotent_action,
    nilpotent_coordinates,
    word_exponent_vector,
)
from .splittings import (
    MarkedGraph,
    certify_splitting,
    edge_of_groups,
    rose_marked,
    splitting_orbit_period,
    theta_marked,
)
from .subgroups import (
    BLOWUP,
    FreeFactorSystem,
    OrbitOutcome,
    _first_return,
    exact_word_orbit,
    orbit_period,
    subgroup_class,
)
from .words import Alphabet, CyclicWord, Word, cyclic_reduce, word_str


# the largest budget a runner accepts: sampled images grow exponentially in
# it.  The forward images of ``sample`` from the ``ia3`` family, over seeds
# 0-19 at ranks 2-8, total at most 4 392 letters at budget 12 and 18 246 at
# budget 15; at rank 4 and budget 20 they reach 437 414
MAX_BUDGET = 12


@dataclass(frozen=True)
class ExperimentConfig:
    rank: int = 2
    family: str = "ia3"
    samples: int = 100
    budget: int = 5
    pool_size: int = 5
    pool_length: int = 6
    max_iter: int = 12
    length_cap: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("free-group experiments need rank >= 2")
        for name in ("samples", "budget", "pool_size", "pool_length", "max_iter", "length_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.budget > MAX_BUDGET:
            raise ValueError(f"budget must be at most {MAX_BUDGET}, got {self.budget}")


# probes that a certificate proves to have no period at all, from the action
# on H_1(F_N), on the class-2 nilpotent quotient or on H_1 of the mod-2
# cover; they are never iterated
CERTIFIED = "CertifiedByHomology"
CERTIFIED_BY_NILPOTENT = "CertifiedByNilpotent"
CERTIFIED_BY_COVER = "CertifiedByCover"
# exact words whose conjugacy class the sample fixes, and whose conjugator
# proves that the word itself has no period; a bucket of the Aut histogram
# only, as the class's own outcome is Period(1)
CERTIFIED_BY_CONJUGATOR = "CertifiedByConjugator"


def _histogram() -> Dict[str, int]:
    return {
        "Period(1)": 0,
        "Period(>1)": 0,
        "NoPeriodWithin": 0,
        "Blowup": 0,
        CERTIFIED: 0,
        CERTIFIED_BY_NILPOTENT: 0,
        CERTIFIED_BY_COVER: 0,
    }


class _Sample:
    """A sampled automorphism phi, known first by its action on H_1.

    H_1 is a functor, so ``action``, the abelianization of phi, is the
    product of its factors' matrices.  So is ``nilpotent``, phi's
    ``nilpotent_action``, of its factors' ``nilpotent_action``.  It is built
    on first use, as are the words of phi and its action on H_1 of the
    mod-2 cover: a sample whose probes all certify from ``action`` builds
    none of the three, and one whose probes certify from ``nilpotent``
    builds neither words nor cover.
    """

    def __init__(self, factors: Sequence[FreeAutomorphism], action: IntMatrix):
        self._factors = factors
        self.action = action

    @functools.cached_property
    def nilpotent(self) -> IntMatrix:
        return functools.reduce(mat_mul, map(nilpotent_action, self._factors))

    @functools.cached_property
    def phi(self) -> FreeAutomorphism:
        # from the first factor: composing it onto the identity would only
        # copy its images
        return functools.reduce(compose, self._factors)

    @functools.cached_property
    def cover(self) -> Optional[IntMatrix]:
        """phi's action on H_1 of the mod-2 cover, or None above
        ``COVER_MAX_RANK``, where its size grows as 2^N."""
        return cover_action(self.phi) if len(self.action) <= COVER_MAX_RANK else None


@functools.lru_cache(maxsize=4)
def _family_entry(rank: int, family: str):
    """The certified images of ``standard_generators(rank, family)``, as
    (forward, backward) pairs, and the abelianized matrices of each
    generator and its inverse, as pairs too: built and certified once per
    (rank, family) for the four last asked for.  An entry holds words and
    integer tuples only, no ``Substitution`` map, so no memo a runner fills
    outlives its call."""
    generators = standard_generators(rank, family)
    return (
        tuple((g.forward, g.backward) for g in generators),
        tuple((abelianization(g), abelianization(inverse(g))) for g in generators),
    )


def _generators(rank: int, family: str) -> List[FreeAutomorphism]:
    """``standard_generators(rank, family)`` from the certified images of
    ``_family_entry``, with fresh maps."""
    alphabet = Alphabet(rank)
    return [_certified(alphabet, *images) for images in _family_entry(rank, family)[0]]


class _Family:
    """A generator family, each generator and its inverse abelianized once
    per (rank, family) (``_family_entry``)."""

    def __init__(self, rank: int, family: str):
        self._factors = [(g, inverse(g)) for g in _generators(rank, family)]
        self._matrices = _family_entry(rank, family)[1]

    def sample(self, budget: int, seed: int) -> _Sample:
        """The sample ``aut.sample`` draws from this family with this seed."""
        picks = draw(len(self._factors), budget, seed)
        return _Sample(
            [self._factors[i][inverted] for i, inverted in picks],
            functools.reduce(mat_mul, [self._matrices[i][inverted] for i, inverted in picks]),
        )


def _certificate(drawn: _Sample, basis: Sequence[Word]) -> Optional[str]:
    """The certificate that proves the class of the subgroup with this basis
    to have no period under the sample, or None; a word w is probed as the
    basis (w).  ``certify_lattice`` tests the abelian support under the
    sample's ``action``, then, for a basis (w), ``certify_nilpotent`` the
    class-2 coordinates of w under its ``nilpotent``, then
    ``certify_cover`` the class of w^2 or [a, b] under its ``cover``; the
    last two are built only here, and the cover is None above
    ``COVER_MAX_RANK``, below which every proper factor has rank 1 or 2."""
    if certify_lattice(drawn.action, [word_exponent_vector(g) for g in basis]):
        return CERTIFIED
    if len(basis) == 1 and certify_nilpotent(drawn.nilpotent, nilpotent_coordinates(basis[0])):
        return CERTIFIED_BY_NILPOTENT
    cover = drawn.cover
    if cover is None:
        return None
    if len(basis) == 1:
        word = basis[0] ** 2
    else:
        a, b = basis
        word = a * b * a.inverse() * b.inverse()
    return CERTIFIED_BY_COVER if certify_cover(cover, cover_class(word)) else None


def _record(
    hist: Dict[str, int],
    outcome: OrbitOutcome,
    violations: Optional[List[dict]] = None,
    where: Optional[dict] = None,
) -> None:
    """Count the outcome; a Period(p > 1) also appends its record, ``where``
    with the outcome, to ``violations`` (the controls give none)."""
    if outcome.kind != "Period":
        hist[outcome.kind] += 1
    elif outcome.period == 1:
        hist["Period(1)"] += 1
    else:
        hist["Period(>1)"] += 1
        if violations is not None:
            violations.append({**where, **_outcome_json(outcome)})


def _outcome_json(outcome: OrbitOutcome) -> dict:
    return {
        "outcome": outcome.kind,
        "period": outcome.period,
        "iterations": outcome.iterations,
    }


def _finish(report: dict, start: float) -> dict:
    report["violations_count"] = len(report["violations"])
    report["elapsed"] = time.perf_counter() - start
    return report


def _random_cyclic_word(alphabet: Alphabet, max_len: int, rng: random.Random) -> CyclicWord:
    length = rng.randrange(1, max_len + 1)
    letters: List[int] = []
    while len(letters) < length:
        letter = rng.choice(alphabet.signed_letters())
        if letters and letters[-1] == -letter:
            continue
        letters.append(letter)
    return CyclicWord(alphabet, letters)


def _conjugator_certifies(drawn: _Sample, word: Word) -> bool:
    """``certify_conjugator`` for a cyclically reduced word in least
    rotation whose conjugacy class the sample fixes: then
    ``cyclic_reduce(phi(w))`` returns w's own class with the conjugator c of
    phi(w) = c w c^-1."""
    conjugator = cyclic_reduce(drawn.phi.apply(word))[1]
    return certify_conjugator(drawn.action, word_exponent_vector(word), word_exponent_vector(conjugator))


def run_conjugacy_experiment(cfg: ExperimentConfig) -> dict:
    """Orbits of conjugacy classes (outer version) and of exact words under
    a fixed representative (Aut version), for sampled congruence-kernel
    automorphisms.  Expected: no Period(p > 1) in either mode.

    A word w that ``_certificate`` takes as the basis (w) has no period in
    either mode, so it counts under its certificate in both histograms and
    is not iterated.  A word whose class returns at once, phi(w) = c w
    c^-1, is not iterated as a word either when ``_conjugator_certifies``:
    its outer outcome is Period(1), its Aut outcome CertifiedByConjugator.
    Samples outside the congruence kernel iterate like any other; their
    periods are genuine, and the mod-3 certificates decline them."""
    start = time.perf_counter()
    alphabet = Alphabet(cfg.rank)
    family = _Family(cfg.rank, cfg.family)
    rng = random.Random(cfg.seed)
    hist_outer = _histogram()
    hist_aut = {**_histogram(), CERTIFIED_BY_CONJUGATOR: 0}
    violations = []
    for trial in range(cfg.samples):
        drawn = family.sample(cfg.budget, rng.randrange(2**32))
        pool = [
            _random_cyclic_word(alphabet, cfg.pool_length, rng)
            for _ in range(cfg.pool_size)
        ]
        for cyclic in pool:
            word = cyclic.as_word()
            kind = _certificate(drawn, (word,))
            if kind is not None:
                hist_outer[kind] += 1
                hist_aut[kind] += 1
                continue
            where = {"trial": trial, "word": word_str(word)}
            outcome = orbit_period(drawn.phi, cyclic, cfg.max_iter, cfg.length_cap)
            _record(hist_outer, outcome, violations, {**where, "mode": "outer"})
            if outcome == OrbitOutcome("Period", 1) and _conjugator_certifies(drawn, word):
                hist_aut[CERTIFIED_BY_CONJUGATOR] += 1
                continue
            exact = exact_word_orbit(drawn.phi, word, cfg.max_iter, cfg.length_cap)
            _record(hist_aut, exact, violations, {**where, "mode": "aut"})

    # inner sanity: conjugation fixes every class
    inner_ok = True
    for _ in range(5):
        w = _random_cyclic_word(alphabet, cfg.pool_length, rng).as_word()
        phi_inner = ad(w)
        target = _random_cyclic_word(alphabet, cfg.pool_length, rng)
        outcome = orbit_period(phi_inner, target, cfg.max_iter, cfg.length_cap)
        inner_ok = inner_ok and outcome == OrbitOutcome("Period", 1)

    # control: the basis swap is outside the kernel and has genuine 2-orbits
    control_hist = _histogram()
    sw = swap(alphabet, 1, 2)
    control_examples = [CyclicWord(alphabet, (1,)), CyclicWord(alphabet, (2,))]
    for cyclic in control_examples:
        _record(control_hist, orbit_period(sw, cyclic, cfg.max_iter, cfg.length_cap))

    report = {
        "experiment": "conjugacy",
        "config": asdict(cfg),
        "trials": cfg.samples,
        "outcomes_outer": hist_outer,
        "outcomes_aut": hist_aut,
        "inner_sanity_period1": inner_ok,
        "control": {
            "automorphism": "swap x1<->x2",
            "outcomes": control_hist,
            "nontrivial_periods": control_hist["Period(>1)"],
        },
        "violations": violations,
    }
    return _finish(report, start)


def _random_proper_subsets(rank: int, rng: random.Random) -> List[frozenset]:
    """One or two disjoint nonempty proper basis subsets."""
    indices = list(range(1, rank + 1))
    rng.shuffle(indices)
    size = rng.randrange(1, rank)
    first = frozenset(indices[:size])
    if rank - size >= 2 and rng.random() < 0.5:
        second_size = rng.randrange(1, rank - size)
        return [first, frozenset(indices[size : size + second_size])]
    return [first]


def run_factor_experiment(cfg: ExperimentConfig) -> dict:
    """Orbits of witness free factor classes under sampled congruence-kernel
    automorphisms.  Factors are built by construction: images of basis
    subsets under random certified automorphisms.

    A class that ``_certificate`` takes has no period, so it counts under
    its certificate and is not iterated."""
    start = time.perf_counter()
    alphabet = Alphabet(cfg.rank)
    family = _Family(cfg.rank, cfg.family)
    nielsen = _generators(cfg.rank, "nielsen")
    rng = random.Random(cfg.seed)
    hist = _histogram()
    violations = []
    for trial in range(cfg.samples):
        drawn = family.sample(cfg.budget, rng.randrange(2**32))
        witness = sample(nielsen, min(cfg.budget, 4), rng.randrange(2**32))
        subsets = _random_proper_subsets(cfg.rank, rng)
        system = FreeFactorSystem(witness, subsets)
        for cls in system.classes:
            kind = _certificate(drawn, cls.representative.generators())
            if kind is not None:
                hist[kind] += 1
                continue
            outcome = orbit_period(drawn.phi, cls, cfg.max_iter, cfg.length_cap)
            _record(hist, outcome, violations, {"trial": trial, "class": repr(cls)})

    control_hist = _histogram()
    control_period = None
    if cfg.rank >= 3:
        cycle = basis_cycle(alphabet, [1, 2, 3])
        cls = subgroup_class(alphabet, [Word(alphabet, (1,))])
        outcome = orbit_period(cycle, cls, cfg.max_iter, cfg.length_cap)
        _record(control_hist, outcome)
        control_period = outcome.period
    identity_ok = all(
        orbit_period(
            identity_automorphism(alphabet),
            subgroup_class(alphabet, [Word(alphabet, (i,))]),
            cfg.max_iter,
        )
        == OrbitOutcome("Period", 1)
        for i in alphabet.letters()
    )

    report = {
        "experiment": "factors",
        "config": asdict(cfg),
        "trials": cfg.samples,
        "outcomes": hist,
        "identity_sanity_period1": identity_ok,
        "control": {
            "automorphism": "3-cycle x1->x2->x3->x1" if cfg.rank >= 3 else None,
            "outcomes": control_hist,
            "period": control_period,
        },
        "violations": violations,
    }
    return _finish(report, start)


def _first_inner_power(phi: FreeAutomorphism, cfg: ExperimentConfig) -> OrbitOutcome:
    """Least k <= max_iter with phi^k inner, as Period(k); Blowup once the
    images of a power outgrow the length cap.  Being inner is a property of
    the forward images alone, so each power steps only those, phi^k(x_i) =
    phi(phi^(k-1)(x_i)) through phi's forward map from the basis, and no
    power's backward images are built.  The size of a power is the longest
    of its images, so a step stops at the first image that
    ``Substitution.capped`` proves longer than the cap."""
    alphabet = phi.alphabet
    capped = phi.forward_map.capped
    cap = cfg.length_cap

    def step(images):
        powers = []
        for image in images:
            image = capped(image, cap)
            if image is None:
                return None
            powers.append(image)
        return tuple(powers)

    return _first_return(
        step,
        tuple(Word(alphabet, (i,)) for i in alphabet.letters()),
        lambda images: max(map(len, images)),
        lambda images: _inner_conjugator(alphabet, images) is not None,
        cfg.max_iter,
        cfg.length_cap,
    )[0]


def run_torsion_experiment(cfg: ExperimentConfig) -> dict:
    """Sampled non-inner congruence-kernel automorphisms have no inner power
    up to the iteration bound.

    A shortcut disposes of most samples exactly: an inner power forces the
    abelianized action to have finite order, and a finite-order integer
    matrix congruent to I mod 3 is I.  Samples whose abelianization, the
    product of their factors' matrices, is not I therefore certify
    themselves (``certify_infinite_order``) before any of their words is
    built.  The rest, and every sample outside the congruence kernel, are
    composed and iterate the forward images of their powers with an honest
    length cap, the one inner test: Period(1) means phi is inner and
    skipped, and a capped sample counts as Blowup, not as a clean trial.
    """
    start = time.perf_counter()
    alphabet = Alphabet(cfg.rank)
    family = _Family(cfg.rank, cfg.family)
    rng = random.Random(cfg.seed)
    clean = 0
    skipped_inner = 0
    blowups = 0
    certified_by_homology = 0
    checked_by_iteration = 0
    violations = []
    attempts = 0
    max_attempts = cfg.samples * 20
    while clean < cfg.samples and attempts < max_attempts:
        attempts += 1
        drawn = family.sample(cfg.budget, rng.randrange(2**32))
        ab = drawn.action
        if certify_infinite_order(ab):
            # no power of ab is I, so no power of phi is inner
            certified_by_homology += 1
            clean += 1
            continue
        outcome = _first_inner_power(drawn.phi, cfg)
        if outcome.kind == BLOWUP:
            blowups += 1
        elif outcome.period == 1:
            skipped_inner += 1
        else:
            checked_by_iteration += 1
            clean += 1
            if outcome.kind == "Period":
                violations.append({"attempt": attempts, "order": outcome.period})

    control = _first_inner_power(swap(alphabet, 1, 2), cfg)

    report = {
        "experiment": "torsion",
        "config": asdict(cfg),
        "trials": clean,
        "attempts": attempts,
        "skipped_inner": skipped_inner,
        "blowups": blowups,
        "certified_by_homology": certified_by_homology,
        "checked_by_iteration": checked_by_iteration,
        "control": {"automorphism": "swap x1<->x2", "order": control.period},
        "violations": violations,
    }
    return _finish(report, start)


def default_splitting_pool(alphabet: Alphabet) -> List[MarkedGraph]:
    """Rose, a two-vertex splitting with cyclic vertex groups, and (rank 2)
    the theta graph."""
    pool = [rose_marked(alphabet)]
    left = [Word(alphabet, (1,))]
    right = [Word(alphabet, (i,)) for i in range(2, alphabet.rank + 1)]
    pool.append(edge_of_groups(alphabet, left, right))
    if alphabet.rank == 2:
        pool.append(theta_marked(alphabet))
    return pool


# every splitting probe that is iterated lists the symmetries of its graph,
# and the rose of the pool has 2^N N! of them: 46 080 at N = 6, 645 120 at 7
MAX_SPLITTING_SYMMETRIES = 10**5


def run_splitting_experiment(cfg: ExperimentConfig) -> dict:
    """Orbits of marked-graph splittings under sampled congruence-kernel
    automorphisms: never a Period(p > 1).

    A marking that ``splittings.certify_splitting`` proves to have no period
    under the sample's abelianization counts as CertifiedByHomology and is
    not iterated.  Ranks whose rose has more than
    ``MAX_SPLITTING_SYMMETRIES`` automorphisms raise ``ValueError``."""
    symmetries = 2**cfg.rank * math.factorial(cfg.rank)
    if symmetries > MAX_SPLITTING_SYMMETRIES:
        raise ValueError(f"rank {cfg.rank}: the rose has {symmetries} automorphisms, over 10^5")
    start = time.perf_counter()
    alphabet = Alphabet(cfg.rank)
    family = _Family(cfg.rank, cfg.family)
    rng = random.Random(cfg.seed)
    pool = default_splitting_pool(alphabet)
    hist = _histogram()
    violations = []
    for trial in range(cfg.samples):
        drawn = family.sample(cfg.budget, rng.randrange(2**32))
        for idx, marked in enumerate(pool):
            if certify_splitting(drawn.action, marked):
                hist[CERTIFIED] += 1
                continue
            outcome = splitting_orbit_period(
                marked, drawn.phi, cfg.max_iter, cfg.length_cap
            )
            _record(hist, outcome, violations, {"trial": trial, "splitting": idx})
    identity_ok = all(
        splitting_orbit_period(m, identity_automorphism(alphabet), cfg.max_iter)
        == OrbitOutcome("Period", 1)
        for m in pool
    )

    # control: swap on an asymmetrically marked rose
    control_hist = _histogram()
    a = Word(alphabet, (1,))
    ab = Word(alphabet, (1, 2))
    rest = [Word(alphabet, (i,)) for i in range(3, alphabet.rank + 1)]
    asym = rose_marked(
        alphabet,
        [a, ab] + rest,
        [a, Word(alphabet, (-1, 2))] + rest,
    )
    sw = swap(alphabet, 1, 2)
    control_outcome = splitting_orbit_period(asym, sw, cfg.max_iter, cfg.length_cap)
    _record(control_hist, control_outcome)

    report = {
        "experiment": "splittings",
        "config": asdict(cfg),
        "trials": cfg.samples,
        "pool_size": len(pool),
        "outcomes": hist,
        "identity_sanity_period1": identity_ok,
        "control": {
            "automorphism": "swap x1<->x2 on asymmetric rose",
            "outcomes": control_hist,
            "outcome": _outcome_json(control_outcome),
        },
        "violations": violations,
    }
    return _finish(report, start)
