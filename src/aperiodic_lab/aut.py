"""Automorphisms of F_N with certified inverses, outer equality, and sampling.

Inverses are always carried, never computed: every constructor takes both
forward and backward images and certifies that they compose to the identity.
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional, Sequence, Tuple

from .words import Alphabet, Frozen, Substitution, Word, _strip_conjugation, apply_endo, word_str

# ``apply_endo`` is re-exported, not called: the certification below keeps
# its two maps, and bench/test_bench.py reaches the function as
# ``aut.apply_endo`` when it checks that the tracer rebinds every binding
__all__ = [
    "CompositeNotIdentity",
    "FreeAutomorphism",
    "ad",
    "apply_endo",
    "basis_cycle",
    "commutator_insertion",
    "compose",
    "cube_map",
    "draw",
    "identity_automorphism",
    "inverse",
    "inversion",
    "is_inner",
    "outer_eq",
    "partial_conjugation",
    "sample",
    "standard_generators",
    "swap",
    "transvection",
]


class CompositeNotIdentity(ValueError):
    """Forward and backward images do not compose to the identity."""

    def __init__(self, letter: int, got: Word):
        self.letter = letter
        self.got = got
        super().__init__(
            f"composite sends x_{letter} to {word_str(got)!r}, not to itself"
        )


class FreeAutomorphism(Frozen):
    """An automorphism given by forward and backward basis images.

    Construction checks that both composites fix every basis letter.  The
    automorphism carries its two images as ``Substitution`` maps, so every
    word it or its inverse is applied to feeds one pair of memos.
    """

    __slots__ = ("forward_map", "backward_map")
    # the backward images are the inverse of the forward ones
    _identity = ("alphabet", "forward")

    def __init__(self, alphabet: Alphabet, forward: Sequence[Word], backward: Sequence[Word]):
        forward = tuple(forward)
        backward = tuple(backward)
        if len(forward) != alphabet.rank or len(backward) != alphabet.rank:
            raise ValueError("need one forward and one backward image per basis letter")
        # the validating constructor checks that every image is a word
        # over ``alphabet``; each map is built once, certifies the
        # composites with the other, and keeps the memo it filled
        forward_map = Substitution(alphabet, forward)
        backward_map = Substitution(alphabet, backward)
        for i in range(alphabet.rank):
            fwd_then_bwd = backward_map(forward[i])
            if fwd_then_bwd.letters != (i + 1,):
                raise CompositeNotIdentity(i + 1, fwd_then_bwd)
            bwd_then_fwd = forward_map(backward[i])
            if bwd_then_fwd.letters != (i + 1,):
                raise CompositeNotIdentity(i + 1, bwd_then_fwd)
        object.__setattr__(self, "forward_map", forward_map)
        object.__setattr__(self, "backward_map", backward_map)

    @property
    def alphabet(self) -> Alphabet:
        return self.forward_map.alphabet

    @property
    def forward(self) -> Tuple[Word, ...]:
        return self.forward_map.images

    @property
    def backward(self) -> Tuple[Word, ...]:
        return self.backward_map.images

    def apply(self, word: Word) -> Word:
        return self.forward_map(word)

    def __repr__(self):
        images = ", ".join(
            f"{word_str(Word(self.alphabet, (i + 1,)))}->{word_str(w)}"
            for i, w in enumerate(self.forward)
        )
        return f"FreeAutomorphism({images})"

    def is_identity(self) -> bool:
        return all(
            w.letters == (i + 1,) for i, w in enumerate(self.forward)
        )

    def max_image_length(self) -> int:
        return max(len(w) for w in self.forward)

    def __pow__(self, n: int) -> "FreeAutomorphism":
        base = self if n >= 0 else inverse(self)
        result = identity_automorphism(self.alphabet)
        for _ in range(abs(n)):
            result = _next_power(base, result)
        return result


def _map(alphabet: Alphabet, images: Tuple[Word, ...]) -> Substitution:
    # for images the caller knows to be words over ``alphabet``
    return Substitution._trusted(alphabet, images, {})


def _certified(alphabet: Alphabet, forward: Tuple[Word, ...], backward: Tuple[Word, ...]) -> FreeAutomorphism:
    # for images over ``alphabet`` that the caller knows to compose to the
    # identity both ways
    return FreeAutomorphism._trusted(_map(alphabet, forward), _map(alphabet, backward))


def identity_automorphism(alphabet: Alphabet) -> FreeAutomorphism:
    # the basis composed with itself is the basis, so certifying it would
    # only cost 2N substitutions of 2N-entry tables
    basis = _map(alphabet, tuple(Word(alphabet, (i,)) for i in alphabet.letters()))
    return FreeAutomorphism._trusted(basis, basis)


def compose(phi: FreeAutomorphism, psi: FreeAutomorphism) -> FreeAutomorphism:
    """The automorphism g -> phi(psi(g)); backward side composed in reverse.
    The result is certified by construction (both inputs carry certified
    inverses), so no re-verification happens here."""
    if phi.alphabet != psi.alphabet:
        raise ValueError("alphabet mismatch")
    forward = tuple(map(phi.forward_map, psi.forward))
    backward = tuple(map(psi.backward_map, phi.backward))
    # the composite identities hold by construction; re-verification is
    # quadratic in the image lengths and dominates long compositions
    return _certified(phi.alphabet, forward, backward)


def _next_power(phi: FreeAutomorphism, power: FreeAutomorphism) -> FreeAutomorphism:
    """phi^p from ``power``, which must be phi^(p-1); nothing checks that.

    The backward side uses phi^-p = phi^-1 . phi^-(p-1), which holds
    because powers of phi commute.  So each step applies only phi's two
    maps, and their memos serve every step of an orbit, where
    ``compose(phi, power)`` would apply a fresh backward map each step.
    """
    forward = tuple(map(phi.forward_map, power.forward))
    backward = tuple(map(phi.backward_map, power.backward))
    return _certified(phi.alphabet, forward, backward)


def inverse(phi: FreeAutomorphism) -> FreeAutomorphism:
    # a certified pair read backwards is certified, and shares its memos
    return FreeAutomorphism._trusted(phi.backward_map, phi.forward_map)


def ad(word: Word) -> FreeAutomorphism:
    """The inner automorphism g -> word * g * word^-1."""
    alphabet = word.alphabet
    inv = word.inverse()
    forward = tuple(word * Word(alphabet, (i,)) * inv for i in alphabet.letters())
    backward = tuple(inv * Word(alphabet, (i,)) * word for i in alphabet.letters())
    return FreeAutomorphism(alphabet, forward, backward)


def is_inner(phi: FreeAutomorphism) -> Optional[Word]:
    """Return w with phi = ad_w if phi is inner, else None.

    For each basis letter x_i the solutions u of u x_i u^-1 = phi(x_i) form
    either the empty set or a coset v_i <x_i>, with v_i read off the cyclic
    reduction of phi(x_i).  The cosets for i = 1, 2 intersect in at most one
    element, and it is v_1 or v_2, so at most these two candidates are
    tested; a hit is verified on all letters.
    """
    return _inner_conjugator(phi.alphabet, phi.forward)


def _inner_conjugator(alphabet: Alphabet, forward: Sequence[Word]) -> Optional[Word]:
    # ``is_inner`` on the forward images of an automorphism, for callers
    # that hold the images but no certified inverse
    if alphabet.rank == 1:
        # Aut(Z) = {+-1}; inner iff identity
        return Word(alphabet) if forward[0].letters == (1,) else None

    cosets = []
    for i in alphabet.letters():
        core, conj = _strip_conjugation(forward[i - 1])
        if core.letters != (i,):
            return None
        cosets.append(conj)

    # Intersect v_1 <x_1> with v_2 <x_2>.  The transcript conjugators never
    # end in the conjugated letter, so a common element v_1 x_1^k = v_2 x_2^m
    # forces k = 0 or m = 0: the common element is v_1 or v_2.
    v1, v2 = cosets[0], cosets[1]
    candidates = [v1]
    tail = v1.inverse() * v2
    if all(abs(l) == 1 for l in tail.letters):
        # v2 = v1 x_1^k, so v2 itself is the only other coset candidate
        candidates.append(v2)
    for candidate in candidates:
        # membership of the candidate in v2 <x_2>: the difference must be a
        # power of x_2, i.e. a reduced word in the letter +-2 alone
        diff = v2.inverse() * candidate
        if any(abs(l) != 2 for l in diff.letters):
            continue
        if _conjugates_all(alphabet, forward, candidate):
            return candidate
    return None


def _conjugates_all(alphabet: Alphabet, forward: Sequence[Word], w: Word) -> bool:
    w_inv = w.inverse()
    return all(
        forward[i - 1] == w * Word(alphabet, (i,)) * w_inv
        for i in alphabet.letters()
    )


def outer_eq(phi: FreeAutomorphism, psi: FreeAutomorphism) -> bool:
    """Equality in Out(F_N): true iff phi psi^-1 is inner."""
    if phi.alphabet != psi.alphabet:
        raise ValueError("alphabet mismatch")
    return is_inner(compose(phi, inverse(psi))) is not None


# ---------------------------------------------------------------------------
# generator families


def _from_images(alphabet: Alphabet, fwd_map: dict, bwd_map: dict) -> FreeAutomorphism:
    forward = [Word(alphabet, fwd_map.get(i, (i,))) for i in alphabet.letters()]
    backward = [Word(alphabet, bwd_map.get(i, (i,))) for i in alphabet.letters()]
    return FreeAutomorphism(alphabet, forward, backward)


def transvection(alphabet: Alphabet, i: int, j: int) -> FreeAutomorphism:
    """x_i -> x_i x_j, all other letters fixed."""
    if i == j:
        raise ValueError("transvection needs distinct indices")
    return _from_images(alphabet, {i: (i, j)}, {i: (i, -j)})


def inversion(alphabet: Alphabet, i: int) -> FreeAutomorphism:
    """x_i -> x_i^-1."""
    return _from_images(alphabet, {i: (-i,)}, {i: (-i,)})


def swap(alphabet: Alphabet, i: int, j: int) -> FreeAutomorphism:
    """Exchange x_i and x_j."""
    if i == j:
        raise ValueError("swap needs distinct indices")
    return _from_images(alphabet, {i: (j,), j: (i,)}, {i: (j,), j: (i,)})


def basis_cycle(alphabet: Alphabet, indices: Sequence[int]) -> FreeAutomorphism:
    """Cyclically permute the given basis letters: x_i1 -> x_i2 -> ... -> x_i1."""
    fwd = {indices[k]: (indices[(k + 1) % len(indices)],) for k in range(len(indices))}
    bwd = {indices[(k + 1) % len(indices)]: (indices[k],) for k in range(len(indices))}
    return _from_images(alphabet, fwd, bwd)


def partial_conjugation(alphabet: Alphabet, i: int, j: int) -> FreeAutomorphism:
    """x_i -> x_j x_i x_j^-1, all other letters fixed."""
    if i == j:
        raise ValueError("partial conjugation needs distinct indices")
    return _from_images(alphabet, {i: (j, i, -j)}, {i: (-j, i, j)})


def commutator_insertion(alphabet: Alphabet, i: int, j: int, k: int) -> FreeAutomorphism:
    """x_i -> x_i [x_j, x_k] with i, j, k distinct."""
    if len({i, j, k}) != 3:
        raise ValueError("commutator insertion needs three distinct indices")
    return _from_images(
        alphabet, {i: (i, j, k, -j, -k)}, {i: (i, k, j, -k, -j)}
    )


def cube_map(alphabet: Alphabet, i: int, j: int) -> FreeAutomorphism:
    """x_i -> x_i x_j^3, all other letters fixed."""
    if i == j:
        raise ValueError("cube map needs distinct indices")
    return _from_images(alphabet, {i: (i, j, j, j)}, {i: (i, -j, -j, -j)})


def standard_generators(rank: int, family: str) -> List[FreeAutomorphism]:
    """Generator families for sampling.

    ``nielsen`` generates Aut(F_N); every member of ``ia3`` acts trivially
    on homology mod 3, so products stay in the level-3 congruence kernel.
    """
    if rank < 2:
        raise ValueError("generator families need rank >= 2")
    alphabet = Alphabet(rank)
    gens: List[FreeAutomorphism] = []
    if family == "nielsen":
        for i in alphabet.letters():
            for j in alphabet.letters():
                if i != j:
                    gens.append(transvection(alphabet, i, j))
        for i in alphabet.letters():
            gens.append(inversion(alphabet, i))
        for i in alphabet.letters():
            for j in alphabet.letters():
                if i < j:
                    gens.append(swap(alphabet, i, j))
    elif family == "ia3":
        for i in alphabet.letters():
            for j in alphabet.letters():
                if i != j:
                    gens.append(partial_conjugation(alphabet, i, j))
        for i in alphabet.letters():
            for j in alphabet.letters():
                for k in alphabet.letters():
                    if len({i, j, k}) == 3 and j < k:
                        gens.append(commutator_insertion(alphabet, i, j, k))
        for i in alphabet.letters():
            for j in alphabet.letters():
                if i != j:
                    gens.append(cube_map(alphabet, i, j))
    else:
        raise ValueError(f"unknown family {family!r}")
    return gens


def draw(count: int, budget: int, seed: int) -> List[Tuple[int, bool]]:
    """The factors of a sample from ``count`` generators: ``budget`` pairs
    (index, inverted), each index uniform and inverted with probability
    1/2.  Deterministic function of ``seed``, and the only reader of the
    sampling random stream, so callers that need only the factors' images
    in some functor of Aut(F_N) can skip composing them.
    """
    if count < 1:
        raise ValueError("empty generator list")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(seed)
    return [(rng.randrange(count), rng.random() < 0.5) for _ in range(budget)]


def sample(
    generators: Sequence[FreeAutomorphism], budget: int, seed: int
) -> FreeAutomorphism:
    """The product, left to right, of the factors ``draw`` picks: ``budget``
    uniformly chosen generators or their inverses.  Deterministic function
    of ``seed``.
    """
    factors = [
        inverse(generators[i]) if inverted else generators[i]
        for i, inverted in draw(len(generators), budget, seed)
    ]
    return functools.reduce(compose, factors)

