"""Abelianized actions over Z and Z/3Z, and on the homology of the mod-2
cover.

Membership in the level-3 congruence kernel, Per/Fix sublattices of integer
matrices, finite-order detection, certificates of non-periodicity, and the
exhaustive desk-scale scans for torsion-freeness and Per = Fix.

Matrices are tuples of tuples of Python ints (exact arithmetic; powers of
small matrices overflow fixed-width types quickly).  Kernels are computed by
integer row reduction with a unimodular transform, so the returned sublattices
are saturated by construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .aut import FreeAutomorphism
from .words import Frozen, Word

IntMatrix = Tuple[Tuple[int, ...], ...]


@functools.cache
def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product ab: in closed form for two 2 x 2 or two 3 x 3 matrices,
    the shapes of the rank-2 and rank-3 samples, and otherwise each entry
    one ``sum(map(mul, ...))`` of a row of a and a column of b.

    >>> mat_mul(((1, 2, 3), (4, 5, 6)), ((7, 8), (9, 10), (11, 12)))
    ((58, 64), (139, 154))
    >>> mat_mul(((1, 2), (3, 4)), ((5, 6), (7, 8)))
    ((19, 22), (43, 50))
    """
    n = len(a)
    if (n == 2 or n == 3) and n == len(b) == len(a[0]) == len(b[0]):
        if n == 2:
            (a00, a01), (a10, a11) = a
            (b00, b01), (b10, b11) = b
            return (
                (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
                (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
            )
        if n == 3:
            (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
            (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
            return (
                (
                    a00 * b00 + a01 * b10 + a02 * b20,
                    a00 * b01 + a01 * b11 + a02 * b21,
                    a00 * b02 + a01 * b12 + a02 * b22,
                ),
                (
                    a10 * b00 + a11 * b10 + a12 * b20,
                    a10 * b01 + a11 * b11 + a12 * b21,
                    a10 * b02 + a11 * b12 + a12 * b22,
                ),
                (
                    a20 * b00 + a21 * b10 + a22 * b20,
                    a20 * b01 + a21 * b11 + a22 * b21,
                    a20 * b02 + a21 * b12 + a22 * b22,
                ),
            )
    cols = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a)


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    """m^k for k >= 0 by binary powering, with no product by the identity
    and no squaring past the top bit."""
    if k < 0:
        raise ValueError("mat_pow needs k >= 0")
    result = None
    base = m
    while True:
        if k & 1:
            result = base if result is None else mat_mul(result, base)
        k >>= 1
        if not k:
            return identity_matrix(len(m)) if result is None else result
        base = mat_mul(base, base)


def mat_mod(m: IntMatrix, modulus: int) -> IntMatrix:
    return tuple(tuple(x % modulus for x in row) for row in m)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _row_echelon_with_transform(m: IntMatrix) -> Tuple[List[List[int]], List[List[int]]]:
    """Integer row echelon form H = U m with U unimodular (gcd pivoting)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    pivot_row = 0
    for col in range(cols):
        # eliminate below pivot_row in this column by gcd steps
        pivot = None
        for r in range(pivot_row, rows):
            if h[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        h[pivot_row], h[pivot] = h[pivot], h[pivot_row]
        u[pivot_row], u[pivot] = u[pivot], u[pivot_row]
        for r in range(pivot_row + 1, rows):
            while h[r][col] != 0:
                if abs(h[r][col]) < abs(h[pivot_row][col]):
                    h[pivot_row], h[r] = h[r], h[pivot_row]
                    u[pivot_row], u[r] = u[r], u[pivot_row]
                q = h[r][col] // h[pivot_row][col]
                for c in range(cols):
                    h[r][c] -= q * h[pivot_row][c]
                for c in range(len(u[r])):
                    u[r][c] -= q * u[pivot_row][c]
        pivot_row += 1
        if pivot_row == rows:
            break
    return h, u


def kernel_basis(m: IntMatrix) -> Tuple[Tuple[int, ...], ...]:
    """Basis of {x in Z^n : m x = 0}; the lattice is saturated by construction."""
    n = len(m[0]) if m else 0
    transpose = tuple(zip(*m)) if m else ()
    if not transpose:
        return tuple(identity_matrix(n))
    h, u = _row_echelon_with_transform(transpose)
    basis = [tuple(u[r]) for r in range(len(h)) if all(x == 0 for x in h[r])]
    return tuple(basis)


def hermite_canonical(vectors: Sequence[Sequence[int]], n: int) -> Tuple[Tuple[int, ...], ...]:
    """Canonical (row-style Hermite) basis of the lattice spanned by ``vectors``.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    Equal lattices produce identical outputs.
    """
    if not vectors:
        return ()
    h, _ = _row_echelon_with_transform(tuple(tuple(v) for v in vectors))
    rows = [row for row in h if any(row)]
    # normalise pivot signs, then reduce above pivots
    for row in rows:
        pivot_col = next(i for i, x in enumerate(row) if x)
        if row[pivot_col] < 0:
            for i in range(n):
                row[i] = -row[i]
    for r in range(len(rows) - 1, -1, -1):
        pivot_col = next(i for i, x in enumerate(rows[r]) if x)
        pivot = rows[r][pivot_col]
        for above in range(r):
            q = rows[above][pivot_col] // pivot
            if q:
                for i in range(n):
                    rows[above][i] -= q * rows[r][i]
    return tuple(tuple(row) for row in rows)


class Sublattice(Frozen):
    """The sublattice of Z^n spanned by the given vectors, stored by its
    canonical Hermite basis.

    The span need not be saturated: ``Sublattice(2, [(2, 0), (0, 1)])`` has
    index 2 in Z^2.  ``saturation`` gives the saturated lattice with the
    same rational span, and ``is_saturated`` tells the two apart.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Sequence[Sequence[int]]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", hermite_canonical(vectors, ambient_dim))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Sublattice)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Sublattice(dim={self.ambient_dim}, basis={self.basis})"

    def contains(self, vector: Sequence[int]) -> bool:
        v = list(vector)
        for row in self.basis:
            pivot_col = next(i for i, x in enumerate(row) if x)
            if v[pivot_col] % row[pivot_col] != 0:
                return False
            q = v[pivot_col] // row[pivot_col]
            for i in range(self.ambient_dim):
                v[i] -= q * row[i]
        return all(x == 0 for x in v)

    def contains_lattice(self, other: "Sublattice") -> bool:
        return all(self.contains(row) for row in other.basis)

    def is_saturated(self) -> bool:
        """A lattice is saturated iff doubly-orthogonal closure adds nothing."""
        return self == saturation(self)


def saturation(lattice: Sublattice) -> Sublattice:
    """(L tensor Q) intersected with Z^n, via two integer kernels."""
    n = lattice.ambient_dim
    if not lattice.basis:
        return Sublattice(n, ())
    orth = kernel_basis(lattice.basis)
    if not orth:
        return Sublattice(n, identity_matrix(n))
    return Sublattice(n, kernel_basis(orth))


# ---------------------------------------------------------------------------
# abelianized actions


def abelianization(phi: FreeAutomorphism) -> IntMatrix:
    """Integer matrix of the induced map on H_1(F_N, Z); column i is the
    exponent vector of the image of x_i."""
    mat = tuple(zip(*(word_exponent_vector(image) for image in phi.forward)))
    assert abs(det(mat)) == 1, "automorphism must abelianize to GL_n(Z)"
    return mat


def word_exponent_vector(word: Word) -> Tuple[int, ...]:
    col = [0] * word.alphabet.rank
    for letter in word.letters:
        col[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(col)


def congruent_to_identity(m: IntMatrix) -> bool:
    """True iff m = I mod 3."""
    return mat_mod(m, 3) == identity_matrix(len(m))


def in_ia3(phi: FreeAutomorphism) -> bool:
    """True iff the homology action mod 3 is the identity."""
    return congruent_to_identity(abelianization(phi))


# ---------------------------------------------------------------------------
# Per and Fix sublattices


@functools.cache
def order_bound(n: int) -> int:
    """lcm of all k with totient(k) <= n: the product of p^e over the primes
    p <= n + 1, with e the largest exponent such that totient(p^e) =
    p^(e-1) (p - 1) <= n.  Each prime power in a k has totient at most
    totient(k), and each such p^e is itself a k, so the two agree.

    Any finite-order element of GL_n(Z) has order dividing this bound: its
    minimal polynomial is a product of cyclotomic polynomials of degree <= n.
    """
    bound = 1
    for p in range(2, n + 2):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):  # p is prime
            power = p
            while power * (p - 1) <= n:  # the totient of p * power
                power *= p
            bound *= power
    return bound


def _check_gl(m: IntMatrix) -> None:
    if abs(det(m)) != 1:
        raise ValueError("matrix is not invertible over Z")


def fix_subgroup(m: IntMatrix) -> Sublattice:
    """Saturated kernel of (m - I) over Z: the fixed sublattice."""
    _check_gl(m)
    n = len(m)
    return Sublattice(n, kernel_basis(mat_sub(m, identity_matrix(n))))


def per_subgroup(m: IntMatrix) -> Sublattice:
    """The sublattice of vectors with finite orbit: ker(m^L - I) for the
    order bound L, saturated, hence a direct summand of Z^n."""
    _check_gl(m)
    n = len(m)
    power = mat_pow(m, order_bound(n))
    return Sublattice(n, kernel_basis(mat_sub(power, identity_matrix(n))))


def finite_order(m: IntMatrix) -> Optional[int]:
    """Least k with m^k = I, or None; None certifies infinite order.

    The eigenvalues of a finite-order m are roots of unity, so its trace is
    at most n in absolute value.  Every finite order divides the bound L,
    so m has finite order iff m^L = I, and then its order is L with each
    prime factor p stripped while m^(order / p) = I still holds.  The scans
    decide the same question from the characteristic polynomial instead
    (``_order_from_charpoly``), and the tests check them against this.
    """
    _check_gl(m)
    n = len(m)
    if abs(sum(m[i][i] for i in range(n))) > n:
        return None
    ident = identity_matrix(n)
    bound = order_bound(n)
    if mat_pow(m, bound) != ident:
        return None
    order = bound
    rest, p = bound, 2
    while rest > 1:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            while order % p == 0 and mat_pow(m, order // p) == ident:
                order //= p
        p += 1
    return order


# ---------------------------------------------------------------------------
# certificates of non-periodicity
#
# Each certificate is True only for M = I mod 3, and then it proves that no
# power M^p with p >= 1 fixes the object it was given.  Both rest on
# Per(A) = Fix(A) for every A in GL_m(Z) with A = I mod 3.  Per(A) is a
# saturated A-invariant sublattice, so in a basis of Z^m extending one of
# Per(A) the matrix A is block triangular, and its block on Per(A) is = I
# mod 3 and has finite order.  A finite-order integer matrix = I mod 3 is I
# (Minkowski), so A fixes Per(A).  Criteria 1 and 2 check both facts on
# boxes of matrices.


def _mat_vec(m: IntMatrix, v: Sequence[int]) -> Tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in m])


def certify_lattice(m: IntMatrix, vectors: Sequence[Sequence[int]]) -> bool:
    """True proves M^p L != L for every p >= 1, where L is the saturation of
    the span of ``vectors``: M = I mod 3 and ML != L.

    Let k be the rank of L and P = b_1 ^ ... ^ b_k, in the k-th exterior
    power of Z^n, the Pluecker vector of a basis b of L.  A saturated
    lattice is its rational span cut with Z^n, and two rank-k subspaces
    are equal iff their Pluecker vectors are proportional.  ML is saturated,
    since M is unimodular, and has Pluecker vector (^k M) P.  Suppose
    M^p L = L.  The bases M^p b and b of L differ by a matrix of
    determinant +-1, so (^k M)^p P = +-P, and (^k M)^(2p) P = P: squaring
    absorbs the sign.  The entries of ^k M are the k x k minors of M, so
    ^k M = I mod 3, and Per = Fix for ^k M gives (^k M) P = P.  Hence ML
    and L span the same subspace, and ML = L.

    Saturating is what makes this sound.  M = ((1, 3), (0, 1)) moves the
    span of (2, 0) and (0, 1), and M^2 fixes it.

    On one vector v this is M = I mod 3 and Mv != v.  For v = 0 both
    fail.  Otherwise L = Z v' with v' primitive, and ML = L iff Mv' = +-v'.
    Mv' = -v' with M = I mod 3 would give 2v' = 0 mod 3, so v' = 0 mod 3,
    and v' would not be primitive; so ML = L iff Mv' = v' iff Mv = v.

    For a subgroup H of F_N whose exponent vectors span A, phi^p[H] = [H]
    gives M^p A = A.  So M^p fixes the rational span of A, and with it the
    saturation of A, the abelian support of H.  True therefore proves that
    the conjugacy class of H has no period under phi.  For H = <w>, a
    period of w, as a word or as a conjugacy class, is one of [H].
    """
    if len(vectors) == 1:
        return congruent_to_identity(m) and _mat_vec(m, vectors[0]) != tuple(vectors[0])
    if not congruent_to_identity(m):
        return False
    n = len(m)
    lattice = saturation(Sublattice(n, vectors))
    return Sublattice(n, [_mat_vec(m, b) for b in lattice.basis]) != lattice


def certify_infinite_order(m: IntMatrix) -> bool:
    """True proves that no power M^p with p >= 1 has finite order: M = I
    mod 3 and M != I.

    If M^p had finite order, so would M, and then Per(M) would be all of
    Z^n.  Per = Fix would give M = I.

    Let phi^p fix a marked graph with trivial vertex groups.  Then some
    automorphism h of the graph realizes phi^p in Out(F_N), read through
    the marking.  So M^p is conjugate in GL_N(Z) to the action of h on
    H_1 of the graph.  The graph has finitely many automorphisms, so that
    action has finite order.  True therefore proves that the splitting has
    no period under phi.  The torsion experiment's shortcut is the same
    fact: an inner power phi^k abelianizes to M^k = I.
    """
    return congruent_to_identity(m) and m != identity_matrix(len(m))


@functools.cache
def _subsets(n: int, k: int) -> Tuple[Tuple[int, ...], ...]:
    """The k-subsets of range(n) in lexicographic order: the basis
    e_S = e_(s_1) ^ ... ^ e_(s_k) of the k-th exterior power of Z^n."""
    return tuple(itertools.combinations(range(n), k))


@functools.cache
def _subset_index(n: int, k: int) -> Dict[Tuple[int, ...], int]:
    return {s: i for i, s in enumerate(_subsets(n, k))}


def _outside_wedge(v: Sequence[int], x: Sequence[int], k: int) -> bool:
    """True iff x, a k-vector in the basis of ``_subsets``, is not v ^ y
    for any rational (k - 1)-vector y: x != 0 for v = 0, and x ^ v != 0
    otherwise (for v != 0 the sequence x -> x ^ v is exact).  For k = 1
    this says x is not in Q v.

    Both certificates below end here, on this lemma.  Let B be an integer
    matrix with B = I mod 3.  Then no eigenvalue of B is a root of unity
    other than 1.  A primitive d-th root of unity is an eigenvalue iff the
    rational kernel of Phi_d(B) is nonzero.  For d > 1 that kernel cut
    with Z^m is a B-invariant saturated lattice, B restricted to it is = I
    mod 3 and has finite order (B^d = I there), so it is I (Minkowski, as
    in ``certify_lattice``).  Then Phi_d(B) is Phi_d(1) != 0 times I on
    it, and the lattice is 0.  Hence S_p(B) = I + B + ... + B^(p-1),
    whose eigenvalues are p and (l^p - 1) / (l - 1) for the eigenvalues
    l != 1 of B, is nonsingular over Q for every p >= 1, and
    so is S_p of the map that B induces on Q^m / W, for any B-invariant
    subspace W: its eigenvalues are among those of B.  Each certificate
    finds a vector x and a B-invariant W = v ^ Q^(...) such that a period
    p of the probe gives S_p(B) x in W.  Then x is in W, which True here
    refutes.  ``tests/test_homology.py`` checks det S_p(B) != 0 for p <= 12
    on boxes of congruence matrices, and of their exterior squares.
    """
    n = len(v)
    if not any(v):
        return any(x)
    index = _subset_index(n, k)
    for s in _subsets(n, k + 1):
        # (x ^ v)_S is the sum over j in S of x_(S - j) v_j, with the sign
        # of moving e_j past the later members of S
        total = 0
        for position, j in enumerate(s):
            term = x[index[s[:position] + s[position + 1 :]]] * v[j]
            total += term if (k - position) % 2 == 0 else -term
        if total:
            return True
    return False


def certify_conjugator(m: IntMatrix, v: Sequence[int], c: Sequence[int]) -> bool:
    """True proves that the word w has no period under phi, given phi(w) =
    g w g^-1 for words w != 1 and g, with exponent vectors v = [w] and
    c = [g], and M the abelianization of phi: M = I mod 3 and c is not in
    Q v.

    Then phi^p(w) = g_p w g_p^-1 for g_p = phi^(p-1)(g) ... phi(g) g, so
    [g_p] = S_p(M) c.  If phi^p(w) = w, then g_p centralises w, so it is a
    power of the root of w, and S_p(M) c is in Q v.  Mv = v, since phi(w)
    is conjugate to w, so W = Q v is M-invariant, and the lemma of
    ``_outside_wedge`` puts c in Q v.  The conjugator is defined up to the
    centraliser of w, which changes c by a multiple of the root's vector,
    in Q v; the test does not depend on that choice.
    """
    return congruent_to_identity(m) and _outside_wedge(v, c, 1)


# ---------------------------------------------------------------------------
# the free nilpotent quotient of class 2
#
# For a word w = l_1 ... l_r let Omega(w) be the sum over k of
# [l_1 ... l_(k-1)] ^ [l_k], in the exterior square of Z^N with the basis
# of ``_subsets``.  Inserting x x^-1 adds p ^ x + (p + x) ^ (-x) = 0, so
# Omega is a function on F_N, and Omega(uv) = Omega(u) + Omega(v) + [u] ^
# [v].  So w -> ([w], Omega(w)) is a homomorphism onto a class-2 nilpotent
# group, and Omega(u w u^-1) = Omega(w) + 2 [u] ^ [w].  For an
# automorphism phi with abelianization M, Omega(phi(w)) - (^2 M) Omega(w)
# is additive in w, so it is L [w], where column i of L is Omega(phi(x_i)).
# The coordinates ([w], Omega(w)) therefore map to ([phi(w)],
# Omega(phi(w))) by one integer matrix, T = ((M, 0), (L, ^2 M)), and T of
# a composite is the product of the factors' T: the blocks multiply as
# (^2 M_1, L_1)(^2 M_2, L_2) = (^2 M_1 ^2 M_2, ^2 M_1 L_2 + L_1 M_2).


def exterior_square(m: IntMatrix) -> IntMatrix:
    """^2 M: column (k, l) is M e_k ^ M e_l, so entry ((i, j), (k, l)) is
    the minor m_ik m_jl - m_il m_jk."""
    pairs = _subsets(len(m), 2)
    return tuple(
        tuple(m[i][k] * m[j][l] - m[i][l] * m[j][k] for k, l in pairs) for i, j in pairs
    )


def nilpotent_coordinates(word: Word) -> Tuple[int, ...]:
    """([w], Omega(w)) as one vector of N + N (N - 1) / 2 integers."""
    n = word.alphabet.rank
    index = _subset_index(n, 2)
    prefix = [0] * n
    omega = [0] * len(index)
    for letter in word.letters:
        k = abs(letter) - 1
        sign = 1 if letter > 0 else -1
        # omega += prefix ^ (sign e_k)
        for i in range(n):
            if prefix[i] and i != k:
                if i < k:
                    omega[index[i, k]] += sign * prefix[i]
                else:
                    omega[index[k, i]] -= sign * prefix[i]
        prefix[k] += sign
    return tuple(prefix) + tuple(omega)


def nilpotent_action(phi: FreeAutomorphism) -> IntMatrix:
    """The matrix T = ((M, 0), (L, ^2 M)) of phi on the coordinates of
    ``nilpotent_coordinates``: T x(w) = x(phi(w)) for every word w.  Column
    i is x(phi(x_i)), read from the image words."""
    columns = [nilpotent_coordinates(image) for image in phi.forward]
    n = len(columns)
    # the rows of M^T are the columns [phi(x_i)], and the rows of ^2 (M^T)
    # = (^2 M)^T are the columns of ^2 M
    transpose = tuple(column[:n] for column in columns)
    columns.extend((0,) * n + row for row in exterior_square(transpose))
    return tuple(zip(*columns))


def certify_nilpotent(t: IntMatrix, x: Sequence[int]) -> bool:
    """True proves that neither the conjugacy class of w, nor the word w,
    nor the factor <w> has a period under phi, for T = ``nilpotent_action``
    of phi and x = ``nilpotent_coordinates`` of w: M = I mod 3, Mv = v for
    v = [w], and delta = Omega(phi(w)) - Omega(w) is not in v ^ Q^N.

    Let phi^p(w) be conjugate to w.  Then Omega(phi^p(w)) - Omega(w) is in
    W = v ^ Q^N, which ^2 M fixes as a set since Mv = v.  Omega(phi^(k+1)
    (w)) - Omega(phi^k(w)) = (^2 M)^k delta, as [phi^k(w)] = v, so the sum
    is S_p(^2 M) delta.  ^2 M = I mod 3, as its entries are the 2 x 2
    minors of M, and the lemma of ``_outside_wedge`` puts delta in W.  A
    period of the word w is one of its class.  A period p of the factor
    <w> makes phi^p(w) conjugate to w^(+-1), and then phi^(2p)(w) is
    conjugate to w, a period of the class.

    At N = 2 this never holds: W is all of ^2 Q^2 when v != 0, and for
    v = 0 delta = (det M - 1) Omega(w) = 0.
    """
    n = (math.isqrt(8 * len(x) + 1) - 1) // 2
    if not congruent_to_identity(tuple(row[:n] for row in t[:n])):
        return False
    y = _mat_vec(t, x)
    v = x[:n]
    if y[:n] != v:
        return False
    return _outside_wedge(v, tuple(a - b for a, b in zip(y[n:], x[n:])), 2)


# ---------------------------------------------------------------------------
# the homology of the mod-2 cover
#
# K = ker(F_N -> H_1(F_N; Z/2)) is characteristic, so every automorphism
# restricts to K and acts on H_1(K; Z).  K is the fundamental group of the
# cover of the rose whose vertices are the bitmasks g of (Z/2)^N, bit k for
# x_(k+1), with one edge (g, k) from g to g + e_k for each vertex and
# letter, numbered g N + k.  The tree edges run into each vertex g != 0
# from g minus its lowest bit.  A cycle's class is its vector of signed
# counts on the other (N - 1) 2^N + 1 edges, in edge order.

# the largest rank whose cover the runners consult: H_1(K) has rank 5 at
# N = 2, 17 at N = 3 and 49 at N = 4, and the cover functions refuse more
COVER_MAX_RANK = 3
# the prime of the Krylov test in ``certify_cover``
_KRYLOV_PRIME = 2**61 - 1


def _check_cover_rank(n: int) -> None:
    if n > COVER_MAX_RANK:
        raise ValueError(f"the mod-2 cover is built for ranks <= {COVER_MAX_RANK}, got {n}")


def _tree_path(h: int, n: int) -> List[int]:
    """The tree edges from vertex 0 to vertex h, each crossed forward."""
    edges = []
    while h:
        low = h & -h
        h ^= low
        edges.append(h * n + low.bit_length() - 1)
    return edges


@functools.cache
def _cover_cycles(n: int) -> Tuple[Tuple[Optional[int], ...], Tuple[Tuple[Tuple[int, int], ...], ...]]:
    """The coordinate of each edge of the rank-n cover, None for a tree
    edge, and for each coordinate the fundamental cycle of its edge as
    (edge, coefficient) pairs: along the tree to the edge's origin, across
    the edge, and back along the tree from its head."""
    coordinate: List[Optional[int]] = []
    cycles = []
    for edge in range(n << n):
        g, k = divmod(edge, n)
        # (g, k) is the tree edge into g + e_k iff no bit of g is <= k
        if g & ((2 << k) - 1) == 0:
            coordinate.append(None)
            continue
        coordinate.append(len(cycles))
        chain = dict.fromkeys(range(n << n), 0)
        chain[edge] += 1
        for e in _tree_path(g, n):
            chain[e] += 1
        for e in _tree_path(g ^ (1 << k), n):
            chain[e] -= 1
        cycles.append(tuple((e, c) for e, c in chain.items() if c))
    return tuple(coordinate), tuple(cycles)


def _lift(word: Word) -> Tuple[Dict[Tuple[int, int], int], int]:
    """The lift of ``word`` from vertex 0: the signed count of each edge
    (q, k) it crosses, and its end vertex.  The deck group acts by
    translation, so the lift from vertex g crosses (g + q, k) instead."""
    counts: Dict[Tuple[int, int], int] = {}
    q = 0
    for letter in word.letters:
        k = abs(letter) - 1
        if letter > 0:
            counts[q, k] = counts.get((q, k), 0) + 1
            q ^= 1 << k
        else:
            q ^= 1 << k
            counts[q, k] = counts.get((q, k), 0) - 1
    return counts, q


def cover_class(word: Word) -> Tuple[int, ...]:
    """The class in H_1(K) of a word of K: its lift from vertex 0 is a
    closed path, read on the non-tree edges.  Raises ``ValueError`` for a
    word outside K (some exponent sum odd) and above ``COVER_MAX_RANK``."""
    n = word.alphabet.rank
    _check_cover_rank(n)
    counts, end = _lift(word)
    if end:
        raise ValueError("the word is not in K: an exponent sum is odd")
    coordinate, cycles = _cover_cycles(n)
    u = [0] * len(cycles)
    for (q, k), c in counts.items():
        i = coordinate[q * n + k]
        if i is not None:
            u[i] += c
    return tuple(u)


def cover_action(phi: FreeAutomorphism) -> IntMatrix:
    """Integer matrix A of phi on H_1(K), of rank (N - 1) 2^N + 1: A [w] =
    [phi(w)] for every w in K.  Raises ``ValueError`` above
    ``COVER_MAX_RANK``.

    phi is realized on the rose by running petal x_k along phi(x_k).  That
    map lifts to the cover fixing vertex 0.  The lift sends vertex g, the
    end of the lift of any word whose exponent vector is g mod 2, to M g,
    for M the abelianization mod 2.  It sends edge (g, k) along the lift
    of phi(x_k) from M g.  Column j of A sums those lifts over the j-th
    fundamental cycle, read on the non-tree edges.
    """
    n = phi.alphabet.rank
    _check_cover_rank(n)
    coordinate, cycles = _cover_cycles(n)
    lifts = [_lift(image) for image in phi.forward]
    # g -> M g, one XOR per vertex: the lift of phi(x_k) ends at M e_k
    vertex_image = [0] * (1 << n)
    for g in range(1, 1 << n):
        low = g & -g
        vertex_image[g] = vertex_image[g ^ low] ^ lifts[low.bit_length() - 1][1]
    columns = []
    for cycle in cycles:
        column = [0] * len(cycles)
        for edge, coefficient in cycle:
            g, k = divmod(edge, n)
            start = vertex_image[g]
            for (q, j), c in lifts[k][0].items():
                i = coordinate[(start ^ q) * n + j]
                if i is not None:
                    column[i] += coefficient * c
        columns.append(column)
    return tuple(zip(*columns))


def _krylov_polynomial(m: IntMatrix, u: Sequence[int], prime: int) -> List[int]:
    """Coefficients, constant first, of the monic minimal polynomial of u
    under m over Z/prime: u, Au, A^2 u, ... are reduced against the earlier
    ones, each kept with the polynomial in A that it is of u, until one
    reduces to 0, at the latest A^d u for d = len(u)."""
    rows = [[x % prime for x in row] for row in m]
    echelon: List[Tuple[int, List[int], List[int]]] = []
    v = [x % prime for x in u]
    for degree in itertools.count():
        r = list(v)
        poly = [0] * degree + [1]
        for pivot, vector, vector_poly in echelon:
            c = r[pivot]
            if c:
                r = [(x - c * y) % prime for x, y in zip(r, vector)]
                for i, y in enumerate(vector_poly):
                    poly[i] = (poly[i] - c * y) % prime
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is None:
            return poly
        scale = pow(r[pivot], -1, prime)
        echelon.append((pivot, [x * scale % prime for x in r], [x * scale % prime for x in poly]))
        v = [sum(x * y for x, y in zip(row, v)) % prime for row in rows]


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                product[i + j] += x * y
    return tuple(product)


def _poly_mod(poly: Sequence[int], f: List[int], prime: int) -> List[int]:
    """poly mod the monic f, over Z/prime, as len(f) - 1 coefficients."""
    k = len(f) - 1
    poly = list(poly) + [0] * (k - len(poly))
    for top in range(len(poly) - 1, k - 1, -1):
        c = poly[top] % prime
        if c:
            for i in range(k):
                poly[top - k + i] -= c * f[i]
    return [x % prime for x in poly[:k]]


def certify_cover(a: IntMatrix, u: Sequence[int]) -> bool:
    """True proves A^p u != u for every p >= 1: the minimal polynomial f of
    u under A over Z/P, for the prime P = 2^61 - 1, does not divide
    x^L - 1, for L = order_bound(d) and d the size of A.

    Suppose A^p u = u.  A^p fixes the rational span W of u, Au, A^2 u, ...,
    so A has finite order on W.  Its minimal polynomial there is a product
    of distinct cyclotomic polynomials Phi_m with totient(m) <= dim W <= d,
    so each m divides L, and A^L u = u.  This holds over Z, so it holds mod
    P, and f divides x^L - 1 mod P.  The test is sound in this direction
    only: a u that it declines may still have no period.

    For A = ``cover_action(phi)`` and any phi:

    - Conjugacy: let u be the class of w^2, which lies in K.  Suppose
      phi^p(w) = g w g^-1.  Then phi^p(w^2) = g w^2 g^-1, whose lift from
      vertex 0 runs along g to vertex g mod 2, around the lift of w^2 from
      there, and back.  So A^p u = D(g) u, for D the action of the deck
      group (Z/2)^N on H_1(K).  A normalises D: the lift of phi sends the
      deck translation by h to the one by M h.  So A^p permutes the finite
      set D u, and u has a period under A.  True therefore proves that
      neither the conjugacy class of w nor the word w has a period under
      phi.
    - A rank-1 factor <w>: phi^p<w> conjugate to <w> gives phi^p(w) =
      g w^(+-1) g^-1, and the same argument with u the class of w^2 and
      the finite set +-D u applies.
    - A rank-2 factor H with basis a, b: let u be the class of [a, b],
      which lies in K.  If phi^p(H) = g H g^-1, then conjugating by g^-1
      after phi^p is an automorphism of H, and by Nielsen every
      automorphism of F_2 sends [a, b] to a conjugate of [a, b]^(+-1).  So
      phi^p([a, b]) is a conjugate of [a, b]^(+-1), and u is periodic as
      before.
    """
    f = _krylov_polynomial(a, u, _KRYLOV_PRIME)
    if len(f) == 1:
        # u = 0 is fixed
        return False
    one = _poly_mod([1], f, _KRYLOV_PRIME)
    power, base, exponent = one, _poly_mod([0, 1], f, _KRYLOV_PRIME), order_bound(len(a))
    while exponent:
        if exponent & 1:
            power = _poly_mod(_poly_mul(power, base), f, _KRYLOV_PRIME)
        exponent >>= 1
        if exponent:
            base = _poly_mod(_poly_mul(base, base), f, _KRYLOV_PRIME)
    return power != one


# ---------------------------------------------------------------------------
# the scans' questions, decided by the characteristic polynomial
#
# For M in GL_n(Z), n <= 3, both scans ask a question that chi, the
# characteristic polynomial det(xI - M), nearly settles on its own.  Over
# Q, x^k - 1 is the product of the cyclotomic polynomials Phi_d over the
# d dividing k.  They are distinct irreducibles, so x^k - 1 is squarefree,
# and Phi_d divides chi iff a primitive d-th root of unity is an
# eigenvalue of M.  That needs totient(d) <= n <= 3, so d is 1, 2, 3, 4
# or 6.  Polynomials are tuples of integer coefficients, constant first,
# as in ``_krylov_polynomial``.

# Phi_d for the d with totient(d) <= 3
_CYCLOTOMIC = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1)}


def _charpoly(m: IntMatrix) -> Tuple[int, ...]:
    """det(xI - m) for n <= 3, in closed form: x^n - t x^(n-1) + s x^(n-2)
    - det m, with t the trace and s the sum of the principal 2 x 2 minors.

    >>> _charpoly(((0, -1), (1, 0)))
    (1, 0, 1)
    """
    if len(m) == 1:
        return (-m[0][0], 1)
    if len(m) == 2:
        (a, b), (c, d) = m
        return (a * d - b * c, -a - d, 1)
    (a, b, c), (d, e, f), (g, h, i) = m
    minor = e * i - f * h
    return (
        b * (d * i - f * g) - a * minor - c * (d * h - e * g),
        a * e - b * d + a * i - c * g + minor,
        -a - e - i,
        1,
    )


def _root_of_unity_but_one(chi: Sequence[int]) -> bool:
    """True iff one of Phi_2, Phi_3, Phi_4, Phi_6 divides chi, of degree
    <= 3; ``abelian_standing_assumptions_check`` finds Per(M) != Fix(M)
    exactly then.

    Per(M) = ker(M^L - I) for L = ``order_bound(n)`` and Fix(M) = ker(M -
    I) are integer kernels, so saturated, and they are equal iff they are
    equal over Q.  Over Q the factors Phi_d, d | L, of x^L - 1 are pairwise
    coprime, so ker(M^L - I) is the direct sum of the ker Phi_d(M), and
    Fix(M) is the summand d = 1.  So Per(M) = Fix(M) iff ker Phi_d(M) = 0
    for every d > 1 dividing L, iff no such Phi_d divides chi.  The d > 1
    with totient(d) <= n are 2 for n = 1, where L = 2, and 2, 3, 4 and 6
    for n = 2, 3, where L = 12.

    Phi_d divides chi iff the remainder of chi mod Phi_d is 0.  With chi
    = a_0 + a_1 x + a_2 x^2 + a_3 x^3 (zeros above the degree), x^2 and
    x^3 reduce to -x - 1 and 1 mod Phi_3, to -1 and -x mod Phi_4, and to
    x - 1 and -1 mod Phi_6, which gives the three pairs of conditions
    below; Phi_2 divides chi iff chi(-1) = 0.
    """
    a0, a1, a2, a3 = tuple(chi) + (0,) * (4 - len(chi))
    return (
        a0 - a1 + a2 - a3 == 0
        or (a1 == a2 and a0 - a2 + a3 == 0)
        or (a1 == a3 and a0 == a2)
        or (a1 == -a2 and a0 - a2 - a3 == 0)
    )


@functools.cache
def _cyclotomic_products(n: int) -> Dict[Tuple[int, ...], Tuple[int, Tuple[int, ...]]]:
    """Each product chi of Phi_1, Phi_2, Phi_3, Phi_4 and Phi_6 of degree
    n, mapped to (the lcm of its d, the product of its distinct Phi_d):
    2, 6 and 10 of them for n = 1, 2 and 3."""
    table = {}
    for count in range(1, n + 1):
        for ds in itertools.combinations_with_replacement(_CYCLOTOMIC, count):
            if sum(len(_CYCLOTOMIC[d]) - 1 for d in ds) == n:
                distinct = sorted(set(ds))
                table[functools.reduce(_poly_mul, (_CYCLOTOMIC[d] for d in ds))] = (
                    math.lcm(*distinct),
                    functools.reduce(_poly_mul, (_CYCLOTOMIC[d] for d in distinct)),
                )
    return table


def _vanishes_at(poly: Sequence[int], m: IntMatrix) -> bool:
    """True iff the monic ``poly``, of degree >= 1, is zero at m; by
    Horner's rule, with one product for each degree past the first."""
    n = len(m)

    def plus_scalar(a: IntMatrix, c: int) -> IntMatrix:
        return tuple(
            tuple(x + c if i == j else x for j, x in enumerate(row)) for i, row in enumerate(a)
        )

    value = plus_scalar(m, poly[-2])
    for c in reversed(poly[:-2]):
        value = plus_scalar(mat_mul(value, m), c)
    return value == ((0,) * n,) * n


def _order_from_charpoly(m: IntMatrix) -> Optional[int]:
    """``finite_order`` of m, n <= 3, from chi: the lcm of the d of the
    Phi_d in chi if chi is a product of them (``_cyclotomic_products``)
    and r, the product of its distinct Phi_d, is zero at m; else None.

    If m has finite order, its eigenvalues are roots of unity, so each
    irreducible factor of chi is a Phi_d with totient(d) <= n, and chi is
    in the table.  The minimal polynomial of m has the same irreducible
    factors as chi, and divides chi, so it is r iff r(m) = 0.  If it is r,
    m is diagonalizable over C with the primitive d-th roots of unity as
    eigenvalues, and its order is the lcm of the d.  If not, a repeated
    factor gives m a Jordan block of size >= 2 at a root of unity z, and
    the entry k z^(k-1) above the diagonal of its k-th power is never 0,
    so no power of m is I.
    """
    entry = _cyclotomic_products(len(m)).get(_charpoly(m))
    if entry is None or not _vanishes_at(entry[1], m):
        return None
    return entry[0]


# ---------------------------------------------------------------------------
# exhaustive desk-scale scans


def _last_row_cofactors(rows: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
    """The cofactors c of the last row of an n x n matrix whose first n - 1
    rows are ``rows``: det(rows + (r,)) = c . r for every row r.  In closed
    form for the ranks n <= 3 that the scans allow: (1,) for n = 1,
    (-b, a) for the row (a, b), and the cross product of two rows.

    >>> _last_row_cofactors(((1, 2, 3), (4, 5, 6)))
    (-3, 6, -3)
    """
    if not rows:
        return (1,)
    if len(rows) == 1:
        ((a, b),) = rows
        return (-b, a)
    (a, b, c), (d, e, f) = rows
    return (b * f - c * e, c * d - a * f, a * e - b * d)


def _congruence_matrices(n: int, bound: int, level: int):
    """All M in GL_n(Z), entries in [-bound, bound], M = I mod level, in
    lexicographic order of their entries.

    The first n - 1 rows range over the box.  For the last row r,
    det M = c . r with c the cofactors of that row, so once the off-diagonal
    entries of r are chosen (partial sum s), its diagonal entry is
    (+-1 - s) / c[-1], kept if it is an integer in the box and = 1 mod
    level; when c[-1] = 0 every diagonal entry works iff s = +-1.  Rows
    whose cofactors have a common factor admit no completion.  Cost: one
    closed-form cofactor vector (``_last_row_cofactors``, no determinant)
    per choice of the first n - 1 rows and O(1) per choice of the last
    row's off-diagonal entries, |D|^(n-1) |O|^(n^2-n) steps for D and O
    the admissible diagonal and off-diagonal entries, so |D| times
    fewer than the box holds; n = 3 at level 3 takes 11 664 steps at
    bound 5 and 562 500 at bound 8, against 46 656 and 3.4M determinants
    for filtering the box.
    """
    box = range(-bound, bound + 1)
    diagonal = [x for x in box if (x - 1) % level == 0]
    off = [x for x in box if x % level == 0]
    diagonal_set = set(diagonal)
    heads = itertools.product(
        *(
            itertools.product(*(diagonal if i == j else off for j in range(n)))
            for i in range(n - 1)
        )
    )
    tails = list(itertools.product(off, repeat=n - 1))
    for head in heads:
        cofactors = _last_row_cofactors(head)
        if math.gcd(*cofactors) != 1:
            continue
        pivot = cofactors[-1]
        # targets in the order that makes the solved diagonal entry ascend
        targets = (-1, 1) if pivot > 0 else (1, -1)
        for tail in tails:
            s = sum(c * x for c, x in zip(cofactors, tail))
            if pivot:
                for target in targets:
                    last, rem = divmod(target - s, pivot)
                    if not rem and last in diagonal_set:
                        yield head + (tail + (last,),)
            elif s in (-1, 1):
                for last in diagonal:
                    yield head + (tail + (last,),)


# the most enumeration steps a scan may take; n = 3 at level 3 and bound 8
# takes 562 500, n = 3 at level 1 and bound 8 would take 17^8 (7e9)
_SCAN_STEP_LIMIT = 1_000_000


def _scan_steps(n: int, bound: int, level: int) -> int:
    """|D|^(n-1) |O|^(n^2-n), the steps ``_congruence_matrices`` takes,
    counted without enumerating: D and O hold the x in [-bound, bound] with
    x = 1 and x = 0 mod level."""

    def count(residue: int) -> int:
        return (bound - residue) // level - (-bound - 1 - residue) // level

    return count(1) ** (n - 1) * count(0) ** (n * n - n)


def _check_scan_args(n: int, bound: int, level: int) -> None:
    """Refuse a box that is malformed, beyond n <= 3 and bound 8, or that
    takes more than ``_SCAN_STEP_LIMIT`` enumeration steps."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if n > 3 or bound > 8:
        raise ValueError("scan limited to n <= 3, bound <= 8")
    steps = _scan_steps(n, bound, level)
    if steps > _SCAN_STEP_LIMIT:
        raise ValueError(
            f"n = {n}, bound {bound}, level {level} takes {steps} enumeration "
            f"steps, more than the limit of {_SCAN_STEP_LIMIT}"
        )


def minkowski_scan(n: int, bound: int, level: int = 3) -> dict:
    """Enumerate the level-``level`` congruence subgroup of GL_n(Z) inside the
    entry box [-bound, bound] and record every finite-order non-identity
    element.  At level 3 the expected violation count is zero.

    The enumeration solves for each matrix's last diagonal entry (see
    ``_congruence_matrices``).  Each matrix then costs its characteristic
    polynomial in closed form and one table lookup, and, when that is a
    product of cyclotomic polynomials, at most two matrix products (see
    ``_order_from_charpoly``); no power M^L and no determinant.  At n = 3,
    level 3 the box of bound 5 holds 973 matrices and that of bound 8
    holds 13 609; the box of bound 5 takes about 0.010 s on a 2-CPU x86-64
    machine under Python 3.11, enumeration included.
    """
    _check_scan_args(n, bound, level)
    start = time.perf_counter()
    ident = identity_matrix(n)
    enumerated = 0
    violations = []
    for m in _congruence_matrices(n, bound, level):
        enumerated += 1
        order = _order_from_charpoly(m)
        if order is not None and m != ident:
            violations.append({"matrix": [list(r) for r in m], "order": order})
    violations.sort(key=lambda v: v["matrix"])
    return {
        "n": n,
        "bound": bound,
        "level": level,
        "enumerated": enumerated,
        "violations": violations,
        "elapsed": time.perf_counter() - start,
    }


def abelian_standing_assumptions_check(n: int, bound: int) -> dict:
    """For every level-3 congruence matrix in the box, check that the periodic
    sublattice equals the fixed sublattice.

    Enumerated as in ``minkowski_scan``; each matrix then costs its
    characteristic polynomial in closed form and four divisibility tests
    on its coefficients (see ``_root_of_unity_but_one``): no matrix
    power, no kernel and no determinant.  At n = 3 the box of bound 5
    takes about 0.008 s on a 2-CPU x86-64 machine under Python 3.11,
    enumeration included.
    """
    _check_scan_args(n, bound, 3)
    start = time.perf_counter()
    enumerated = 0
    violations = []
    for m in _congruence_matrices(n, bound, 3):
        enumerated += 1
        if _root_of_unity_but_one(_charpoly(m)):
            violations.append({"matrix": [list(r) for r in m]})
    violations.sort(key=lambda v: v["matrix"])
    return {
        "n": n,
        "bound": bound,
        "enumerated": enumerated,
        "violations": violations,
        "elapsed": time.perf_counter() - start,
    }

