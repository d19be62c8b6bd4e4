import itertools
import math
import operator
import random
import subprocess
import sys

import pytest

from aperiodic_lab.aut import (
    ad,
    basis_cycle,
    commutator_insertion,
    compose,
    identity_automorphism,
    inverse,
    partial_conjugation,
    sample,
    standard_generators,
    swap,
    transvection,
)
from aperiodic_lab import homology
from aperiodic_lab.cli import main
from aperiodic_lab.homology import (
    Sublattice,
    _check_scan_args,
    _CYCLOTOMIC,
    _charpoly,
    _congruence_matrices,
    _cyclotomic_products,
    _last_row_cofactors,
    _order_from_charpoly,
    _root_of_unity_but_one,
    _scan_steps,
    abelian_standing_assumptions_check,
    abelianization,
    _outside_wedge,
    certify_conjugator,
    certify_cover,
    certify_infinite_order,
    certify_lattice,
    certify_nilpotent,
    congruent_to_identity,
    cover_action,
    cover_class,
    det,
    exterior_square,
    finite_order,
    fix_subgroup,
    identity_matrix,
    in_ia3,
    kernel_basis,
    mat_mod,
    mat_mul,
    mat_pow,
    minkowski_scan,
    nilpotent_action,
    nilpotent_coordinates,
    order_bound,
    per_subgroup,
    saturation,
    word_exponent_vector,
)
from aperiodic_lab.subgroups import exact_word_orbit, orbit_period
from aperiodic_lab.words import Alphabet, CyclicWord, Word, all_reduced_words, cyclic_reduce, parse_word

A2 = Alphabet(2)
A3 = Alphabet(3)


def w(text, alphabet=A2):
    return parse_word(alphabet, text)


ROTATION = ((0, -1), (1, 0))
SHEAR3 = ((1, 3), (0, 1))


class TestAbelianization:
    def test_identity(self):
        assert abelianization(identity_automorphism(A2)) == identity_matrix(2)

    def test_transvection_column_convention(self):
        # images are columns: a -> ab gives column (1, 1)
        assert abelianization(transvection(A2, 1, 2)) == ((1, 0), (1, 1))

    def test_conjugation_is_trivial(self):
        assert abelianization(ad(w("b"))) == identity_matrix(2)

    def test_functorial(self):
        gens = standard_generators(2, "nielsen")
        rng = random.Random(2)
        for _ in range(20):
            phi = sample(gens, 3, rng.randrange(2**32))
            psi = sample(gens, 3, rng.randrange(2**32))
            assert abelianization(compose(phi, psi)) == mat_mul(
                abelianization(phi), abelianization(psi)
            )
            assert mat_mul(
                abelianization(phi), abelianization(inverse(phi))
            ) == identity_matrix(2)


class TestInIA3:
    def test_cube_is_in(self):
        from aperiodic_lab.aut import cube_map

        assert in_ia3(cube_map(A2, 1, 2))

    def test_transvection_is_out(self):
        assert not in_ia3(transvection(A2, 1, 2))

    def test_closed_under_products(self):
        gens = standard_generators(3, "ia3")
        for seed in range(20):
            assert in_ia3(sample(gens, 7, seed))

    def test_closed_under_compose_and_inverse(self):
        gens = standard_generators(2, "ia3")
        rng = random.Random(8)
        for _ in range(10):
            phi = sample(gens, 3, rng.randrange(2**32))
            psi = sample(gens, 3, rng.randrange(2**32))
            assert in_ia3(compose(phi, psi))
            assert in_ia3(inverse(phi))


class TestFixSubgroup:
    def test_identity_fixes_everything(self):
        assert fix_subgroup(identity_matrix(2)) == Sublattice(2, ((1, 0), (0, 1)))

    def test_shear(self):
        assert fix_subgroup(SHEAR3) == Sublattice(2, ((1, 0),))

    def test_rotation_fixes_nothing(self):
        assert fix_subgroup(ROTATION).rank == 0

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            fix_subgroup(((1, 0), (0, 2)))


def brute_force_periodic(m, box=5, max_power=12):
    """Oracle: vectors in a box with a periodic orbit under m."""
    import itertools

    n = len(m)
    hits = []
    for vec in itertools.product(range(-box, box + 1), repeat=n):
        current = vec
        for _ in range(max_power):
            current = tuple(
                sum(m[i][j] * current[j] for j in range(n)) for i in range(n)
            )
            if current == vec:
                hits.append(vec)
                break
    return hits


class TestPerSubgroup:
    def test_rotation_is_fully_periodic(self):
        assert per_subgroup(ROTATION) == Sublattice(2, ((1, 0), (0, 1)))

    def test_unipotent_per_equals_fix(self):
        assert per_subgroup(SHEAR3) == fix_subgroup(SHEAR3)

    def test_block_matrix(self):
        m = (
            (0, -1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, 2, 1),
            (0, 0, 1, 1),
        )
        assert per_subgroup(m) == Sublattice(4, ((1, 0, 0, 0), (0, 1, 0, 0)))

    @pytest.mark.parametrize("m", [ROTATION, SHEAR3, identity_matrix(2)])
    def test_against_brute_force_orbits(self, m):
        lattice = per_subgroup(m)
        for vec in brute_force_periodic(m):
            assert lattice.contains(vec)
        # conversely the lattice basis vectors are periodic
        for basis_vec in lattice.basis:
            assert any(
                tuple(
                    sum(mat_pow(m, k)[i][j] * basis_vec[j] for j in range(len(m)))
                    for i in range(len(m))
                )
                == tuple(basis_vec)
                for k in range(1, order_bound(len(m)) + 1)
            )

    def test_contains_fix_and_invariance(self):
        for m in (ROTATION, SHEAR3):
            per, fix = per_subgroup(m), fix_subgroup(m)
            assert per.contains_lattice(fix)
            for row in per.basis:
                image = tuple(
                    sum(m[i][j] * row[j] for j in range(len(m)))
                    for i in range(len(m))
                )
                assert per.contains(image)

    def test_saturated(self):
        for m in (ROTATION, SHEAR3, identity_matrix(2)):
            assert per_subgroup(m).is_saturated()
            assert fix_subgroup(m).is_saturated()


class TestFiniteOrder:
    def test_identity(self):
        assert finite_order(identity_matrix(2)) == 1

    def test_rotation_has_order_four(self):
        assert finite_order(ROTATION) == 4

    def test_unipotent_is_infinite(self):
        assert finite_order(((1, 1), (0, 1))) is None

    def test_minus_identity(self):
        assert finite_order(((-1, 0), (0, -1))) == 2


class TestOrderBound:
    def test_small_ranks(self):
        assert order_bound(1) == 2
        assert order_bound(2) == 12
        assert order_bound(3) == 12

    def test_rank_four_sees_order_eight(self):
        # companion matrix of x^4 + 1 has order 8, so the bound for n = 4
        # must be a multiple of 8 (it is 120, not 60)
        companion = (
            (0, 0, 0, -1),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
        )
        assert finite_order(companion) == 8
        assert order_bound(4) % 8 == 0
        assert order_bound(4) == 120

    def test_prime_powers_against_the_lcm_of_all_orders(self):
        # totient(k) >= sqrt(k / 2), so no k beyond 2 n^2 + 1 qualifies
        totient = [sum(math.gcd(i, k) == 1 for i in range(1, k + 1)) for k in range(2 * 20**2 + 2)]
        for n in range(1, 21):
            orders = [k for k in range(1, 2 * n * n + 2) if totient[k] <= n]
            assert order_bound(n) == math.lcm(*orders), n


class TestLattices:
    def test_hermite_canonical_equality(self):
        a = Sublattice(2, ((2, 1), (1, 1)))
        b = Sublattice(2, ((1, 0), (0, 1)))
        assert a == b

    def test_membership(self):
        lattice = Sublattice(2, ((1, 0),))
        assert lattice.contains((3, 0))
        assert not lattice.contains((0, 1))

    def test_saturation_grows_index_one(self):
        skew = Sublattice(2, ((1, 1), (1, -1)))
        assert saturation(skew) == Sublattice(2, ((1, 0), (0, 1)))

    def test_span_need_not_be_saturated(self):
        lattice = Sublattice(2, [(2, 0), (0, 1)])
        assert not lattice.is_saturated()
        assert not lattice.contains((1, 0))
        assert saturation(lattice) == Sublattice(2, identity_matrix(2))

    def test_kernel_is_saturated(self):
        basis = kernel_basis(((2, -2), (-2, 2)))
        assert Sublattice(2, basis).is_saturated()
        assert Sublattice(2, basis).contains((1, 1))


class TestScans:
    def test_minkowski_small_box_clean(self):
        report = minkowski_scan(2, 4)
        assert report["violations"] == []
        assert report["enumerated"] > 0

    def test_rank_one(self):
        report = minkowski_scan(1, 4)
        assert report["enumerated"] == 1 and report["violations"] == []

    def test_level_one_control_finds_minus_identity(self):
        report = minkowski_scan(2, 2, level=1)
        assert any(
            v["matrix"] == [[-1, 0], [0, -1]] and v["order"] == 2
            for v in report["violations"]
        )

    def test_abelian_per_fix_small_box(self):
        report = abelian_standing_assumptions_check(2, 4)
        assert report["violations"] == []

    def test_rotation_is_the_control(self):
        # not congruent to I mod 3: Per = Z^2 but Fix = 0
        assert per_subgroup(ROTATION) != fix_subgroup(ROTATION)

    def test_desk_scale_caps(self):
        with pytest.raises(ValueError):
            minkowski_scan(4, 2)
        with pytest.raises(ValueError):
            abelian_standing_assumptions_check(2, 7)

    @pytest.mark.parametrize("args", [(0, 2, 3), (-1, 2, 3), (2, -1, 3), (2, 2, 0), (2, 2, -3)])
    def test_minkowski_rejects_bad_box(self, args):
        with pytest.raises(ValueError):
            minkowski_scan(*args)

    @pytest.mark.parametrize("args", [(0, 2), (2, -1)])
    def test_abelian_rejects_bad_box(self, args):
        with pytest.raises(ValueError):
            abelian_standing_assumptions_check(*args)

    @pytest.mark.parametrize(
        "argv",
        [
            ["minkowski", "--level", "0"],
            ["minkowski", "--rank", "0"],
            ["minkowski", "--bound", "-1"],
            ["abelian", "--rank", "0"],
        ],
    )
    def test_cli_bad_box_is_a_value_error(self, argv):
        # formerly ZeroDivisionError (level 0) and IndexError (rank 0)
        with pytest.raises(ValueError):
            main(argv)

    def test_empty_box(self):
        report = minkowski_scan(2, 0)
        assert report["enumerated"] == 0 and report["violations"] == []


def det_filter_matrices(n, bound, level):
    """Oracle: every matrix of the box that is = I mod level, in
    lexicographic order, kept when its determinant is +-1."""
    choices = []
    for i in range(n):
        for j in range(n):
            target = 1 if i == j else 0
            choices.append([x for x in range(-bound, bound + 1) if (x - target) % level == 0])
    for flat in itertools.product(*choices):
        m = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        if abs(det(m)) == 1:
            yield m


def box_size(n, bound, level):
    diagonal = sum(1 for x in range(-bound, bound + 1) if (x - 1) % level == 0)
    off = sum(1 for x in range(-bound, bound + 1) if x % level == 0)
    return diagonal**n * off ** (n * n - n)


# the oracle filters every matrix of the box; boxes of more than 50 000
# matrices (n = 3 at level 1 from bound 2, at level 2 from bound 4) are
# checked by closure under symmetries instead
ORACLE_BOXES = [
    (n, level, bound)
    for n in (1, 2, 3)
    for level in (1, 2, 3, 4)
    for bound in range(5)
    if box_size(n, bound, level) <= 50_000
] + [(3, 3, 5)]


def power_loop_order(m):
    """Oracle: the least k <= order_bound(n) with m^k = I, one product at
    a time."""
    ident = identity_matrix(len(m))
    power = ident
    for k in range(1, order_bound(len(m)) + 1):
        power = mat_mul(power, m)
        if power == ident:
            return k
    return None


def elementary(n, rng):
    """A random elementary matrix and its inverse: a row swap, a sign
    change or a transvection by +-1, +-2."""
    m = [list(row) for row in identity_matrix(n)]
    inv = [list(row) for row in identity_matrix(n)]
    kind = rng.randrange(3)
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    if kind == 0 and n > 1:
        m[i], m[j] = m[j], m[i]
        inv[i], inv[j] = inv[j], inv[i]
    elif kind == 1 or n == 1:
        m[i][i] = inv[i][i] = -1
    else:
        m[i][j] = rng.choice((-2, -1, 1, 2))
        inv[i][j] = -m[i][j]
    return tuple(map(tuple, m)), tuple(map(tuple, inv))


def signed_permutation(n, rng):
    perm = rng.sample(range(n), n)
    return tuple(
        tuple(rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)) for i in range(n)
    )


class TestCongruenceEnumeration:
    @pytest.mark.parametrize("n,level,bound", ORACLE_BOXES)
    def test_equals_determinant_filter(self, n, level, bound):
        assert list(_congruence_matrices(n, bound, level)) == list(
            det_filter_matrices(n, bound, level)
        )

    @pytest.mark.parametrize("n,level,bound", [(3, 1, 2), (3, 2, 4)])
    def test_large_boxes_closed_under_symmetries(self, n, level, bound):
        # the enumeration treats the last row apart; transposes and
        # simultaneous row and column permutations must land in it again
        found = list(_congruence_matrices(n, bound, level))
        assert found == sorted(set(found))
        members = set(found)
        for m in found:
            assert all(abs(x) <= bound for row in m for x in row)
            assert mat_mod(m, level) == mat_mod(identity_matrix(n), level)
            assert abs(det(m)) == 1
            assert tuple(zip(*m)) in members
            # a transposition and an n-cycle generate every permutation
            for perm in ((1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)):
                assert tuple(tuple(m[perm[i]][perm[j]] for j in range(n)) for i in range(n)) in members

    def test_bound_eight_count(self):
        assert sum(1 for _ in _congruence_matrices(3, 8, 3)) == 13_609

    def test_bound_six_count(self):
        assert sum(1 for _ in _congruence_matrices(3, 6, 3)) == 6073


class TestFiniteOrderOracle:
    def test_every_scan_matrix(self):
        boxes = [(3, 5, 3), (3, 2, 2), (2, 3, 1), (3, 1, 1)]
        for n, bound, level in boxes:
            for m in _congruence_matrices(n, bound, level):
                assert finite_order(m) == power_loop_order(m), m

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_elementary_products(self, n):
        rng = random.Random(600 + n)
        for _ in range(150):
            m = identity_matrix(n)
            for _ in range(rng.randrange(8)):
                m = mat_mul(m, elementary(n, rng)[0])
            assert finite_order(m) == power_loop_order(m), m

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_conjugated_signed_permutations(self, n):
        # P S P^-1 with S a signed permutation has finite order, and a
        # product P of elementary matrices spreads it over every entry
        rng = random.Random(700 + n)
        for _ in range(60):
            s = signed_permutation(n, rng)
            m = s
            for _ in range(rng.randrange(1, 5)):
                e, e_inv = elementary(n, rng)
                m = mat_mul(mat_mul(e, m), e_inv)
            order = finite_order(m)
            assert order is not None and order == power_loop_order(m) == power_loop_order(s)

    def test_companion_of_order_eight(self):
        companion = ((0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        assert finite_order(companion) == power_loop_order(companion) == 8


class TestScanKernels:
    def test_no_det_inside_scans(self, monkeypatch):
        # the enumeration yields det +-1 only, so neither scan needs one
        calls = []
        original = homology.det

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(homology, "det", counting)
        assert minkowski_scan(3, 5)["enumerated"] == 973
        assert abelian_standing_assumptions_check(3, 5)["enumerated"] == 973
        assert calls == []
        finite_order(ROTATION)  # the public entry point still validates
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "n,bound,level,differ,total",
        [(3, 1, 1, 3179, 6960), (2, 3, 1, 91, 232), (2, 2, 2, 15, 20), (3, 5, 3, 0, 973)],
    )
    def test_per_is_fix_against_lattices(self, n, bound, level, differ, total):
        matrices = list(_congruence_matrices(n, bound, level))
        assert len(matrices) == total
        found = 0
        for m in matrices:
            equal = per_subgroup(m) == fix_subgroup(m)
            assert _root_of_unity_but_one(_charpoly(m)) == (not equal), m
            found += not equal
        assert found == differ

    @pytest.mark.parametrize(
        "n,bound,level,finite,total",
        [(3, 1, 1, 1584, 6960), (2, 2, 1, 40, 104), (1, 3, 1, 2, 2), (3, 5, 3, 1, 973)],
    )
    def test_order_from_charpoly_against_finite_order(self, n, bound, level, finite, total):
        matrices = list(_congruence_matrices(n, bound, level))
        assert len(matrices) == total
        found = 0
        for m in matrices:
            order = finite_order(m)
            assert _order_from_charpoly(m) == order, m
            found += order is not None
        assert found == finite

    def test_charpoly_against_determinants(self):
        # det(xI - m) at n + 1 points fixes a monic polynomial of degree n
        rng = random.Random(900)
        for n in (1, 2, 3):
            for _ in range(200):
                m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
                chi = _charpoly(m)
                assert len(chi) == n + 1 and chi[-1] == 1
                for x in range(-1, n + 1):
                    shifted = tuple(
                        tuple((x if i == j else 0) - m[i][j] for j in range(n)) for i in range(n)
                    )
                    assert sum(c * x**k for k, c in enumerate(chi)) == det(shifted)

    def test_root_test_against_division(self):
        # every monic chi of degree <= 3 with small coefficients, against
        # long division by each Phi_d, d > 1
        def divides(f, chi):
            rest = list(chi)
            while len(rest) >= len(f):
                top = rest[-1]
                for i, c in enumerate(f):
                    rest[len(rest) - len(f) + i] -= top * c
                rest.pop()
            return not any(rest)

        for degree in (1, 2, 3):
            for low in itertools.product(range(-4, 5), repeat=degree):
                chi = low + (1,)
                expected = any(divides(_CYCLOTOMIC[d], chi) for d in (2, 3, 4, 6))
                assert _root_of_unity_but_one(chi) == expected, chi

    def test_cyclotomic_tables_against_products(self):
        # Phi_d from x^d - 1 divided by every Phi_k, k a proper divisor of
        # d, then every product of them of degree n multiplied out
        def times(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return tuple(out)

        def quotient(num, f):
            num, out = list(num), []
            while len(num) >= len(f):
                top = num[-1]
                out.append(top)
                for i, c in enumerate(f):
                    num[len(num) - len(f) + i] -= top * c
                num.pop()
            assert not any(num)
            return tuple(reversed(out))

        phi = {}
        for d in (1, 2, 3, 4, 6):
            poly = (-1,) + (0,) * (d - 1) + (1,)
            for k in phi:
                if d % k == 0:
                    poly = quotient(poly, phi[k])
            phi[d] = poly
        assert phi == _CYCLOTOMIC
        for n, size in ((1, 2), (2, 6), (3, 10)):
            expected = {}
            every = (p for r in range(1, n + 1) for p in itertools.product(phi, repeat=r))
            for picks in every:
                if sum(len(phi[d]) - 1 for d in picks) != n:
                    continue
                product, radical = (1,), (1,)
                for d in picks:
                    product = times(product, phi[d])
                for d in set(picks):
                    radical = times(radical, phi[d])
                expected[product] = (math.lcm(*picks), radical)
            assert len(_cyclotomic_products(n)) == size
            assert _cyclotomic_products(n) == expected

    def test_closed_form_cofactors(self):
        def signed_minors(rows):
            n = len(rows) + 1
            return tuple(
                (-1) ** (n - 1 + j) * det(tuple(row[:j] + row[j + 1 :] for row in rows))
                for j in range(n)
            )

        assert _last_row_cofactors(()) == (1,)
        for row in itertools.product(range(-3, 4), repeat=2):
            assert _last_row_cofactors((row,)) == signed_minors((row,))
        box = list(itertools.product(range(-2, 3), repeat=3))
        for rows in itertools.product(box, repeat=2):
            assert _last_row_cofactors(rows) == signed_minors(rows), rows

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cofactors_expand_the_determinant(self, n):
        rng = random.Random(800 + n)
        for _ in range(300):
            rows = tuple(tuple(rng.randint(-50, 50) for _ in range(n)) for _ in range(n))
            c = _last_row_cofactors(rows[:-1])
            assert det(rows) == sum(x * y for x, y in zip(c, rows[-1]))


class TestMatPow:
    def test_against_repeated_products(self):
        m = ((1, 3, 0), (0, 1, -3), (3, 0, 1))
        power = identity_matrix(3)
        for k in range(14):
            assert mat_pow(m, k) == power
            power = mat_mul(power, m)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(ROTATION, -1)


class TestMatMul:
    @staticmethod
    def naive(a, b):
        rows, inner, cols = len(a), len(b), len(b[0])
        out = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                for k in range(inner):
                    out[i][j] += a[i][k] * b[k][j]
        return tuple(tuple(row) for row in out)

    @pytest.mark.parametrize("size", range(1, 7))
    def test_against_triple_loop(self, size):
        rng = random.Random(size)
        for spread in (3, 10**6):
            for _ in range(20):
                a, b = (
                    tuple(tuple(rng.randint(-spread, spread) for _ in range(size)) for _ in range(size))
                    for _ in range(2)
                )
                assert mat_mul(a, b) == self.naive(a, b)

    def test_rectangular_against_triple_loop(self):
        rng = random.Random(7)
        for _ in range(50):
            rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
            a = tuple(tuple(rng.randint(-10**6, 10**6) for _ in range(inner)) for _ in range(rows))
            b = tuple(tuple(rng.randint(-10**6, 10**6) for _ in range(cols)) for _ in range(inner))
            assert mat_mul(a, b) == self.naive(a, b)

    def test_closed_forms_against_the_generic_product(self):
        # every shape from 1 x 1 to 4 x 4 on each side that can multiply,
        # so the 2 x 2 and 3 x 3 closed forms meet their near misses
        def generic(a, b):
            cols = tuple(zip(*b))
            return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)

        rng = random.Random(11)
        for rows, inner, cols in itertools.product(range(1, 5), repeat=3):
            for _ in range(5):
                a = tuple(tuple(rng.randint(-10**9, 10**9) for _ in range(inner)) for _ in range(rows))
                b = tuple(tuple(rng.randint(-10**9, 10**9) for _ in range(cols)) for _ in range(inner))
                assert mat_mul(a, b) == generic(a, b)

    def test_class_two_blocks_against_triple_loop(self):
        # the 6 x 6 block matrices ((M, 0), (L, ^2 M)) of the class-2
        # quotient at rank 3, and their products with each other
        rng = random.Random(3)
        blocks = [
            nilpotent_action(sample(standard_generators(3, family), rng.randrange(1, 6), rng.randrange(2**32)))
            for family in ("ia3", "nielsen")
            for _ in range(10)
        ]
        assert {len(t) for t in blocks} == {6}
        for a, b in itertools.product(blocks, repeat=2):
            assert mat_mul(a, b) == self.naive(a, b)


class TestMatrixIO:
    def test_det(self):
        assert det(ROTATION) == 1
        assert det(((2, 0), (0, 2))) == 4
        assert det(((1, 2), (2, 4))) == 0


class TestScanLimit:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_step_count_is_box_over_diagonal(self, n):
        for level in (1, 2, 3, 4):
            for bound in range(9):
                diagonal = sum(1 for x in range(-bound, bound + 1) if (x - 1) % level == 0)
                if diagonal:
                    assert _scan_steps(n, bound, level) * diagonal == box_size(n, bound, level)
                else:
                    assert _scan_steps(n, bound, level) == (n == 1)

    def test_largest_admitted_boxes(self):
        assert _scan_steps(3, 8, 3) == 562_500
        _check_scan_args(3, 8, 3, 8)
        _check_scan_args(3, 2, 1, 8)
        _check_scan_args(3, 6, 3, 6)

    def test_refused_before_enumerating(self, monkeypatch):
        # 17^8 steps: refused from the arithmetic alone
        def enumerate_nothing(*args):
            raise AssertionError("the refused scan enumerated")

        monkeypatch.setattr(homology, "_congruence_matrices", enumerate_nothing)
        assert _scan_steps(3, 8, 1) == 17**8
        with pytest.raises(ValueError, match="enumeration steps"):
            minkowski_scan(3, 8, level=1)
        with pytest.raises(ValueError, match="enumeration steps"):
            main(["minkowski", "--rank", "3", "--level", "1", "--bound", "8"])

    def test_cli_exit_is_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aperiodic_lab.cli", "minkowski", "--rank", "3", "--level", "1", "--bound", "8"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "enumeration steps" in proc.stderr
        assert proc.stdout == ""


def apply(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


SWAP = ((0, 1), (1, 0))
THREE_CYCLE = ((0, 0, 1), (1, 0, 0), (0, 1, 0))


class TestCertificates:
    """Each certificate against iteration of M up to the 12th power: it is
    True exactly when no power moves the object back (Per = Fix makes the
    first power decide), and never outside the congruence kernel."""

    @pytest.mark.parametrize("n, bound", [(2, 6), (3, 3)])
    def test_vector_certificate_against_powers(self, n, bound):
        # the lattice certificate on one vector: no power returns v, and it
        # is the plain rule M = I mod 3 and Mv != v (no Mv' = -v')
        vectors = list(itertools.product(range(-2, 3), repeat=n))
        certified = 0
        for m in _congruence_matrices(n, bound, 3):
            powers = [mat_pow(m, k) for k in range(1, 13)]
            for v in vectors:
                returns = any(apply(p, v) == v for p in powers)
                certified_v = certify_lattice(m, [v])
                assert certified_v == (not returns), (m, v)
                assert certified_v == (congruent_to_identity(m) and apply(m, v) != v), (m, v)
                certified += not returns
        assert certified > 0

    def test_lattice_certificate_against_powers(self):
        rng = random.Random(31)
        box = list(itertools.product(range(-3, 4), repeat=3))
        certified = 0
        for m in _congruence_matrices(3, 3, 3):
            powers = [mat_pow(m, k) for k in range(1, 13)]
            for _ in range(4):
                vectors = rng.sample(box, rng.randrange(1, 3))
                lattice = saturation(Sublattice(3, vectors))
                returns = any(
                    Sublattice(3, [apply(p, b) for b in lattice.basis]) == lattice for p in powers
                )
                assert certify_lattice(m, vectors) == (not returns), (m, vectors)
                certified += not returns
        assert certified > 0

    def test_lattice_certificate_saturates(self):
        # SHEAR3 moves the span of (2, 0) and (0, 1) and its square fixes
        # it; the saturation Z^2 is fixed, so nothing is certified
        span = [(2, 0), (0, 1)]
        assert Sublattice(2, [apply(SHEAR3, b) for b in span]) != Sublattice(2, span)
        square = mat_pow(SHEAR3, 2)
        assert Sublattice(2, [apply(square, b) for b in span]) == Sublattice(2, span)
        assert not certify_lattice(SHEAR3, span)
        assert certify_lattice(SHEAR3, [(0, 1)])

    @pytest.mark.parametrize("n, bound", [(2, 6), (3, 3)])
    def test_infinite_order_certificate_against_finite_order(self, n, bound):
        for m in _congruence_matrices(n, bound, 3):
            assert certify_infinite_order(m) == (finite_order(m) is None)
            assert certify_infinite_order(m) == (m != identity_matrix(n))

    @pytest.mark.parametrize("n, bound", [(2, 2), (3, 1)])
    def test_nothing_outside_the_kernel(self, n, bound):
        outside = [m for m in _congruence_matrices(n, bound, 1) if not congruent_to_identity(m)]
        assert len(outside) > 10
        for m in outside + [ROTATION, SWAP, THREE_CYCLE]:
            vectors = [v for v in itertools.product(range(-1, 2), repeat=len(m)) if any(v)]
            assert not certify_infinite_order(m)
            assert not any(certify_lattice(m, [v]) for v in vectors)

    def test_controls_move_what_they_do_not_certify(self):
        # without the congruence check the first power would certify the
        # genuine 2- and 3-orbits of the controls
        assert apply(SWAP, (1, 0)) != (1, 0) and mat_pow(SWAP, 2) == identity_matrix(2)
        assert apply(THREE_CYCLE, (1, 0, 0)) != (1, 0, 0)
        assert mat_pow(THREE_CYCLE, 3) == identity_matrix(3)
        assert not certify_lattice(SWAP, [(1, 0)])
        assert not certify_lattice(THREE_CYCLE, [(1, 0, 0)])


def random_word_in_k(alphabet, rng, max_len=10):
    """A random word with every exponent sum even: random letters, then one
    more x_i for each odd exponent sum."""
    letters = [rng.choice(alphabet.signed_letters()) for _ in range(rng.randrange(max_len))]
    parity = [0] * alphabet.rank
    for letter in letters:
        parity[abs(letter) - 1] ^= 1
    return Word(alphabet, letters + [i + 1 for i, odd in enumerate(parity) if odd])


def commutator(a, b):
    return a * b * a.inverse() * b.inverse()


class TestCover:
    """The action on H_1 of the mod-2 cover against its definition, and the
    Krylov test against exact powers and the finite-order controls."""

    def test_rank_of_the_cover_homology(self):
        for alphabet, d in ((A2, 5), (A3, 17)):
            assert cover_action(identity_automorphism(alphabet)) == identity_matrix(d)
            assert len(cover_class(w("aa", alphabet))) == d

    @pytest.mark.parametrize("rank, family", [(2, "ia3"), (2, "nielsen"), (3, "ia3"), (3, "nielsen")])
    def test_lift_identity(self, rank, family):
        # A [w] = [phi(w)] for w in K
        alphabet = Alphabet(rank)
        gens = standard_generators(rank, family)
        rng = random.Random(rank * 10 + len(family))
        for _ in range(12):
            phi = sample(gens, rng.randrange(1, 5), rng.randrange(2**32))
            action = cover_action(phi)
            assert abs(det(action)) == 1
            for _ in range(8):
                word = random_word_in_k(alphabet, rng)
                assert apply(action, cover_class(word)) == cover_class(phi.apply(word)), (phi, word)

    def test_mod_p_test_agrees_with_exact_power_at_rank_two(self):
        # order_bound(5) = 120, so over Z u is periodic iff A^120 u = u
        assert order_bound(5) == 120
        rng = random.Random(41)
        seen = set()
        for family in ("ia3", "nielsen"):
            gens = standard_generators(2, family)
            for _ in range(15):
                phi = sample(gens, rng.randrange(1, 5), rng.randrange(2**32))
                action = cover_action(phi)
                power = mat_pow(action, 120)
                for _ in range(6):
                    u = cover_class(random_word_in_k(A2, rng))
                    periodic = apply(power, u) == u
                    assert certify_cover(action, u) == (not periodic), (phi, u)
                    seen.add((family, periodic))
        assert seen == {(f, p) for f in ("ia3", "nielsen") for p in (False, True)}

    @pytest.mark.parametrize(
        "phi",
        [identity_automorphism(A2), swap(A2, 1, 2), swap(A3, 1, 2), basis_cycle(A3, [1, 2, 3])],
        ids=["identity", "swap2", "swap3", "cycle3"],
    )
    def test_finite_order_controls_are_never_certified(self, phi):
        # every class has a period under a finite-order automorphism
        alphabet = phi.alphabet
        action = cover_action(phi)
        words = [x for x in all_reduced_words(alphabet, 4 if alphabet.rank == 2 else 3) if len(x)]
        for word in words:
            assert not certify_cover(action, cover_class(word**2)), word
        for a, b in itertools.combinations(words[: 4 * alphabet.rank], 2):
            assert not certify_cover(action, cover_class(commutator(a, b))), (a, b)

    def test_certifies_beyond_the_abelianization(self):
        # both automorphisms act as I on H_1(F_3), so certify_lattice takes
        # nothing; the cover certifies exactly the words that iteration
        # never brings back
        expected = {
            commutator_insertion(A3, 1, 2, 3): {"a", "ab", "ac", "abc", "aB"},
            partial_conjugation(A3, 1, 2): {"ac", "abc"},
        }
        for phi, certified in expected.items():
            action = cover_action(phi)
            assert abelianization(phi) == identity_matrix(3)
            for text in ("a", "b", "c", "ab", "ac", "bc", "abc", "aB"):
                word = w(text, A3)
                assert not certify_lattice(identity_matrix(3), [word_exponent_vector(word)])
                assert certify_cover(action, cover_class(word**2)) == (text in certified)
                returns = orbit_period(phi, CyclicWord(A3, word.letters), 12).kind == "Period"
                assert returns == (text not in certified), (phi, text)

    def test_refuses_large_ranks_and_words_outside_k(self):
        a4 = Alphabet(4)
        with pytest.raises(ValueError):
            cover_action(identity_automorphism(a4))
        with pytest.raises(ValueError):
            cover_class(w("aa", a4))
        with pytest.raises(ValueError):
            cover_class(w("ab"))


def wedge(a, b):
    """a ^ b in the basis e_i ^ e_j, i < j, in lexicographic order."""
    return tuple(a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(len(a)), 2))


def random_word(alphabet, rng, max_len=12):
    return Word(alphabet, [rng.choice(alphabet.signed_letters()) for _ in range(rng.randrange(max_len))])


def partial_sum(m, p):
    """S_p(M) = I + M + ... + M^(p-1)."""
    total = identity_matrix(len(m))
    for k in range(1, p):
        total = tuple(tuple(x + y for x, y in zip(r, q)) for r, q in zip(total, mat_pow(m, k)))
    return total


class TestNilpotentQuotient:
    """The coordinates ([w], Omega(w)) of the class-2 quotient, the matrix
    of an automorphism on them, the lemma behind the two new certificates,
    and the certificates against iteration."""

    @pytest.mark.parametrize("n, bound", [(2, 6), (3, 3)])
    def test_lemma_partial_sums_are_nonsingular(self, n, bound):
        # B = I mod 3 has no eigenvalue that is a root of unity other than
        # 1, so det S_p(B) != 0; at n = 3 the same for ^2 B, also = I mod 3
        matrices = list(_congruence_matrices(n, bound, 3))
        assert len(matrices) == {2: 17, 3: 181}[n]
        for m in matrices:
            squares = [exterior_square(m)] if n == 3 else []
            for b in [m] + squares:
                assert congruent_to_identity(b)
                for p in range(1, 13):
                    assert det(partial_sum(b, p)) != 0, (b, p)

    def test_exterior_square_is_multiplicative(self):
        matrices = list(_congruence_matrices(3, 3, 3))[::7] + [THREE_CYCLE]
        for a, b in itertools.product(matrices, repeat=2):
            assert exterior_square(mat_mul(a, b)) == mat_mul(exterior_square(a), exterior_square(b))
        assert exterior_square(THREE_CYCLE) != identity_matrix(3)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_coordinates_are_a_homomorphism(self, rank):
        # x(uv) = (a + b, Omega(u) + Omega(v) + a ^ b), x(u^-1) = -x(u),
        # and conjugation adds 2 [u] ^ [w] to Omega(w)
        alphabet = Alphabet(rank)
        rng = random.Random(rank)
        for _ in range(60):
            u, v = random_word(alphabet, rng), random_word(alphabet, rng)
            xu, xv = nilpotent_coordinates(u), nilpotent_coordinates(v)
            a, b = xu[:rank], xv[:rank]
            expected = tuple(x + y for x, y in zip(a, b)) + tuple(
                x + y + z for x, y, z in zip(xu[rank:], xv[rank:], wedge(a, b))
            )
            assert nilpotent_coordinates(u * v) == expected, (u, v)
            assert nilpotent_coordinates(u.inverse()) == tuple(-x for x in xu)
            conjugate = nilpotent_coordinates(u * v * u.inverse())
            assert conjugate[rank:] == tuple(x + 2 * y for x, y in zip(xv[rank:], wedge(a, b)))
        assert nilpotent_coordinates(w("abAB")) == (0, 0, 2)

    @pytest.mark.parametrize("family", ["ia3", "nielsen"])
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_action_on_coordinates(self, rank, family):
        # T x(w) = x(phi(w)), 30 samples x 10 words per rank, and T is a
        # homomorphism: T of a composite is the product
        alphabet = Alphabet(rank)
        gens = standard_generators(rank, family)
        rng = random.Random(rank * 10 + len(family))
        previous = None
        for _ in range(30):
            phi = sample(gens, rng.randrange(1, 5), rng.randrange(2**32))
            t = nilpotent_action(phi)
            assert abs(det(t)) == 1
            for _ in range(10):
                word = random_word(alphabet, rng)
                assert apply(t, nilpotent_coordinates(word)) == nilpotent_coordinates(phi.apply(word))
            if previous is not None:
                assert nilpotent_action(compose(phi, previous)) == mat_mul(t, nilpotent_action(previous))
            previous = phi

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_outside_wedge_against_rational_rank(self, n):
        # x is v ^ y for some rational y iff adding x to the v ^ e_j does
        # not raise their rank; for k = 1, iff x is a multiple of v
        rng = random.Random(n)
        seen = set()
        for _ in range(300):
            v = tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(n))
            y = tuple(rng.randrange(-2, 3) for _ in range(n))
            for k in (1, 2):
                if rng.random() < 0.5:
                    x = tuple(rng.randrange(-2, 3) * c for c in (v if k == 1 else wedge(v, y)))
                else:
                    x = tuple(rng.randrange(-2, 3) for _ in range(n if k == 1 else n * (n - 1) // 2))
                spanning = [v] if k == 1 else [wedge(v, e) for e in identity_matrix(n)]
                inside = rank_of(spanning + [x]) == rank_of(spanning)
                assert _outside_wedge(v, x, k) == (not inside), (v, x, k)
                seen.add((k, inside))
        assert seen == {(k, inside) for k in (1, 2) for inside in (False, True)}

    def test_certificates_on_rank_three_generators(self):
        # M = I for both, so certify_lattice takes nothing.  The class-2
        # certificate takes the classes that iteration never brings back,
        # the same words as the cover; the conjugator takes the words whose
        # class returns at once and that never return themselves
        expected = {
            commutator_insertion(A3, 1, 2, 3): ({"a", "ab", "ac", "abc", "aB"}, set()),
            partial_conjugation(A3, 1, 2): ({"ac", "abc"}, {"a", "ab", "aB"}),
        }
        for phi, (by_class, by_conjugator) in expected.items():
            t, m = nilpotent_action(phi), abelianization(phi)
            for text in ("a", "b", "c", "ab", "ac", "bc", "abc", "aB"):
                word = w(text, A3)
                cyclic = CyclicWord(A3, word.letters)
                assert certify_nilpotent(t, nilpotent_coordinates(word)) == (text in by_class)
                returns = orbit_period(phi, cyclic, 12).kind == "Period"
                assert returns == (text not in by_class), (phi, text)
                if returns:
                    c = cyclic_reduce(phi.apply(word))[1]
                    certified = certify_conjugator(m, word_exponent_vector(word), word_exponent_vector(c))
                    assert certified == (text in by_conjugator)
                    assert (exact_word_orbit(phi, word, 12).kind == "Period") == (not certified)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_certificates_against_iteration(self, rank):
        # neither certificate takes a probe that returns; the class-2 one
        # never holds at rank 2
        alphabet = Alphabet(rank)
        gens = standard_generators(rank, "ia3")
        rng = random.Random(100 + rank)
        seen = set()
        for _ in range(25):
            phi = sample(gens, rng.randrange(1, 4), rng.randrange(2**32))
            t, m = nilpotent_action(phi), abelianization(phi)
            for _ in range(8):
                word = CyclicWord(alphabet, random_word(alphabet, rng, 7).letters).as_word()
                if not word.letters:
                    continue
                cyclic = CyclicWord(alphabet, word.letters)
                if certify_nilpotent(t, nilpotent_coordinates(word)):
                    seen.add("class-2")
                    assert rank > 2
                    assert orbit_period(phi, cyclic, 12, 1500).kind != "Period", (phi, word)
                core, c = cyclic_reduce(phi.apply(word))
                if core == cyclic and certify_conjugator(m, word_exponent_vector(word), word_exponent_vector(c)):
                    seen.add("conjugator")
                    assert exact_word_orbit(phi, word, 12, 1500).kind != "Period", (phi, word)
        assert seen == ({"conjugator"} if rank == 2 else {"class-2", "conjugator"})

    def test_nothing_outside_the_kernel(self):
        # the controls' genuine orbits are never certified
        for phi in (swap(A2, 1, 2), swap(A3, 1, 2), basis_cycle(A3, [1, 2, 3])):
            alphabet = phi.alphabet
            t, m = nilpotent_action(phi), abelianization(phi)
            for word in all_reduced_words(alphabet, 3):
                x = nilpotent_coordinates(word)
                assert not certify_nilpotent(t, x)
                assert not certify_conjugator(m, x[: alphabet.rank], (1,) + (0,) * (alphabet.rank - 1))


def rank_of(vectors):
    """The rank of integer vectors over Q, by fraction-free elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            rows[r] = [x * rows[rank][col] - y * rows[r][col] for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank
