import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from k3lat import exact
from oracles import (char_poly, closure_from_scratch, congruence_signature,
                     fraction_inverse, greedy_generators, hermite_basis,
                     invariant_factors_via_minors, laplace_det,
                     matrix_product, rand_int_matrix, rand_unimodular)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def rand_symmetric(rng, n, rank, spread=3):
    """Random symmetric P D P^T with rank nonzero entries in D, so both
    signs occur, and zero leading entries as often as not."""
    d = [rng.choice((-1, 1)) * rng.randint(1, spread) for _ in range(rank)]
    d += [0] * (n - rank)
    rng.shuffle(d)
    p = rand_unimodular(rng, n, steps=3 * n)
    g = [[sum(p[i][k] * d[k] * p[j][k] for k in range(n)) for j in range(n)]
         for i in range(n)]
    if n > 1 and rank == n and rng.random() < 0.5:
        # zero leading pivots: a hyperbolic plane on the first two rows
        for i in range(n):
            g[0][i] = g[i][0] = g[1][i] = g[i][1] = 0
        g[0][1] = g[1][0] = 1
    return g


def diag_of(s):
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


class TestSmithNormalForm:
    def test_identity(self):
        s, u, v = exact.smith_normal_form(exact.identity(3))
        assert s == exact.identity(3)
        assert u == exact.identity(3)
        assert v == exact.identity(3)

    def test_a2_rescaled(self):
        # frozen from the minor-gcd oracle: gcd of entries 3, det 27 -> (3, 9)
        s, _, _ = exact.smith_normal_form([[6, 3], [3, 6]])
        assert diag_of(s) == [3, 9]
        assert invariant_factors_via_minors([[6, 3], [3, 6]]) == [3, 9]

    def test_det_11_gram(self):
        s, _, _ = exact.smith_normal_form([[2, 1], [1, 6]])
        assert diag_of(s) == [1, 11]
        assert invariant_factors_via_minors([[2, 1], [1, 6]]) == [1, 11]

    def test_rectangular(self):
        a = [[2], [4]]
        s, u, v = exact.smith_normal_form(a)
        assert exact.mat_mul(exact.mat_mul(u, a), v) == s
        assert diag_of(s) == [2]

    @pytest.mark.parametrize("seed", range(40))
    def test_round_trip_random(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, m, n)
        s, u, v = exact.smith_normal_form(a)
        assert exact.mat_mul(exact.mat_mul(u, a), v) == s
        assert abs(exact.bareiss_det(u)) == 1
        assert abs(exact.bareiss_det(v)) == 1
        d = [s[i][i] for i in range(min(m, n))]
        for x, y in zip(d, d[1:]):
            assert x >= 0 and (x == 0 or y % x == 0)
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0
        if m == n:
            prod = 1
            for x in d:
                prod *= x
            assert prod == abs(exact.bareiss_det(a))


class TestDeterminant:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_laplace(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, n, n)
        assert exact.bareiss_det(a) == laplace_det(a)

    def test_empty(self):
        assert exact.bareiss_det([]) == 1


class TestSignature:
    def test_diagonal(self):
        assert exact.signature([[6, 0, 0], [0, 6, 0], [0, 0, 6]]) == (3, 0)

    def test_hyperbolic_plane(self):
        # diagonalizes over Q to (2, -2) in the basis e+f, e-f
        assert exact.signature([[0, 1], [1, 0]]) == (1, 1)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            exact.signature([[1, 1], [1, 1]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            exact.signature([[1, 2], [3, 4]])

    @pytest.mark.parametrize("seed", range(25))
    def test_congruence_invariant(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(1, 4)
        while True:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                g[i][i] = rng.randint(-5, 5)
                for j in range(i):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
            if laplace_det(g) != 0:
                break
        p = rand_unimodular(rng, n)
        conj = exact.mat_mul(exact.mat_mul(p, g), exact.transpose(p))
        assert exact.signature(conj) == exact.signature(g)


class TestSignatureOracle:
    def _cases(self):
        rng = random.Random(83)
        for n in range(1, 9):
            for _ in range(12):
                yield rand_symmetric(rng, n, rng.choice((n, n, rng.randrange(n))))

    def test_matches_congruence_oracle(self):
        degenerate = indefinite = zero_pivot = 0
        for g in self._cases():
            if laplace_det(g) == 0:
                degenerate += 1
                with pytest.raises(ValueError, match="degenerate"):
                    exact.signature(g)
                with pytest.raises(ValueError):
                    congruence_signature(g)
                continue
            got = exact.signature(g)
            assert got == congruence_signature(g)
            indefinite += 0 not in got
            zero_pivot += g[0][0] == 0
        assert min(degenerate, indefinite, zero_pivot) >= 10

    def test_zero_pivots_all_along_the_diagonal(self):
        # blocks with a_ll + 2 a_lk = 0, where adding row l once would
        # leave the pivot at 0 (c = 2 case), first and last
        for g in ([[0, 1, 0], [1, -2, 0], [0, 0, 5]],
                  [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, -2]],
                  [[0, 1, 1], [1, -2, 0], [1, 0, 4]]):
            assert exact.signature(g) == congruence_signature(g)
        assert exact.signature([[0, 1, 0], [1, -2, 0], [0, 0, 5]]) == (2, 1)
        h = exact.identity(6)
        for i in range(0, 6, 2):
            h[i][i] = h[i + 1][i + 1] = 0
            h[i][i + 1] = h[i + 1][i] = 3
        assert exact.signature(h) == (3, 3)


class TestRationalInverseOracle:
    def test_integer_input(self):
        rng = random.Random(89)
        seen = 0
        for n in range(1, 7):
            for _ in range(8):
                a = rand_int_matrix(rng, n, n, 5)
                det = laplace_det(a)
                if det == 0:
                    continue
                seen += 1
                inv = exact.rational_inverse(a)
                assert inv == fraction_inverse(a)
                integral = abs(det) == 1
                assert all(isinstance(x, int) == integral
                           for row in inv for x in row)
        assert seen > 30

    def test_unimodular_input_gives_ints(self):
        rng = random.Random(97)
        for n in range(1, 9):
            u = rand_unimodular(rng, n, steps=4 * n)
            inv = exact.rational_inverse(u)
            assert all(type(x) is int for row in inv for x in row)
            assert exact.mat_mul(u, inv) == exact.identity(n)

    def test_fraction_input(self):
        rng = random.Random(101)
        for n in range(1, 6):
            a = [[Fraction(x, rng.randint(1, 6)) for x in row]
                 for row in rand_int_matrix(rng, n, n, 5)]
            if laplace_det(a) == 0:
                continue
            inv = exact.rational_inverse(a)
            assert inv == fraction_inverse(a)
            assert exact.mat_mul(a, inv) == exact.identity(n)
        # an integral inverse comes back as ints even from Fraction input
        half = [[Fraction(1, 2), Fraction(0)], [Fraction(1, 2), Fraction(1)]]
        assert exact.rational_inverse(half) == [[2, 0], [-1, 1]]
        assert all(type(x) is int
                   for row in exact.rational_inverse(half) for x in row)

    def test_singular_fraction_input_rejected(self):
        with pytest.raises(ValueError):
            exact.rational_inverse([[Fraction(1, 2), 1], [1, 2]])


class TestIntegerKernel:
    def test_identity_has_trivial_kernel(self):
        assert exact.integer_kernel(exact.identity(3)) == []

    def test_forced_relation(self):
        basis = exact.integer_kernel([[2], [4]])
        assert len(basis) == 1
        assert basis[0] in ([2, -1], [-2, 1])

    def test_zero_matrix(self):
        basis = exact.integer_kernel([[0, 0], [0, 0]])
        assert len(basis) == 2
        assert abs(exact.bareiss_det(basis)) == 1

    @pytest.mark.parametrize("seed", range(25))
    def test_kernel_saturated(self, seed):
        rng = random.Random(300 + seed)
        a = rand_int_matrix(rng, rng.randint(2, 5), rng.randint(1, 3))
        basis = exact.integer_kernel(a)
        for v in basis:
            assert all(x == 0 for x in exact.mat_vec(v, a))
        if basis:
            s, _, _ = exact.smith_normal_form(basis)
            assert all(s[i][i] == 1 for i in range(len(basis)))


def diagonal(moduli):
    return [[m * (i == j) for j in range(len(moduli))]
            for i, m in enumerate(moduli)]


def rand_moduli(rng, n):
    """Positive moduli, 1 and non-chains included."""
    return [rng.choice((1, 2, 3, 4, 6, 8, 12, 30, rng.randint(1, 60)))
            for _ in range(n)]


class TestHermite:
    @pytest.mark.parametrize("seed", range(20))
    def test_idempotent_and_canonical(self, seed):
        # hermite_basis_mod(rows, m) is the Hermite basis of the rows and
        # diag(m); the oracle reduces the stacked matrix by plain Euclid
        rng = random.Random(400 + seed)
        for _ in range(50):
            n = rng.randint(1, 5)
            moduli = rand_moduli(rng, n)
            rows = rand_int_matrix(rng, rng.randint(0, 2 * n + 1), n, 40)
            if rows and rng.random() < 0.3:
                rows[rng.randrange(len(rows))] = [0] * n
            h = exact.hermite_basis_mod(rows, moduli)
            assert h == hermite_basis(rows + diagonal(moduli))
            assert exact.hermite_basis_mod(h, moduli) == h
            if rows:
                p = rand_unimodular(rng, len(rows))
                assert exact.hermite_basis_mod(exact.mat_mul(p, rows),
                                               moduli) == h

    def test_edge_cases(self):
        assert exact.hermite_basis_mod([], []) == []
        assert exact.hermite_basis_mod([[], []], []) == []
        assert exact.hermite_basis_mod([], [4, 6]) == [[4, 0], [0, 6]]
        assert exact.hermite_basis_mod([[0, 0]], [1, 1]) == [[1, 0], [0, 1]]
        assert exact.hermite_basis_mod([[-1, 5]], [4, 6]) == [[1, 1], [0, 2]]
        # the pivot 4 divides the entry 8 mod 12: one subtraction
        assert exact.hermite_basis_mod([[4, 1], [8, 0]], [12, 3]) == \
            hermite_basis([[4, 1], [8, 0], [12, 0], [0, 3]])

    @pytest.mark.parametrize("rows", [[[1, 2, 3]], [[1, 2], [1]], [[]]])
    def test_ragged_row_is_a_value_error(self, rows):
        with pytest.raises(ValueError, match="ragged matrix"):
            exact.hermite_basis_mod(rows, [2, 2])

    def test_ragged_check_survives_python_O(self):
        code = ("from k3lat.exact import hermite_basis_mod\n"
                "for rows in ([[1, 2, 3]], [[1]]):\n"
                "    try:\n"
                "        hermite_basis_mod(rows, [2, 2])\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, env=env, timeout=60)
        assert done.stdout.decode().splitlines() == ["ragged matrix"] * 2


class TestRationalInverse:
    def test_round_trip(self):
        a = [[2, 1], [1, 6]]
        inv = exact.rational_inverse(a)
        prod = exact.mat_mul(a, inv)
        assert prod == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            exact.rational_inverse([[1, 2], [2, 4]])


class TestAdjugate:
    def test_matches_det_times_inverse(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randrange(1, 6)
            a = rand_int_matrix(rng, n, n, 4)
            if rng.random() < 0.5:
                a[0][0] = 0  # forces a row swap at the first pivot
            det = laplace_det(a)
            if det == 0:
                continue
            inv = exact.rational_inverse(a)
            assert exact.adjugate(a) == [[det * x for x in row] for row in inv]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            exact.adjugate([[1, 2], [2, 4]])


class TestCharPoly:
    def test_two_by_two(self):
        # x^2 - (a+d)x + (ad-bc)
        assert char_poly([[1, 2], [3, 4]]) == [1, -5, -2]

    def test_rotation_order(self):
        r = [[0, 1], [-1, 0]]
        assert char_poly(r) == [1, 0, 1]
        assert exact.multiplicative_order(r) == 4

    @pytest.mark.parametrize("seed", range(10))
    def test_det_term(self, seed):
        rng = random.Random(500 + seed)
        n = rng.randint(1, 4)
        a = rand_int_matrix(rng, n, n)
        coeffs = char_poly(a)
        assert coeffs[-1] == (-1) ** n * exact.bareiss_det(a)
        assert coeffs[1] == -sum(a[i][i] for i in range(n))


class TestMatMul:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, seed):
        rng = random.Random(2600 + seed)
        m, k, n = (rng.randint(1, 4) for _ in range(3))
        a, b = rand_int_matrix(rng, m, k), rand_int_matrix(rng, k, n)
        assert exact.mat_mul(a, b) == [list(r) for r in matrix_product(a, b)]
        assert exact.transpose(a) == [list(c) for c in zip(*a)]

    def test_fraction_entries(self):
        a = [[Fraction(1, 2), 3], [Fraction(-2, 3), 0]]
        b = [[Fraction(2, 5)], [Fraction(1, 7)]]
        got = exact.mat_mul(a, b)
        assert got == [[Fraction(1, 5) + Fraction(3, 7)], [Fraction(-4, 15)]]
        assert all(isinstance(x, Fraction) for row in got for x in row)

    def test_empty_shapes(self):
        assert exact.mat_mul([], []) == []
        assert exact.mat_mul([[], []], []) == [[], []]  # 2x0 @ 0x0
        assert exact.mat_mul([[1], [2]], [[]]) == [[], []]  # 2x1 @ 1x0
        assert exact.mat_mul(((1, 2),), ((3,), (4,))) == [[11]]
        assert exact.transpose([[], []]) == []
        assert exact.dims([]) == (0, 0)
        assert exact.dims([[], []]) == (2, 0)
        # two rows with no entries span a rank-0 lattice: a 2x2 zero Gram
        assert exact.conjugate_rows([[], []], []) == [[0, 0], [0, 0]]

    def test_errors(self):
        with pytest.raises(ValueError, match="ragged matrix"):
            exact.mat_mul([[1, 2], [3]], [[1], [1]])
        with pytest.raises(ValueError, match="ragged matrix"):
            exact.mat_mul([[1, 2]], [[1], [1, 2]])
        with pytest.raises(ValueError, match="ragged matrix"):
            exact.transpose([[1], []])
        with pytest.raises(ValueError, match=r"shape mismatch 1x2 @ 3x1"):
            exact.mat_mul([[1, 2]], [[1], [2], [3]])


def as_lists(x):
    """The same nested data with every tuple turned into a list."""
    return [as_lists(y) for y in x] if isinstance(x, tuple) else x


GRAM = ((2, 1, 0), (1, -2, 1), (0, 1, 4))
KERNEL_ARGS = {
    "bareiss_det": (GRAM,),
    "signature": (GRAM,),
    "smith_normal_form": (GRAM,),
    "multiplicative_order": (((0, 1), (-1, 1)),),
    "mat_vec": ((1, -2, 3), GRAM),
    "conjugate_rows": (((1, 0, 1), (0, 1, -1)), GRAM),
}


@pytest.mark.parametrize("name", KERNEL_ARGS)
def test_kernels_take_tuple_rows(name):
    # callers pass Gram tuples straight in: no kernel writes to its input
    kernel, args = getattr(exact, name), KERNEL_ARGS[name]
    list_args = as_lists(args)
    frozen = [as_lists(a) for a in args]
    assert kernel(*args) == kernel(*list_args)
    assert as_lists(args) == list_args == frozen


def rand_signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    return tuple(tuple(rng.choice((1, -1)) if j == perm[i] else 0
                       for j in range(n)) for i in range(n))


class TestClosure:
    @pytest.mark.parametrize("seed", range(10))
    def test_extension_matches_rebuild(self, seed):
        # signed permutations generate finite groups of order up to 2^n n!
        rng = random.Random(2700 + seed)
        n = rng.randint(2, 4)
        gens = [rand_signed_permutation(rng, n)
                for _ in range(rng.randint(1, 3))]
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for k in range(1, len(gens) + 1):
            want, _ = closure_from_scratch(gens[:k], ident, matrix_product)
            assert exact.closure(gens[:k], ident, matrix_product) == want
            assert exact.matrix_closure(gens[:k], n) == want
        elements = sorted(want)
        for listed in (gens, elements):
            assert exact.generators(listed, ident, matrix_product) == \
                greedy_generators(listed)[0]

    def test_given_group_is_not_modified(self):
        rot = ((0, -1), (1, 0))
        flip = ((1, 0), (0, -1))
        ident = ((1, 0), (0, 1))
        elements = sorted(exact.matrix_closure([rot, flip], 2))
        kept = list(elements)
        gens = exact.generators(elements, ident, matrix_product)
        assert elements == kept
        assert len(exact.matrix_closure(gens, 2)) == 8

    def test_generator_already_in_group(self):
        rot = ((0, -1), (1, 0))
        half = ((-1, 0), (0, -1))
        ident = ((1, 0), (0, 1))
        assert exact.matrix_closure([rot, half], 2) == \
            exact.matrix_closure([rot], 2)
        assert exact.generators([rot, half, rot], ident,
                                matrix_product) == [rot]
