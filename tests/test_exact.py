import random
from fractions import Fraction

import pytest

from k3lat import exact
from oracles import invariant_factors_via_minors, laplace_det, rand_int_matrix, rand_unimodular


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


class TestHermite:
    @pytest.mark.parametrize("seed", range(20))
    def test_idempotent_and_canonical(self, seed):
        rng = random.Random(400 + seed)
        a = rand_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h = exact.hermite_row_basis(a)
        assert exact.hermite_row_basis(h) == h
        p = rand_unimodular(rng, len(a))
        assert exact.hermite_row_basis(exact.mat_mul(p, a)) == h


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
        assert exact.char_poly([[1, 2], [3, 4]]) == [1, -5, -2]

    def test_rotation_order(self):
        r = [[0, 1], [-1, 0]]
        assert exact.char_poly(r) == [1, 0, 1]
        assert exact.multiplicative_order(r) == 4

    @pytest.mark.parametrize("seed", range(10))
    def test_det_term(self, seed):
        rng = random.Random(500 + seed)
        n = rng.randint(1, 4)
        a = rand_int_matrix(rng, n, n)
        coeffs = exact.char_poly(a)
        assert coeffs[-1] == (-1) ** n * exact.bareiss_det(a)
        assert coeffs[1] == -sum(a[i][i] for i in range(n))
