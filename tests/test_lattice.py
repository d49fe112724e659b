import random
from fractions import Fraction

import pytest

from k3lat import exact, lattice
from k3lat.classify import good_isometries
from k3lat.dataset import builtin_dataset
from k3lat.fqm import anti_embeddings, hom_image, identity_hom
from k3lat.glue import divisibility_in_glued
from test_glue import gram_of, random_primitive_split
from oracles import (brute_isometries, compose, dual_class,
                     invariant_factors_via_minors, laplace_det, negation_hom,
                     rand_definite_even_gram, rand_even_gram,
                     rand_int_matrix, rand_unimodular)


class TestConstructions:
    def test_hyperbolic_plane(self):
        u = lattice.hyperbolic_plane()
        assert u.gram == ((0, 1), (1, 0))
        assert u.signature == (1, 1)
        assert u.is_even

    def test_e8(self):
        l = lattice.e8()
        assert l.det == 1
        assert l.is_even
        assert l.signature == (8, 0)
        assert lattice.e8(-1).signature == (0, 8)

    def test_a2_rescale(self):
        assert lattice.a2(-1).gram == ((-2, -1), (-1, -2))

    def test_k3(self):
        l = lattice.k3_lattice()
        assert l.rank == 22
        assert l.signature == (3, 19)
        assert abs(l.det) == 1

    def test_k3_square(self):
        l = lattice.k3_square_lattice()
        assert l.rank == 23
        assert l.signature == (3, 20)
        # sign forced by the 20 negative squares; magnitude by the <-2> summand
        assert l.det == 2
        assert l.is_even

    def test_leech(self):
        l = builtin_dataset().lattice("Leech")
        assert l.rank == 24
        assert l.det == 1
        assert l.is_even
        assert l.is_positive_definite

    def test_det_is_computed_once(self, monkeypatch):
        # the nondegeneracy check in the constructor already finds det
        calls = []
        real = exact.bareiss_det
        monkeypatch.setattr(exact, "bareiss_det",
                            lambda a: calls.append(a) or real(a))
        assert lattice.Lattice(((2, 1), (1, 2))).det == 3
        assert len(calls) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            lattice.Lattice([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            lattice.span_of_square(0)
        with pytest.raises(ValueError):
            lattice.rescale(lattice.a2(), 0)


class TestDiscriminantGroup:
    def test_minus_two(self):
        d = lattice.discriminant_group(lattice.span_of_square(-2))
        assert d.orders == (2,)
        assert d.q((1,)) == Fraction(3, 2)

    def test_k3_square(self):
        d = lattice.discriminant_group(lattice.k3_square_lattice())
        assert d.order == 2
        assert d.q((1,)) == Fraction(3, 2)

    def test_a2_rescaled_by_3(self):
        # invariant factors frozen from the minor-gcd oracle
        assert invariant_factors_via_minors([[6, 3], [3, 6]]) == [3, 9]
        d = lattice.discriminant_group(lattice.Lattice([[6, 3], [3, 6]]))
        assert d.orders == (3, 9)
        assert d.order == 27

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            lattice.discriminant_group(lattice.Lattice([[3]]))

    @pytest.mark.parametrize("seed", range(20))
    def test_order_matches_determinant(self, seed):
        rng = random.Random(600 + seed)
        g = rand_even_gram(rng, rng.randint(1, 4))
        l = lattice.Lattice(g)
        assert lattice.discriminant_group(l).order == abs(l.det)

    @pytest.mark.parametrize("seed", range(10))
    def test_projection_inverts_lift(self, seed):
        rng = random.Random(640 + seed)
        l = lattice.Lattice(rand_even_gram(rng, rng.randint(1, 4)))
        dm = lattice.disc_map(l)
        for x in dm.fqm.elements():
            assert dm.project(dm.lift(x)) == x


class TestDivisibility:
    def test_hyperbolic_basis_vector(self):
        assert lattice.divisibility(lattice.hyperbolic_plane(), (1, 0)) == 1

    def test_exceptional_class(self):
        l = lattice.k3_square_lattice()
        xi = tuple(0 for _ in range(22)) + (1,)
        assert lattice.divisibility(l, xi) == 2

    def test_diagonal_vector(self):
        assert lattice.divisibility(lattice.Lattice([[6, 3], [3, 6]]), (1, 1)) == 9

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lattice.divisibility(lattice.a2(), (0, 0))

    @pytest.mark.parametrize("seed", range(15))
    def test_divides_square_and_lands_in_dual(self, seed):
        rng = random.Random(700 + seed)
        l = lattice.Lattice(rand_even_gram(rng, rng.randint(1, 4)))
        v = [rng.randint(-4, 4) for _ in range(l.rank)]
        if not any(v):
            v[0] = 1
        d = lattice.divisibility(l, v)
        assert l.norm(v) % d == 0
        scaled = [Fraction(c, d) for c in v]
        pairings = exact.mat_vec(scaled, [list(r) for r in l.gram])
        assert all(p.denominator == 1 for p in pairings)


class TestComplements:
    def test_inside_hyperbolic_plane(self):
        u = lattice.hyperbolic_plane()
        c = lattice.orthogonal_complement(u, [(1, 1)])
        assert c in (((1, -1),), ((-1, 1),))
        assert gram_of(u, c) == [[-2]]

    def test_block_diagonal(self):
        l = lattice.Lattice([[6, 3, 0], [3, 6, 0], [0, 0, 6]])
        c = lattice.orthogonal_complement(l, [(0, 0, 1)])
        assert gram_of(l, c) == [[6, 3], [3, 6]]

    def test_full_rank_gives_empty(self):
        u = lattice.hyperbolic_plane()
        c = lattice.orthogonal_complement(u, [(1, 0), (0, 1)])
        assert c == ()


class TestInvariantCoinvariant:
    def test_identity(self):
        u = lattice.hyperbolic_plane()
        inv, coinv = lattice.invariant_and_coinvariant(u, [exact.identity(2)])
        assert len(inv) == 2 and len(coinv) == 0

    def test_minus_identity(self):
        u = lattice.hyperbolic_plane()
        inv, coinv = lattice.invariant_and_coinvariant(u, [[[-1, 0], [0, -1]]])
        assert len(inv) == 0 and len(coinv) == 2

    def test_swap(self):
        u = lattice.hyperbolic_plane()
        inv, coinv = lattice.invariant_and_coinvariant(u, [[[0, 1], [1, 0]]])
        assert gram_of(u, inv) == [[2]]
        assert gram_of(u, coinv) == [[-2]]

    def test_non_isometry_rejected(self):
        with pytest.raises(ValueError):
            lattice.invariant_and_coinvariant(lattice.a2(), [[[2, 0], [0, 1]]])

    @pytest.mark.parametrize("seed", range(12))
    def test_orthogonal_saturated_split(self, seed):
        rng = random.Random(800 + seed)
        g = rand_definite_even_gram(rng, 3)
        l = lattice.Lattice(g)
        isos = brute_isometries(g, g)
        q = isos[rng.randrange(len(isos))]
        inv, coinv = lattice.invariant_and_coinvariant(l, [q])
        assert len(inv) + len(coinv) == l.rank
        for a in inv:
            for b in coinv:
                assert l.pair(a, b) == 0
        for rows in (inv, coinv):
            if rows:
                s, _, _ = exact.smith_normal_form([list(r) for r in rows])
                assert all(s[i][i] == 1 for i in range(len(rows)))


class TestInducedMap:
    def test_identity(self):
        l = lattice.Lattice([[6, 3], [3, 6]])
        f = lattice.induced_map(l, exact.identity(2))
        assert f.images == identity_hom(f.source).images

    def test_negation(self):
        l = lattice.Lattice([[6, 3], [3, 6]])
        f = lattice.induced_map(l, [[-1, 0], [0, -1]])
        assert f.images == negation_hom(f.source).images

    def test_order_six_isometry(self):
        l = lattice.Lattice([[6, 3], [3, 6]])
        q = [[0, 1], [-1, 1]]
        assert l.is_isometry(q)
        assert exact.multiplicative_order(q) == 6
        f = lattice.induced_map(l, q)
        assert f.preserves_form()
        power = f
        for _ in range(5):
            power = compose(f, power)
        assert power.images == identity_hom(f.source).images

    @pytest.mark.parametrize("seed", range(10))
    def test_group_homomorphism(self, seed):
        rng = random.Random(900 + seed)
        g = rand_definite_even_gram(rng, rng.randint(1, 3))
        l = lattice.Lattice(g)
        isos = brute_isometries(g, g)
        qa = isos[rng.randrange(len(isos))]
        qb = isos[rng.randrange(len(isos))]
        fa, fb = lattice.induced_map(l, qa), lattice.induced_map(l, qb)
        # row vectors: v*(qa*qb) applies qa first
        composed = lattice.induced_map(l, exact.mat_mul(qa, qb))
        assert composed.images == compose(fb, fa).images


class TestGlueGroupOfSplit:
    @pytest.mark.parametrize("seed", range(30))
    def test_graph_of_anti_isometry(self, seed):
        rng = random.Random(1000 + seed)
        l = lattice.Lattice(rand_even_gram(rng, rng.randint(2, 4)))
        m, c = random_primitive_split(rng, l)
        if m is None:
            pytest.skip("no usable split found")
        stacked = [list(r) for r in m] + [list(r) for r in c]
        index = abs(exact.bareiss_det(stacked))
        # determinant identity |det L| * [L : M + N]^2 = |det M| |det N|
        det_m = laplace_det(gram_of(l, m))
        det_c = laplace_det(gram_of(l, c))
        assert abs(l.det) * index * index == abs(det_m * det_c)
        dm = lattice.disc_map(lattice.Lattice(gram_of(l, m)))
        dc = lattice.disc_map(lattice.Lattice(gram_of(l, c)))
        adj, det = exact.adjugate(stacked), laplace_det(stacked)
        forward, backward = {}, {}
        for i in range(l.rank):
            coords = adj[i]  # e_i in the split basis: coords / det
            xm = dm.project(coords[:len(m)], det)
            xc = dc.project(coords[len(m):], det)
            # glue classes form the graph of an anti-isometry
            assert forward.setdefault(xm, xc) == xc
            assert backward.setdefault(xc, xm) == xm
            assert (dm.fqm.q(xm) + dc.fqm.q(xc)) % 2 == 0


def small_even_lattice(rng, max_det=64):
    while True:
        g = rand_even_gram(rng, rng.randint(1, 4))
        if 0 < abs(laplace_det(g)) <= max_det:
            return lattice.Lattice(g)


def rebased(lat, u):
    """The lattice in the basis given by the rows of the unimodular u."""
    return lattice.Lattice(exact.conjugate_rows(u, [list(r) for r in lat.gram]))


def fraction_lifts(dm):
    return [[Fraction(x, dm.den) for x in lift] for lift in dm.lifts]


def check_against_fraction_reference(lat):
    """q, b, orders and lifts of disc_map(lat), recomputed on Fractions."""
    dm = lattice.disc_map(lat)
    g, n = lat.gram, lat.rank
    lifts = fraction_lifts(dm)
    assert dm.fqm.order == abs(lat.det)

    def pair(x, y):
        return sum(x[i] * g[i][j] * y[j] for i in range(n) for j in range(n))

    for a, (lift, d) in enumerate(zip(lifts, dm.fqm.orders)):
        # a dual vector whose class has order exactly d
        assert all(sum(lift[i] * g[i][j] for i in range(n)).denominator == 1
                   for j in range(n))
        assert all((d * x).denominator == 1 for x in lift)
        for p in (p for p in range(2, d + 1) if d % p == 0
                  and all(p % k for k in range(2, p))):
            assert any((d // p * x).denominator != 1 for x in lift)
        assert dm.fqm.q_diag[a] == pair(lift, lift) % 2
        for b, other in enumerate(lifts[a + 1:]):
            assert dm.fqm.b_off[a][b] == pair(lift, other) % 1
    return dm, lifts


class TestDiscMapOracle:
    def test_random_even_lattices(self):
        rng = random.Random(661)
        for _ in range(25):
            lat = small_even_lattice(rng)
            dm, lifts = check_against_fraction_reference(lat)
            orders = dm.fqm.orders
            for c in dm.fqm.elements():
                # the classes of the lifts are independent, and project
                # reads them back, also through another denominator and
                # after moving by a lattice vector
                num = dm.lift(c)
                x = [Fraction(v, dm.den) for v in num]
                assert dual_class(lifts, orders, x) == c
                assert dm.project(num) == c
                k, shift = rng.randint(2, 5), rand_int_matrix(rng, 1, lat.rank)[0]
                moved = [k * (v + dm.den * s) for v, s in zip(num, shift)]
                assert dm.project(moved, k * dm.den) == c

    def test_project_rejects_non_dual_vectors(self):
        rng = random.Random(662)
        for _ in range(10):
            lat = small_even_lattice(rng)
            row = lat.gram[0]
            den = 2 * max(abs(x) for x in row) + 1
            with pytest.raises(ValueError, match="pair integrally"):
                lattice.disc_map(lat).project(
                    [1] + [0] * (lat.rank - 1), den)

    def test_induced_map_matches_fraction_reference(self):
        # L + L' with L' = L rebased by u: the swap (x, y) -> (y u^-1, x u)
        # is an isometry acting on D_L + D_L' by exchanging the summands
        rng = random.Random(663)
        for _ in range(12):
            lat = small_even_lattice(rng, max_det=12)
            k = lat.rank
            u = rand_unimodular(rng, k, steps=3 * k)
            u_inv = exact.rational_inverse(u)
            total = lattice.direct_sum(lat, rebased(lat, u))
            swap = [[0] * k + list(r) for r in u_inv] + \
                   [list(r) + [0] * k for r in u]
            minus = [[-x for x in r] for r in swap]
            dm = lattice.disc_map(total)
            lifts = fraction_lifts(dm)
            for f in (swap, minus):
                want = tuple(
                    dual_class(lifts, dm.fqm.orders,
                               [sum(lift[i] * f[i][j] for i in range(2 * k))
                                for j in range(2 * k)])
                    for lift in lifts)
                assert lattice.induced_map(total, f).images == want

    def test_k3_lattices(self):
        rng = random.Random(664)
        u22 = rand_unimodular(rng, 22, steps=40)
        k3 = rebased(lattice.k3_lattice(), u22)
        dm, _ = check_against_fraction_reference(k3)
        assert (dm.fqm.orders, dm.den, dm.lifts) == ((), 1, ())
        u = rand_unimodular(rng, 23, steps=40)
        u_inv = exact.rational_inverse(u)
        k3sq = rebased(lattice.k3_square_lattice(), u)
        dm, lifts = check_against_fraction_reference(k3sq)
        assert dm.fqm.orders == (2,) and dm.fqm.q_diag == (Fraction(3, 2),)
        assert dm.project(dm.lift((1,))) == (1,)
        # isometries of the standard form, rebased: -1, the swap of the two
        # E8(-1) blocks and of two hyperbolic planes
        perm = list(range(8, 16)) + list(range(8)) + [18, 19, 16, 17] + \
            list(range(20, 23))
        std = [[int(j == perm[i]) for j in range(23)] for i in range(23)]
        for f0 in (std, [[-x for x in r] for r in exact.identity(23)]):
            f = exact.mat_mul(exact.mat_mul(u, f0), u_inv)
            want = dual_class(lifts, (2,), [
                sum(lifts[0][i] * f[i][j] for i in range(23))
                for j in range(23)])
            assert lattice.induced_map(k3sq, f).images == (want,)


class TestFractionFreeDiscLayer:
    def test_disc_layer_makes_no_fraction(self, monkeypatch):
        rng = random.Random(665)
        group = builtin_dataset().group("S6")
        n = group.grams[0]
        image = hom_image(anti_embeddings(group.disc,
                                          lattice.disc_map(n).fqm)[0])
        goods = [f.matrix for f in good_isometries(n)]
        vectors = [rand_int_matrix(rng, 1, 3, 3)[0] for _ in range(20)]
        vectors = [v for v in vectors if any(v)]
        grams = [rand_even_gram(rng, k) for k in range(1, 9)]
        unimodular = rand_unimodular(rng, 8, steps=32)
        fresh = [small_even_lattice(rng) for _ in range(10)]
        fresh.append(rebased(lattice.k3_square_lattice(),
                             rand_unimodular(rng, 23, steps=40)))
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        sigs = [exact.signature(g) for g in grams]
        inverse = exact.rational_inverse(unimodular)
        maps = [lattice.induced_map(n, f) for f in goods]
        divs = [divisibility_in_glued(n, v, image) for v in vectors]
        assert made == []
        for lat in fresh:
            before = len(made)
            r = lattice.disc_map.__wrapped__(lat).fqm.rank
            assert len(made) - before == r + r * (r - 1) // 2  # one per q, b
        assert len(sigs) == 8 and len(inverse) == 8
        assert len(maps) == len(goods) and min(divs) >= 1
