import random
import sys
from fractions import Fraction

import pytest

from k3lat import enumeration, exact, lattice
from k3lat.enumeration import (all_automorphisms, automorphism_group,
                               is_isometric, vectors_of_norm)
from k3lat.dataset import builtin_dataset
from k3lat.fqm import Subgroup
from k3lat.glue import wall_divisor_scan
from k3lat.lattice import Lattice, disc_map
from oracles import (box_bound_for, box_vectors, brute_isometries,
                     conjugate_back, greedy_generators, image_backtrack,
                     matrix_order, rand_definite_even_gram,
                     rand_definite_odd_gram, rand_unimodular, two_sign_walk)
from test_acceptance import criterion_7_grams


def norm_of(gram, v):
    n = len(gram)
    return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


class TestVectorsOfNorm:
    def test_a2_roots(self):
        assert vectors_of_norm(lattice.a2(), 2) == [
            (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]

    def test_diag_six_minimal(self):
        l = Lattice(((6, 0, 0), (0, 6, 0), (0, 0, 6)))
        units = {tuple(s * int(j == i) for j in range(3))
                 for i in range(3) for s in (1, -1)}
        assert set(vectors_of_norm(l, 6)) == units

    def test_leech_has_no_roots(self):
        assert vectors_of_norm(builtin_dataset().lattice("Leech"), 2) == []

    def test_negative_definite(self):
        l = lattice.a2(-1)
        assert len(vectors_of_norm(l, -2)) == 6
        assert vectors_of_norm(l, 2) == []

    def test_wrong_sign_or_zero_is_empty(self):
        assert vectors_of_norm(lattice.a2(), -2) == []
        assert vectors_of_norm(lattice.a2(), 0) == []

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            vectors_of_norm(lattice.hyperbolic_plane(), 2)

    def test_matches_box_oracle(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randrange(1, 5)
            gram = rand_definite_even_gram(rng, n)
            lat = Lattice(gram)
            for target in (2, rng.randrange(2, 21)):
                got = vectors_of_norm(lat, target)
                expected = box_vectors(gram, target, box_bound_for(gram, target))
                assert got == expected

    def test_sorted_and_negation_closed(self):
        rng = random.Random(5)
        for _ in range(8):
            gram = rand_definite_even_gram(rng, rng.randrange(1, 4))
            vs = vectors_of_norm(Lattice(gram), 4)
            assert vs == sorted(vs)
            assert set(vs) == {tuple(-x for x in v) for v in vs}

    def test_odd_grams_match_box_oracle(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randrange(1, 5)
            gram = rand_definite_odd_gram(rng, n)
            lat = Lattice(tuple(tuple(r) for r in gram))
            for target in (1, rng.randrange(2, 16)):
                got = vectors_of_norm(lat, target)
                expected = box_vectors(gram, target, box_bound_for(gram, target))
                assert got == expected

    def test_rebased_e8_shells(self):
        rng = random.Random(17)
        gram = exact.conjugate_rows(rand_unimodular(rng, 8, steps=20),
                                    [list(r) for r in lattice.e8().gram])
        lat = Lattice(tuple(tuple(r) for r in gram))
        counts = [len(vectors_of_norm(lat, k)) for k in (2, 4, 6)]
        assert counts == [240, 2160, 6720]


class TestAutomorphismGroup:
    def test_rank_one(self):
        gens, order = automorphism_group(lattice.span_of_square(2))
        assert order == 2
        assert [g.matrix for g in gens] == [((-1,),)]
        assert gens[0].order == 2

    def test_a2(self):
        gens, order = automorphism_group(lattice.a2())
        assert order == 12
        assert len(exact.matrix_closure([g.matrix for g in gens], 2)) == 12

    def test_signed_permutations(self):
        l = Lattice(((6, 0, 0), (0, 6, 0), (0, 0, 6)))
        assert automorphism_group(l)[1] == 48

    def test_negative_definite(self):
        assert automorphism_group(lattice.a2(-1))[1] == 12

    def test_identity_in_element_store(self):
        autos = all_automorphisms(lattice.a2())
        assert ((1, 0), (0, 1)) in autos
        assert len(autos) == 12
        for q in autos:
            ql = [list(r) for r in q]
            assert exact.conjugate_rows(ql, [list(r) for r in lattice.a2().gram]) \
                == [list(r) for r in lattice.a2().gram]

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(6):
            n = rng.randrange(1, 4)
            gram = rand_definite_even_gram(rng, n)
            autos = all_automorphisms(Lattice(gram))
            assert len(autos) == len(brute_isometries(gram, gram))

    def test_element_store_limit(self, monkeypatch):
        monkeypatch.setattr(exact, "_ELEMENT_STORE_LIMIT", 10)
        with pytest.raises(ValueError, match="element-store limit of 10 "):
            all_automorphisms(Lattice(((6, 0, 0), (0, 6, 0), (0, 0, 6))))

    def test_element_store_stops_the_listing(self, monkeypatch):
        # 2 I_5 has 3840 automorphisms; the backtrack must raise at the
        # eleventh, not list them all first
        sizes = []
        real = exact.check_element_store
        monkeypatch.setattr(exact, "check_element_store",
                            lambda size, what: sizes.append(size)
                            or real(size, what))
        monkeypatch.setattr(exact, "_ELEMENT_STORE_LIMIT", 10)
        lat = Lattice(tuple(tuple(2 * (i == j) for j in range(5))
                            for i in range(5)))
        with pytest.raises(ValueError, match="element-store limit of 10 "):
            all_automorphisms(lat)
        assert sizes == list(range(1, 12))

    def _lattices(self):
        for g in builtin_dataset().groups:
            yield from g.grams
        rng = random.Random(29)
        for n in range(1, 5):
            for sign in (1, 1, -1):
                yield Lattice(rand_definite_even_gram(rng, n, sign=sign))

    def test_maps_back_like_two_products(self):
        # q U read once per candidate, then U^-1 (q U), against the two
        # products U^-1 q U made per automorphism
        lattices = [*self._lattices(), *map(Lattice, criterion_7_grams())]
        for lat in lattices:
            sign = 1 if lat.is_positive_definite else -1
            g_red, u, u_inv = enumeration._lll(
                [[sign * x for x in row] for row in lat.gram])
            ldl = enumeration._scaled_ldl(g_red)
            cands = [enumeration._fp_vectors(ldl, g_red[i][i])
                     for i in range(len(g_red))]
            autos = enumeration._image_backtrack(g_red, g_red, cands, False)
            assert all_automorphisms(lat) == sorted(
                conjugate_back(q, u, u_inv) for q in autos), lat.gram

    def test_generators_match_greedy_reference(self):
        # the closure is extended per generator; the greedy reference
        # rebuilds it from the identity each time
        for lat in self._lattices():
            autos = all_automorphisms(lat)
            gens, order = automorphism_group(lat)
            assert order == len(autos)
            want, _ = greedy_generators(autos)
            assert [g.matrix for g in gens] == want, lat.gram
            assert [g.order for g in gens] == [matrix_order(q) for q in want]

    def test_closure_is_extended_not_rebuilt(self, monkeypatch):
        # 2 I_5: |O| = 2^5 5! = 3840 on 6 generators; rebuilding the closure
        # for every new generator takes 27322 products, growing it coset by
        # coset 3909
        products = []
        real = exact.generators

        def counted(elements, ident, mul):
            def counted_mul(f, g):
                products.append(1)
                return mul(f, g)
            return real(elements, ident, counted_mul)
        monkeypatch.setattr(exact, "generators", counted)
        lat = Lattice(tuple(tuple(2 * (i == j) for j in range(5))
                            for i in range(5)))
        gens, order = automorphism_group(lat)
        assert (order, len(gens)) == (3840, 6)
        assert len(products) == 3909
        want, rebuilt = greedy_generators(all_automorphisms(lat))
        assert [g.matrix for g in gens] == want
        assert len(products) < rebuilt == 27322


class TestImageBacktrack:
    def _cases(self):
        rng = random.Random(37)
        for n in range(1, 5):
            for _ in range(3):
                gram = rand_definite_even_gram(rng, n)
                u = rand_unimodular(rng, n)
                yield gram, exact.conjugate_rows(u, gram)

    def test_matches_reference(self):
        # every norm's candidate list is shared by the levels asking for it
        for gram, other in self._cases():
            g1, _, _ = enumeration._lll(gram)
            g2, _, _ = enumeration._lll(other)
            ldl = enumeration._scaled_ldl(g2)
            by_norm = {}
            for i in range(len(g1)):
                norm = g1[i][i]
                if norm not in by_norm:
                    by_norm[norm] = enumeration._fp_vectors(ldl, norm)
            cands = [by_norm[g1[i][i]] for i in range(len(g1))]
            for source in (g1, g2):
                if any(source[i][i] != g1[i][i] for i in range(len(g1))):
                    continue
                for first_only in (False, True):
                    got = enumeration._image_backtrack(g2, source, cands,
                                                       first_only)
                    assert got == image_backtrack(g2, source, cands,
                                                  first_only), gram
            assert enumeration._image_backtrack(g2, g1, cands, False)


class TestIsIsometric:
    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            is_isometric(lattice.a2(), lattice.span_of_square(2))

    def test_det_reject(self):
        assert is_isometric(lattice.span_of_square(2),
                            lattice.span_of_square(4)) is None

    def test_fingerprint_reject(self):
        # equal det and signature, but different counts of norm-2 vectors
        assert is_isometric(Lattice(((2, 0), (0, 32))),
                            Lattice(((8, 0), (0, 8)))) is None

    def test_witness_property(self):
        l1, l2 = lattice.a2(), Lattice(((2, -1), (-1, 2)))
        w = is_isometric(l1, l2)
        assert w is not None
        assert w.order is None  # cross-lattice witness
        q = [list(r) for r in w.matrix]
        assert exact.conjugate_rows(q, [list(r) for r in l2.gram]) \
            == [list(r) for r in l1.gram]

    def test_self_witness_has_order(self):
        w = is_isometric(lattice.a2(), lattice.a2())
        assert w is not None and w.order is not None

    def test_random_conjugates_found(self):
        rng = random.Random(31)
        for _ in range(6):
            n = rng.randrange(1, 4)
            gram = rand_definite_even_gram(rng, n)
            u = rand_unimodular(rng, n)
            other = exact.conjugate_rows(u, gram)
            w = is_isometric(Lattice(gram), Lattice(other))
            assert w is not None

    def test_negative_definite_pair(self):
        w = is_isometric(lattice.a2(-1), lattice.a2(-1))
        assert w is not None

    def test_walks_only_the_norms_it_draws_images_from(self, monkeypatch):
        walks = []
        real = enumeration._fp_vectors
        monkeypatch.setattr(enumeration, "_fp_vectors",
                            lambda ldl, k: walks.append(k) or real(ldl, k))
        l1 = Lattice(((2, 0, 0), (0, 6, 0), (0, 0, 10)))
        l2 = Lattice(((10, 0, 0), (0, 2, 0), (0, 0, 6)))
        assert is_isometric(l1, l2) is not None
        # one walk per lattice at each basis norm, not at every norm <= 10
        assert sorted(walks) == [2, 2, 6, 6, 10, 10]

    def test_bad_backtrack_hit_raises(self, monkeypatch):
        # a search that returns a non-isometry must not pass as a witness
        monkeypatch.setattr(enumeration, "_image_backtrack",
                            lambda *args, **kwargs: [((1, 0), (1, 0))])
        with pytest.raises(RuntimeError, match="Q.G2.Q"):
            is_isometric(lattice.a2(), lattice.a2())


def _gram_schmidt(gram):
    """Rational Gram-Schmidt norms B and coefficients mu of a Gram."""
    n = len(gram)
    b, mu = [], [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[i][k] * mu[j][k] * b[k]
                                         for k in range(j))) / b[j]
        b.append(gram[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i)))
    return b, mu


class TestReduction:
    def _grams(self):
        rng = random.Random(41)
        for n in range(1, 9):
            for _ in range(3):
                yield rand_definite_even_gram(rng, n)
                yield rand_definite_odd_gram(rng, n)

    def test_lll_is_reduced(self):
        for gram in self._grams():
            n = len(gram)
            g_red, u, u_inv = enumeration._lll(gram)
            assert exact.mat_mul(u, u_inv) == exact.identity(n)
            assert [list(r) for r in g_red] == exact.conjugate_rows(u, gram)
            b, mu = _gram_schmidt(g_red)
            for k in range(n):
                assert all(2 * abs(mu[k][j]) <= 1 for j in range(k))
                if k:
                    assert b[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) \
                        * b[k - 1]

    def test_kernels_make_no_fraction(self, monkeypatch):
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        rng = random.Random(43)
        gram = exact.conjugate_rows(rand_unimodular(rng, 8, steps=20),
                                    [list(r) for r in lattice.e8().gram])
        g_red, _, _ = enumeration._lll(gram)
        assert len(enumeration._fp_vectors(enumeration._scaled_ldl(g_red), 4)) \
            == 2160
        assert made == []


class TestFinckePohst:
    def _ldls(self):
        for gram in TestReduction()._grams():
            g_red, _, _ = enumeration._lll(gram)
            yield enumeration._scaled_ldl(g_red), range(1, 9)
        rng = random.Random(43)
        e8 = exact.conjugate_rows(rand_unimodular(rng, 8, steps=20),
                                  [list(r) for r in lattice.e8().gram])
        yield enumeration._scaled_ldl(enumeration._lll(e8)[0]), (4,)

    def test_half_walk_gives_the_two_sign_list(self):
        # walking one of +-v and adding -v returns the full walk's list,
        # order included
        for ldl, norms in self._ldls():
            for norm in norms:
                assert enumeration._fp_vectors(ldl, norm) \
                    == two_sign_walk(ldl, norm)

    @staticmethod
    def _walk_calls(lat, norm):
        calls = []

        def profile(frame, event, arg):
            if event == "call" and \
                    frame.f_code.co_qualname == "_fp_vectors.<locals>.walk":
                calls.append(1)
        sys.setprofile(profile)
        try:
            vectors_of_norm(lat, norm)
        finally:
            sys.setprofile(None)
        return len(calls)

    def test_walk_node_counts(self):
        # LLL + dual pass + full walk took 55814 and 2920 calls
        leech = builtin_dataset().lattice("Leech")
        assert self._walk_calls(leech, 2) <= 17000
        assert self._walk_calls(lattice.direct_sum(lattice.e8(), lattice.e8()),
                                2) <= 1500


class TestWallDivisorScan:
    def test_minus_two_is_a_wall(self):
        assert wall_divisor_scan(lattice.span_of_square(-2))

    def test_minus_four_is_not(self):
        assert not wall_divisor_scan(lattice.span_of_square(-4))

    def test_minus_ten_needs_glue_data(self):
        m = lattice.span_of_square(-10)
        assert not wall_divisor_scan(m)
        # index-5 glue image makes the generator divisible by 2 in the ambient
        img = Subgroup.generated(disc_map(m).fqm, ((2,),))
        assert wall_divisor_scan(m, img)

    def test_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            wall_divisor_scan(lattice.a2())
