import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from k3lat import enumeration, exact, lattice
from k3lat.classify import good_isometries
from k3lat.enumeration import (all_automorphisms, automorphism_group,
                               is_isometric, vectors_of_norm)
from k3lat.dataset import builtin_dataset
from k3lat.fqm import Subgroup
from k3lat.glue import wall_divisor_scan
from k3lat.lattice import Lattice, disc_map
from oracles import (box_bound_for, box_vectors, brute_isometries,
                     congruence_signature, conjugate_back, greedy_generators,
                     image_backtrack, laplace_det, matrix_order,
                     rand_definite_even_gram, rand_definite_odd_gram,
                     rand_even_gram, rand_unimodular, scaled_ldl_by_fractions,
                     two_sign_walk)
from test_acceptance import criterion_7_grams

FROZEN = Path(__file__).parent / "data" / "enumeration_outputs.json"
SRC = Path(__file__).resolve().parents[1] / "src"


def frozen_cases():
    """(label, L, L'): each built-in invariant Gram and seeded definite
    Grams of rank 1 to 5 (even and odd), each also negated, with L' a
    seeded rebasing of L."""
    rng = random.Random(3007)
    grams = [(f"{g.name}/{k}", n.gram) for g in builtin_dataset().groups
             for k, n in enumerate(g.grams)]
    for n in range(1, 6):
        grams += [(f"even{n}.{i}", rand_definite_even_gram(rng, n))
                  for i in range(4)]
        grams += [(f"odd{n}.{i}", rand_definite_odd_gram(rng, n))
                  for i in range(2)]
    for label, gram in grams:
        for sign, mark in ((1, "+"), (-1, "-")):
            g = [[sign * x for x in row] for row in gram]
            moved = exact.conjugate_rows(rand_unimodular(rng, len(g)), g)
            yield label + mark, Lattice(g), Lattice(moved)


def frozen_shells():
    """(label, L, norm) for the larger shells: Leech, E8 rebased, E8+E8."""
    rng = random.Random(3011)
    e8 = Lattice(exact.conjugate_rows(rand_unimodular(rng, 8, steps=20),
                                      [list(r) for r in lattice.e8().gram]))
    yield "Leech@2", builtin_dataset().lattice("Leech"), 2
    for norm in (2, 4):
        yield f"E8rebased@{norm}", e8, norm
    yield "E8(-1)@-2", lattice.e8(-1), -2
    yield "E8+E8@2", lattice.direct_sum(lattice.e8(), lattice.e8()), 2


def enumeration_outputs(lat, other):
    """What the enumeration entry points (and good_isometries) return on L
    and on the pairs of L and L', as one list."""
    sign = 1 if lat.gram[0][0] > 0 else -1
    gens, order = automorphism_group(lat)
    out = [[vectors_of_norm(lat, sign * k) for k in (1, 2, 3, 4, 6, 8)],
           vectors_of_norm(lat, -sign * 2), all_automorphisms(lat),
           [(g.matrix, g.order) for g in gens], order]
    for a, b in ((lat, other), (other, lat), (lat, lat)):
        w = is_isometric(a, b)
        out.append(None if w is None else (w.matrix, w.order))
    if lat.rank == 3 and lat.is_even and sign > 0:
        out.append([(g.matrix, g.order) for g in good_isometries(lat)])
    return out


def output_digests():
    """label -> first 16 hex digits of sha256(repr(outputs))."""
    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()[:16]
    out = {label: digest(enumeration_outputs(lat, other))
           for label, lat, other in frozen_cases()}
    out.update((label, digest(vectors_of_norm(lat, norm)))
               for label, lat, norm in frozen_shells())
    return out


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
            g_red, u, u_inv, ldl = enumeration._lll(
                [[sign * x for x in row] for row in lat.gram])
            cands = [enumeration._signed(enumeration._fp_vectors(
                ldl, g_red[i][i])) for i in range(len(g_red))]
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
            g1, _, _, _ = enumeration._lll(gram)
            g2, _, _, ldl = enumeration._lll(other)
            by_norm = {}
            for i in range(len(g1)):
                norm = g1[i][i]
                if norm not in by_norm:
                    by_norm[norm] = enumeration._signed(
                        enumeration._fp_vectors(ldl, norm))
            cands = [by_norm[g1[i][i]] for i in range(len(g1))]
            for source in (g1, g2):
                if any(source[i][i] != g1[i][i] for i in range(len(g1))):
                    continue
                for first_only in (False, True):
                    got = enumeration._image_backtrack(g2, source, cands,
                                                       first_only)
                    assert got == image_backtrack(g2, source, cands,
                                                  first_only), gram
                # up to sign: the rows whose first image is walked
                walked = set(cands[0][len(cands[0]) // 2:])
                assert enumeration._image_backtrack(
                    g2, source, cands, False, up_to_sign=True) == [
                    q for q in image_backtrack(g2, source, cands, False)
                    if q[0] in walked], gram
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
            g_red, u, u_inv, ldl = enumeration._lll(gram)
            assert exact.mat_mul(u, u_inv) == exact.identity(n)
            # the LDL LLL ends with is that of the reduced Gram
            assert ldl == scaled_ldl_by_fractions(g_red)
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
        _, _, _, ldl = enumeration._lll(gram)
        assert len(enumeration._signed(enumeration._fp_vectors(ldl, 4))) \
            == 2160
        assert made == []


class TestFinckePohst:
    def _ldls(self):
        for gram in TestReduction()._grams():
            yield enumeration._lll(gram)[3], range(1, 9)
        rng = random.Random(43)
        e8 = exact.conjugate_rows(rand_unimodular(rng, 8, steps=20),
                                  [list(r) for r in lattice.e8().gram])
        yield enumeration._lll(e8)[3], (4,)

    def test_half_walk_gives_the_two_sign_list(self):
        # walking one of +-v and adding -v returns the full walk's list,
        # order included
        for ldl, norms in self._ldls():
            for norm in norms:
                assert enumeration._signed(enumeration._fp_vectors(
                    ldl, norm)) == two_sign_walk(ldl, norm)

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


def _leading_minors(gram):
    return [laplace_det([row[:k] for row in gram[:k]])
            for k in range(1, len(gram) + 1)]


def _sign_cases():
    """Seeded Grams of rank 1 to 6: positive and negative definite, random
    indefinite, and rebased indefinite Grams whose leading minors first go
    non-positive at the last one (diag(2, ..., 2, -2), E8 + <-2>)."""
    rng = random.Random(3013)
    for n in range(1, 7):
        for sign in (1, -1):
            yield rand_definite_even_gram(rng, n, sign=sign)
            yield [[sign * x for x in row]
                   for row in rand_definite_odd_gram(rng, n)]
        for _ in range(3):
            yield rand_even_gram(rng, n)
    lates = [[[2 * (i == j) * (-1 if i == n - 1 else 1) for j in range(n)]
              for i in range(n)] for n in range(2, 6)]
    lates.append([list(r) for r in lattice.direct_sum(
        lattice.e8(), lattice.span_of_square(-2)).gram])
    for diag in lates:
        yield diag
        n, kept = len(diag), 0
        while kept < 4:
            g = exact.conjugate_rows(rand_unimodular(rng, n), diag)
            if all(m > 0 for m in _leading_minors(g)[:-1]):
                kept += 1
                yield g


class TestSignFromReduction:
    def test_lll_sign_matches_congruence_signature(self, monkeypatch):
        # _lll(G) completes iff G is positive definite, and otherwise raises
        # when it computes the row of the first leading minor <= 0
        rows = []
        real = enumeration._gram_schmidt_row
        monkeypatch.setattr(enumeration, "_gram_schmidt_row",
                            lambda h, k, d, lam: rows.append(k)
                            or real(h, k, d, lam))
        seen, late = set(), 0
        for gram in _sign_cases():
            n = len(gram)
            pos, neg = congruence_signature(gram)
            want = 1 if pos == n else -1 if neg == n else None
            frame = enumeration._frame(Lattice(gram))
            assert (frame and frame[0]) == want, gram
            seen.add(want)
            rows.clear()
            minors = _leading_minors(gram)
            if want == 1:
                enumeration._lll(gram)
                continue
            with pytest.raises(ValueError, match="positive definite"):
                enumeration._lll(gram)
            first = next(k for k, m in enumerate(minors) if m <= 0)
            assert max(rows) == rows[-1] == first, gram
            late += want is None and first == n - 1 and n > 1
        assert seen == {1, -1, None}
        assert late >= 20

    @staticmethod
    def _results(code_lines):
        """What each line of the probe prints: a value or an error."""
        out = []
        for line in code_lines:
            try:
                out.append(repr(eval(line)))
            except ValueError as exc:
                out.append(f"ValueError: {exc}")
        return out

    PROBES = [
        "vectors_of_norm(Lattice(()), 2)",
        "vectors_of_norm(lattice.hyperbolic_plane(), 2)",
        "vectors_of_norm(lattice.hyperbolic_plane(), 0)",
        "vectors_of_norm(Lattice(((2, 0, 0), (0, 2, 0), (0, 0, -2))), 2)",
        "vectors_of_norm(lattice.a2(), 0)",
        "vectors_of_norm(lattice.a2(-1), 2)",
        "all_automorphisms(Lattice(()))",
        "all_automorphisms(lattice.hyperbolic_plane())",
        "all_automorphisms(Lattice(((0, 1, 0), (1, 0, 0), (0, 0, 2))))",
        "is_isometric(Lattice(()), Lattice(()))",
        "is_isometric(lattice.hyperbolic_plane(), lattice.hyperbolic_plane())",
        "is_isometric(Lattice(((2, 0, 0), (0, 2, 0), (0, 0, -2))),"
        " Lattice(((-2, 0, 0), (0, -2, 0), (0, 0, -2))))",
        "is_isometric(Lattice(((-2, 0, 0), (0, -2, 0), (0, 0, -2))),"
        " Lattice(((2, 0, 0), (0, 2, 0), (0, 0, -2))))",
        "is_isometric(Lattice(((2, 0, 0), (0, -2, 0), (0, 0, -2))),"
        " Lattice(((2, 0, 0), (0, 2, 0), (0, 0, 2))))",
        "is_isometric(Lattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0),"
        " (0, 0, 0, -2))), Lattice(((2, 0, 0, 0), (0, -2, 0, 0),"
        " (0, 0, -2, 0), (0, 0, 0, -2))))",
        "is_isometric(Lattice(((2, 0), (0, 2))), Lattice(((-2, 0), (0, -2))))",
        "good_isometries(Lattice(()))",
        "good_isometries(Lattice(((2, 0, 0), (0, 2, 0), (0, 0, -2))))",
        "good_isometries(Lattice(((-2, 0, 0), (0, 2, 0), (0, 0, 2))))",
        "good_isometries(Lattice(((0, 1, 0), (1, 0, 0), (0, 0, 2))))",
        "good_isometries(Lattice(((-6, 0, 0), (0, -6, 0), (0, 0, -6))))",
    ]
    # what the two-pass kernels (a Bareiss signature, then LLL) returned
    WANT = [
        "ValueError: enumeration requires a definite lattice",
        "ValueError: enumeration requires a definite lattice",
        "ValueError: enumeration requires a definite lattice",
        "ValueError: enumeration requires a definite lattice",
        "[]",
        "[]",
        "[()]",
        "ValueError: enumeration requires a definite lattice",
        "ValueError: enumeration requires a definite lattice",
        "Isometry(matrix=(), order=1)",
        "ValueError: enumeration requires a definite lattice",
        "None",
        "None",
        "None",
        "None",
        "None",
    ] + ["ValueError: good isometries live on even rank-3 positive "
         "definite lattices"] * 5

    def test_rank_zero_and_indefinite_keep_their_results(self):
        assert self._results(self.PROBES) == self.WANT

    def test_rank_zero_and_indefinite_under_python_O(self):
        code = ("from k3lat import lattice\n"
                "from k3lat.lattice import Lattice\n"
                "from k3lat.classify import good_isometries\n"
                "from k3lat.enumeration import (all_automorphisms,\n"
                "    is_isometric, vectors_of_norm)\n"
                f"for line in {self.PROBES!r}:\n"
                "    try:\n"
                "        print(repr(eval(line)))\n"
                "    except ValueError as exc:\n"
                "        print(f'ValueError: {exc}')\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, env=env, timeout=60)
        assert done.stdout.decode().splitlines() == self.WANT


def _counted_lattices():
    """Every built-in Gram, its negative, and three seeded rebasings of
    each, as fresh Lattices (no cached signature)."""
    rng = random.Random(3017)
    for g in builtin_dataset().groups:
        for n in g.grams:
            for sign in (1, -1):
                gram = [[sign * x for x in row] for row in n.gram]
                yield gram
                for _ in range(3):
                    yield exact.conjugate_rows(rand_unimodular(rng, 3), gram)


class TestOneReduction:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Counts of _lll and exact.signature calls, the rows of each
        _image_backtrack result and of each _times call."""
        tally = {"lll": 0, "signature": 0, "backtrack": [], "times": 0}

        def counted(name, fn, record):
            def wrapper(*args, **kwargs):
                return record(fn(*args, **kwargs))
            monkeypatch.setattr(*name, wrapper)

        def bump(key):
            def record(result):
                tally[key] += 1
                return result
            return record

        counted((enumeration, "_lll"), enumeration._lll, bump("lll"))
        counted((exact, "signature"), exact.signature, bump("signature"))
        counted((enumeration, "_image_backtrack"),
                enumeration._image_backtrack,
                lambda r: tally["backtrack"].append(len(r)) or r)
        real_times = enumeration._times

        def times(rows, m):
            for row in real_times(rows, m):
                tally["times"] += 1
                yield row
        monkeypatch.setattr(enumeration, "_times", times)
        return tally

    @staticmethod
    def _reset(tally):
        tally.update(lll=0, signature=0, backtrack=[], times=0)

    def test_one_lll_and_no_signature_per_lattice(self, counts):
        for gram in _counted_lattices():
            sign = 1 if gram[0][0] > 0 else -1
            for call, lls in (
                    (lambda: vectors_of_norm(Lattice(gram), 2 * sign), 1),
                    (lambda: all_automorphisms(Lattice(gram)), 1),
                    (lambda: automorphism_group(Lattice(gram)), 1),
                    (lambda: is_isometric(Lattice(gram), Lattice(gram)), 2)):
                self._reset(counts)
                call()
                assert (counts["lll"], counts["signature"]) == (lls, 0), gram
            if sign > 0:
                self._reset(counts)
                good_isometries(Lattice(gram))
                assert (counts["lll"], counts["signature"]) == (1, 0), gram

    def test_backtrack_finds_half_the_group(self, counts):
        for gram in _counted_lattices():
            self._reset(counts)
            autos = all_automorphisms(Lattice(gram))
            assert counts["backtrack"] == [len(autos) // 2], gram

    def test_half_the_vectors_are_mapped_back(self, counts):
        e8 = lattice.e8()
        assert len(vectors_of_norm(e8, 2)) == 240
        assert counts["times"] == 120
        for gram in _counted_lattices():
            sign = 1 if gram[0][0] > 0 else -1
            for norm in (2, 4, 6):
                self._reset(counts)
                vs = vectors_of_norm(Lattice(gram), sign * norm)
                assert 2 * counts["times"] == len(vs), gram


class TestElementStoreCountsBothSigns:
    @pytest.mark.parametrize("gram", [
        ((6, 0, 0), (0, 6, 0), (0, 0, 6)),
        ((-6, 0, 0), (0, -6, 0), (0, 0, -6)),
        ((2, -1), (-1, 2)),
        ((2,),)])
    def test_limit_is_the_group_order(self, monkeypatch, gram):
        # |O(L)| = 48, 48, 12, 2: one below raises and names the bound, at
        # the limit the whole group is listed
        lat = Lattice(gram)
        autos = all_automorphisms(lat)
        order = len(autos)
        monkeypatch.setattr(exact, "_ELEMENT_STORE_LIMIT", order - 1)
        with pytest.raises(ValueError,
                           match=f"element-store limit of {order - 1} "):
            all_automorphisms(lat)
        monkeypatch.setattr(exact, "_ELEMENT_STORE_LIMIT", order)
        assert all_automorphisms(lat) == autos
        assert automorphism_group(lat)[1] == order


class TestOutputsUnchanged:
    def test_match_the_frozen_outputs(self):
        # vectors_of_norm, all_automorphisms, automorphism_group,
        # is_isometric witnesses and good_isometries on every case, against
        # the outputs of the kernels that ran a separate signature and LDL
        want = json.loads(FROZEN.read_text())["digests"]
        got = output_digests()
        assert sorted(got) == sorted(want)
        assert [k for k in want if got[k] != want[k]] == []
