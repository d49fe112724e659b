import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from functools import cached_property

import pytest

from k3lat import classify as classify_module
from k3lat import exact, lattice
from k3lat import fqm as fqm_module
from k3lat.classify import (ClassificationRow, CoinvariantData, GOOD_TRACES,
                            _complement, _fixed_line, _row_key, classify,
                            gauss_reduced, good_isometries,
                            k3_birational_flag)
from k3lat.dataset import builtin_dataset
from k3lat.enumeration import Isometry, all_automorphisms, is_isometric
from k3lat.fqm import (Fqm, FqmHom, Subgroup, admissible_images,
                       anti_embeddings,
                       conjugates, hom_closure_images, hom_image,
                       hom_preimage, identity_hom, isomorphisms,
                       k3sq_glue_admissible, k3sq_glue_images,
                       orthogonal_group)
from k3lat.glue import (check_extendable, divisibility_in_glued,
                        partner_disc_candidates, realized_actions)
from k3lat.lattice import Lattice, disc_map, induced_map
from oracles import (char_poly, compose, conjugates_by_search,
                     fixed_line_and_complement, fixed_line_by_kernel,
                     glue_images, good_isometries_unfiltered, negation_hom,
                     perp_subgroup, rand_unimodular, subgroup_presentation)

A6_GRAM = ((6, 3, 0), (3, 6, 0), (0, 0, 6))
L2_11_GRAM = ((2, 1, 0), (1, 6, 0), (0, 0, 22))
DIAG6 = Lattice(((6, 0, 0), (0, 6, 0), (0, 0, 6)))
# order 6, trace 2, fixes e3
A6_BLOCK = ((0, 1, 0), (-1, 1, 0), (0, 0, 1))
BUILTIN_GROUPS = [g.name for g in builtin_dataset().groups]


def negated(m: Fqm) -> Fqm:
    return Fqm(m.orders, tuple((-q) % 2 for q in m.q_diag),
               tuple(tuple((-x) % 1 for x in row) for row in m.b_off))


def coinv_disc(n: Lattice, sub_gens) -> Fqm:
    """Discriminant form of the glue partner: the index-two admissible
    subgroup of D(N), with the form negated."""
    inc = subgroup_presentation(Subgroup.generated(disc_map(n).fqm, sub_gens))
    return negated(inc.source)


class TestGoodIsometries:
    def test_sign_flip_is_good(self):
        goods = good_isometries(DIAG6)
        assert ((1, 0, 0), (0, -1, 0), (0, 0, -1)) in [g.matrix for g in goods]

    def test_three_cycle_is_good(self):
        goods = good_isometries(DIAG6)
        assert ((0, 1, 0), (0, 0, 1), (1, 0, 0)) in [g.matrix for g in goods]

    def test_order_six_block(self):
        goods = good_isometries(Lattice(A6_GRAM))
        match = [g for g in goods if g.matrix == A6_BLOCK]
        assert match and match[0].order == 6
        # eigenvalues 1, zeta_6, conj: char poly (x-1)(x^2 - x + 1)
        assert char_poly([list(r) for r in A6_BLOCK]) == [1, -2, 2, -1]

    def test_requires_rank_three(self):
        with pytest.raises(ValueError):
            good_isometries(lattice.a2())

    def test_requires_positive_definite(self):
        with pytest.raises(ValueError):
            good_isometries(Lattice(((-6, 0, 0), (0, -6, 0), (0, 0, -6))))

    def test_requires_an_even_gram(self):
        with pytest.raises(ValueError, match="even rank-3"):
            good_isometries(Lattice(((1, 0, 0), (0, 1, 0), (0, 0, 1))))

    def test_matches_unfiltered_reference_on_builtin_grams(self):
        grams = [n for g in builtin_dataset().groups for n in g.grams]
        assert len(grams) == 25
        for n in grams:
            got = [(f.matrix, f.order) for f in good_isometries(n)]
            assert got == good_isometries_unfiltered(all_automorphisms(n)), \
                n.gram

    def test_char_poly_and_orders(self):
        for n in (DIAG6, Lattice(A6_GRAM), Lattice(L2_11_GRAM)):
            for g in good_isometries(n):
                tr = GOOD_TRACES[g.order]
                m = [list(r) for r in g.matrix]
                assert char_poly(m) == [1, -tr, tr, -1]
                power = [row[:] for row in m]
                for k in range(1, g.order):
                    assert power != exact.identity(3)
                    power = exact.mat_mul(power, m)
                assert power == exact.identity(3)


def polarization(n: Lattice, f):
    """h and the T Gram of the axis path: _fixed_line, then _complement."""
    h = _fixed_line([list(r) for r in f])
    return h, _complement(n, h)[1]


def symmetric_grams(seed, count):
    """count even positive rank-3 Grams with good isometries of every
    order: a random A2-type, square or rectangular binary block beside
    <2c>, in a random basis."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b, c = (rng.randint(1, 5) for _ in range(3))
        block = rng.choice([((2 * a, a), (a, 2 * a)), ((2 * a, 0), (0, 2 * a)),
                            ((2 * a, 0), (0, 2 * b))])
        gram = [list(block[0]) + [0], list(block[1]) + [0], [0, 0, 2 * c]]
        out.append(Lattice(exact.conjugate_rows(rand_unimodular(rng, 3),
                                                gram)))
    return out


class TestPolarization:
    def test_block_fixture(self):
        h, t = polarization(Lattice(A6_GRAM), A6_BLOCK)
        assert h == (0, 0, 1)
        assert Lattice(A6_GRAM).norm(h) == 6
        assert t == ((6, 3), (3, 6))

    def test_sign_flip(self):
        h, t = polarization(DIAG6, ((1, 0, 0), (0, -1, 0), (0, 0, -1)))
        assert h == (1, 0, 0)
        assert t == ((6, 0), (0, 6))

    def test_three_cycle(self):
        f = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        h, t = polarization(DIAG6, f)
        assert h == (1, 1, 1)
        assert DIAG6.norm(h) == 18
        assert t == ((12, 6), (6, 12))

    def test_not_good_rejected(self):
        ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
        with pytest.raises(ValueError):
            polarization(DIAG6, ident)
        neg = tuple(tuple(-int(i == j) for j in range(3)) for i in range(3))
        with pytest.raises(ValueError):
            polarization(DIAG6, neg)
        with pytest.raises(ValueError):
            fixed_line_and_complement(DIAG6.gram, ident)
        with pytest.raises(ValueError):
            fixed_line_and_complement(DIAG6.gram, neg)

    @pytest.mark.parametrize("source", ["builtin", "seeded"])
    def test_axis_path_matches_kernel_path(self, source):
        # the cross product gives the kernel's h, and one complement per
        # axis gives the T rows and Gram of the per-isometry Smith forms
        if source == "builtin":
            grams = [n for g in builtin_dataset().groups for n in g.grams]
        else:
            grams = symmetric_grams(2700, 200)
        orders = Counter()
        for n in grams:
            for f in good_isometries(n):
                h = _fixed_line(f.matrix)
                assert (h, *_complement(n, h)) == \
                    fixed_line_by_kernel(n, f.matrix), (n.gram, f.matrix)
                orders[f.order] += 1
        assert orders == ({2: 97, 3: 20, 4: 8, 6: 10} if source == "builtin"
                          else {2: 1128, 3: 264, 4: 272, 6: 128})

    def test_matches_oracle_on_builtin_grams(self):
        # h, and T up to GL2(Z), against a null space and a Euclid kernel
        checked = 0
        for g in builtin_dataset().groups:
            for n in g.grams:
                for f in good_isometries(n):
                    h, t = polarization(n, f.matrix)
                    want_h, want_t = fixed_line_and_complement(n.gram, f.matrix)
                    assert h == want_h, (n.gram, f.matrix)
                    assert gauss_reduced(t) == want_t, (n.gram, f.matrix)
                    assert t[0][0] <= t[1][1] and t[0][1] >= 0
                    checked += 1
        assert checked > 100


def glued_divs(n, c, w, vectors):
    """div of each vector in the lattice glued along c^perp, by
    divisibility_in_glued over the c^perp Subgroup built from w."""
    image = perp_subgroup(disc_map(n).fqm, w)
    return tuple(divisibility_in_glued(n, v, image) for v in vectors)


def flag_of(n, c, t_rows):
    dm = disc_map(n)
    return k3_birational_flag(dm.den, dm.lift(c), t_rows)


class TestBirationalFlag:
    # on real admissible classes c: each built-in Gram's D(N), the axis h
    # of a good isometry and T = h^perp
    L3_4 = Lattice(((2, 0, 0), (0, 10, 4), (0, 4, 10)))

    def test_odd_divisibilities_unknown(self):
        n = Lattice(L2_11_GRAM)
        (c, w), = admissible_images(disc_map(n).fqm)
        t_rows, _ = _complement(n, (0, 0, 1))
        assert t_rows == ((1, 0, 0), (0, 1, 0))
        assert glued_divs(n, c, w, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]) \
            == (1, 1, 1)
        assert flag_of(n, c, t_rows) == "unknown"

    def test_basis_vector_with_divisibility_two(self):
        n = Lattice(L2_11_GRAM)
        (c, w), = admissible_images(disc_map(n).fqm)
        t_rows, _ = _complement(n, (1, -2, 0))
        assert t_rows == ((1, 0, 0), (0, 0, 1))
        assert glued_divs(n, c, w, [(1, 0, 0), (0, 0, 1), (1, 0, 1)]) \
            == (1, 2, 1)
        assert flag_of(n, c, t_rows) == "excluded"

    def test_only_sum_has_divisibility_two(self):
        n = self.L3_4
        c = (1, 1, 21)
        (w,) = [w for x, w in admissible_images(disc_map(n).fqm) if x == c]
        t_rows, _ = _complement(n, (0, 1, -1))
        assert t_rows == ((1, 0, 0), (0, 1, 1))
        assert glued_divs(n, c, w, [(1, 0, 0), (0, 1, 1), (1, 1, 1)]) \
            == (1, 1, 2)
        assert flag_of(n, c, t_rows) == "excluded"

    def test_every_builtin_axis_and_class(self):
        kinds = Counter()
        for g in builtin_dataset().groups:
            for n in g.grams:
                axes = {_fixed_line(f.matrix) for f in good_isometries(n)}
                for c, w in admissible_images(disc_map(n).fqm):
                    for h in axes:
                        (t1, t2), _ = _complement(n, h)
                        divs = glued_divs(n, c, w, [
                            t1, t2, [a + b for a, b in zip(t1, t2)]])
                        assert flag_of(n, c, (t1, t2)) == (
                            "excluded" if 2 in divs else "unknown")
                        kinds[divs] += 1
        # div 2 on t1 alone, t2 alone, the sum alone, or on none
        assert kinds == {(1, 1, 1): 96, (1, 2, 1): 40, (2, 1, 1): 28,
                         (1, 1, 2): 14}


def even_ternaries(rng, count):
    """The first count even positive definite ternary Grams with det at
    most 300 drawn with diagonal in 2..12 and off-diagonal in -5..5."""
    out = []
    while len(out) < count:
        g = [[0] * 3 for _ in range(3)]
        for i in range(3):
            g[i][i] = 2 * rng.randint(1, 6)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
        if 0 < exact.bareiss_det(g) <= 300 and (
                n := Lattice(g)).is_positive_definite:
            out.append(n)
    return out


BOX = [v for v in itertools.product(range(-3, 4), repeat=3)
       if math.gcd(*v) == 1]


class TestGluedDivisibilityOracle:
    # classify reads div(v) in the glued lattice off the class c alone:
    # it must be what divisibility_in_glued computes over the c^perp
    # Subgroup, for every admissible c and every primitive v in a box, on
    # every built-in Gram with 20 seeded rebasings of it, and on a seeded
    # sample of even ternaries
    @staticmethod
    def check(n):
        dm = disc_map(n)
        checked = 0
        for c, w in admissible_images(dm.fqm):
            x = dm.lift(c)
            want = glued_divs(n, c, w, BOX)
            assert [classify_module._glued_div(dm.den, v, x)
                    for v in BOX] == list(want), (n.gram, c)
            checked += len(BOX)
        return checked

    @pytest.mark.parametrize("group", BUILTIN_GROUPS)
    def test_builtin_grams_and_rebasings(self, group):
        g = builtin_dataset().group(group)
        checked = 0
        for k, n0 in enumerate(g.grams):
            rng = random.Random(2900 + 100 * BUILTIN_GROUPS.index(group) + k)
            for n in [n0] + [Lattice(exact.conjugate_rows(
                    rand_unimodular(rng, 3), n0.gram)) for _ in range(20)]:
                checked += self.check(n)
        assert checked > 0

    def test_even_ternaries(self):
        lattices = even_ternaries(random.Random(2929), 100)
        counts = Counter(bool(self.check(n)) for n in lattices)
        assert counts[True] > 0 and counts[False] > 0


class TestClassify:
    def test_a6_row(self):
        n = Lattice(A6_GRAM)
        md = CoinvariantData(disc=coinv_disc(n, ((1, 0, 0), (0, 1, 0), (0, 0, 2))))
        rows = classify([n], md, "3^4:A_6")
        assert all(r.mode == "permissive" for r in rows)
        wanted = [r for r in rows if
                  (r.h_sq, r.h_div, r.m, r.t_gram) == (6, 2, 6, ((6, 3), (3, 6)))]
        assert len(wanted) == 1
        assert wanted[0].group_name == "3^4:A_6"
        assert wanted[0].invariant_gram == A6_GRAM

    def test_l2_11_row(self):
        n = Lattice(L2_11_GRAM)
        md = CoinvariantData(disc=coinv_disc(n, ((1, 0), (0, 2))))
        rows = classify([n], md, "L2(11)")
        assert any((r.h_sq, r.h_div, r.m, r.t_gram) == (22, 2, 2, ((2, 1), (1, 6)))
                   for r in rows)

    @pytest.mark.parametrize("mode", ["permissive", "exact"])
    def test_a_generator_that_is_no_isometry_is_refused(self, monkeypatch,
                                                        mode):
        # every kept generator is checked for f G f^T = G once: by
        # induced_map where exact mode builds its map, else before classify
        # returns.  This f fixes the line of e1, and the class c of the one
        # admissible image, but moves G
        n = Lattice(L2_11_GRAM)
        bogus = Isometry(((1, 0, 0), (0, -1, 0), (0, 0, -1)), 2)
        assert not n.is_isometry(bogus.matrix)
        real = classify_module.good_isometries
        monkeypatch.setattr(classify_module, "good_isometries",
                            lambda lat: [bogus] + real(lat))
        disc = coinv_disc(n, ((1, 0), (0, 2)))
        md = CoinvariantData(disc=disc,
                             obar=tuple(orthogonal_group(disc)[0]))
        (c, _), = admissible_images(disc_map(n).fqm)
        assert classify_module._fixes(disc_map(n), bogus.matrix,
                                      disc_map(n).lift(c))
        if mode == "permissive":
            err, match = RuntimeError, (
                r"breaks f G f\^T = G for "
                r"G = \(\(2, 1, 0\), \(1, 6, 0\), \(0, 0, 22\)\)")
        else:
            err, match = ValueError, "not an isometry of the lattice"
        with pytest.raises(err, match=match):
            classify([n], md, "L2(11)", mode)

    def test_rows_are_sorted_and_deduplicated(self):
        n = Lattice(L2_11_GRAM)
        md = CoinvariantData(disc=coinv_disc(n, ((1, 0), (0, 2))))
        rows = classify([n], md, "L2(11)")
        keys = [(r.h_sq, r.h_div, r.m, r.t_gram, r.invariant_gram) for r in rows]
        assert keys == sorted(keys)
        for i, a in enumerate(rows):
            for b in rows[i + 1:]:
                if (a.h_sq, a.h_div, a.m, a.invariant_gram) \
                        == (b.h_sq, b.h_div, b.m, b.invariant_gram):
                    assert is_isometric(Lattice(a.t_gram), Lattice(b.t_gram)) is None

    def test_no_good_isometries_means_no_rows(self):
        n = Lattice(((4, 1, 0), (1, 6, 2), (0, 2, 12)))
        md = CoinvariantData(disc=coinv_disc(Lattice(L2_11_GRAM), ((1, 0), (0, 2))))
        assert classify([n], md, "none") == []

    def test_rejects_wrong_rank(self):
        md = CoinvariantData(disc=coinv_disc(Lattice(L2_11_GRAM), ((1, 0), (0, 2))))
        with pytest.raises(ValueError):
            classify([lattice.a2()], md, "bad")

    def test_rejects_inconsistent_m_data(self):
        with pytest.raises(ValueError):
            CoinvariantData(disc=disc_map(lattice.a2()).fqm,
                            gram=lattice.span_of_square(2))

    def test_exact_mode_is_subset_of_permissive(self):
        n = Lattice(L2_11_GRAM)
        md_disc = coinv_disc(n, ((1, 0), (0, 2)))
        permissive = classify([n], CoinvariantData(disc=md_disc), "L2(11)")
        exact_rows = classify(
            [n], CoinvariantData(disc=md_disc,
                                 obar=(identity_hom(md_disc),
                                       negation_hom(md_disc))), "L2(11)",
            "exact")
        assert all(r.mode == "exact" for r in exact_rows)
        permissive_keys = {(r.h_sq, r.h_div, r.m, r.t_gram) for r in permissive}
        assert {(r.h_sq, r.h_div, r.m, r.t_gram)
                for r in exact_rows} <= permissive_keys

    def test_exact_mode_needs_obar(self):
        n = Lattice(L2_11_GRAM)
        md = CoinvariantData(disc=coinv_disc(n, ((1, 0), (0, 2))))
        with pytest.raises(ValueError, match="exact mode needs obar"):
            classify([n], md, "L2(11)", "exact")

    def test_unknown_mode_is_rejected(self):
        n = Lattice(L2_11_GRAM)
        md = CoinvariantData(disc=coinv_disc(n, ((1, 0), (0, 2))))
        with pytest.raises(ValueError, match="unknown mode"):
            classify([n], md, "L2(11)", "fast")

    def test_permissive_mode_ignores_obar(self):
        g = builtin_dataset().group("M10")
        with_obar = replace(g.coinv,
                            obar=tuple(orthogonal_group(g.disc)[0]))
        rows = classify(list(g.grams), with_obar, g.name, "permissive")
        assert rows == classify(list(g.grams), g.coinv, g.name)
        assert all(r.mode == "permissive" for r in rows)

    def test_basis_change_invariance(self):
        rng = random.Random(99)
        n = Lattice(A6_GRAM)
        md = CoinvariantData(disc=coinv_disc(n, ((1, 0, 0), (0, 1, 0), (0, 0, 2))))
        base = classify([n], md, "g")
        u = rand_unimodular(rng, 3)
        conj = Lattice(exact.conjugate_rows(u, [list(r) for r in A6_GRAM]))
        moved = classify([conj], md, "g")
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert (a.h_sq, a.h_div, a.m, a.k3_flag) \
                == (b.h_sq, b.h_div, b.m, b.k3_flag)
            assert is_isometric(Lattice(a.t_gram), Lattice(b.t_gram)) is not None

    def test_reversed_anti_embedding_order_changes_nothing(self, monkeypatch):
        # M10 has two (h^2, div, m, T) classes reached by one gluing that
        # excludes and another that does not: both must read "unknown".
        # The glue images come in reverse order
        g = builtin_dataset().group("M10")
        mds = [CoinvariantData(disc=g.disc),
               CoinvariantData(disc=g.disc,
                               obar=tuple(orthogonal_group(g.disc)[0]))]
        base = [classify(list(g.grams), md, g.name, mode)
                for md, mode in zip(mds, ("permissive", "exact"))]
        real = classify_module.k3sq_glue_images
        seen = []

        def reversed_images(a, d_n):
            images = real(a, d_n)
            seen.append(len(images))
            return images[::-1]
        monkeypatch.setattr(classify_module, "k3sq_glue_images",
                            reversed_images)
        flipped = [classify(list(g.grams), md, g.name, mode)
                   for md, mode in zip(mds, ("permissive", "exact"))]
        assert flipped == base
        # several images per D(N)
        assert all(count > 1 for count in seen)
        for rows in base:
            flags = {(r.h_sq, r.h_div, r.m, r.t_gram): r.k3_flag for r in rows}
            assert flags[(2, 1, 2, ((4, 0), (0, 30)))] == "unknown"
            assert flags[(4, 1, 2, ((2, 0), (0, 30)))] == "unknown"


def reference_extendable(n, f, gam, realized):
    """check_extendable decided afresh: the induced map built for this call,
    condition 1 on hom_image and the witness from hom_preimage."""
    fbar = induced_map(n, [list(r) for r in f.matrix])
    image = hom_image(gam)
    moved = [fbar(a) for a in gam.images]
    if any(y not in image for y in moved):
        return False, None
    witness = tuple(hom_preimage(gam, y) for y in moved)
    return realized is None or witness in realized, witness


def inverse_pairs(goods):
    """(f, f^-1) for each good isometry f of order > 2 that comes first in
    goods, the inverse found as the g with f g = 1."""
    ident = exact.identity(3)
    return [(f, g) for i, f in enumerate(goods) for g in goods[i + 1:]
            if f.order > 2 and exact.mat_mul(f.matrix, g.matrix) == ident]


def reference_flag(n, t_rows, image):
    """k3_birational_flag decided by divisibility_in_glued over the image
    subgroup, on t1, t2 and t1+t2."""
    t1, t2 = t_rows
    return "excluded" if any(
        divisibility_in_glued(n, v, image) == 2
        for v in (t1, t2, [a + b for a, b in zip(t1, t2)])) else "unknown"


def reference_classify(lattices, m_data, group_name, mode="permissive"):
    """classify as a plain per-(image, f, gamma) loop with every decision
    made afresh and a row from every good isometry: the merged rows and
    the list of (ok, witness images), logged for the isometries classify
    keeps (not the later one of each inverse pair)."""
    realized = (hom_closure_images(m_data.disc, m_data.obar)
                if mode == "exact" else None)
    decisions, groups = [], {}
    for n in lattices:
        goods = good_isometries(n)
        skipped = [g for _, g in inverse_pairs(goods)]
        d_n = disc_map(n).fqm
        for image, gams in glue_images(anti_embeddings(m_data.disc, d_n),
                                        hom_image):
            if not goods or not k3sq_glue_admissible(d_n, image):
                continue
            for f in goods:
                for gam in gams:
                    ok, witness = reference_extendable(n, f, gam, realized)
                    if f not in skipped:
                        decisions.append((ok, witness))
                    if ok or witness is None:
                        break
                if not ok:
                    continue
                h, t_rows, t_gram = fixed_line_by_kernel(n, f.matrix)
                row = ClassificationRow(
                    group_name, n.norm(h), divisibility_in_glued(n, h, image),
                    f.order, t_gram, reference_flag(n, t_rows, image),
                    n.gram, mode)
                key = (row.h_sq, row.h_div, row.m, row.invariant_gram,
                       gauss_reduced(t_gram))
                groups.setdefault(key, []).append(row)
    rows = []
    for group in groups.values():
        flags = {r.k3_flag for r in group}
        rows.append(replace(group[0], t_gram=min(r.t_gram for r in group),
                            k3_flag=flags.pop() if len(flags) == 1
                            else "unknown"))
    return sorted(rows, key=_row_key), decisions


def recording_check_extendable(monkeypatch):
    """Patch classify's check_extendable to log (ok, witness images)."""
    real, log = classify_module.check_extendable, []

    def check(fbar, gam, realized=None):
        ok, witness = real(fbar, gam, realized)
        log.append((ok, witness and witness.images))
        return ok, witness
    monkeypatch.setattr(classify_module, "check_extendable", check)
    return log


def recording_fixes(monkeypatch):
    """Patch classify's c test to log (N gram, f, lift of c, decision)."""
    real, log = classify_module._fixes, []

    def fixes(dm, f, x):
        ok = real(dm, f, x)
        log.append((dm.lattice.gram, f, x, ok))
        return ok
    monkeypatch.setattr(classify_module, "_fixes", fixes)
    return log


class TestHoistedLoop:
    @pytest.mark.parametrize("mode", ["permissive", "exact"])
    def test_matches_per_gamma_reference(self, mode, monkeypatch):
        log = recording_check_extendable(monkeypatch)
        tests = recording_fixes(monkeypatch)
        for g in builtin_dataset().groups:
            if g.disc is None:
                continue
            obar = None
            if mode == "exact":  # generates all of O(D_M)
                obar = tuple(orthogonal_group(g.disc)[0])
            md = CoinvariantData(disc=g.disc, obar=obar)
            log.clear()
            tests.clear()
            rows = classify(list(g.grams), md, g.name, mode)
            want_rows, want_decisions = reference_classify(
                list(g.grams), md, g.name, mode)
            assert rows == want_rows, g.name
            # one c test per (image, f) the reference decides, in its
            # order: f fixes c iff the reference finds condition 1, which
            # is its whole decision in permissive mode
            fixed = [ok for *_, ok in tests]
            assert fixed == [w is not None for _, w in want_decisions]
            if mode == "permissive":
                assert fixed == [ok for ok, _ in want_decisions], g.name
                assert log == [], g.name
            else:  # a witness is decided for each pair that fixes c
                assert log == [d for d in want_decisions
                               if d[1] is not None], g.name
            assert all(r.mode == mode for r in rows)

    def test_per_isometry_and_per_gamma_work_is_done_once(self, monkeypatch):
        log = recording_check_extendable(monkeypatch)
        tests = recording_fixes(monkeypatch)
        calls = Counter()
        tables_built = Counter()  # gamma value -> preimage tables built
        for name in ("induced_map", "_complement"):
            def counted(n, arg, real=getattr(classify_module, name),
                        name=name):
                calls[name, n.gram, repr(arg)] += 1
                return real(n, arg)
            monkeypatch.setattr(classify_module, name, counted)
        build = FqmHom.__dict__["preimage_table"].func

        def counted_build(gam):
            tables_built[gam] += 1
            return build(gam)
        table = cached_property(counted_build)
        table.__set_name__(FqmHom, "preimage_table")
        monkeypatch.setattr(FqmHom, "preimage_table", table)
        for g in builtin_dataset().groups:
            if g.disc is not None:
                classify(list(g.grams), g.coinv, g.name)
        per_name = Counter()
        for (name, *_), count in calls.items():
            assert count == 1, name  # once per (N, f) and per (N, axis)
            per_name[name] += count
        # one f per <f> (18 of the 106 good isometries are a kept f^-1),
        # each tested once against the class c of each image; permissive
        # mode needs nothing past the c test: no induced map, extension
        # check or preimage table
        assert len(tests) == len(set(tests)) == 129
        assert sum(ok for *_, ok in tests) == 91
        assert per_name["induced_map"] == 0
        assert log == []
        assert per_name["_complement"] == 67  # (N, axis) with a row
        assert sum(tables_built.values()) == 0

    def test_exact_mode_builds_each_induced_map_on_first_use(self,
                                                             monkeypatch):
        # exact mode builds f's map on D(N) once, and only for an f that
        # fixes the class c of some image; it checks a witness for exactly
        # the (image, f) that fix c
        log = recording_check_extendable(monkeypatch)
        tests = recording_fixes(monkeypatch)
        built = Counter()
        real = classify_module.induced_map

        def counted(n, f):
            built[n.gram, f] += 1
            return real(n, f)
        monkeypatch.setattr(classify_module, "induced_map", counted)
        for g, obar, _ in seeded_obar():
            tests.clear()
            log.clear()
            built.clear()
            classify(list(g.grams), CoinvariantData(g.disc, obar=obar),
                     g.name, "exact")
            assert len(log) == sum(ok for *_, ok in tests)
            assert set(built) == {(gram, f) for gram, f, _, ok in tests
                                  if ok}
            assert set(built.values()) <= {1}


    @pytest.mark.parametrize("mode", ["permissive", "exact"])
    def test_skipped_inverse_decides_as_its_partner(self, mode):
        # classify decides f alone for each inverse pair: f^-1 must get the
        # same decision on every admissible image, with the inverse witness
        if mode == "permissive":
            cases = [(g, None) for g in builtin_dataset().groups
                     if g.disc is not None]
        else:
            cases = [(g, obar) for g, obar, _ in seeded_obar()]
        outcomes = Counter()
        for g, obar in cases:
            realized = None if obar is None else conjugates(
                g.disc, realized_actions(g.disc, obar))
            ident = identity_hom(g.disc).images
            for n in g.grams:
                pairs = inverse_pairs(good_isometries(n))
                for _, gam in k3sq_glue_images(g.disc, disc_map(n).fqm):
                    for f, f_inv in pairs:
                        ok, w = check_extendable(induced_map(n, f.matrix),
                                                 gam, realized)
                        ok_inv, w_inv = check_extendable(
                            induced_map(n, f_inv.matrix), gam, realized)
                        assert (ok_inv, w_inv is None) == (ok, w is None)
                        if w is not None:
                            assert compose(w, w_inv).images == ident
                        outcomes[ok, w is None] += 1
        # (ok, no witness) counts; in permissive mode the 14 accepted
        # pairs are the 105 - 91 rows the skip saves.  Exact mode also
        # rejects pairs whose witnesses no realized conjugate holds
        assert outcomes == ({(True, False): 14, (False, True): 18}
                            if mode == "permissive" else
                            {(True, False): 21, (False, True): 90,
                             (False, False): 49})

    def test_good_isometries_order_only_trace_candidates(self, monkeypatch):
        # the trace gives the order, so no order is computed; a determinant
        # is taken only for an automorphism whose trace some good isometry
        # has: 260 of the 320 on the built-in Grams
        ordered, dets = [], []
        real_order, real_det = exact.multiplicative_order, exact.bareiss_det

        def counted_order(q):
            ordered.append(q)
            return real_order(q)

        def counted_det(q):
            dets.append(tuple(map(tuple, q)))
            return real_det(q)
        monkeypatch.setattr(exact, "multiplicative_order", counted_order)
        monkeypatch.setattr(exact, "bareiss_det", counted_det)
        autos = 0
        for g in builtin_dataset().groups:
            for n in g.grams:
                good_isometries(n)
                autos += len(all_automorphisms(n))
        assert autos == 320
        assert ordered == []
        assert len(dets) == 260
        assert all(sum(q[i][i] for i in range(3)) in GOOD_TRACES.values()
                   for q in dets)

    def test_permissive_mode_builds_one_gamma_per_image(self, monkeypatch):
        # listing every anti-embedding would build 832 maps here
        built = []
        real_hom = fqm_module.FqmHom

        def counted_hom(*args):
            built.append(args[0])
            return real_hom(*args)
        monkeypatch.setattr(fqm_module, "FqmHom", counted_hom)
        for g in builtin_dataset().groups:
            if g.disc is not None:
                start = len(built)
                classify(list(g.grams), g.coinv, g.name)
                # every map built is a gamma out of this group's D(M)
                assert all(src == g.disc for src in built[start:]), g.name
        assert len(built) == 19


@functools.cache
def seeded_obar():
    """(group, obar, normal) for each built-in group with shipped data and
    seeds 0-4: obar is one or two elements of O(D_M) (two on odd seeds)
    drawn by Random(2300 + seed) from isomorphisms(D_M, D_M), and normal
    says whether the subgroup it generates is normal in O(D_M), decided
    by conjugating with every automorphism."""
    out = []
    for g in builtin_dataset().groups:
        if g.disc is None:
            continue
        autos = isomorphisms(g.disc, g.disc)
        obars = []
        for seed in range(5):
            rng = random.Random(2300 + seed)
            obars.append(tuple(rng.choice(autos)
                               for _ in range(1 + seed % 2)))
        groups = [hom_closure_images(g.disc, obar) for obar in obars]
        out += [(g, obar, closed == group) for obar, group, closed in zip(
            obars, groups, conjugates_by_search(autos, groups))]
    return out


def reference_sample():
    """The seeded obar that generate non-normal subgroups, on the groups
    with |O(D_M)| <= 48 (the per-gamma reference tries up to |O(D_M)|
    gammas per image), and the first one on 3^4:A6, |O(D_M)| = 144."""
    small = [(g, obar) for g, obar, normal in seeded_obar() if not normal
             and len(isomorphisms(g.disc, g.disc)) <= 48]
    return small + [next((g, obar) for g, obar, normal in seeded_obar()
                         if g.name == "3^4:A6" and not normal)]


class TestConjugacyClosure:
    # exact mode searches one gamma per image and tests its witness
    # against the O(D_M)-conjugates of the realized group
    def test_sample_holds_non_normal_subgroups(self):
        normal = [normal for _, _, normal in seeded_obar()]
        assert (len(normal), normal.count(False)) == (45, 20)
        assert len(reference_sample()) == 11

    @pytest.mark.parametrize("index", range(11))
    def test_exact_mode_matches_per_gamma_reference(self, index):
        g, obar = reference_sample()[index]
        md = CoinvariantData(disc=g.disc, obar=obar)
        assert classify(list(g.grams), md, g.name, "exact") == \
            reference_classify(list(g.grams), md, g.name, "exact")[0]

    def test_first_witness_alone_changes_rows(self, monkeypatch):
        # without the conjugates, six of the 45 give other rows; all six
        # are in the reference sample
        def rows(g, obar):
            return classify(list(g.grams), CoinvariantData(g.disc, obar=obar),
                            g.name, "exact")
        base = [rows(g, obar) for g, obar, _ in seeded_obar()]
        monkeypatch.setattr(classify_module, "conjugates",
                            lambda m, group: group)
        changed = [(g, obar) for (g, obar, _), want
                   in zip(seeded_obar(), base) if rows(g, obar) != want]
        assert len(changed) == 6
        assert all(case in reference_sample() for case in changed)

    def test_last_gamma_onto_each_image_gives_the_same_rows(self,
                                                             monkeypatch):
        cases = [(g, CoinvariantData(disc=g.disc), "permissive")
                 for g in builtin_dataset().groups if g.disc is not None]
        cases += [(g, CoinvariantData(disc=g.disc, obar=obar), "exact")
                  for g, obar, _ in seeded_obar()]
        base = [classify(list(g.grams), md, g.name, mode)
                for g, md, mode in cases]
        real, moved = classify_module.k3sq_glue_images, []

        def last_gamma_images(a, d_n):
            out = []
            for c, gam in real(a, d_n):
                onto = [f for f in anti_embeddings(a, d_n)
                        if hom_image(f) == hom_image(gam)]
                moved.append(onto[-1] != gam)
                out.append((c, onto[-1]))
            return out
        monkeypatch.setattr(classify_module, "k3sq_glue_images",
                            last_gamma_images)
        assert [classify(list(g.grams), md, g.name, mode)
                for g, md, mode in cases] == base
        assert any(moved)


MOVES_SOME_C = {"2xL2(7)", "M10", "Q(3^2:2)", "3^2:QD16", "3^(1+4):2.2^2"}


class TestFixedClassCriterion:
    # condition 1 of check_extendable on H = c^perp is "f fixes c": for
    # every built-in Gram and 20 seeded rebasings of it, every good
    # isometry (not only one per <f>), every admissible (c, w) and every
    # anti-embedding onto c^perp from each partner form, which
    # covers every admissible image
    @pytest.mark.parametrize("group", BUILTIN_GROUPS)
    def test_fixing_c_decides_every_gamma(self, group):
        g = builtin_dataset().group(group)
        onto_of = {}  # D(N) -> {image: the anti-embeddings onto it}
        checked = Counter()
        for k, n0 in enumerate(g.grams):
            rng = random.Random(2800 + 100 * BUILTIN_GROUPS.index(group) + k)
            for n in [n0] + [Lattice(exact.conjugate_rows(
                    rand_unimodular(rng, 3), n0.gram)) for _ in range(20)]:
                dm = disc_map(n)
                if dm.fqm not in onto_of:
                    maps = [gam for a in partner_disc_candidates(n)
                            for gam in anti_embeddings(a, dm.fqm)]
                    image_of = {c: perp_subgroup(dm.fqm, w)
                                for c, w in admissible_images(dm.fqm)}
                    onto_of[dm.fqm] = {
                        c: [gam for gam in maps if hom_image(gam) == h]
                        for c, h in image_of.items()}
                goods = good_isometries(n)
                fbars = [induced_map(n, f.matrix) for f in goods]
                for c, _ in admissible_images(dm.fqm):
                    onto = onto_of[dm.fqm][c]
                    assert onto, (n.gram, c)
                    for f, fbar in zip(goods, fbars):
                        fixed = classify_module._fixes(dm, f.matrix,
                                                       dm.lift(c))
                        for gam in onto:
                            assert check_extendable(fbar, gam)[0] == fixed
                            checked[fixed] += 1
        # every group has a gluing that some good isometry extends over,
        # and five have one that some good isometry moves off c
        assert checked[True] > 0
        assert (checked[False] > 0) == (group in MOVES_SOME_C)


class TestBasisIndependence:
    # the rows of a lattice depend on its isometry class alone: rebasing
    # every shipped Gram by 20 seeded unimodular U per group leaves each
    # lattice's rows unchanged up to the printed N Gram and the class of T
    @staticmethod
    def rows_by_lattice(grams, rows):
        out = [[] for _ in grams]
        for r in rows:
            out[grams.index(r.invariant_gram)].append(
                (r.h_sq, r.h_div, r.m, gauss_reduced(r.t_gram), r.k3_flag))
        return [sorted(keys) for keys in out]

    @pytest.mark.parametrize("group", [g.name for g in builtin_dataset().groups
                                       if g.disc is not None])
    def test_rows_survive_rebasing(self, group):
        g = builtin_dataset().group(group)
        grams = [n.gram for n in g.grams]
        want = self.rows_by_lattice(grams, classify(list(g.grams), g.coinv,
                                                    g.name))
        assert all(want)
        rng = random.Random(3100 + BUILTIN_GROUPS.index(group))
        for _ in range(20):
            u = rand_unimodular(rng, 3)
            moved = [Lattice(exact.conjugate_rows(u, gram)) for gram in grams]
            rows = classify(moved, g.coinv, g.name)
            assert self.rows_by_lattice([n.gram for n in moved],
                                        rows) == want


def _random_binary_grams(rng, count):
    out = []
    while len(out) < count:
        a, c = 2 * rng.randint(1, 8), 2 * rng.randint(1, 8)
        b = rng.randint(-8, 8)
        if a * c > b * b:
            out.append(((a, b), (b, c)))
    return out


class TestGaussReduced:
    def test_reduced_and_invariant_under_basis_change(self):
        rng = random.Random(2212)
        for g in _random_binary_grams(rng, 60):
            a, b, c = gauss_reduced(g)
            assert 0 <= 2 * b <= a <= c
            assert a * c - b * b == g[0][0] * g[1][1] - g[0][1] ** 2
            u = rand_unimodular(rng, 2)
            moved = tuple(tuple(r) for r in
                          exact.conjugate_rows(u, [list(r) for r in g]))
            assert gauss_reduced(moved) == (a, b, c)

    def test_equal_keys_exactly_when_isometric(self):
        rng = random.Random(2903)
        grams = sorted(set(_random_binary_grams(rng, 120)))
        pairs = [(g, h) for g, h in itertools.combinations(grams, 2)
                 if g[0][0] * g[1][1] - g[0][1] ** 2
                 == h[0][0] * h[1][1] - h[0][1] ** 2]
        seen = set()
        for g, h in pairs:
            same = is_isometric(Lattice(g), Lattice(h)) is not None
            assert (gauss_reduced(g) == gauss_reduced(h)) == same
            seen.add(same)
        assert seen == {True, False}
