import ast
import collections
import itertools
import dataclasses
import math
import functools
import pathlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from k3lat import classify as classify_module
from k3lat import fqm
from k3lat.cli import run_table
from k3lat.dataset import builtin_dataset
from k3lat.fqm import (TRIVIAL, Fqm, FqmHom, Subgroup, admissible_images,
                       anti_embeddings, conjugates, hom_closure_images,
                       hom_image, hom_preimage, identity_hom, in_perp,
                       is_isomorphic, isomorphisms, k3sq_glue_admissible,
                       k3sq_glue_images, negated, orthogonal_group)
from k3lat.glue import partner_disc_candidates
from k3lat.lattice import disc_map
from oracles import (admissible_images_by_walk, all_anti_embeddings,
                     closure_from_scratch, compose, conjugates_by_search,
                     form_candidates_scan, fqm_b_value,
                     fqm_q_value, glue_admissible_scan, glue_admissible_walk,
                     glue_images, glue_images_per_row, greedy_generators,
                     negation_hom, nondegenerate_scan, perp_subgroup,
                     presented_form, radical_scan, subgroup_closure,
                     subgroup_presentation)

F = Fraction
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CHAINS = [(2,), (3,), (4,), (2, 2), (2, 4), (3, 3), (3, 6), (2, 2, 2), (3, 9)]


def fqm_data(rng):
    """(orders, q_diag, b_off) drawn on one of CHAINS, degenerate or not:
    about half the draws have a radical."""
    orders = rng.choice(CHAINS)
    # valid values on an order-d generator are c/d with c*d even
    q = tuple(F(rng.randrange(2 * d) * (1 if d % 2 == 0 else 2), d) % 2
              for d in orders)
    b = tuple(tuple(F(rng.randrange(orders[i]), orders[i])
                    for _ in range(len(orders) - i - 1))
              for i in range(len(orders)))
    return orders, q, b


def pairing_dict(b_off):
    return {(i, i + 1 + k): v
            for i, row in enumerate(b_off) for k, v in enumerate(row)}


def b_dict(m):
    return pairing_dict(m.b_off)


def built_or_rejected(orders, q, b):
    """Fqm(orders, q, b) when radical_scan finds no x != 0 in the radical;
    otherwise None, once building it has raised naming the radical's
    order."""
    radical = radical_scan(orders, q, pairing_dict(b))
    if len(radical) == 1:
        return Fqm(orders, q, b)
    with pytest.raises(ValueError,
                       match=f"degenerate: its radical has order "
                             f"{len(radical)}$"):
        Fqm(orders, q, b)
    return None


def rand_fqm(rng):
    """A random module: each degenerate draw is a rejection case, checked
    by built_or_rejected, and is drawn again from the same rng."""
    while (m := built_or_rejected(*fqm_data(rng))) is None:
        pass
    return m


def cyclic(d, q):
    return Fqm((d,), (F(q) % 2,), ((),))


def rand_element(rng, m):
    return tuple(rng.randrange(d) for d in m.orders)


def level_three_half(m):
    """The x with q(x) = 3/2, in elements() order."""
    return [x for x in m.elements() if m.q(x) == F(3, 2)]


class TestValidation:
    def test_broken_chain(self):
        with pytest.raises(ValueError):
            Fqm((2, 3), (F(1, 2), F(2, 3)), ((F(0),), ()))

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            Fqm((2,), (F(5, 2),), ((),))

    @pytest.mark.parametrize("q", [F(-1, 2), F(2), F(5, 2), F(-4)])
    def test_q_range_is_named(self, q):
        with pytest.raises(ValueError, match=r"^q values must be reduced "
                                             r"into \[0, 2\)$"):
            Fqm((2,), (q,), ((),))

    @pytest.mark.parametrize("b", [F(-1, 2), F(1), F(3, 2)])
    def test_b_range_is_named(self, b):
        with pytest.raises(ValueError, match=r"^b values must be reduced "
                                             r"into \[0, 1\)$"):
            Fqm((2, 2), (F(1, 2), F(1, 2)), ((b,), ()))

    def test_range_checks_survive_python_O(self):
        code = ("from fractions import Fraction as F\n"
                "from k3lat.fqm import Fqm\n"
                "for q, b in ((F(5, 2), F(0)), (F(-1, 2), F(0)),\n"
                "             (F(1, 2), F(1)), (F(1, 2), F(-1, 2))):\n"
                "    try:\n"
                "        Fqm((2, 2), (F(1, 2), q), ((b,), ()))\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, env=env, timeout=60)
        assert done.stdout.decode().splitlines() == \
            ["q values must be reduced into [0, 2)"] * 2 + \
            ["b values must be reduced into [0, 1)"] * 2

    def test_q_must_kill_order(self):
        with pytest.raises(ValueError):
            cyclic(3, F(1, 2))
        with pytest.raises(ValueError):
            cyclic(3, F(4, 9))  # d*q not integral, so q(k g) is ill defined

    def test_b_must_kill_order(self):
        with pytest.raises(ValueError):
            Fqm((2, 2), (F(1, 2), F(1, 2)), ((F(1, 3),), ()))

    def test_trivial_factor_rejected(self):
        with pytest.raises(ValueError):
            Fqm((1, 2), (F(0), F(1, 2)), ((F(0),), ()))

    @pytest.mark.parametrize("data, radical", [
        (((2,), (F(0),), ((),)), 2),
        (((2, 2), (F(0), F(0)), ((F(0),), ())), 4),
        (((2, 2), (F(0), F(1, 2)), ((F(0),), ())), 2),
        (((2, 4), (F(0), F(1, 2)), ((F(0),), ())), 4),
        (((2, 6), (F(0), F(1, 6)), ((F(0),), ())), 2),
        (((3, 3), (F(2, 3), F(2, 3)), ((F(1, 3),), ())), 3),
    ])
    def test_degenerate_pairing_rejected(self, data, radical):
        # the radical's order is named, as radical_scan counts it
        assert len(radical_scan(data[0], data[1], pairing_dict(data[2]))) \
            == radical
        with pytest.raises(ValueError, match=f"degenerate: its radical has "
                                             f"order {radical}$"):
            Fqm(*data)


class TestArithmetic:
    @pytest.mark.parametrize("seed", range(25))
    def test_q_matches_oracle(self, seed):
        rng = random.Random(1100 + seed)
        m = rand_fqm(rng)
        b_dict = {(i, i + 1 + k): v
                  for i, row in enumerate(m.b_off) for k, v in enumerate(row)}
        for _ in range(8):
            x = tuple(rng.randrange(d) for d in m.orders)
            assert m.q(x) == fqm_q_value(m.orders, m.q_diag, b_dict, x)
            assert m.q(m.neg(x)) == m.q(x)

    @pytest.mark.parametrize("seed", range(15))
    def test_b_is_polarization_of_q(self, seed):
        rng = random.Random(1150 + seed)
        m = rand_fqm(rng)
        for _ in range(8):
            x = tuple(rng.randrange(d) for d in m.orders)
            y = tuple(rng.randrange(d) for d in m.orders)
            lhs = (m.q(m.add(x, y)) - m.q(x) - m.q(y)) / 2
            assert m.b(x, y) == lhs % 1
            # why k3sq_glue_admissible needs no membership test: b(x, x)
            # is 1/2 when q(x) = 3/2, so such an x orthogonal to a
            # subgroup is never in it
            assert m.b(x, x) == m.q(x) % 1

    def test_element_order(self):
        m = cyclic(6, F(1, 6))
        assert m.element_order((0,)) == 1
        assert m.element_order((2,)) == 3
        assert m.element_order((3,)) == 2
        assert m.element_order((1,)) == 6

    def test_elements_enumeration(self):
        m = Fqm((2, 4), (F(1, 2), F(1, 4)), ((F(0),), ()))
        elems = list(m.elements())
        assert len(elems) == m.order == 8
        assert len(set(elems)) == 8

    def test_trivial_module(self):
        assert TRIVIAL.order == 1
        assert TRIVIAL.q(()) == 0
        assert list(TRIVIAL.elements()) == [()]


class TestIntegerForm:
    @pytest.mark.parametrize("seed", range(20))
    def test_q_and_b_on_every_element(self, seed):
        rng = random.Random(1700 + seed)
        m = rand_fqm(rng)
        e = m.orders[-1]
        bd = b_dict(m)
        elems = list(m.elements())
        for x in elems:
            want = fqm_q_value(m.orders, m.q_diag, bd, x)
            assert m._eq(x) == want * e
            assert m.q(x) == want
        for x in elems:
            for y in elems[::3]:
                want = fqm_b_value(m.orders, m.q_diag, bd, x, y)
                assert m._eb(x, y) == want * e
                assert m.b(x, y) == want

    def test_unreduced_coordinates(self):
        m = Fqm((2, 4), (F(1, 2), F(3, 4)), ((F(1, 2),), ()))
        for x in m.elements():
            shifted = (x[0] - 6, x[1] + 12)
            assert m._eq(shifted) == m._eq(x)
            assert m._eb(shifted, (1, 3)) == m._eb(x, (1, 3))

    @pytest.mark.parametrize("seed", range(10))
    def test_radical(self, seed):
        # 200 raw draws a seed: building raises exactly for those with a
        # radical (built_or_rejected), and a built module's own pairing
        # leaves no x != 0 orthogonal to every generator
        rng = random.Random(1750 + seed)
        built = 0
        for _ in range(200):
            m = built_or_rejected(*fqm_data(rng))
            if m is None:
                continue
            built += 1
            gens = [tuple(int(i == j) for j in range(m.rank))
                    for i in range(m.rank)]
            assert not [x for x in m.elements() if any(x) and
                        all(m.b(x, g) == 0 for g in gens)]
        assert 0 < built < 200

    def test_integer_data_is_built_with_the_module(self):
        # the nondegeneracy check at construction runs on it
        m = cyclic(4, F(1, 4))
        assert m.__dict__["_ints"] == (4, (1,), ((1,),))
        assert m == cyclic(4, F(1, 4)) and hash(m) == hash(cyclic(4, F(1, 4)))


def builtin_modules():
    """Every shipped D(M) and every D(N) of a shipped invariant Gram."""
    ds = builtin_dataset()
    return [g.disc for g in ds.groups if g.disc is not None] + \
        [disc_map(n).fqm for g in ds.groups for n in g.grams]


@functools.cache
def walk_modules():
    return ([rand_fqm(random.Random(2000 + seed)) for seed in range(200)]
            + [TRIVIAL, cyclic(3, F(2, 3)), cyclic(5, F(4, 5)),
               Fqm((3, 9), (F(2, 3), F(4, 9)), ((F(1, 3),), ())),
               Fqm((5, 15), (F(0), F(2, 15)), ((F(2, 5),), ()))])


class TestWalk:
    @pytest.mark.parametrize("group", ["seeded", "builtin"])
    def test_walk_is_q_in_element_order(self, group):
        modules = walk_modules() if group == "seeded" else builtin_modules()
        for m in modules:
            assert list(m._walk()) == [(x, m._eq(x)) for x in m.elements()]

    @pytest.mark.parametrize("group", ["seeded", "builtin"])
    def test_hermite_nondegeneracy_matches_scan(self, group):
        # building runs the Hermite test: it raises exactly on the data
        # the scan calls degenerate
        if group == "seeded":
            data = [fqm_data(random.Random(2000 + seed))
                    for seed in range(200)]
        else:
            data = [(m.orders, m.q_diag, m.b_off) for m in builtin_modules()]
        seen = set()
        for orders, q, b in data:
            want = nondegenerate_scan(orders, q, pairing_dict(b))
            assert (built_or_rejected(orders, q, b) is not None) == want
            seen.add(want)
        # the seeded draws are degenerate and nondegenerate alike; the
        # shipped ones are discriminant forms, all nondegenerate
        assert seen == ({True, False} if group == "seeded" else {True})

    def test_inputs_cover_trivial_and_odd_exponents(self):
        assert list(TRIVIAL._walk()) == [((), 0)]
        assert sum(m.orders[-1] % 2 for m in walk_modules() if m.rank) > 20


def form_sign_ok_by_fractions(f, sign):
    """Does f multiply q and b by sign on the generators?  Decided on
    Fractions: q and b of the images against sign times the source's
    generator values."""
    src, dst, bd = f.source, f.target, b_dict(f.target)
    for i, y in enumerate(f.images):
        if fqm_q_value(dst.orders, dst.q_diag, bd, y) != \
                (sign * src.q_diag[i]) % 2:
            return False
        for j in range(i + 1, src.rank):
            want = (sign * src.b_off[i][j - i - 1]) % 1
            if fqm_b_value(dst.orders, dst.q_diag, bd, y, f.images[j]) != want:
                return False
    return True


class TestFormChecks:
    def test_match_fraction_reference(self):
        # random maps, automorphisms and anti-embeddings; some source
        # values have no integer in the target's scale
        outcomes, unscaled = set(), 0
        for seed in range(60):
            rng = random.Random(2300 + seed)
            a, b = rand_fqm(rng), rand_fqm(rng)
            homs = [rand_hom(rng, a, b) for _ in range(6)]
            homs += isomorphisms(a, a)[:3] + anti_embeddings(a, negated(a))[:3]
            for f in homs:
                for sign, check in ((1, f.preserves_form),
                                    (-1, f.negates_form)):
                    want = form_sign_ok_by_fractions(f, sign)
                    assert check() == want
                    outcomes.add(want)
                    qs, bs = fqm._scaled_form(f.source, f.target, sign)
                    unscaled += None in qs + sum(bs, [])
        assert outcomes == {True, False} and unscaled > 0

    def test_value_without_integer_in_target_scale(self):
        # q(g) = 1/4 and b(g, h) = 1/4 have no integer at scale 2
        a = Fqm((4, 4), (F(1, 4), F(0)), ((F(1, 4),), ()))
        b = Fqm((2, 2), (F(1, 2), F(1, 2)), ((F(0),), ()))
        assert fqm._scaled_form(a, b, 1) == ([None, 0], [[], [None]])
        assert fqm._scaled_form(a, b, -1) == ([None, 0], [[], [None]])
        for images in itertools.product(b.elements(), repeat=2):
            f = FqmHom(a, b, images)
            assert not f.preserves_form() and not f.negates_form()
            assert not form_sign_ok_by_fractions(f, 1)


class TestHoms:
    def test_image_order_checked(self):
        with pytest.raises(ValueError):
            FqmHom(cyclic(2, F(1, 2)), cyclic(3, F(2, 3)), ((1,),))

    def test_call_is_additive(self):
        rng = random.Random(1200)
        for _ in range(10):
            m = rand_fqm(rng)
            f = negation_hom(m)
            x = tuple(rng.randrange(d) for d in m.orders)
            y = tuple(rng.randrange(d) for d in m.orders)
            assert f(m.add(x, y)) == m.add(f(x), f(y))

    def test_identity_and_negation(self):
        m = cyclic(3, F(2, 3))
        assert identity_hom(m)((2,)) == (2,)
        assert negation_hom(m)((2,)) == (1,)
        assert identity_hom(m).preserves_form()
        assert negation_hom(m).preserves_form()  # q is even in x

    def test_compose(self):
        m = cyclic(9, F(2, 9))
        f = FqmHom(m, m, ((2,),))
        g = FqmHom(m, m, ((4,),))
        assert compose(f, g).images == ((8,),)

    def test_preimage(self):
        m = cyclic(3, F(2, 3))
        assert hom_preimage(negation_hom(m), (1,)) == (2,)
        with pytest.raises(ValueError):
            hom_preimage(FqmHom(m, m, ((0,),)), (1,))


def rand_hom(rng, source, target):
    """A random hom: each generator goes to a random element whose order
    divides the generator's, so zero and non-injective maps come up."""
    return FqmHom(source, target, tuple(
        rng.choice([y for y in target.elements()
                    if d % target.element_order(y) == 0])
        for d in source.orders))


class TestPreimageTable:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_hom_preimage(self, seed):
        rng = random.Random(2600 + seed)
        src, tgt = rand_fqm(rng), rand_fqm(rng)
        homs = [rand_hom(rng, src, tgt), rand_hom(rng, src, src),
                FqmHom(src, tgt, (tgt.zero(),) * src.rank)]
        for f in homs:
            table = f.preimage_table
            assert set(table) == set(hom_image(f).elements())
            for y, x in table.items():
                assert x == hom_preimage(f, y)  # first x in elements()

    def test_non_injective_first_wins(self):
        m = cyclic(4, F(1, 4))
        f = FqmHom(m, m, ((2,),))  # kills 2 in Z/4
        assert f.preimage_table == {(0,): (0,), (2,): (1,)}
        zero = FqmHom(m, m, ((0,),))
        assert zero.preimage_table == {(0,): (0,)}

    def test_built_on_first_use(self):
        m = cyclic(9, F(2, 9))
        f, g = FqmHom(m, m, ((2,),)), FqmHom(m, m, ((2,),))
        assert "preimage_table" not in f.__dict__
        f((1,))
        assert "preimage_table" not in f.__dict__
        table = f.preimage_table
        assert f.__dict__["preimage_table"] is table
        assert f.preimage_table is table
        # equality and hash ignore the cached table
        assert f == g and hash(f) == hash(g)
        assert "preimage_table" not in g.__dict__


class TestSubgroup:
    @pytest.mark.parametrize("seed", range(15))
    def test_closure_matches_oracle(self, seed):
        rng = random.Random(1300 + seed)
        m = rand_fqm(rng)
        gens = [tuple(rng.randrange(d) for d in m.orders) for _ in range(2)]
        sub = Subgroup.generated(m, gens)
        want = subgroup_closure(m.orders, gens)
        assert sub.elements() == sorted(want)
        assert sub.order == len(want)
        assert all(x in sub for x in want)
        # unreduced coordinates name the same class
        assert all(tuple(c - 2 * d for c, d in zip(x, m.orders)) in sub
                   for x in want)
        outside = [x for x in m.elements() if x not in want]
        assert not any(x in sub
                       for x in rng.sample(outside, min(5, len(outside))))

    @pytest.mark.parametrize("seed", range(20))
    def test_zero_and_redundant_generators(self, seed):
        rng = random.Random(1350 + seed)
        m = rand_fqm(rng)
        g, h = rand_element(rng, m), rand_element(rng, m)
        gens = [m.zero(), g, g, m.add(g, h), h, m.scale(3, g), m.neg(h),
                m.zero()]
        rng.shuffle(gens)
        sub = Subgroup.generated(m, gens)
        assert set(sub.elements()) == subgroup_closure(m.orders, gens)
        assert sub.order == len(subgroup_closure(m.orders, [g, h]))

    def test_unreduced_generators(self):
        m = Fqm((2, 6), (F(1, 2), F(1, 6)), ((F(0),), ()))
        sub = Subgroup.generated(m, [(3, -2)])
        assert sub == Subgroup.generated(m, [(1, 4)])
        assert set(sub.elements()) == {(0, 0), (1, 4), (0, 2), (1, 0),
                                       (0, 4), (1, 2)}

    def test_equality_follows_the_subgroup(self):
        m = Fqm((2, 4), (F(1, 2), F(1, 4)), ((F(0),), ()))
        one = Subgroup.generated(m, [(0, 2)])
        other = Subgroup.generated(m, [(0, 2), (0, 0), (0, 6)])
        assert one == other and hash(one) == hash(other)
        assert one != Subgroup.generated(m, [(1, 2)])

    def test_trivial_ambient(self):
        assert Subgroup.generated(TRIVIAL, [(), ()]).elements() == [()]

    def test_hom_image(self):
        m = cyclic(9, F(2, 9))
        f = FqmHom(m, m, ((3,),))
        img = hom_image(f)
        assert img.order == 3
        assert (6,) in img and (1,) not in img

    @pytest.mark.parametrize("seed", range(20))
    def test_basis_depends_only_on_the_subgroup(self, seed):
        rng = random.Random(1450 + seed)
        m = rand_fqm(rng)
        gens = [rand_element(rng, m) for _ in range(rng.randint(0, 3))]
        sub = Subgroup.generated(m, gens)
        members = sorted(subgroup_closure(m.orders, gens))
        rng.shuffle(members)
        again = Subgroup.generated(m, members)
        presented = Subgroup.generated(m, presented_form(sub)[3])
        assert again.basis == presented.basis == sub.basis
        pivots = [row[i] for i, row in enumerate(sub.basis)]
        assert all(row[:i] == (0,) * i and d % row[i] == 0 for i, (row, d)
                   in enumerate(zip(sub.basis, m.orders)))
        assert all(0 <= row[j] < pivots[j] for i, row in enumerate(sub.basis)
                   for j in range(i + 1, m.rank))

    def test_large_module_is_never_enumerated(self):
        # 10**12 elements: only the basis can answer here
        d = 10 ** 4
        m = Fqm((d, d, d), (F(1, d),) * 3, ((F(0), F(0)), (F(0),), ()))
        sub = Subgroup.generated(m, [(2, 0, 5), (0, 4, 6)])
        assert [f.name for f in dataclasses.fields(Subgroup)] == \
            ["ambient", "basis"]
        assert sub.order == (d // 2) ** 2
        assert (4, 4, 16) in sub and (1, 0, 0) not in sub


class TestAntiEmbeddings:
    def test_two_maps_between_conjugate_cyclics(self):
        a, b = cyclic(3, F(2, 3)), cyclic(3, F(4, 3))
        maps = anti_embeddings(a, b)
        assert sorted(f.images for f in maps) == [((1,),), ((2,),)]
        for f in maps:
            assert f.negates_form() and hom_image(f).order == a.order

    def test_incompatible_orders_empty(self):
        assert anti_embeddings(cyclic(2, F(1, 2)), cyclic(3, F(2, 3))) == []

    def test_trivial_source(self):
        maps = anti_embeddings(TRIVIAL, cyclic(3, F(2, 3)))
        assert len(maps) == 1 and maps[0].images == ()

    @pytest.mark.parametrize("seed", range(12))
    def test_counts_match_oracle(self, seed):
        rng = random.Random(1400 + seed)
        a, b = rand_fqm(rng), rand_fqm(rng)
        if a.order > 32 or b.order > 32:
            a, b = cyclic(4, F(1, 4)), rand_fqm(rng)
        sb = {(i, i + 1 + k): v
              for i, row in enumerate(a.b_off) for k, v in enumerate(row)}
        expected = all_anti_embeddings(a.orders, a.q_diag, sb,
                                       b.orders, b.q_diag,
                                       {(i, i + 1 + k): v for i, row in
                                        enumerate(b.b_off) for k, v in enumerate(row)})
        got = anti_embeddings(a, b)
        assert sorted(f.images for f in got) == sorted(expected)

    def test_bound_enforced(self, monkeypatch):
        monkeypatch.setattr(fqm, "_SEARCH_BOUND", 2)
        with pytest.raises(ValueError):
            anti_embeddings(cyclic(3, F(2, 3)), cyclic(3, F(4, 3)))

    def test_bound_raises_before_the_search_starts(self, monkeypatch):
        # the search itself is lazy; the bound must not wait for next()
        monkeypatch.setattr(fqm, "_SEARCH_BOUND", 2)
        with pytest.raises(ValueError, match="search bound 2"):
            fqm._form_embeddings(cyclic(3, F(2, 3)), cyclic(3, F(4, 3)), -1)

    @pytest.mark.parametrize("seed", range(20))
    def test_form_maps_are_injective(self, seed):
        # a map multiplying q by +-1 has its kernel in the radical, which
        # is 0, so the searches need no injectivity test: every map they
        # list generates a copy of its source (subgroup_closure)
        rng = random.Random(1480 + seed)
        a, b = rand_fqm(rng), rand_fqm(rng)
        maps = (anti_embeddings(a, b) + anti_embeddings(a, negated(a))
                + isomorphisms(a, a))
        assert len(maps) >= 2 * len(isomorphisms(a, a)) > 0
        for f in maps:
            assert len(subgroup_closure(f.target.orders, f.images)) == a.order

    def test_zero_candidate_dropped_by_the_pairing(self):
        # 0 has q = 0, so it is a candidate image for both generators of
        # the hyperbolic plane mod 2; b(0, 0) = 0, not -1/2, drops it
        u = Fqm((2, 2), (F(0), F(0)), ((F(1, 2),), ()))
        assert [x for x in u.elements() if u.q(x) == 0] == [(0, 0), (0, 1),
                                                              (1, 0)]
        maps = anti_embeddings(u, u)
        assert sorted(f.images for f in maps) == [((0, 1), (1, 0)),
                                                  ((1, 0), (0, 1))]
        assert sorted(f.images for f in maps) == sorted(all_anti_embeddings(
            u.orders, u.q_diag, b_dict(u), u.orders, u.q_diag, b_dict(u)))

    def test_source_values_outside_target_scale(self):
        # -q = 2/3 is not a multiple of 1/4, so no element of Z/4 matches
        assert anti_embeddings(cyclic(3, F(4, 3)), cyclic(4, F(1, 4))) == []


class TestIsomorphisms:
    def test_self_isomorphisms_of_cyclic(self):
        m = cyclic(3, F(2, 3))
        assert sorted(f.images for f in isomorphisms(m, m)) == [((1,),), ((2,),)]

    def test_order_mismatch(self):
        assert isomorphisms(cyclic(2, F(1, 2)), cyclic(4, F(1, 4))) == []

    def test_form_mismatch(self):
        assert isomorphisms(cyclic(3, F(2, 3)), cyclic(3, F(4, 3))) == []

    @pytest.mark.parametrize("seed", range(12))
    def test_is_isomorphic_matches_listing(self, seed):
        # b runs over m itself, the form on the subgroup of m that random
        # elements generate (an isomorphic copy when they generate all of
        # m; skipped when degenerate) and random modules of any order
        rng = random.Random(1700 + seed)
        m = rand_fqm(rng)
        gens = [rand_element(rng, m) for _ in range(m.rank + 1)]
        sub = Subgroup.generated(m, gens)
        presented = built_or_rejected(*presented_form(sub)[:3])
        others = [m, rand_fqm(rng), rand_fqm(rng)]
        if presented is not None:
            others.append(presented)
        for a, b in itertools.product(others, others):
            assert is_isomorphic(a, b) == bool(isomorphisms(a, b)), (a, b)
        assert is_isomorphic(m, m)
        if sub.order == m.order:
            assert is_isomorphic(m, presented)

    def test_is_isomorphic_outcomes(self):
        u = Fqm((2, 2), (F(0), F(0)), ((F(1, 2),), ()))
        assert is_isomorphic(u, u)
        assert not is_isomorphic(u, Fqm((2, 2), (F(1, 2), F(1, 2)),
                                        ((F(0),), ())))
        assert not is_isomorphic(cyclic(2, F(1, 2)), cyclic(4, F(1, 4)))
        assert not is_isomorphic(cyclic(3, F(2, 3)), cyclic(3, F(4, 3)))
        assert is_isomorphic(cyclic(5, F(2, 5)), cyclic(5, F(8, 5)))


class TestOrthogonalGroup:
    def test_order_three_module(self):
        gens, order = orthogonal_group(cyclic(3, F(2, 3)))
        assert order == 2
        assert len(gens) == 1 and gens[0].images == ((2,),)

    def test_order_two_module(self):
        gens, order = orthogonal_group(cyclic(2, F(3, 2)))
        assert order == 1 and gens == []

    def test_trivial_module(self):
        assert orthogonal_group(TRIVIAL)[1] == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_generators_regenerate_group(self, seed):
        rng = random.Random(1500 + seed)
        m = rand_fqm(rng)
        gens, order = orthogonal_group(m)
        assert len(hom_closure_images(m, gens)) == order

    @pytest.mark.parametrize("seed", range(8))
    def test_extended_closure_matches_rebuild(self, seed):
        rng = random.Random(1500 + seed)
        m = rand_fqm(rng)
        autos = isomorphisms(m, m)
        gens = [rng.choice(autos) for _ in range(3)]
        ident = identity_hom(m).images
        for k in range(1, len(gens) + 1):
            want, _ = closure_from_scratch(gens[:k], ident,
                                           lambda f, g: tuple(map(g, f)))
            assert hom_closure_images(m, gens[:k]) == want
        # g o f on image tuples, through FqmHom.__call__
        want, _ = greedy_generators([f.images for f in autos], ident,
                                    lambda f, g: tuple(map(FqmHom(m, m, g), f)))
        assert [g.images for g in orthogonal_group(m)[0]] == want


class TestConjugates:
    # conjugates against every automorphism conjugating every element, on
    # the trivial subgroup and the closures of one to three random
    # automorphisms; a random module's whole O(m) too
    def check(self, rng, m, whole=False):
        autos = isomorphisms(m, m)
        groups = [{identity_hom(m).images}]
        groups += [{f.images for f in autos}] if whole else []
        for _ in range(3):
            gens = [rng.choice(autos) for _ in range(rng.randint(1, 3))]
            groups.append(hom_closure_images(m, gens))
        got = [conjugates(m, group) for group in groups]
        assert got == conjugates_by_search(autos, groups)
        return [c == group for c, group in zip(got, groups)]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_modules_match_conjugation_by_search(self, seed):
        m = rand_fqm(random.Random(1500 + seed))
        self.check(random.Random(2500 + seed), m, whole=True)

    def test_shipped_forms_match_conjugation_by_search(self):
        rng, normal = random.Random(2600), []
        for g in builtin_dataset().groups:
            if g.disc is not None:
                normal += self.check(rng, g.disc)
        assert False in normal and True in normal

    def test_whole_group_multiplies_nothing(self, monkeypatch):
        m = builtin_dataset().group("3^4:A6").disc
        real, products = fqm._image_group, []

        def counted(mod):
            ident, mul = real(mod)
            return ident, lambda f, g: products.append(1) or mul(f, g)
        monkeypatch.setattr(fqm, "_image_group", counted)
        whole = {f.images for f in isomorphisms(m, m)}
        assert len(whole) == 144
        assert conjugates(m, whole) == whole
        assert products == []


def scan_agrees(d, gens):
    """k3sq_glue_admissible against the level-set scan of the oracle."""
    got = k3sq_glue_admissible(d, Subgroup.generated(d, gens))
    assert got == glue_admissible_scan(d.orders, d.q_diag, b_dict(d), gens)
    return got


class TestGlueAdmissible:
    def test_order_two_leftover(self):
        m = cyclic(2, F(3, 2))
        assert k3sq_glue_admissible(m, Subgroup.generated(m, []))

    def test_wrong_leftover_form(self):
        m = cyclic(3, F(2, 3))
        assert not k3sq_glue_admissible(m, Subgroup.generated(m, []))

    def test_full_image_leaves_nothing(self):
        m = cyclic(2, F(3, 2))
        assert not k3sq_glue_admissible(m, Subgroup.generated(m, [(1,)]))

    def test_rank_two_split(self):
        m = Fqm((2, 2), (F(3, 2), F(1, 2)), ((F(0),), ()))
        good = Subgroup.generated(m, [(0, 1)])
        assert k3sq_glue_admissible(m, good)
        bad = Subgroup.generated(m, [(1, 0)])
        assert not k3sq_glue_admissible(m, bad)

    def test_graph_image_of_conjugate_pair(self):
        # disc of a rank-4 split with a full anti-isometry graph glue
        m = Fqm((3, 3), (F(2, 3), F(4, 3)), ((F(0),), ()))
        graph = Subgroup.generated(m, [(1, 1)])
        assert not k3sq_glue_admissible(m, graph)

    def test_ambient_mismatch(self):
        m = cyclic(2, F(3, 2))
        other = cyclic(2, F(1, 2))
        with pytest.raises(ValueError):
            k3sq_glue_admissible(m, Subgroup.generated(other, []))

    def test_matches_fraction_walk(self):
        rng = random.Random(1600)
        outcomes = set()
        odd = 0
        for _ in range(150):
            m = rand_fqm(rng)
            gens = [rand_element(rng, m) for _ in range(rng.randint(0, 2))]
            sub = Subgroup.generated(m, gens)
            want = glue_admissible_walk(m.orders, m.q_diag, b_dict(m),
                                        set(sub.elements()), gens)
            assert k3sq_glue_admissible(m, sub) == want
            assert scan_agrees(m, gens) == want
            outcomes.add(want)
            odd += m.orders[-1] % 2
        assert outcomes == {True, False} and odd > 0

    def test_image_must_have_index_two(self):
        # a q = 3/2 class pairs integrally with the trivial image, but the
        # quotient has order 4 or 8, not 2
        for m in (Fqm((2, 2), (F(3, 2), F(3, 2)), ((F(0),), ())),
                  Fqm((2, 4), (F(3, 2), F(1, 4)), ((F(0),), ()))):
            assert m.q((1, 0)) == F(3, 2)
            assert not k3sq_glue_admissible(m, Subgroup.generated(m, []))
        m = Fqm((2, 2), (F(3, 2), F(3, 2)), ((F(0),), ()))
        assert k3sq_glue_admissible(m, Subgroup.generated(m, [(0, 1)]))

    def test_odd_exponent_has_no_three_half_level(self):
        m = Fqm((3, 9), (F(2, 3), F(2, 9)), ((F(1, 3),), ()))
        assert 3 * m._ints[0] % 2 == 1
        assert admissible_images(m) == []
        assert not k3sq_glue_admissible(m, Subgroup.generated(m, []))


class TestSubgroupPresentation:
    def test_cyclic_subgroup(self):
        d = Fqm((2, 4), (F(1, 2), F(1, 4)), ((F(0),), ()))
        inc = subgroup_presentation(Subgroup.generated(d, ((1, 2),)))
        assert inc.source.orders == (2,)
        assert inc.source.q_diag == (F(3, 2),)
        assert inc.images == ((1, 2),)
        assert inc.preserves_form()
        # 2Z/4 carries q = 1 and b = 0: presented, but no module
        sub = Subgroup.generated(cyclic(4, F(1, 4)), ((2,),))
        assert presented_form(sub) == ((2,), (F(1),), ((),), ((2,),))
        with pytest.raises(ValueError, match="radical has order 2"):
            subgroup_presentation(sub)

    def test_trivial_subgroup(self):
        d = cyclic(4, F(1, 4))
        inc = subgroup_presentation(Subgroup.generated(d, ()))
        assert inc.source == TRIVIAL
        assert inc.images == ()

    def test_full_group(self):
        d = Fqm((3, 9), (F(2, 3), F(2, 9)), ((F(0),), ()))
        inc = subgroup_presentation(Subgroup.generated(d, ((1, 0), (0, 1))))
        assert inc.source.orders == (3, 9)
        assert inc.source.order == 27

    def test_diagonal_subgroup(self):
        d = Fqm((2, 2), (F(1, 2), F(0)), ((F(1, 2),), ()))
        inc = subgroup_presentation(Subgroup.generated(d, ((1, 1),)))
        assert inc.source.orders == (2,)
        assert inc.source.q_diag == (F(3, 2),)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_subgroups(self, seed):
        rng = random.Random(8000 + seed)
        amb = rand_fqm(rng)
        gens = [tuple(rng.randrange(d) for d in amb.orders)
                for _ in range(rng.randint(1, 2))]
        sub = Subgroup.generated(amb, gens)
        o, q, b, images = presented_form(sub)
        assert math.prod(o) == sub.order
        assert all(x > 1 for x in o)
        assert all(o[i + 1] % o[i] == 0 for i in range(len(o) - 1))
        assert Subgroup.generated(amb, images).order == sub.order
        assert all(im in sub for im in images)
        # a degenerate restriction is a rejection case
        source = built_or_rejected(o, q, b)
        if source is None:
            return
        inc = FqmHom(source, amb, images)
        assert inc.preserves_form()
        # inclusion matches the ambient form on every element
        for e in inc.source.elements():
            assert inc.source.q(e) == amb.q(inc(e))


class TestFractionFreeSearch:
    def test_glue_search_makes_no_fraction(self, monkeypatch):
        group = builtin_dataset().group("S6")
        src, dst = group.disc, disc_map(group.grams[0]).fqm
        src._ints, dst._ints  # the lazily derived integer form
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        gams = anti_embeddings(src, dst)
        images = [hom_image(g) for g in gams]
        verdicts = [k3sq_glue_admissible(dst, im) for im in images]
        autos = isomorphisms(src, src)
        assert made == []
        assert len(gams) == 96 and all(verdicts)
        assert len(autos) == orthogonal_group(src)[1]


class TestGlueImages:
    def test_groups_follow_hom_image(self):
        # two anti-embeddings share an image exactly when hom_image gives
        # them the same members: checked against the subgroup_closure
        # grouping of the oracle
        for name in ("M10", "3^2:QD16", "3^(1+4):2.2^2"):
            group = builtin_dataset().group(name)
            gams = anti_embeddings(group.disc,
                                   disc_map(group.grams[0]).fqm)
            want: dict = {}
            for f in gams:
                want.setdefault(frozenset(hom_image(f).elements()),
                                []).append(f)
            got = [(frozenset(image.elements()), members)
                   for image, members in glue_images(gams, hom_image)]
            assert got == list(want.items())


def admissible_images_by_listing(d_m, d_n):
    """Every anti-embedding listed, grouped by image, then filtered."""
    return [(image, gams) for image, gams
            in glue_images(anti_embeddings(d_m, d_n), hom_image)
            if k3sq_glue_admissible(d_n, image)]


EVEN_CHAINS = [(2,), (4,), (6,), (2, 2), (2, 4), (2, 6), (4, 4), (2, 2, 2),
               (2, 2, 4)]


def rand_glue_pair(rng):
    """A random D(N) and a D(M) that is the negated form on c^perp for a
    random q = 3/2 class c with b(2c, .) = 0 (when there is one) or on a
    random subgroup of any index.  A degenerate draw of either form is a
    rejection case, checked by built_or_rejected, and is drawn again from
    the same rng."""
    d_n = None
    while d_n is None:
        orders = rng.choice(EVEN_CHAINS)
        q = tuple(F(rng.randrange(2 * d), d) for d in orders)
        b = tuple(tuple(F(rng.randrange(orders[i]), orders[i])
                        for _ in range(len(orders) - i - 1))
                  for i in range(len(orders)))
        d_n = built_or_rejected(orders, q, b)
    classes = [c for c in level_three_half(d_n)
               if all(d_n.b(d_n.scale(2, c), y) == 0 for y in d_n.elements())]
    d_m = None
    while d_m is None:
        if classes and rng.randrange(2):
            c = rng.choice(classes)
            gens = [y for y in d_n.elements() if d_n.b(y, c) == 0]
        else:
            gens = [rand_element(rng, d_n) for _ in range(rng.randint(0, 3))]
        sub = Subgroup.generated(d_n, gens)
        d_m = built_or_rejected(*presented_form(sub)[:3])
    return negated(d_m), d_n


class TestK3sqGlueImages:
    def check_against_listing(self, d_m, d_n):
        # one gamma per image, the first one listed; the listed maps onto
        # that image are exactly the gamma o a for a in O(D_M), each once
        want = admissible_images_by_listing(d_m, d_n)
        first = k3sq_glue_images(d_m, d_n)
        assert [hom_image(gam) for _, gam in first] == [
            image for image, _ in want]
        assert [gam for _, gam in first] == [gams[0] for _, gams in want]
        # each gamma comes with the class c whose c^perp it lands on
        class_of = {perp_subgroup(d_n, w): c
                    for c, w in admissible_images(d_n)}
        assert [c for c, _ in first] == [class_of[image] for image, _ in want]
        autos = isomorphisms(d_m, d_m)
        for (_, gam), (_, gams) in zip(first, want):
            torsor = [compose(gam, a).images for a in autos]
            assert len(set(torsor)) == len(torsor) == len(gams)
            assert sorted(torsor) == sorted(f.images for f in gams)
        return len(want)

    def test_builtin_groups_match_listing(self):
        # groups without shipped data are checked with each partner form
        # that partner_disc_candidates leaves for them
        found = 0
        for g in builtin_dataset().groups:
            for n in g.grams:
                d_n = disc_map(n).fqm
                forms = ([g.disc] if g.disc is not None
                         else partner_disc_candidates(n))
                for d_m in forms:
                    found += self.check_against_listing(d_m, d_n) > 0
        assert found > 0

    @pytest.mark.parametrize("seed", range(40))
    def test_random_pairs_match_listing(self, seed):
        rng = random.Random(1700 + seed)
        d_m, d_n = rand_glue_pair(rng)
        self.check_against_listing(d_m, d_n)

    def test_random_pairs_cover_every_case(self):
        cases = set()
        for seed in range(40):
            d_m, d_n = rand_glue_pair(random.Random(1700 + seed))
            images = k3sq_glue_images(d_m, d_n)
            onto = collections.Counter(hom_image(f) for f
                                       in anti_embeddings(d_m, d_n))
            cases.add((2 * d_m.order == d_n.order, len(images) > 0,
                       max((onto[hom_image(gam)] for _, gam in images),
                           default=0) > 1))
        assert {(False, False, False), (True, False, False),
                (True, True, False), (True, True, True)} <= cases

    def test_wrong_order_has_no_image(self):
        d_n = Fqm((2, 2), (F(3, 2), F(3, 2)), ((F(0),), ()))
        assert k3sq_glue_images(TRIVIAL, d_n) == []
        assert k3sq_glue_images(d_n, d_n) == []


@functools.cache
def glue_pairs():
    """(D(M), D(N)) for every built-in Gram with each form its group ships
    or partner_disc_candidates leaves for it, then 600 seeded
    rand_glue_pair pairs."""
    pairs = []
    for g in builtin_dataset().groups:
        for n in g.grams:
            forms = ([g.disc] if g.disc is not None
                     else partner_disc_candidates(n))
            pairs += [(d_m, disc_map(n).fqm) for d_m in forms]
    return pairs + [rand_glue_pair(random.Random(2400 + seed))
                    for seed in range(600)]


def searches_by_scan(a, b, sign):
    """_form_embeddings on candidates picked by the Fraction scan."""
    cands = form_candidates_scan(a.orders, a.q_diag, b.orders, b.q_diag,
                                 b_dict(b), sign)
    return list(fqm._form_embeddings(a, b, sign, cands))


class TestSharedGlueScan:
    # one D(N) scan per glue search must give what one scan per admissible
    # row gave, image for image and map for map
    @pytest.mark.parametrize("part", range(4))
    def test_glue_images_match_one_search_per_row(self, part):
        pairs = glue_pairs()
        kinds = set()
        for d_m, d_n in pairs[part::4]:
            rows = admissible_images(d_n)
            found = k3sq_glue_images(d_m, d_n)
            got = [(c, gam.images) for c, gam in found]
            assert got == glue_images_per_row(
                d_m.orders, d_m.q_diag, b_dict(d_m), d_n.orders,
                d_n.q_diag, b_dict(d_n), rows)
            kinds.add(bool(got))
        assert kinds == {True, False}

    @pytest.mark.parametrize("part", range(4))
    def test_searches_match_the_fraction_scan(self, part):
        for d_m, d_n in glue_pairs()[part::4]:
            assert anti_embeddings(d_m, d_n) == searches_by_scan(d_m, d_n, -1)
            for a, b in ((d_m, d_m), (d_n, d_n), (d_m, negated(d_m))):
                want = searches_by_scan(a, b, 1)
                assert isomorphisms(a, b) == want
                assert is_isomorphic(a, b) == bool(want)
            gens, count = orthogonal_group(d_m)
            autos = searches_by_scan(d_m, d_m, 1)
            assert count == len(autos)
            assert hom_closure_images(d_m, gens) == {f.images for f in autos}


class TestGlueImage:
    def test_random_modules_match_perp_listing(self):
        # c^perp listed element by element
        checked = 0
        for seed in range(40):
            _, d = rand_glue_pair(random.Random(1700 + seed))
            e = d._ints[0]
            for c in level_three_half(d):
                w = d._pair_row(c)
                if any(2 * x % e for x in w):
                    continue  # the character of c has order above 2
                perp = [x for x in d.elements() if d._eb(x, c) == 0]
                assert (c, w) in admissible_images(d)
                assert perp == [x for x in d.elements() if in_perp(d, x, w)]
                assert Subgroup.generated(d, perp) == perp_subgroup(d, w)
                checked += 1
        assert checked > 20

    def test_builtin_images_are_glue_images(self):
        # an admissible gamma lands in c^perp for exactly one row w
        checked = 0
        for g in builtin_dataset().groups:
            if g.disc is None:
                continue
            for n in g.grams:
                d_n = disc_map(n).fqm
                e, pairs = d_n._ints[0], admissible_images(d_n)
                for gam in anti_embeddings(g.disc, d_n):
                    image = hom_image(gam)
                    if not scan_agrees(d_n, gam.images):
                        continue
                    (w,) = [w for _, w in pairs if not any(
                        sum(a * b for a, b in zip(y, w)) % e
                        for y in gam.images)]
                    assert image == perp_subgroup(d_n, w)
                    checked += 1
        assert checked == 832


def character_rows(d):
    """(c, w) for the pairing rows w of the order-2 characters b(c, .) over
    the c with q(c) = 3/2, each w once with the first c that has it, in
    the order of those c."""
    e = d._ints[0]
    first = {}
    for c in level_three_half(d):
        first.setdefault(d._pair_row(c), c)
    return [(c, w) for w, c in first.items()
            if not any(2 * x % e for x in w)]


class TestAdmissibleImages:
    def test_scan_oracle_on_glue_pair_modules(self):
        # every subgroup on at most two generators, and every x^perp
        outcomes = set()
        for seed in range(40):
            _, d = rand_glue_pair(random.Random(1700 + seed))
            elems = list(d.elements())
            gen_lists = [[x, y] for x, y in itertools.combinations(elems, 2)]
            gen_lists += [[y for y in elems if d._eb(x, y) == 0]
                          for x in elems]
            for gens in gen_lists:
                outcomes.add(scan_agrees(d, gens))
        assert outcomes == {True, False}

    def test_rows_are_the_character_rows(self):
        modules = [rand_glue_pair(random.Random(1700 + seed))[1]
                   for seed in range(40)]
        modules += [disc_map(n).fqm for g in builtin_dataset().groups
                    for n in g.grams]
        found = 0
        for d in modules:
            rows = admissible_images(d)
            assert rows == character_rows(d)
            # c^perp has index 2 and leaves c out: b(c, .) is a nonzero
            # character of order 2, as b has no radical
            for c, w in rows:
                perp = perp_subgroup(d, w)
                assert 2 * perp.order == d.order and c not in perp
            found += bool(rows)
        assert found > 40

    def test_two_torsion_scan_matches_the_walk(self):
        # the seeded random and glue-pair corpora, every built-in D(N),
        # odd-exponent modules and the rank-0 module
        modules = [rand_fqm(random.Random(2800 + seed)) for seed in range(80)]
        modules += [m for seed in range(40)
                    for m in rand_glue_pair(random.Random(1700 + seed))]
        modules += [disc_map(n).fqm for g in builtin_dataset().groups
                    for n in g.grams]
        odd = [cyclic(3, F(2, 3)), cyclic(9, F(4, 9)),
               Fqm((3, 3), (F(2, 3), F(2, 3)), ((F(0),), ())),
               Fqm((3, 9), (F(2, 3), F(2, 9)), ((F(1, 3),), ()))]
        modules += odd + [TRIVIAL]
        found = collections.Counter()
        for d in modules:
            want = admissible_images_by_walk(d)
            assert admissible_images(d) == want, d
            found[bool(want)] += 1
            found["images"] += len(want)
        assert all(admissible_images(d) == [] for d in odd + [TRIVIAL])
        assert found == {True: 78, False: 112, "images": 121}

    def test_built_once_and_cached_on_the_module(self):
        d = Fqm((2, 2), (F(3, 2), F(3, 2)), ((F(0),), ()))
        assert "_admissible_images" not in d.__dict__
        first = admissible_images(d)
        assert d.__dict__["_admissible_images"] is first
        assert admissible_images(d) is first
        assert first == [((0, 1), (0, 1)), ((1, 0), (1, 0))]


class TestScanCounters:
    def test_table_walks_each_module_once_per_scan(self, monkeypatch):
        # the admissible scan walks nothing: it evaluates q on the at most
        # 2^rank classes of the 2-torsion.  The anti-embedding candidate
        # scan walks D(N) once, and no scan lists a pairing row per
        # element: the only rows are the backtrack's and one per admissible
        # image.  Fresh D(N) objects, so nothing is cached
        disc_map.cache_clear()
        calls, q_reads = collections.Counter(), collections.Counter()
        read = set()  # ids of the modules whose q or b is read
        for name in ("_eq", "_pair_row"):
            def spy(self, x, real=getattr(Fqm, name), name=name):
                caller = sys._getframe(1)  # the function, not its <listcomp>
                while caller.f_code.co_name.startswith("<"):
                    caller = caller.f_back
                calls[name, caller.f_code.co_name] += 1
                read.add(id(self))
                if name == "_eq":
                    q_reads[id(self)] += 1
                return real(self, x)
            monkeypatch.setattr(Fqm, name, spy)
        walked = []
        real_walk = Fqm._walk

        def walk(self):
            walked.append(self)
            return real_walk(self)
        monkeypatch.setattr(Fqm, "_walk", walk)
        glue_calls = []
        real_images = classify_module.k3sq_glue_images

        def images(a, d_n):
            glue_calls.append((a, d_n))
            return real_images(a, d_n)
        monkeypatch.setattr(classify_module, "k3sq_glue_images", images)
        run_table(builtin_dataset())
        scanned = {id(d_n): d_n for a, d_n in glue_calls
                   if 2 * a.order == d_n.order}
        candidate_scans = collections.Counter(
            id(d_n) for a, d_n in glue_calls
            if 2 * a.order == d_n.order and admissible_images(d_n))
        assert collections.Counter(map(id, walked)) == candidate_scans
        assert sum(candidate_scans.values()) == 14
        # deciding extension reads no module: the c test is lattice
        # arithmetic, and only the scanned modules have q or b read
        assert read <= set(scanned)
        # q is read once per 2-torsion class of each scanned module: at
        # most 2^rank, 70 over the pass
        assert q_reads == {key: 2 ** sum(d % 2 == 0 for d in d_n.orders)
                           for key, d_n in scanned.items()}
        assert all(q_reads[key] <= 2 ** d_n.rank
                   for key, d_n in scanned.items())
        assert calls["_eq", "_admissible_images"] == 70
        assert set(calls) <= {("_pair_row", "extend"),
                              ("_eq", "_admissible_images"),
                              ("_pair_row", "_admissible_images")}
        assert calls["_pair_row", "_admissible_images"] == sum(
            len(admissible_images(d_n)) for d_n in scanned.values())

    def test_backtrack_computes_each_row_once_per_search(self, monkeypatch):
        # a y that one search picks on several branches pays one pairing
        # row; each search is tagged while it runs, as the maps come lazily
        tags, running = itertools.count(), []
        found = collections.defaultdict(list)
        real_search = fqm._form_embeddings

        def search(*args):
            maps, tag = real_search(*args), next(tags)

            def run():
                while True:
                    running.append(tag)
                    try:
                        hom = next(maps)
                    except StopIteration:
                        return
                    finally:
                        running.pop()
                    found[tag].append(hom.images)
                    yield hom
            return run()
        monkeypatch.setattr(fqm, "_form_embeddings", search)
        rows = collections.Counter()
        real_row = Fqm._pair_row

        def pair_row(self, y):
            if sys._getframe(1).f_code.co_name == "extend":
                rows[running[-1], y] += 1
            return real_row(self, y)
        monkeypatch.setattr(Fqm, "_pair_row", pair_row)
        for g in builtin_dataset().groups:
            if g.disc is not None:
                for n in g.grams:
                    anti_embeddings(g.disc, disc_map(n).fqm)
        assert rows and max(rows.values()) == 1
        # some y is picked after two different prefixes in one search
        branches = {(tag, ims[:i + 1]) for tag, maps in found.items()
                    for ims in maps for i in range(len(ims))}
        picks = collections.Counter((tag, p[-1]) for tag, p in branches)
        assert max(picks.values()) > 1


class TestBuiltinCounts:
    # anti-embeddings of each group's D(M) into D(N), one count per
    # invariant Gram; 832 in all
    ANTI_EMBEDDINGS = {
        "L2(11)": [24, 24], "L3(4)": [24, 24], "A7": [8, 8, 8, 8],
        "S6": [96], "M10": [16, 16], "(3xA5):2": [48, 48],
        "3^2:QD16": [48], "3^(1+4):2.2^2": [288], "3^4:A6": [144],
    }
    # orders of the partner_disc_candidates forms, one list per Gram
    PARTNER_ORDERS = {
        "L2(11)": [[121], [121]], "L3(4)": [[84], [84]],
        "A7": [[105]] * 4, "2^3:L2(7)": [[112, 112]],
        "2xL2(7)": [[196, 196]] * 2, "2:A6": [[96, 96]] * 2,
        "2^4:S5": [[160, 160]] * 2, "S6": [[180]], "M10": [[120]] * 2,
        "(3xA5):2": [[225]] * 2, "Q(3^2:2)": [[192, 192]],
        "2^4:(S3xS3)": [[288, 288]], "3^2:QD16": [[216]],
        "3^(1+4):2.2^2": [[108]], "3^4:A6": [[81]],
    }

    def test_anti_embedding_counts(self):
        got = {g.name: [len(anti_embeddings(g.disc, disc_map(n).fqm))
                        for n in g.grams]
               for g in builtin_dataset().groups if g.disc is not None}
        assert got == self.ANTI_EMBEDDINGS
        assert sum(map(sum, got.values())) == 832

    def test_partner_candidate_orders(self):
        got = {g.name: [[c.order for c in partner_disc_candidates(n)]
                        for n in g.grams]
               for g in builtin_dataset().groups}
        assert got == self.PARTNER_ORDERS


@pytest.mark.parametrize("path", sorted(
    pathlib.Path(fqm.__file__).parent.glob("*.py")),
    ids=lambda p: f"k3lat.{p.stem}")
def test_invariants_survive_optimization(path):
    # python -O strips assert statements; invariants must raise instead
    tree = ast.parse(path.read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(
    pathlib.Path(fqm.__file__).parent.glob("*.py")),
    ids=lambda p: f"k3lat.{p.stem}")
def test_no_unused_imports(path):
    # an import marked "# noqa: F401" is a deliberate re-export
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__" or \
                any("# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    assert not unused


ROOT = pathlib.Path(fqm.__file__).resolve().parents[2]


def referenced_names(tree):
    """Every name a tree reads: bare names, attributes, imported names and
    string constants (the benchmark lists traced functions by name)."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


@functools.cache
def references_in_repo():
    total = collections.Counter()
    for d in ("src", "tests", "perfbench"):
        for f in (ROOT / d).rglob("*.py"):
            total += referenced_names(ast.parse(f.read_text()))
    return total


@pytest.mark.parametrize("path", sorted(
    pathlib.Path(fqm.__file__).parent.glob("*.py")),
    ids=lambda p: f"k3lat.{p.stem}")
def test_no_unreferenced_module_names(path):
    # a module-level function, class or assignment that nothing in src,
    # tests or perfbench reads, other than its own definition, is dead
    everywhere = references_in_repo()
    unreferenced = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        own = referenced_names(node)
        unreferenced += [t.id for t in targets if isinstance(t, ast.Name)
                         and everywhere[t.id] <= own[t.id]]
    assert unreferenced == []
