import itertools
import math
import random
from fractions import Fraction

import pytest

from k3lat import exact, lattice
from k3lat.enumeration import all_automorphisms
from k3lat.dataset import builtin_dataset
from k3lat.fqm import (TRIVIAL, Fqm, FqmHom, Subgroup, admissible_images,
                       anti_embeddings, hom_image, hom_preimage, identity_hom,
                       is_isomorphic, isomorphisms, k3sq_glue_images, negated)
from k3lat.glue import (check_extendable, divisibility_in_glued, glue_pairs,
                        overlattice, overlattice_pairs,
                        partner_disc_candidates, realized_actions)
from k3lat.lattice import (Lattice, a2, direct_sum, disc_map, divisibility,
                           e8, induced_map, rescale, span_of_square)
from oracles import (compose, hermite_basis, index_two_glue_kernels,
                     laplace_det, negation_hom, perp_subgroup,
                     rand_definite_even_gram, rand_even_gram, rand_int_matrix,
                     subgroup_presentation)


def a2_glue():
    """The anti-embedding D(A2(-1)) -> D(A2) used in several tests."""
    n, m = a2(), a2(-1)
    gams = anti_embeddings(disc_map(m).fqm, disc_map(n).fqm)
    return n, m, gams


def gram_of(l, rows):
    """Gram matrix of the sublattice of l spanned by the basis rows."""
    return exact.conjugate_rows(rows, l.gram)


def random_primitive_split(rng, l):
    """Basis rows of a random primitive sublattice and of its complement,
    both nondegenerate."""
    n = l.rank
    for _ in range(60):
        k = rng.randint(1, n - 1)
        m = lattice.saturate(rand_int_matrix(rng, k, n, 3), n)
        if len(m) == 0 or len(m) == n:
            continue
        if laplace_det(gram_of(l, m)) == 0:
            continue
        c = lattice.orthogonal_complement(l, m)
        if len(m) + len(c) != n:
            continue
        return m, c
    return None, None


class TestOverlattice:
    def test_trivial_glue_is_direct_sum(self):
        n, m = a2(), e8()
        triv = FqmHom(TRIVIAL, disc_map(n).fqm, ())
        l = overlattice(n, m, triv)
        assert l.gram == direct_sum(n, m).gram

    def test_rank_zero_summand_gives_the_other(self):
        zero, two = Lattice(()), span_of_square(2)
        assert overlattice_pairs(zero, two, []).gram == two.gram
        assert overlattice_pairs(two, zero, []).gram == two.gram
        assert overlattice_pairs(zero, zero, []).gram == ()

    def test_a2_pair_gives_even_unimodular(self):
        n, m, gams = a2_glue()
        for gam in gams:
            l = overlattice(n, m, gam)
            assert abs(l.det) == 1
            assert l.signature == (2, 2)
            assert l.is_even
            assert disc_map(l).fqm.order == 1

    def test_rank_one_glue_gives_hyperbolic_plane(self):
        n, m = span_of_square(2), span_of_square(-2)
        gam = FqmHom(disc_map(m).fqm, disc_map(n).fqm, ((1,),))
        l = overlattice(n, m, gam)
        assert l.gram == ((0, -1), (-1, -2))
        assert (l.det, l.signature, l.is_even) == (-1, (1, 1), True)
        # explicit change of basis onto the standard hyperbolic plane
        assert exact.conjugate_rows([[1, 0], [1, -1]], [list(r) for r in l.gram]) \
            == [[0, 1], [1, 0]]

    def test_source_must_be_full_disc(self):
        n, m, gams = a2_glue()
        with pytest.raises(ValueError):
            overlattice(n, span_of_square(-6), gams[0])

    @pytest.mark.parametrize("case", [
        "wrong-source", "wrong-target", "not-form-negating", "not-injective"])
    def test_rejects_what_is_not_a_glue_map(self, case):
        n, m, gams = a2_glue()
        two = span_of_square(2)
        d2 = disc_map(two).fqm
        # a form-negating map out of a nondegenerate D(M) is injective, so
        # a non-injective one needs a degenerate source, which building
        # the module rejects
        glue, why = {
            "wrong-source": (lambda: (n, span_of_square(-2), gams[0]),
                             "source"),
            "wrong-target": (lambda: (two, m, gams[0]), "target"),
            "not-form-negating": (lambda: (two, two, identity_hom(d2)),
                                  "form-negating"),
            "not-injective": (lambda: (two, two, FqmHom(
                Fqm((2,), (Fraction(0),), ((),)), d2, ((0,),))),
                "radical has order 2"),
        }[case]
        with pytest.raises(ValueError, match=why):
            overlattice(*glue())

    def test_odd_square_rejected(self):
        # lift (1/2, 1/2) in <2> + <-6> has square -1
        with pytest.raises(ValueError, match="odd square"):
            overlattice_pairs(span_of_square(2), span_of_square(-6),
                              [((1,), (3,))])

    def test_non_integral_pairing_rejected(self):
        with pytest.raises(ValueError, match="integrally"):
            overlattice_pairs(span_of_square(2), span_of_square(-6),
                              [((1,), (1,))])


class TestGluePairsRoundTrip:
    def test_hyperbolic_split(self):
        n, m = span_of_square(2), span_of_square(-2)
        gam = FqmHom(disc_map(m).fqm, disc_map(n).fqm, ((1,),))
        l = overlattice(n, m, gam)
        # (-2, 1) and (0, 1) span the two rank-one pieces inside l
        pairs = glue_pairs(l, ((-2, 1),), ((0, 1),))
        back = overlattice_pairs(n, m, pairs)
        assert (back.det, back.signature, back.is_even) == (-1, (1, 1), True)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_split_round_trip(self, seed):
        rng = random.Random(4000 + seed)
        l = Lattice(rand_even_gram(rng, rng.randint(2, 5)))
        m, c = random_primitive_split(rng, l)
        if m is None:
            pytest.skip("no usable split found")
        n_lat = Lattice(gram_of(l, m))
        c_lat = Lattice(gram_of(l, c))
        pairs = glue_pairs(l, m, c)
        back = overlattice_pairs(n_lat, c_lat, pairs)
        assert abs(back.det) == abs(l.det)
        assert back.signature == l.signature
        assert back.is_even == l.is_even
        # determinant identity against the sum index
        stacked = [list(r) for r in m] + [list(r) for r in c]
        index = abs(exact.bareiss_det(stacked))
        assert abs(l.det) * index * index == abs(n_lat.det * c_lat.det)


class TestDivisibilityInGlued:
    def test_trivial_image_is_plain_divisibility(self):
        m = span_of_square(-2)
        img = Subgroup.generated(disc_map(m).fqm, ())
        assert divisibility_in_glued(m, (1,), img) == 2 == divisibility(m, (1,))

    def test_index_five_glue(self):
        m = span_of_square(-10)
        img = Subgroup.generated(disc_map(m).fqm, ((2,),))
        assert divisibility(m, (1,)) == 10
        assert divisibility_in_glued(m, (1,), img) == 2

    def test_index_five_glue_matches_embedded_vector(self):
        n, m = span_of_square(-10), span_of_square(10)
        pairs = [((2,), (2,))]
        l = overlattice_pairs(n, m, pairs)
        assert (l.det, l.is_even) == (-4, True)
        # express the generator of n in the glued basis and compare there
        basis = glued_basis(n, m, pairs)
        coords = exact.mat_mul([[Fraction(1), Fraction(0)]],
                               exact.rational_inverse(basis))[0]
        assert all(x.denominator == 1 for x in coords)
        assert divisibility(l, tuple(int(x) for x in coords)) == 2

    def test_plucker_polarization_divisibility(self):
        n = Lattice(((6, 3, 0), (3, 6, 0), (0, 0, 6)))
        d = disc_map(n).fqm
        assert d.orders == (3, 3, 18)
        h = Subgroup.generated(d, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))
        assert d.order // h.order == 2
        # the left-over coset carries the <-2>-type class
        assert d.q((0, 0, 9)) == Fraction(3, 2)
        assert divisibility(n, (0, 0, 1)) == 6
        assert divisibility_in_glued(n, (0, 0, 1), h) == 2

    def test_zero_vector_rejected(self):
        m = span_of_square(-2)
        img = Subgroup.generated(disc_map(m).fqm, ())
        with pytest.raises(ValueError):
            divisibility_in_glued(m, (0,), img)

    def test_foreign_image_rejected(self):
        m = span_of_square(-2)
        img = Subgroup.generated(disc_map(span_of_square(-4)).fqm, ())
        with pytest.raises(ValueError):
            divisibility_in_glued(m, (1,), img)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_ambient_divisibility(self, seed):
        rng = random.Random(7000 + seed)
        l = Lattice(rand_even_gram(rng, rng.randint(2, 4)))
        m, c = random_primitive_split(rng, l)
        if m is None:
            pytest.skip("no usable split found")
        n_lat = Lattice(gram_of(l, m))
        c_lat = Lattice(gram_of(l, c))
        pairs = glue_pairs(l, m, c)
        img = Subgroup.generated(disc_map(n_lat).fqm, [a for a, _ in pairs])
        e1 = tuple(int(j == 0) for j in range(n_lat.rank))
        assert divisibility_in_glued(n_lat, e1, img) == divisibility(l, m[0])


def glued_basis(n_lat, m_lat, pairs):
    """Fraction rows spanning the glued lattice inside N + M coordinates."""
    dn, dm = disc_map(n_lat), disc_map(m_lat)
    total = n_lat.rank + m_lat.rank
    rows = [[Fraction(int(i == j)) for j in range(total)] for i in range(total)]
    for a, b in pairs:
        rows.append([Fraction(x, dn.den) for x in dn.lift(a)]
                    + [Fraction(x, dm.den) for x in dm.lift(b)])
    denom = math.lcm(*[x.denominator for row in rows for x in row])
    scaled = [[int(x * denom) for x in row] for row in rows]
    basis = hermite_basis(scaled)
    return [[Fraction(x, denom) for x in row] for row in basis]


def stabilizes(basis, block):
    moved = exact.mat_mul([row[:] for row in basis], [list(r) for r in block])
    back = exact.mat_mul(moved, exact.rational_inverse([row[:] for row in basis]))
    return all(x.denominator == 1 for row in back for x in row)


def block_diag(f, g):
    nf, ng = len(f), len(g)
    out = [[0] * (nf + ng) for _ in range(nf + ng)]
    for i in range(nf):
        for j in range(nf):
            out[i][j] = f[i][j]
    for i in range(ng):
        for j in range(ng):
            out[nf + i][nf + j] = g[i][j]
    return out


class TestCheckExtendable:
    def test_identity_extends(self):
        n, m, gams = a2_glue()
        ok, wit = check_extendable(induced_map(n, ((1, 0), (0, 1))), gams[0])
        assert ok and wit.images == identity_hom(disc_map(m).fqm).images

    def test_negation_extends(self):
        n, m, gams = a2_glue()
        dm = disc_map(m).fqm
        fbar = induced_map(n, ((-1, 0), (0, -1)))
        ok, wit = check_extendable(fbar, gams[0])
        assert ok and wit.images == negation_hom(dm).images
        # exact mode succeeds once -1 is allowed on D(M)
        ok2, _ = check_extendable(fbar, gams[0],
                                  realized_actions(dm, [negation_hom(dm)]))
        assert ok2

    def test_exact_mode_can_refuse(self):
        n, m, gams = a2_glue()
        dm = disc_map(m).fqm
        ok, wit = check_extendable(induced_map(n, ((0, 1), (-1, 1))), gams[0],
                                   realized_actions(dm, [identity_hom(dm)]))
        assert not ok
        assert wit is not None  # condition 1 held; the witness is the obstruction
        assert wit.images == negation_hom(dm).images

    def test_moved_glue_image_fails(self):
        # swap on diag(4,4) moves the glue line <(1,0)> off itself
        n = Lattice(((4, 0), (0, 4)))
        m_disc = disc_map(span_of_square(-4)).fqm
        gam = FqmHom(m_disc, disc_map(n).fqm, ((1, 0),))
        ok, wit = check_extendable(induced_map(n, ((0, 1), (1, 0))), gam)
        assert (ok, wit) == (False, None)

    def test_fbar_must_act_on_the_glue_target(self):
        n, m, gams = a2_glue()
        other = span_of_square(4)
        with pytest.raises(ValueError, match="target of gamma"):
            check_extendable(induced_map(other, ((-1,),)), gams[0])

    def test_obar_validation(self):
        n, m, gams = a2_glue()
        dm = disc_map(m).fqm
        broken = FqmHom(dm, dm, ((0,),))
        with pytest.raises(ValueError):
            realized_actions(dm, [broken])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_explicit_extension(self, seed):
        # exact mode with the full image of O(M) must agree with a direct
        # search for a compatible g, and the pair must stabilize the glue
        rng = random.Random(5000 + seed)
        m_lat = Lattice(rand_definite_even_gram(rng, rng.randint(1, 2)))
        n_lat = rescale(m_lat, -1)
        dn, dm = disc_map(n_lat).fqm, disc_map(m_lat).fqm
        gams = anti_embeddings(dm, dn)
        assert gams
        autos_m = all_automorphisms(m_lat)
        obar = [induced_map(m_lat, [list(r) for r in q]) for q in autos_m]
        realized = realized_actions(dm, obar)
        checked_explicit = False
        for gam in gams[:2]:
            pairs = [(gam(tuple(int(i == j) for j in range(dm.rank))),
                      tuple(int(i == j) for j in range(dm.rank)))
                     for i in range(dm.rank)]
            basis = glued_basis(n_lat, m_lat, pairs)
            for f in all_automorphisms(n_lat):
                fbar = induced_map(n_lat, [list(r) for r in f])
                matches = [g for g in autos_m
                           if compose(fbar, gam).images ==
                           compose(gam, induced_map(m_lat, [list(r) for r in g])).images]
                got, _ = check_extendable(fbar, gam, realized)
                assert got == bool(matches)
                if matches:
                    # permissive mode is a superset of exact mode
                    assert check_extendable(fbar, gam)[0]
                    if not checked_explicit:
                        assert stabilizes(basis, block_diag(f, matches[0]))
                        checked_explicit = True
        assert checked_explicit


def extendable_by_preimage_scan(n, f, gam):
    """Condition 1 and the witness images via hom_image and hom_preimage."""
    fbar = induced_map(n, [list(r) for r in f])
    image = hom_image(gam)
    if any(fbar(a) not in image for a in gam.images):
        return False, None
    return True, tuple(hom_preimage(gam, fbar(a)) for a in gam.images)


class TestPreimageTable:
    @pytest.mark.parametrize("name", ["M10", "A7", "L2(11)"])
    def test_builtin_witnesses_unchanged(self, name):
        group = builtin_dataset().group(name)
        for n in group.grams:
            gams = anti_embeddings(group.disc, disc_map(n).fqm)
            for f in all_automorphisms(n)[::5]:
                for gam in gams[::3]:
                    ok, wit = check_extendable(induced_map(n, f), gam)
                    want_ok, want_images = extendable_by_preimage_scan(
                        n, f, gam)
                    assert ok == want_ok
                    assert (wit and wit.images) == want_images

    def test_non_injective_gamma_takes_first_preimage(self):
        n = Lattice(((4, 0), (0, 4)))
        src = disc_map(span_of_square(-4)).fqm
        gam = FqmHom(src, disc_map(n).fqm, ((2, 0),))  # kills 2 in Z/4
        outcomes = set()
        for f in all_automorphisms(n):
            ok, wit = check_extendable(induced_map(n, f), gam)
            assert (ok, wit and wit.images) == \
                extendable_by_preimage_scan(n, f, gam)
            outcomes.add(ok)
        assert outcomes == {True, False}


def partner_forms_by_index_two_walk(n):
    """partner_disc_candidates the old way: every admissible index-2
    subgroup of D(N), in the order of its character, presented, negated and
    kept once per isomorphism class."""
    d = disc_map(n).fqm
    b_off = {(i, j): d.b_off[i][j - i - 1]
             for i in range(d.rank) for j in range(i + 1, d.rank)}
    out = []
    for gens in index_two_glue_kernels(d.orders, d.q_diag, b_off):
        sub = Subgroup.generated(d, gens)
        neg = negated(subgroup_presentation(sub).source)
        if not any(isomorphisms(neg, seen) for seen in out):
            out.append(neg)
    return out


def assert_same_classes(got, want):
    """The same forms up to isomorphism, in the same order: equal length,
    isomorphic entry by entry, and no two entries of got isomorphic."""
    assert len(got) == len(want)
    assert all(is_isomorphic(a, b) for a, b in zip(got, want))
    assert not any(is_isomorphic(a, b)
                   for a, b in itertools.combinations(got, 2))


class TestPartnerDiscCandidates:
    # the overlattice forms against the presented subgroups; the two
    # routes present a class on different generators, so the lists are
    # compared up to isomorphism

    def test_builtin_grams_match_index_two_walk(self):
        for g in builtin_dataset().groups:
            for n in g.grams:
                assert_same_classes(partner_disc_candidates(n),
                                    partner_forms_by_index_two_walk(n))

    def test_random_grams_match_index_two_walk(self):
        rng = random.Random(8080)
        found = 0
        for _ in range(200):
            n = Lattice(rand_definite_even_gram(rng, 3, spread=3))
            got = partner_disc_candidates(n)
            assert_same_classes(got, partner_forms_by_index_two_walk(n))
            found += bool(got)
        assert found > 100  # most of them have an admissible image

    def test_disc_map_cache_keeps_only_the_asked_lattices(self):
        # D(N~_c) is read past the cache: one call per built-in Gram
        # leaves its 25 N and <2> cached, not the 43 N~_c besides
        grams = [n for g in builtin_dataset().groups for n in g.grams]
        disc_map.cache_clear()
        for n in grams:
            partner_disc_candidates(n)
        assert len(set(grams)) == 25
        assert disc_map.cache_info().currsize == 26


class TestCoinvariantRepresentative:
    def test_overlattice_partner_glues_to_the_k3_square_lattice(self):
        # M' = N~_c(-1) + E8(-1)^2 for every admissible image c^perp of
        # every built-in Gram: negative definite of rank 20, with the
        # presented partner form (c^perp, -q), and glued to N along c^perp
        # into an even lattice with the K3^[2] lattice's |det| and signature
        two = Lattice(((2,),))
        checked = 0
        for g in builtin_dataset().groups:
            for n in g.grams:
                d_n = disc_map(n).fqm
                for c, w in admissible_images(d_n):
                    image = perp_subgroup(d_n, w)
                    n_c = overlattice_pairs(n, two, [(c, (1,))])
                    m = direct_sum(rescale(n_c, -1), e8(-1), e8(-1))
                    assert m.signature == (0, 20)
                    d_m = disc_map(m).fqm
                    assert is_isomorphic(
                        d_m, negated(subgroup_presentation(image).source))
                    gam = dict(k3sq_glue_images(d_m, d_n))[c]
                    assert hom_image(gam) == image
                    glued = overlattice(n, m, gam)
                    assert glued.is_even and abs(glued.det) == 2
                    assert glued.signature == (3, 20)
                    checked += 1
        assert checked == 43
