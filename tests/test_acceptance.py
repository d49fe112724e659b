"""End-to-end acceptance checks, one per shipped guarantee.

Run with -v to get one pass/fail line per criterion; each test also prints
its own summary line (visible with -s).
"""

import random
from fractions import Fraction

from k3lat import exact
from k3lat.classify import classify, good_isometries
from k3lat.dataset import builtin_dataset
from k3lat.enumeration import all_automorphisms, automorphism_group
from k3lat.fqm import anti_embeddings
from k3lat.glue import check_extendable, glue_pairs, realized_actions
from k3lat.hilb2 import minus2_wall_scan, minus10_obstruction_grams
from k3lat.lattice import Lattice, disc_map, discriminant_group, \
    induced_map, k3_square_lattice
from oracles import brute_isometries, rand_definite_even_gram, \
    rand_even_gram, rand_unimodular
from test_glue import block_diag, glued_basis, gram_of, \
    random_primitive_split, stabilizes


def _matrix_order(m, cap=12):
    n = len(m)
    p = [list(r) for r in m]
    eye = exact.identity(n)
    for k in range(1, cap + 1):
        if p == eye:
            return k
        p = exact.mat_mul(p, [list(r) for r in m])
    return None


def test_criterion_1_hyperkaehler_discriminant():
    d = discriminant_group(k3_square_lattice())
    assert d.orders == (2,)
    assert d.q_diag == (Fraction(3, 2),)
    print("criterion 1 (rank-23 lattice has disc Z/2 with q = 3/2): pass")


def test_criterion_2_degree_four_obstructions():
    assert minus10_obstruction_grams(4) == [((-2, 1), (1, 4)),
                                            ((2, 3), (3, 4))]
    scan = minus2_wall_scan(4)
    assert scan.solutions == ((Fraction(1, 2), 1, 1),)
    t, k, l = scan.solutions[0]
    assert (t, k * k, l * l) == (Fraction(1, 2), 1, 1)
    print("criterion 2 (degree-4 blocks and the unique t=1/2 wall): pass")


def test_criterion_3_good_isometries_on_every_fixture_gram():
    table = {(2, -1), (3, 0), (4, 1), (6, 2)}
    grams = [lat for g in builtin_dataset().groups for lat in g.grams]
    assert len(grams) == 25
    total = 0
    for lat in grams:
        goods = good_isometries(lat)
        expected = set()
        for q in all_automorphisms(lat):
            trace = q[0][0] + q[1][1] + q[2][2]
            order = _matrix_order(q)
            if order is not None and (order, trace) in table:
                expected.add(tuple(tuple(r) for r in q))
        assert {f.matrix for f in goods} == expected
        for f in goods:
            trace = sum(f.matrix[i][i] for i in range(3))
            assert (f.order, trace) in table
            # characteristic polynomial is x^3 - tr x^2 + tr x - 1
            assert exact.bareiss_det([list(r) for r in f.matrix]) == 1
            e2 = sum(f.matrix[i][i] * f.matrix[j][j]
                     - f.matrix[i][j] * f.matrix[j][i]
                     for i in range(3) for j in range(i + 1, 3))
            assert e2 == trace
        total += len(goods)
    print(f"criterion 3 (good isometries on 25 fixture grams, {total} "
          "found, brute-force filtered match): pass")


def test_criterion_4_pinned_classification_rows():
    ds = builtin_dataset()
    pinned = {"3^4:A_6": (6, 2, 6, ((6, 3), (3, 6))),
              "L2(11)": (22, 2, 2, ((2, 1), (1, 6)))}
    for name, want in pinned.items():
        entry = ds.group(name)
        rows = classify(list(entry.grams), entry.coinv, entry.name)
        assert rows
        assert all(r.mode == "permissive" for r in rows)
        keys = {(r.h_sq, r.h_div, r.m, r.t_gram) for r in rows}
        assert want in keys
    print("criterion 4 (pinned rows for 3^4:A_6 and L2(11)): pass")


def test_criterion_5_extension_check_matches_explicit_glue():
    rng = random.Random(91)
    checked = extended = refused = 0
    while checked < 200:
        augment = checked % 2
        k = rng.randint(1, 2 if augment else 3)
        m_lat = Lattice(rand_definite_even_gram(rng, k,
                                                spread=2 if k < 3 else 1))
        mirror = [[-x for x in row] for row in m_lat.gram]
        if augment:
            # glue into a strictly larger lattice so that both failure
            # modes (moved image, unrealizable conjugate) show up
            mirror = block_diag(mirror, [[-2 * rng.randint(1, 3)]])
        u = rand_unimodular(rng, len(mirror))
        n_lat = Lattice(exact.conjugate_rows(u, mirror))
        dn, dm = disc_map(n_lat).fqm, disc_map(m_lat).fqm
        gams = anti_embeddings(dm, dn)
        if not gams:
            continue
        gam = rng.choice(gams)
        autos_m = all_automorphisms(m_lat)
        obar = [induced_map(m_lat, [list(r) for r in q]) for q in autos_m]
        f = rng.choice(all_automorphisms(n_lat))
        pairs = [(gam(tuple(int(i == j) for j in range(dm.rank))),
                  tuple(int(i == j) for j in range(dm.rank)))
                 for i in range(dm.rank)]
        basis = glued_basis(n_lat, m_lat, pairs)
        expected = any(
            stabilizes(basis, block_diag([list(r) for r in f],
                                         [list(r) for r in g]))
            for g in autos_m)
        fbar = induced_map(n_lat, [list(r) for r in f])
        got, witness = check_extendable(fbar, gam, realized_actions(dm, obar))
        assert got == expected
        if got:
            assert witness is not None
            # permissive mode accepts everything exact mode accepts
            assert check_extendable(fbar, gam)[0]
            extended += 1
        else:
            refused += 1
        checked += 1
    assert extended and refused
    print(f"criterion 5 (extension check vs explicit glue stabilization, "
          f"200 pairs, {extended} extend / {refused} refuse): pass")


def test_criterion_6_glue_determinant_and_anti_isometry():
    rng = random.Random(17)
    done = 0
    while done < 500:
        l = Lattice(rand_even_gram(rng, rng.randint(2, 5)))
        m, c = random_primitive_split(rng, l)
        if m is None:
            continue
        n_lat, c_lat = Lattice(gram_of(l, m)), Lattice(gram_of(l, c))
        stacked = [list(r) for r in m] + [list(r) for r in c]
        index = abs(exact.bareiss_det(stacked))
        assert abs(l.det) * index * index == abs(n_lat.det * c_lat.det)
        dn, dc = disc_map(n_lat).fqm, disc_map(c_lat).fqm
        pairs = glue_pairs(l, m, c)
        for a1, b1 in pairs:
            assert (dn.q(a1) + dc.q(b1)) % 2 == 0
            for a2, b2 in pairs:
                assert (dn.b(a1, a2) + dc.b(b1, b2)) % 1 == 0
        done += 1
    print("criterion 6 (det/index identity and anti-isometric glue on 500 "
          "random splits): pass")


def criterion_7_grams():
    """The 100 seeded random Grams of rank 1 to 3 of criterion 7."""
    rng = random.Random(23)
    grams = []
    while len(grams) < 100:
        k = rng.randint(1, 3)
        g = rand_definite_even_gram(rng, k, spread=2 if k < 3 else 1)
        if max(abs(x) for row in g for x in row) <= 12:
            grams.append(g)
    return grams


def test_criterion_7_automorphism_order_matches_brute_force():
    for g in criterion_7_grams():
        lat = Lattice(g)
        brute = brute_isometries([list(r) for r in lat.gram],
                                 [list(r) for r in lat.gram])
        gens, order = automorphism_group(lat)
        assert len(all_automorphisms(lat)) == len(brute) == order
    print("criterion 7 (automorphism group order vs brute force, 100 "
          "grams): pass")


def test_criterion_8_maximal_order_arithmetic():
    # the full group order is the symplectic order times m
    assert 29160 * 6 == 174960
    assert 972 * 66 == 64152
    assert 972 * 66 < 29160 * 6
    print("criterion 8 (order bound arithmetic 6*29160 beats 66*972): pass")
