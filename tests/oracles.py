"""Independent reference implementations used to freeze expected test values.

Nothing here may import from k3lat: these are deliberately naive second
routes (minor-gcd invariant factors, box enumeration, exhaustive searches)
against which the real algorithms are checked.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def laplace_det(a):
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * laplace_det(minor)
    return total


def invariant_factors_via_minors(a):
    """d_1, ..., d_r from the gcd-of-k-minors characterization."""
    m, n = len(a), len(a[0]) if a else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[a[i][j] for j in cols] for i in rows]
                g = math.gcd(g, laplace_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def box_vectors(gram, norm, bound):
    """All v with |v_i| <= bound and v*gram*vT == norm, sorted."""
    n = len(gram)
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        s = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if s == norm and any(v):
            out.append(v)
    return sorted(out)


def box_bound_for(gram, norm):
    """A coordinate bound that provably contains every vector of the given norm.

    Diagonalize over Q; in the dual-coordinate estimate each |v_i| is at most
    sqrt(|norm| * (G^-1)_ii) for positive definite G.
    """
    n = len(gram)
    sign = 1 if gram[0][0] > 0 else -1
    g = [[Fraction(sign * x) for x in row] for row in gram]
    # rational inverse by Gauss-Jordan
    work = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    bound = 0
    for i in range(n):
        c = work[i][n + i] * abs(norm)
        r = math.isqrt(c.numerator // c.denominator) + 1
        bound = max(bound, r)
    return bound


def brute_isometries(g1, g2, bound=None):
    """All integer Q with Q * g2 * Qᵀ = g1, rows drawn from norm-matched vectors."""
    n = len(g1)
    rows_per_slot = []
    for i in range(n):
        b = bound or box_bound_for(g2, g1[i][i])
        rows_per_slot.append(box_vectors(g2, g1[i][i], b))
    found = []
    for rows in itertools.product(*rows_per_slot):
        ok = True
        for i in range(n):
            for j in range(i + 1):
                p = sum(rows[i][a] * g2[a][b] * rows[j][b]
                        for a in range(n) for b in range(n))
                if p != g1[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append([list(r) for r in rows])
    return found


def fqm_q_value(orders, q_diag, b_off, x):
    """q(x) in [0, 2) for generator data; b_off is a dict {(i,j): Fraction}."""
    r = len(orders)
    total = Fraction(0)
    for i in range(r):
        total += x[i] * x[i] * q_diag[i]
        for j in range(i + 1, r):
            total += 2 * x[i] * x[j] * b_off.get((i, j), Fraction(0))
    return total % 2


def fqm_b_value(orders, q_diag, b_off, x, y):
    """b(x, y) in [0, 1) by polarization: (q(x+y) - q(x) - q(y)) / 2."""
    s = tuple((a + b) % d for a, b, d in zip(x, y, orders))
    total = (fqm_q_value(orders, q_diag, b_off, s)
             - fqm_q_value(orders, q_diag, b_off, x)
             - fqm_q_value(orders, q_diag, b_off, y))
    return (total / 2) % 1


def glue_admissible_walk(orders, q_diag, b_off, image_elements, image_gens):
    """Some x outside the image with q(x) = 3/2 pairing to 0 with every
    image generator, found by walking the whole group on Fractions."""
    for x in itertools.product(*[range(d) for d in orders]):
        if x in image_elements:
            continue
        if fqm_q_value(orders, q_diag, b_off, x) != Fraction(3, 2):
            continue
        if all(fqm_b_value(orders, q_diag, b_off, x, g) == 0
               for g in image_gens):
            return True
    return False


def subgroup_closure(orders, gens):
    """All elements generated by gens inside prod Z/orders."""
    zero = tuple(0 for _ in orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % d for a, b, d in zip(x, g, orders))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def all_anti_embeddings(src_orders, src_q, src_b, dst_orders, dst_q, dst_b):
    """Exhaustive search over generator images; returns image tuples."""
    dst_elems = list(itertools.product(*[range(d) for d in dst_orders]))

    def dq(x):
        return fqm_q_value(dst_orders, dst_q, dst_b, x)

    def db(x, y):
        return fqm_b_value(dst_orders, dst_q, dst_b, x, y)

    def sb(i, j):
        if i == j:
            return src_q[i] % 1
        key = (min(i, j), max(i, j))
        return src_b.get(key, Fraction(0)) % 1

    r = len(src_orders)
    results = []
    for images in itertools.product(dst_elems, repeat=r):
        ok = True
        for i in range(r):
            scaled = tuple((src_orders[i] * c) % d for c, d in zip(images[i], dst_orders))
            if any(scaled):
                ok = False
                break
            if dq(images[i]) != (-src_q[i]) % 2:
                ok = False
                break
            for j in range(i):
                if db(images[i], images[j]) != (-sb(i, j)) % 1:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        # injectivity: image subgroup must have full source order
        size = len(subgroup_closure(dst_orders, list(images)))
        if size == math.prod(src_orders):
            results.append(images)
    return results


def rand_unimodular(rng, n, steps=12):
    """Random product of elementary row operations; det is +-1 by construction."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == 0 and i != j:
            c = rng.randint(-2, 2)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def rand_int_matrix(rng, rows, cols, spread=6):
    return [[rng.randint(-spread, spread) for _ in range(cols)] for _ in range(rows)]


def rand_even_gram(rng, n, spread=4):
    """Random nondegenerate even symmetric matrix (diagonal entries even)."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-spread, spread)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-spread, spread)
        if laplace_det(g) != 0:
            return g


def rand_definite_even_gram(rng, n, spread=3, sign=1):
    """Even positive (or negative) definite Gram via B*Bᵀ doubling."""
    while True:
        b = rand_int_matrix(rng, n, n, spread)
        if laplace_det(b) == 0:
            continue
        g = [[2 * sum(b[i][k] * b[j][k] for k in range(n)) * sign for j in range(n)]
             for i in range(n)]
        return g


def rand_definite_odd_gram(rng, n, spread=3):
    """Odd positive definite Gram B*Bᵀ (some diagonal entry is odd)."""
    while True:
        b = rand_int_matrix(rng, n, n, spread)
        g = [[sum(b[i][k] * b[j][k] for k in range(n)) for j in range(n)]
             for i in range(n)]
        if laplace_det(b) and any(g[i][i] % 2 for i in range(n)):
            return g


def minus10_box(h_sq, l_bound, k_bound):
    """Brute-force Gram candidates for the -10-class system, h.x sign-normalized."""
    grams = set()
    for l in range(-l_bound, l_bound + 1):
        for k in range(-k_bound, k_bound + 1):
            if k == 0:
                continue
            num_x2 = 2 * (l * l + l - 1)
            num_hx = -(2 * l + 1)
            if num_x2 % (k * k) or num_hx % k:
                continue
            if math.gcd(k, 2 * l + 1) != 1:
                continue
            x2 = num_x2 // (k * k)
            hx = abs(num_hx // k)
            if h_sq * x2 < hx * hx:
                grams.add((x2, hx))
    return sorted([[x2, hx], [hx, h_sq]] for x2, hx in grams)


def minus2_box(h_sq, l_bound, k_bound):
    """Brute-force (t, k, l) wall solutions with t in the open interval (0, 1)."""
    sols = set()
    for l in range(-l_bound, l_bound + 1):
        if l == 0:
            continue
        for k in range(-k_bound, k_bound + 1):
            if k == 0:
                continue
            if (2 * (l * l - 1)) % (k * k):
                continue
            x2 = 2 * (l * l - 1) // (k * k)
            # h.x = m integral, t = m*k/(2*l) in (0,1), Hodge: h_sq*x2 < m*m
            for m in range(-2 * abs(l) - 1, 2 * abs(l) + 2):
                if m == 0:
                    continue
                t = Fraction(m * k, 2 * l)
                if not (0 < t < 1):
                    continue
                if h_sq * x2 < m * m:
                    sols.add((t, k, l))
    return sorted(sols)
