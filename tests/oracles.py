"""Independent reference implementations used to freeze expected test values.

Nothing here may compute with k3lat: these are deliberately naive second
routes (minor-gcd invariant factors, box enumeration, exhaustive searches)
against which the real algorithms are checked.  The k3lat names are the
Fqm and FqmHom containers, which compose, negation_hom and
subgroup_presentation build for tests, and exact's Smith form and kernels,
which subgroup_presentation calls: it is the second route to a glue
partner's form, a subgroup of D(N) presented on invariant-factor
generators of its own, against which the rank-4 overlattice route of
glue.partner_disc_candidates is checked.  Four references stand in for
code that left the package: vector_with_by_parametrisation, the general
binary-quadratic solver hilb2.vector_with replaced; parse_table, the
reader that round-trips the `k3lat table` schema; fixed_line_by_kernel,
classify's per-isometry fixed line and complement from two Smith-form
kernels (lattice.invariant_and_coinvariant); and admissible_images_by_walk,
the admissible scan over a whole Fqm walk, with perp_subgroup, the c^perp
Subgroup that fqm.admissible_images built before it kept (c, w) alone.
"""

from __future__ import annotations

import ast
import csv
import io
import itertools
import math
import operator
from fractions import Fraction

from k3lat import exact
from k3lat.fqm import Fqm, FqmHom, Subgroup
from k3lat.lattice import invariant_and_coinvariant


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
    inv = fraction_inverse([[sign * x for x in row] for row in gram])
    bound = 0
    for i in range(n):
        c = inv[i][i] * abs(norm)
        r = math.isqrt(c.numerator // c.denominator) + 1
        bound = max(bound, r)
    return bound


def fraction_inverse(a):
    """a^-1 by Gauss-Jordan on Fractions; raises ValueError when singular."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def congruence_signature(g):
    """(pos, neg) of a symmetric matrix by Fraction congruence
    diagonalization: a nonzero diagonal entry is swapped into the pivot
    slot, else the pivot row is added to a row it pairs with; raises
    ValueError on a degenerate matrix."""
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    signs = []
    for k in range(n):
        l = next((i for i in range(k, n) if a[i][i] != 0), None)
        if l is None:
            l = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if l is None:
                # the pivot row of the trailing block is zero: P^T G P has a
                # zero row for an invertible P
                raise ValueError("degenerate form")
            # a_kk = a_ll = 0, so adding row/col l to k makes a_kk = 2 a_kl
            a[k] = [x + y for x, y in zip(a[k], a[l])]
            for row in a:
                row[k] += row[l]
        elif l != k:
            a[k], a[l] = a[l], a[k]
            for row in a:
                row[k], row[l] = row[l], row[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
            for row in a:
                row[i] -= f * row[k]
        signs.append(a[k][k] > 0)
    return signs.count(True), signs.count(False)


def dual_class(lifts, orders, x):
    """The unique c with x - sum_a c_a lifts[a] integral, by trying every c
    (lifts are Fraction rows of the dual generators); None if there is none."""
    for c in itertools.product(*[range(d) for d in orders]):
        rest = [xi - sum(ca * lift[j] for ca, lift in zip(c, lifts))
                for j, xi in enumerate(x)]
        if all(v.denominator == 1 for v in rest):
            return c
    return None


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


def matrix_product(a, b):
    """a * b by the textbook triple loop, as a tuple of tuple rows."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def conjugate_back(q_red, u, u_inv):
    """U^-1 q U: an isometry in reduced coordinates mapped back to the
    original basis by two products."""
    return matrix_product(matrix_product(u_inv, q_red), u)


def scaled_ldl_by_fractions(gram):
    """(e, terms, w, scale) of a positive definite Gram from a rational
    Gram-Schmidt pass: e_i the least common denominator of the mu_ji
    (j > i), terms[i] the (j, e_i mu_ji) with mu_ji != 0, and w_i = scale *
    B_i / e_i^2 for scale the least common denominator of the B_i / e_i^2."""
    n = len(gram)
    b, mu = [], [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[i][k] * mu[j][k] * b[k]
                                         for k in range(j))) / b[j]
        b.append(Fraction(gram[i][i])
                 - sum(mu[i][k] ** 2 * b[k] for k in range(i)))
    e = [math.lcm(1, *(mu[j][i].denominator for j in range(i + 1, n)))
         for i in range(n)]
    terms = [[(j, int(mu[j][i] * e[i])) for j in range(i + 1, n) if mu[j][i]]
             for i in range(n)]
    ratios = [b[i] / e[i] ** 2 for i in range(n)]
    scale = math.lcm(*(r.denominator for r in ratios))
    return e, terms, [int(r * scale) for r in ratios], scale


def two_sign_walk(ldl, target):
    """Every nonzero x with sum_i w_i (e_i x_i + s_i)^2 = scale * target for
    ldl = (e, terms, w, scale), by a Fincke-Pohst walk over both signs of
    every coordinate, in the order it meets them."""
    e, terms, w, scale = ldl
    n = len(e)
    found = []
    coords = [0] * n

    def walk(i, remaining):
        s = sum(m * coords[j] for j, m in terms[i])
        if i == 0:
            t2, rem = divmod(remaining, w[0])
            t = math.isqrt(t2)
            if rem or t * t != t2:
                return
            for y in ((-t, t) if t else (0,)):
                x, off = divmod(y - s, e[0])
                if not off:
                    coords[0] = x
                    if any(coords):
                        found.append(tuple(coords))
            coords[0] = 0
            return
        t = math.isqrt(remaining // w[i])
        for x in range(-((s + t) // e[i]), (t - s) // e[i] + 1):
            y = e[i] * x + s
            coords[i] = x
            walk(i - 1, remaining - w[i] * y * y)
        coords[i] = 0

    if n:
        walk(n - 1, scale * target)
    return found


def char_poly(a):
    """Coefficients [1, c1, ..., cn] of det(xI - a), by Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [1]
    m = [list(row) for row in a]
    for k in range(1, n + 1):
        if k > 1:
            m = matrix_product(a, [[m[i][j] + (coeffs[-1] if i == j else 0)
                                    for j in range(n)] for i in range(n)])
        c, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("trace not divisible in Faddeev-LeVerrier step")
        coeffs.append(c)
    return coeffs


def matrix_order(q):
    """Smallest k > 0 with q^k = 1, by repeated products."""
    ident = tuple(tuple(int(i == j) for j in range(len(q)))
                  for i in range(len(q)))
    p, k = tuple(map(tuple, q)), 1
    while p != ident:
        p, k = matrix_product(p, q), k + 1
    return k


def closure_from_scratch(gens, ident, mul):
    """(every product of gens, the number of mul calls made), breadth first
    from ident, with no element limit."""
    seen, frontier, calls = {ident}, [ident], 0
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = mul(f, g)
                calls += 1
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen, calls


def greedy_generators(elements, ident=None, mul=matrix_product):
    """(generators, products): in the given order, each element outside the
    group the earlier ones generate, that group rebuilt from ident for
    every generator added; products counts the mul calls.  By default the
    elements are square matrices and ident is the identity matrix."""
    if ident is None:
        n = len(elements[0])
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens, closed, products = [], {ident}, 0
    for q in elements:
        if q in closed:
            continue
        gens.append(q)
        closed, calls = closure_from_scratch(gens, ident, mul)
        products += calls
    return gens, products


GOOD_ORDER_TRACE = {(2, -1), (3, 0), (4, 1), (6, 2)}


def good_isometries_unfiltered(autos):
    """(q, order) for each automorphism q whose order and trace pair as a
    good isometry's do; every order is computed."""
    out = []
    for q in autos:
        order = matrix_order(q)
        if (order, sum(q[i][i] for i in range(len(q)))) in GOOD_ORDER_TRACE:
            out.append((q, order))
    return out


def image_backtrack(target_gram, source_gram, candidates, first_only):
    """Rows q with q * target_gram * q^T = source_gram, q[i] drawn from
    candidates[i] in order, each new row's pairings summed out in full."""
    n = len(source_gram)
    found = []

    def pair(x, y):
        return sum(x[a] * target_gram[a][b] * y[b]
                   for a in range(len(x)) for b in range(len(y)))

    def walk(rows):
        i = len(rows)
        if i == n:
            found.append(tuple(rows))
            return first_only
        for cand in candidates[i]:
            if all(pair(rows[j], cand) == source_gram[i][j] for j in range(i)):
                if walk(rows + [cand]):
                    return True
        return False

    walk([])
    return found


def fixed_line_and_complement(gram, f):
    """(h, (a, b, c)) for an isometry f of a rank-3 Gram fixing exactly one
    line: h its primitive generator with first nonzero entry positive,
    (a, b, c) the Gauss-reduced form (0 <= 2b <= a <= c) of the orthogonal
    complement of h.  The line is the rational null space of f - 1, the
    complement a Euclid kernel of h * gram; ValueError unless the fixed
    space is a line."""
    n = len(gram)
    # v f = v  <=>  v (f - 1) = 0: eliminate on the columns of f - 1
    rows = [[Fraction(f[j][i] - (i == j)) for j in range(n)] for i in range(n)]
    pivots, r = [], 0
    for col in range(n):
        piv = next((i for i in range(r, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ValueError("isometry must fix exactly one line")
    v = [Fraction(0)] * n
    v[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        v[c] = -rows[i][free[0]]
    den = math.lcm(*(x.denominator for x in v))
    h = [int(x * den) for x in v]
    g = math.gcd(*h)
    h = [x // g for x in h]
    if next(x for x in h if x) < 0:
        h = [-x for x in h]
    # Euclid on the entries of c = h * gram, the column operations kept in
    # basis vectors cols[k] with c[k] = (h * gram) . cols[k]
    c = [sum(h[i] * gram[i][j] for i in range(n)) for j in range(n)]
    cols = [[int(i == j) for j in range(n)] for i in range(n)]
    while sum(1 for x in c if x) > 1:
        i = min((k for k in range(n) if c[k]), key=lambda k: abs(c[k]))
        for k in range(n):
            if k != i and c[k]:
                q = c[k] // c[i]
                c[k] -= q * c[i]
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[i])]
    t1, t2 = (cols[k] for k in range(n) if not c[k])

    def pair(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))

    a, b, cc = pair(t1, t1), pair(t1, t2), pair(t2, t2)
    while True:  # Lagrange-Gauss reduction
        b = abs(b)
        if 2 * b > a:
            k = (b + a // 2) // a
            b, cc = b - k * a, cc - 2 * k * b + k * k * a
            continue
        if a > cc:
            a, cc = cc, a
            continue
        return tuple(h), (a, b, cc)


def fixed_line_by_kernel(n, matrix):
    """(h, T basis rows, T gram) for an isometry of the rank-3 lattice n
    fixing one line, as classify built them per isometry before it built
    them per axis: h and T from two Smith-form kernels
    (invariant_and_coinvariant), h made positive in its first nonzero entry,
    T[0][0] <= T[1][1] and T[0][1] >= 0."""
    inv, coinv = invariant_and_coinvariant(n, [matrix])
    if len(inv) != 1:
        raise ValueError("isometry must fix exactly one line")
    (h,), (t1, t2) = inv, coinv
    if next(x for x in h if x) < 0:
        h = tuple(-x for x in h)
    (a, b), (_, c) = exact.conjugate_rows(coinv, n.gram)
    if a > c:
        t1, t2, a, c = t2, t1, c, a
    if b < 0:
        t2, b = tuple(-x for x in t2), -b
    return h, (t1, t2), ((a, b), (b, c))


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


def radical_scan(orders, q_diag, b_off):
    """The radical of b: every x that pairs to 0 with every generator,
    found by walking the whole group on Fractions.  b_off is a dict
    {(i,j): Fraction}."""
    rank = len(orders)

    def b_gen(i, j):
        return q_diag[i] if i == j else \
            b_off.get((min(i, j), max(i, j)), Fraction(0))

    return [x for x in itertools.product(*[range(d) for d in orders])
            if not any(sum(x[i] * b_gen(i, j) for i in range(rank)) % 1
                       for j in range(rank))]


def nondegenerate_scan(orders, q_diag, b_off):
    """No x != 0 pairs to 0 with every generator (radical_scan)."""
    return len(radical_scan(orders, q_diag, b_off)) == 1


def form_candidates_scan(src_orders, src_q, dst_orders, dst_q, dst_b, sign):
    """For each source generator, the target elements of order dividing
    its order whose q is sign times its q, in product order: every element
    walked on Fractions.  dst_b is a dict {(i,j): Fraction}."""
    candidates = [[] for _ in src_orders]
    for y in itertools.product(*[range(d) for d in dst_orders]):
        v = fqm_q_value(dst_orders, dst_q, dst_b, y)
        for i, d in enumerate(src_orders):
            if v == (sign * src_q[i]) % 2 and \
                    not any(d * c % o for c, o in zip(y, dst_orders)):
                candidates[i].append(y)
    return candidates


def glue_images_per_row(src_orders, src_q, src_b, dst_orders, dst_q, dst_b,
                        rows):
    """The glue images as one search per admissible row: for each (c, w)
    of rows, the candidates inside c^perp (sum x_i w_i = 0 mod the
    exponent) are scanned afresh and the anti-embeddings into them found
    by a lexicographic backtrack on Fractions.  Returns (c, image tuples)
    for each c^perp that some injective map reaches, with its first map,
    sorted by that map.  src_b and dst_b are dicts {(i,j): Fraction}."""
    if 2 * math.prod(src_orders) != math.prod(dst_orders):
        return []
    e = dst_orders[-1]

    def src_pair(i, j):
        return src_b.get((min(i, j), max(i, j)), Fraction(0))

    def extend(chosen, cands):
        i = len(chosen)
        if i == len(src_orders):
            if len(subgroup_closure(dst_orders, chosen)) == \
                    math.prod(src_orders):
                yield tuple(chosen)
            return
        for y in cands[i]:
            if all(fqm_b_value(dst_orders, dst_q, dst_b, y, z)
                   == (-src_pair(i, j)) % 1 for j, z in enumerate(chosen)):
                yield from extend(chosen + [y], cands)

    found = []
    for c, w in rows:
        inside = [[y for y in ys if not sum(map(operator.mul, y, w)) % e]
                  for ys in form_candidates_scan(src_orders, src_q,
                                                 dst_orders, dst_q, dst_b,
                                                 -1)]
        first = next(extend([], inside), None)
        if first is not None:
            found.append((c, first))
    found.sort(key=lambda item: item[1])
    return found


def glue_admissible_walk(orders, q_diag, b_off, image_elements, image_gens):
    """An image of index 2 and some x outside it with q(x) = 3/2 pairing to
    0 with every image generator, found by walking the whole group on
    Fractions."""
    if 2 * len(image_elements) != math.prod(orders):
        return False
    for x in itertools.product(*[range(d) for d in orders]):
        if x in image_elements:
            continue
        if fqm_q_value(orders, q_diag, b_off, x) != Fraction(3, 2):
            continue
        if all(fqm_b_value(orders, q_diag, b_off, x, g) == 0
               for g in image_gens):
            return True
    return False


def three_half_level(orders, q_diag, b_off):
    """(n, level): the form scaled by the lcm n of all denominators, and
    the (x, pairing row of x) over the x with q(x) = 3/2, found by walking
    the whole group.  b_off is a dict {(i,j): Fraction}."""
    rank = len(orders)
    n = math.lcm(1, *[v.denominator for v in q_diag],
                 *[v.denominator for v in b_off.values()])
    bm = [[int((q_diag[i] if i == j else
                b_off.get((min(i, j), max(i, j)), Fraction(0))) * n)
           for j in range(rank)] for i in range(rank)]
    level = []
    for x in itertools.product(*[range(d) for d in orders]):
        q = sum(x[i] * x[j] * bm[i][j] for i in range(rank)
                for j in range(rank))
        if 2 * (q % (2 * n)) == 3 * n:
            level.append((x, [sum(x[i] * bm[i][j] for i in range(rank))
                              for j in range(rank)]))
    return n, level


def glue_admissible_scan(orders, q_diag, b_off, image_gens):
    """The image generated by image_gens has index 2 and some x of the
    q = 3/2 level set pairs to 0 with every generator: the level set is
    scanned against the generators."""
    if 2 * len(subgroup_closure(orders, image_gens)) != math.prod(orders):
        return False
    n, level = three_half_level(orders, q_diag, b_off)
    return any(not any(sum(map(operator.mul, g, w)) % n for g in image_gens)
               for _, w in level)


def index_two_glue_kernels(orders, q_diag, b_off):
    """Generators of the admissible index-2 subgroups H: the kernels of the
    nontrivial characters to Z/2 (odd-order generators must die, so each
    lives on the even-order ones) with some x outside H, q(x) = 3/2,
    pairing to 0 with every generator of H.  The kernels are visited in the
    binary order of the characters' supports, bit j standing for the j-th
    even-order generator.  b_off is a dict {(i,j): Fraction}."""
    rank = len(orders)
    n, level = three_half_level(orders, q_diag, b_off)
    evens = [i for i, o in enumerate(orders) if o % 2 == 0]

    def unit(i, c=1):
        return tuple(c if k == i else 0 for k in range(rank))

    kernels = []
    for mask in range(1, 1 << len(evens)):
        hit = [evens[j] for j in range(len(evens)) if mask >> j & 1]
        gens = [unit(i) for i in range(rank) if i not in hit]
        gens.append(unit(hit[0], 2))
        gens += [tuple(int(k in (hit[0], i)) for k in range(rank))
                 for i in hit[1:]]
        if any(sum(x[i] for i in hit) % 2 and
               not any(sum(g[j] * w[j] for j in range(rank)) % n
                       for g in gens)
               for x, w in level):
            kernels.append(gens)
    return kernels


def admissible_images_by_walk(d):
    """admissible_images(d) as Fqm built it before it read the 2-torsion:
    a walk of all of d, keeping each x with e q(x) = 3e/2 and 2x = 0."""
    e = d._ints[0]
    if e % 2:
        return []
    return [(c, d._pair_row(c)) for c, v in d._walk()
            if v == 3 * e // 2 and not any(d.scale(2, c))]


def perp_subgroup(d, w):
    """c^perp as a Subgroup, for w = d._pair_row(c) with each w_i 0 or
    e/2, as admissible_images built it before it kept (c, w) alone: x is
    in c^perp iff its coefficients on the support of w have even sum, so
    e_i off the support and e_i + e_s on it, s the first index there,
    generate c^perp."""
    s = next((i for i, x in enumerate(w) if x), None)
    return Subgroup.generated(d, [
        [int(j == i) + int(j == s and x != 0) for j in range(d.rank)]
        for i, x in enumerate(w)])


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


def glue_images(homs, image_of):
    """Injective homs from one source grouped by image, in first-seen
    order, as (image_of(first hom), members).  Images are compared as the
    element sets subgroup_closure walks."""
    groups = {}
    for f in homs:
        key = frozenset(subgroup_closure(f.target.orders, f.images))
        groups.setdefault(key, []).append(f)
    return [(image_of(members[0]), members) for members in groups.values()]


def compose(f, g):
    """The FqmHom f after g."""
    if g.target != f.source:
        raise ValueError("composition type mismatch")
    return FqmHom(g.source, f.target, tuple(f(im) for im in g.images))


def conjugates_by_search(autos, groups):
    """For each subgroup in groups (image tuples), the set of a^-1 o w o a
    over its w and every a in autos, the FqmHom list of a whole O(m):
    every a conjugates every w, the maps evaluated through FqmHom calls,
    and a^-1 is the b in autos with b(a(g_i)) = g_i for each i."""
    m = autos[0].source
    units = [m.reduce([int(i == j) for j in range(m.rank)])
             for i in range(m.rank)]
    pairs = [(a, next(b for b in autos if all(
        b(y) == u for y, u in zip(a.images, units)))) for a in autos]
    out = []
    for group in groups:
        homs = [FqmHom(m, m, w) for w in group]
        out.append({tuple(inv(w(y)) for y in a.images)
                    for a, inv in pairs for w in homs})
    return out


def negation_hom(m):
    """x -> -x on the Fqm m."""
    return FqmHom(m, m, tuple(
        m.neg(m.reduce([int(i == j) for j in range(m.rank)]))
        for i in range(m.rank)))


def presented_form(sub: Subgroup):
    """A subgroup on invariant-factor generators of its own, as
    (orders, q_diag, b_off, images): the restricted form on those
    generators, as Fqm takes it, and the generators inside the ambient
    module.  The restricted form may be degenerate, so no Fqm is built."""
    amb = sub.ambient
    gens = [g for g in map(amb.reduce, sub.basis) if any(g)]
    if not gens:
        return (), (), (), ()
    k, n = len(gens), amb.rank
    # relation lattice: integer rows c with sum_i c_i g_i = 0 in the ambient,
    # i.e. c.A = -y.diag(orders) for some integer y
    stacked = [list(g) for g in gens]
    stacked += [[amb.orders[j] if i == j else 0 for j in range(n)]
                for i in range(n)]
    kernel = exact.integer_kernel(stacked)
    relations = [row[:k] for row in kernel]
    s, u, _ = exact.smith_normal_form(exact.transpose(relations))
    # in coordinates y = U x the relations are diagonal, so the new
    # generators are the columns of U^{-1} applied to the old ones
    u_inv = exact.rational_inverse(u)
    new_gens = []
    orders = []
    for i in range(k):
        d = s[i][i] if i < len(s) and i < len(s[0]) else 0
        if d == 0:
            raise ValueError("subgroup presentation is not finite")
        if d == 1:
            continue
        combo = [u_inv[j][i] for j in range(k)]
        if any(c.denominator != 1 for c in combo):
            raise RuntimeError("subgroup presentation: U^-1 of a unimodular "
                               f"Smith transform is not integral: {combo}")
        elem = amb.zero()
        for c, g in zip(combo, gens):
            elem = amb.add(elem, amb.scale(c, g))
        if amb.element_order(elem) != d:
            raise RuntimeError(f"subgroup presentation: generator {elem} has "
                               f"order {amb.element_order(elem)}, not the "
                               f"invariant factor {d}")
        new_gens.append(elem)
        orders.append(d)
    if math.prod(orders) != sub.order:
        raise RuntimeError(f"subgroup presentation has order "
                           f"{math.prod(orders)}, the subgroup {sub.order}")
    q_diag = tuple(amb.q(g) for g in new_gens)
    b_off = tuple(tuple(amb.b(new_gens[i], new_gens[j])
                        for j in range(i + 1, len(new_gens)))
                  for i in range(len(new_gens)))
    return tuple(orders), q_diag, b_off, tuple(new_gens)


def subgroup_presentation(sub: Subgroup) -> FqmHom:
    """The inclusion hom of presented_form(sub): its source is the
    subgroup as a standalone module (with the restricted form), its images
    are the chosen generators inside the ambient module.  Building the
    source raises when the restricted form is degenerate."""
    orders, q_diag, b_off, images = presented_form(sub)
    return FqmHom(Fqm(orders, q_diag, b_off), sub.ambient, images)


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


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, u, v = _ext_gcd(b, a % b)
    return g, v, u - (a // b) * v


def _quadratic_roots(a: int, b: int, c: int) -> list[int]:
    """Integer roots of a*s^2 + b*s + c with a != 0."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    r = math.isqrt(disc)
    if r * r != disc:
        return []
    return sorted({(-b + s) // (2 * a) for s in (r, -r)
                   if (-b + s) % (2 * a) == 0})


def vector_with_by_parametrisation(gram, norm: int, pairing: int):
    """An integer vector of the given norm and pairing with the second
    basis vector, or None.  Exact: the pairing condition is a line, and
    restricting the form to it leaves one quadratic in one variable."""
    (g00, g01), (_, g11) = gram
    g, u, v = _ext_gcd(g01, g11)
    if pairing % g:
        return None
    a0, b0 = u * (pairing // g), v * (pairing // g)
    d, e = g11 // g, g01 // g  # direction (d, -e) keeps the pairing fixed
    qa = g00 * d * d - 2 * g01 * d * e + g11 * e * e
    qb = 2 * (g00 * a0 * d + g01 * (b0 * d - a0 * e) - g11 * b0 * e)
    qc = g00 * a0 * a0 + 2 * g01 * a0 * b0 + g11 * b0 * b0 - norm
    if qa == 0:
        if qb == 0:
            return (a0, b0) if qc == 0 else None
        if qc % qb:
            return None
        s = -qc // qb
        return (a0 + d * s, b0 - e * s)
    roots = _quadratic_roots(qa, qb, qc)
    if not roots:
        return None
    s = roots[-1]
    return (a0 + d * s, b0 - e * s)


def hermite_basis(rows):
    """Row Hermite normal form of the integer span of rows (zero rows
    dropped): positive pivots, zeros below them, entries above each pivot
    in [0, pivot).  Per column, Euclid on the remaining rows leaves one
    nonzero entry."""
    work = [list(r) for r in rows]
    basis = []
    n = len(work[0]) if work else 0
    for col in range(n):
        live = [r for r in work if r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            for r in live[1:]:
                q = r[col] // piv[col]
                r[:] = [x - q * y for x, y in zip(r, piv)]
            live = [r for r in live if r[col]]
        if not live:
            continue
        piv = live[0]
        work = [r for r in work if r is not piv]
        if piv[col] < 0:
            piv[:] = [-x for x in piv]
        for b in basis:
            q = b[col] // piv[col]
            b[:] = [x - q * y for x, y in zip(b, piv)]
        basis.append(piv)
    return basis


def golay_basis():
    """Rows of a generator matrix of the extended [24,12,8] Golay code,
    from the quadratic-residue generator polynomial of the cyclic [23,12]
    code that gives a doubly even code of minimum weight 8."""
    for taps in ((11, 10, 6, 5, 4, 2, 0), (11, 9, 7, 6, 5, 1, 0)):
        basis = []
        for shift in range(12):
            row = [0] * 23
            for t in taps:
                row[t + shift] = 1  # deg g + 11 < 23: shifts never wrap
            row.append(sum(row) % 2)
            basis.append(row)
        weights = [sum(sum(row[i] for row, c in zip(basis, coeffs) if c) % 2
                       for i in range(24))
                   for coeffs in itertools.product((0, 1), repeat=12)]
        if not any(w % 4 for w in weights) and min(weights[1:]) == 8:
            return basis
    raise ValueError("neither generator polynomial gives the Golay code")


def leech_gram():
    """Gram of the Leech lattice from the Golay code: the integer vectors x
    with all coordinates of one parity m, (x - m)/2 mod 2 a codeword and
    coordinate sum 4m mod 8, paired by x.y/8, in the Hermite basis of the
    generators 2c (c a codeword row), 4e_0 + 4e_j, 8e_0 and (-3, 1, ..., 1)."""
    gens = [[2 * b for b in c] for c in golay_basis()]
    gens += [[4 * (i in (0, j)) for i in range(24)] for j in range(1, 24)]
    gens += [[8] + [0] * 23, [-3] + [1] * 23]
    basis = hermite_basis(gens)
    gram = [[sum(map(operator.mul, a, b)) for b in basis] for a in basis]
    if len(basis) != 24 or any(x % 8 for row in gram for x in row):
        raise ValueError("Golay construction is not a rank-24 lattice")
    return tuple(tuple(x // 8 for x in row) for row in gram)


# the documented `k3lat table` schema, csv and markdown alike
TABLE_COLUMNS = ("group", "h_sq", "div", "m", "t_gram", "k3", "mode")


def parse_table(text: str, out_format: str):
    """Inverse of cli.format_table; returns (group, h_sq, div, m, t, k3,
    mode) tuples, for round-tripping the documented schema."""
    def decode(cells):
        if len(cells) != len(TABLE_COLUMNS):
            raise ValueError(f"table row has {len(cells)} cells")
        g, h_sq, div, m, t_text, k3, mode = cells
        t = tuple(tuple(int(x) for x in row)
                  for row in ast.literal_eval(t_text))
        return (g, int(h_sq), int(div), int(m), t, k3, mode)

    rows = []
    if out_format == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if tuple(header or ()) != TABLE_COLUMNS:
            raise ValueError("csv header does not match the table schema")
        for record in reader:
            if record:
                rows.append(decode(record))
    elif out_format == "markdown":
        lines = [l for l in text.split("\n") if l.strip()]
        if len(lines) < 2:
            raise ValueError("markdown table needs a header and a rule")
        header = [c.strip() for c in lines[0].strip().strip("|").split("|")]
        if tuple(header) != TABLE_COLUMNS:
            raise ValueError("markdown header does not match the table "
                             "schema")
        for line in lines[2:]:
            rows.append(decode([c.strip()
                                for c in line.strip().strip("|").split("|")]))
    else:
        raise ValueError(f"unknown table format {out_format!r}")
    return rows
