"""Short-vector enumeration and isometry search for definite lattices.

Everything here runs on integers.  Each definite lattice gets one pass
of integral LLL at delta = 99/100, on sign * G with sign that of G00: the
pass completes iff sign * G is positive definite (its first leading minors
are those of the input, Sylvester's criterion), so it decides the sign
with no separate signature, and the Gram-Schmidt data it ends with are
the LDL decomposition, scaled to integers, of the reduced Gram.  Vectors
of a given norm come from a Fincke-Pohst walk down that LDL that visits
one of each pair +-v, and only that half is written in the original
basis.  Automorphism / isometry searches backtrack over images of basis
vectors with partial-Gram pruning, pairing each candidate image once; the
automorphism search takes the first image from the walked half only, as
-1 is an automorphism.  Results are deterministic (lexicographic order)
and vector lists are closed under negation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Iterator, Optional

from . import exact
from .lattice import Lattice

Vector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Isometry:
    matrix: IntMatrix
    order: Optional[int]  # None when not meaningful (cross-lattice witness)


def _round_half_even(num: int, den: int) -> int:
    """The integer nearest num/den (den > 0), ties to even, as
    round(Fraction(num, den)) gives it."""
    q, r = divmod(2 * num + den, 2 * den)
    if r == 0 and q % 2:
        q -= 1
    return q


def _gram_schmidt_row(h, k, d, lam) -> None:
    """Integral Gram-Schmidt data of row k of h from that of rows < k.

    d[j] is the leading j x j minor of h and lam[k][j] = d[j+1] * mu[k][j];
    fills lam[k][:k] and d[k+1] (Cohen, GTM 138, Alg. 2.6.7, step 2).  All
    divisions are exact.
    """
    lam_k = lam[k]
    for j in range(k + 1):
        u = h[k][j]
        lam_j = lam[j]
        for i in range(j):
            u = (d[i + 1] * u - lam_k[i] * lam_j[i]) // d[i]
        if j < k:
            lam_k[j] = u
        else:
            d[k + 1] = u
    if d[k + 1] <= 0:
        raise ValueError("Gram-Schmidt needs a positive definite gram")


def _lll(gram):
    """Integral LLL (delta = 99/100) of a positive definite integer gram.

    Returns (gram', U, U^-1, ldl) with U unimodular and gram' = U * gram *
    U^T, so the rows of U are the reduced basis written in the original
    coordinates, and ldl = _scaled_ldl of gram'.  Cohen, GTM 138, Alg. 2.6.7
    (de Weger 1989): the leading minors d and the scaled coefficients lam
    are integers, Gram-Schmidt rows are computed once each and updated in
    place on a swap, so when the loop ends they are the Gram-Schmidt data of
    gram' itself.  Row k is size-reduced against k-1, ..., 0 before the
    Lovasz test 100 d[k+1] d[k-1] >= 99 d[k]^2 - 100 lam[k][k-1]^2.

    The pass completes iff gram is positive definite, and raises ValueError
    at the first leading minor <= 0 otherwise.  When row k is first
    computed (k > k_max), rows < k have only been size-reduced and swapped
    among themselves and row k is row k of the input, so the first k + 1
    rows are V (+) 1 times the first k + 1 input rows for a unimodular V,
    and d[k+1] = det(V)^2 * minor = the leading (k+1)-minor of the input.
    A positive definite gram has every leading minor positive (Sylvester's
    criterion), and a swap keeps d positive (its new d[k] is (d[k-1] d[k+1]
    + lam[k][k-1]^2) / d[k]), so the pass never raises and ends as LLL
    does.  Otherwise let minor m + 1 be the first one <= 0: the first m
    input rows span a positive definite lattice, LLL on them ends, so the
    pass reaches k = m, computes that minor and raises.
    """
    n = len(gram)
    h = [list(row) for row in gram]
    u = exact.identity(n)
    u_inv = exact.identity(n)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    if n:
        _gram_schmidt_row(h, 0, d, lam)
    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            _gram_schmidt_row(h, k, d, lam)
        lam_k = lam[k]
        for l in range(k - 1, -1, -1):
            if 2 * abs(lam_k[l]) <= d[l + 1]:
                continue
            r = _round_half_even(lam_k[l], d[l + 1])
            h[k] = [x - r * y for x, y in zip(h[k], h[l])]
            for row in h:
                row[k] -= r * row[l]
            u[k] = [x - r * y for x, y in zip(u[k], u[l])]
            for row in u_inv:
                row[l] += r * row[k]
            lam_l = lam[l]
            for j in range(l):
                lam_k[j] -= r * lam_l[j]
            lam_k[l] -= r * d[l + 1]
        lam_kk = lam_k[k - 1]
        if 100 * d[k + 1] * d[k - 1] >= 99 * d[k] ** 2 - 100 * lam_kk ** 2:
            k += 1
            continue
        # swap rows k-1 and k (Cohen's SWAPI)
        h[k - 1], h[k] = h[k], h[k - 1]
        for row in h:
            row[k - 1], row[k] = row[k], row[k - 1]
        u[k - 1], u[k] = u[k], u[k - 1]
        for row in u_inv:
            row[k - 1], row[k] = row[k], row[k - 1]
        lam[k - 1][:k - 1], lam_k[:k - 1] = lam_k[:k - 1], lam[k - 1][:k - 1]
        b = (d[k - 1] * d[k + 1] + lam_kk ** 2) // d[k]
        for i in range(k + 1, k_max + 1):
            lam_i = lam[i]
            t = lam_i[k]
            lam_i[k] = (d[k + 1] * lam_i[k - 1] - lam_kk * t) // d[k]
            lam_i[k - 1] = (b * t + lam_kk * lam_i[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    return _int_matrix(h), _int_matrix(u), _int_matrix(u_inv), \
        _scaled_ldl(d, lam)


def _scaled_ldl(d, lam):
    """Integers (e, terms, w, scale) with, for every integer x,

        scale * x gram x^T = sum_i w[i] * (e[i] x_i + s_i)^2,
        s_i = sum of m * x_j over (j, m) in terms[i] (all j > i):

    the LDL form Q(x) = sum_i B_i (x_i + sum_{j>i} mu_ji x_j)^2 of the
    positive definite gram whose integral Gram-Schmidt data (as
    _gram_schmidt_row fills them) are d and lam, with each row cleared of
    its denominator e[i].
    """
    n = len(lam)
    e, terms, weights = [], [], []
    for i in range(n):
        # mu_ji = lam[j][i] / d[i+1] and B_i = d[i+1] / d[i]
        g = math.gcd(d[i + 1], *(lam[j][i] for j in range(i + 1, n)))
        e.append(d[i + 1] // g)
        terms.append([(j, lam[j][i] // g) for j in range(i + 1, n) if lam[j][i]])
        num, den = g * g, d[i] * d[i + 1]  # B_i / e_i^2
        c = math.gcd(num, den)
        weights.append((num // c, den // c))
    scale = math.lcm(*(den for _, den in weights))
    return e, terms, [num * (scale // den) for num, den in weights], scale


def _fp_vectors(ldl, target: int) -> list[Vector]:
    """The walked half of {x : x gram_red x^T = target} (reduced
    coordinates): the x whose last nonzero coordinate is positive, one of
    each +-x, given ldl = _scaled_ldl of gram_red, in lexicographic order of
    x[::-1].  _signed(half) is the whole set.

    A Fincke-Pohst walk from the last coordinate down: with the remaining
    scaled norm r, level i admits |e_i x_i + s_i| <= isqrt(r // w_i).  The x
    with last nonzero coordinate x_k > 0 (x_i = 0 above k, so s_k = 0) are
    walked for k = 0, 1, ... in turn, which lists them in order.
    """
    e, terms, w, scale = ldl
    found: list[Vector] = []
    coords = [0] * len(e)

    def walk(i: int, remaining: int):
        s = 0
        for j, m in terms[i]:
            s += m * coords[j]
        e_i, w_i = e[i], w[i]
        if i == 0:  # the last level must use up the remaining norm exactly
            t2, rem = divmod(remaining, w_i)
            t = math.isqrt(t2)
            if rem or t * t != t2:
                return
            for y in ((-t, t) if t else (0,)):
                x, off = divmod(y - s, e_i)
                if not off:
                    coords[0] = x
                    found.append(tuple(coords))
            coords[0] = 0
            return
        t = math.isqrt(remaining // w_i)
        for x in range(-((s + t) // e_i), (t - s) // e_i + 1):
            y = e_i * x + s
            coords[i] = x
            walk(i - 1, remaining - w_i * y * y)
        coords[i] = 0

    total = scale * target
    for k in range(len(e)):
        e_k, w_k = e[k], w[k]
        for x in range(1, math.isqrt(total // w_k) // e_k + 1):
            coords[k] = x
            remaining = total - w_k * (e_k * x) ** 2
            if k:
                walk(k - 1, remaining)
            elif not remaining:
                found.append(tuple(coords))
        coords[k] = 0
    return found


def _negated(v: Vector) -> Vector:
    return tuple(-x for x in v)


def _signed(half: list[Vector]) -> list[Vector]:
    """Both signs of a walked half, in lexicographic order of x[::-1]: the
    negatives, in reverse, all come before the half."""
    return [_negated(v) for v in reversed(half)] + half


class NotDefiniteError(ValueError):
    """An enumeration entry point was handed a lattice that is not
    definite (rank 0 included)."""


def _frame(lat: Lattice):
    """(sign, gram', U, U^-1, ldl) with sign * G positive definite and
    (gram', U, U^-1, ldl) = _lll(sign * G), or None if L is not definite.

    One LLL pass decides: a definite form has the sign of its diagonal, so
    sign is that of G00, and sign * G is positive definite iff its LLL pass
    completes (_lll).
    """
    if not lat.rank:
        return None
    sign = 1 if lat.gram[0][0] > 0 else -1
    gram = lat.gram if sign > 0 else [[-x for x in row] for row in lat.gram]
    try:
        return (sign, *_lll(gram))
    except ValueError:  # a leading minor of sign * G is <= 0
        return None


def _definite_frame(lat: Lattice):
    frame = _frame(lat)
    if frame is None:
        raise NotDefiniteError("enumeration requires a definite lattice")
    return frame


def vectors_of_norm(lat: Lattice, n: int) -> list[Vector]:
    """All nonzero v with v.G.v^T = n, sorted, closed under negation.  Only
    the walked half, one of each +-v, is written in the original basis."""
    sign, _, u, _, ldl = _definite_frame(lat)
    if n == 0 or (n > 0) != (sign > 0):
        return []
    out = list(_times(_fp_vectors(ldl, abs(n)), u))
    out += [_negated(v) for v in out]
    out.sort()
    return out


def _image_backtrack(target_gram, source_gram, candidates, first_only,
                     up_to_sign=False):
    """Rows q with q * target_gram * q^T = source_gram, images drawn from
    candidates[i] (vectors with the right norm, in _signed order),
    partial-Gram pruned.

    The pairing row cand * target_gram of each candidate is computed once
    per candidate list (levels of equal norm share one list).  -q solves
    whenever q does, so up_to_sign draws the first image from the walked
    half of candidates[0] only, its second half: each row found stands for
    itself and its negative, and the element store counts both.
    """
    n = len(source_gram)
    paired = {}
    for cands in candidates:
        if id(cands) not in paired:
            paired[id(cands)] = [(c, exact.mat_vec(c, target_gram))
                                 for c in cands]
    levels = [paired[id(cands)] for cands in candidates]
    per_row = 2 if up_to_sign else 1
    if up_to_sign:
        levels[0] = levels[0][len(levels[0]) // 2:]
    results = []
    rows: list[Vector] = []

    def walk(i):
        if i == n:
            results.append(tuple(rows))
            held = per_row * len(results)
            for size in range(held - per_row + 1, held + 1):
                exact.check_element_store(size, "isometry search")
            return first_only
        want = source_gram[i]
        for cand, cand_g in levels[i]:
            for j in range(i):
                if sum(map(mul, rows[j], cand_g)) != want[j]:
                    break
            else:
                rows.append(cand)
                if walk(i + 1):
                    return True
                rows.pop()
        return False

    walk(0)
    return results


def _int_matrix(rows) -> IntMatrix:
    return tuple(tuple(row) for row in rows)


def _times(rows, m) -> Iterator[Vector]:
    """row * m for each row (reduced coordinates times U: original ones),
    the rows of m summed over the row's nonzero coefficients only."""
    for row in rows:
        acc = (0,) * len(m[0])
        for c, m_row in zip(row, m):
            if c:
                acc = tuple(map(add, acc, map(mul, repeat(c), m_row)))
        yield acc


def all_automorphisms(lat: Lattice) -> list[IntMatrix]:
    """Every isometry of a definite lattice, sorted (element store).

    -1 is one, so the backtrack finds one of each +-q (its first image from
    the walked half) and each is mapped back once, then negated.
    """
    if lat.rank == 0:
        return [()]
    _, gram_red, u, u_inv, ldl = _definite_frame(lat)
    norms = [gram_red[i][i] for i in range(lat.rank)]
    halves = {norm: _fp_vectors(ldl, norm) for norm in set(norms)}
    by_norm = {norm: _signed(half) for norm, half in halves.items()}
    autos = _image_backtrack(gram_red, gram_red,
                             [by_norm[norm] for norm in norms],
                             first_only=False, up_to_sign=True)
    # q is U^-1 (q U) in the original basis, each +-candidate times U once
    orig = {}
    for half in halves.values():
        for c, v in zip(half, _times(half, u)):
            orig[c], orig[_negated(c)] = v, _negated(v)
    out = []
    for q in autos:
        f = tuple(_times(u_inv, [orig[c] for c in q]))
        out += f, tuple(map(_negated, f))
    out.sort()
    return out


def automorphism_group(lat: Lattice) -> tuple[list[Isometry], int]:
    """Generators of O(L) and its order, for definite L: exact.generators,
    which grows the group coset by coset, of all_automorphisms, whose
    complete backtracking over images of the reduced basis makes the order
    an exact count."""
    mapped = all_automorphisms(lat)
    gens = exact.generators(mapped, _int_matrix(exact.identity(lat.rank)),
                            lambda f, g: _int_matrix(exact.mat_mul(f, g)))
    return [Isometry(q, exact.multiplicative_order(q)) for q in gens], \
        len(mapped)


def is_isometric(l1: Lattice, l2: Lattice) -> Optional[Isometry]:
    """An isometry L1 -> L2 as a matrix Q with Q.G2.Q^T = G1, or None."""
    if l1.rank != l2.rank:
        raise ValueError("rank mismatch")
    if l1.rank == 0:
        return Isometry((), 1)
    if l1.det != l2.det:
        return None
    frame1, frame2 = _frame(l1), _frame(l2)
    if frame1 is None and frame2 is None and l1.signature == l2.signature:
        raise NotDefiniteError("enumeration requires a definite lattice")
    # a definite and an indefinite lattice, or two of opposite signs,
    # differ in signature
    if frame1 is None or frame2 is None or frame1[0] != frame2[0]:
        return None
    (_, g1_red, _, u1_inv, ldl1), (_, g2_red, u2, _, ldl2) = frame1, frame2
    # the backtrack draws images from L2's vectors of each basis norm of
    # L1; if L1 has a different count at one of them, there is no isometry
    norms = [g1_red[i][i] for i in range(l1.rank)]
    by_norm: dict[int, list[Vector]] = {}
    for k in sorted(set(norms)):
        half = _fp_vectors(ldl2, k)
        if len(_fp_vectors(ldl1, k)) != len(half):
            return None
        by_norm[k] = _signed(half)
    candidates = [by_norm[k] for k in norms]
    hits = _image_backtrack(g2_red, g1_red, candidates, first_only=True)
    if not hits:
        return None
    # rows of M are images in reduced L2 coordinates: M.G2'.M^T = G1'
    q = tuple(_times(u1_inv, list(_times(hits[0], u2))))
    if exact.conjugate_rows(q, l2.gram) != [list(r) for r in l1.gram]:
        raise RuntimeError("is_isometric witness Q fails Q.G2.Q^T = G1 for "
                           f"G1 = {l1.gram}, G2 = {l2.gram}")
    order = exact.multiplicative_order(q) if l1.gram == l2.gram else None
    return Isometry(q, order)
