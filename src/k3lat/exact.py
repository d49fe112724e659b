"""Exact integer and rational matrix arithmetic.

Everything downstream (discriminant groups, gluing, enumeration) sits on the
routines here, so no floating point is allowed anywhere in this module.
Matrices are plain nested lists (or tuples) of Python ints; rationals are
``fractions.Fraction``.  Vectors are rows: a map acts as ``v @ Q``.

The kernels are fraction-free: signature, determinant and adjugate run on
integers by Bareiss elimination, and rational_inverse clears denominators
once and makes at most one Fraction per entry at the end.  Discriminant data
built on them (lattice.disc_map) is integer numerators over one denominator.

Finite groups grow only here, one coset at a time (Dimino): closure and
generators take the identity and mul(x, y) = x * y on the elements.  Two
search bounds are constants, and the ValueError raised on tripping one
names it: a group held in memory has at most 10**6 elements (the element
store), and multiplicative_order looks no further than order 10_000.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mod, mul
from typing import Iterable, Sequence

Matrix = Sequence[Sequence[int]]


def dims(a: Matrix) -> tuple[int, int]:
    m = len(a)
    n = len(a[0]) if m else 0
    if list(map(len, a)).count(n) != m:
        raise ValueError("ragged matrix")
    return m, n


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(a: Matrix) -> list[list[int]]:
    return [list(row) for row in a]


def transpose(a: Matrix) -> list[list[int]]:
    dims(a)
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    """Matrix product; entries may be ints or Fractions."""
    m, k = dims(a)
    k2, n = dims(b)
    if k != k2:
        raise ValueError(f"shape mismatch {m}x{k} @ {k2}x{n}")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_vec(v, a):
    """Row vector times matrix."""
    return [sum(map(mul, v, col)) for col in zip(*a)]


def conjugate_rows(rows, gram):
    """Gram matrix of the sublattice spanned by ``rows``: rows * gram * rowsᵀ,
    square also when the rows have no entries."""
    return [[sum(map(mul, p, r)) for r in rows] for p in mat_mul(rows, gram)]


def is_symmetric(a: Matrix) -> bool:
    m, n = dims(a)
    return m == n and all(a[i][j] == a[j][i] for i in range(m) for j in range(i))


def _swap_rows(mats, i, j):
    for m in mats:
        m[i], m[j] = m[j], m[i]


def _swap_cols(mats, i, j):
    for m in mats:
        for row in m:
            row[i], row[j] = row[j], row[i]


def smith_normal_form(a: Matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (S, U, V) with U*a*V = S diagonal, d_1 | d_2 | ..., U, V unimodular.

    Minimum-absolute-entry pivoting keeps intermediate growth tolerable on the
    rank-20 inputs this library feeds it.
    """
    m, n = dims(a)
    s = copy_matrix(a)
    u = identity(m)
    v = identity(n)
    t = 0
    while t < min(m, n):
        piv = None
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                e = abs(s[i][j])
                if e and (piv is None or e < best):
                    piv, best = (i, j), e
        if piv is None:
            break
        _swap_rows([s, u], t, piv[0])
        _swap_cols([s, v], t, piv[1])
        dirty = False
        for i in range(t + 1, m):
            if s[i][t]:
                q = s[i][t] // s[t][t]
                if q:
                    s[i] = [x - q * y for x, y in zip(s[i], s[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if s[i][t]:
                    dirty = True  # remainder beats the pivot; re-pivot
        if dirty:
            continue
        for j in range(t + 1, n):
            if s[t][j]:
                q = s[t][j] // s[t][t]
                if q:
                    for row in s:
                        row[j] -= q * row[t]
                    for vrow in v:
                        vrow[j] -= q * vrow[t]
                if s[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry before we advance
        stuck = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t]:
                    stuck = i
                    break
            if stuck is not None:
                break
        if stuck is not None:
            s[t] = [x + y for x, y in zip(s[t], s[stuck])]
            u[t] = [x + y for x, y in zip(u[t], u[stuck])]
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return s, u, v


def bareiss_det(a: Matrix) -> int:
    """Fraction-free determinant."""
    n = len(a)
    if n == 0:
        return 1
    if len(a[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    m = copy_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def signature(g: Matrix) -> tuple[int, int]:
    """Sign counts (pos, neg) of a nondegenerate symmetric matrix.

    Fraction-free symmetric Bareiss elimination: the k-th pivot is the
    leading (k+1)-minor, so the k-th diagonal entry of the congruent
    diagonal form has the sign of pivot_k * pivot_{k-1}.  A zero pivot is
    cured by the congruence row_k += c row_l, col_k += c col_l on the
    trailing block (minors are multilinear, so the later divisions stay
    exact); degenerate input is rejected.
    """
    if not is_symmetric(g):
        raise ValueError("signature of a non-symmetric matrix")
    n = len(g)
    a = copy_matrix(g)
    pos = neg = 0
    prev = 1
    for k in range(n):
        rk = a[k]
        if rk[k] == 0:
            l = next((i for i in range(k + 1, n) if a[i][k]), None)
            if l is None:
                raise ValueError("degenerate form")
            rl = a[l]
            c = 1 if rl[l] + 2 * rl[k] else 2
            for j in range(k, n):
                rk[j] += c * rl[j]
            for row in a[k:]:
                row[k] += c * row[l]
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - f * rk[j]) // prev
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prev = pivot
    return pos, neg


def integer_kernel(a: Matrix) -> list[list[int]]:
    """Basis rows of {v integral : v*a = 0}; saturated by construction."""
    m, n = dims(a)
    s, u, _ = smith_normal_form(a)
    out = []
    for i in range(m):
        if i >= min(m, n) or s[i][i] == 0:
            out.append(list(u[i]))
    return out


def hermite_basis_mod(rows: Iterable[Sequence[int]],
                      moduli: Sequence[int]) -> list[list[int]]:
    """Row Hermite basis of span(rows) + (+)_i m_i Z e_i, every m_i > 0:
    upper triangular, pivots p_i > 0 dividing m_i, entries above p_j in
    [0, p_j), so unique.  Hermite normal form modulo D (Cohen, GTM 138,
    Alg. 2.4.8): diag(m) folds in each row by extended-gcd pairs with the
    pivots, and as m_j e_j lies in the lattice, column j stays mod m_j."""
    n = len(moduli)
    basis = [[m * (i == j) for j in range(n)] for i, m in enumerate(moduli)]
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged matrix")
        v = list(map(mod, row, moduli))
        for i in range(n):
            if not v[i]:
                continue
            p = basis[i]
            g = math.gcd(p[i], v[i])
            a, b = p[i] // g, v[i] // g
            if a > 1:  # the pivot falls to g <= v_i < m_i: s a + t b = 1
                t = pow(b, -1, a)
                s = (1 - t * b) // a
                basis[i] = [(s * x + t * y) % m
                            for x, y, m in zip(p, v, moduli)]
            # v_i becomes 0, by one subtraction if the pivot divided it
            v = [(a * y - b * x) % m for x, y, m in zip(p, v, moduli)]
    for j in range(1, n):
        for i in range(j):
            k = basis[i][j] // basis[j][j]
            if k:
                basis[i] = [x - k * y for x, y in zip(basis[i], basis[j])]
    return basis


def rational_inverse(a) -> list[list]:
    """a^-1 of a nonsingular matrix of ints or Fractions.

    Denominators are cleared once, a = b / d with b integral, and
    a^-1 = d adj(b) / det(b) comes from the integer adjugate.  The entries
    are ints when the inverse is integral (|det a| = 1 for an integer
    matrix), else one Fraction each.
    """
    if not a:
        return []
    d = math.lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (d // x.denominator) for x in row] for row in a]
    adj = adjugate(b)
    det = sum(map(mul, b[0], (row[0] for row in adj)))  # (b adj(b))_00
    num = [[d * x for x in row] for row in adj]
    if all(x % det == 0 for row in num for x in row):
        return [[x // det for x in row] for row in num]
    return [[Fraction(x, det) for x in row] for row in num]


def adjugate(a: Matrix) -> list[list[int]]:
    """adj(a) = det(a) * a^-1 of a nonsingular integer matrix.

    Fraction-free Gauss-Jordan (Bareiss) on [a | I]: every division is
    exact, and the left block ends as det(P a) * I for the row swaps P.
    """
    n = len(a)
    work = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(a)]
    sign, prev = 1, 1
    for k in range(n):
        if work[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if work[i][k]), None)
            if swap is None:
                raise ValueError("singular matrix")
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot_row = work[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                f = work[i][k]
                work[i] = [(pivot * x - f * y) // prev
                           for x, y in zip(work[i], pivot_row)]
        prev = pivot
    return [[sign * x for x in row[n:]] for row in work]


_ELEMENT_STORE_LIMIT = 10 ** 6  # elements of a group held in memory
_ORDER_BOUND = 10_000  # largest order multiplicative_order looks for


def multiplicative_order(q: Matrix) -> int:
    """Smallest k > 0 with q^k = identity."""
    ident = identity(len(q))
    p = copy_matrix(q)
    for k in range(1, _ORDER_BOUND + 1):
        if p == ident:
            return k
        p = mat_mul(p, q)
    raise ValueError("order exceeds the multiplicative_order bound of "
                     f"{_ORDER_BOUND}")


def check_element_store(size: int, what: str) -> None:
    if size > _ELEMENT_STORE_LIMIT:
        raise ValueError(f"{what} exceeds the element-store limit of "
                         f"{_ELEMENT_STORE_LIMIT} elements")


def _dimino(elements, ident, mul) -> tuple[list, set]:
    """(gens, group): in order, each of elements outside the group the
    earlier ones generate, and the group they generate.  Each new s grows
    H = <earlier gens> to <H, s> by right cosets H r, for r = s and each
    r t (t in gens) in no coset yet (Dimino; Butler, LNCS 559, ch. 5)."""
    gens, group, seen = [], [ident], {ident}
    for s in elements:
        if s in seen:
            continue
        gens.append(s)
        rest, todo = group[1:], [s]
        for r in todo:  # todo grows while it is walked
            if r not in seen:
                coset = [r] + [mul(h, r) for h in rest]
                group += coset
                seen.update(coset)
                check_element_store(len(seen), "group closure")
                todo += [mul(r, t) for t in gens]
    return gens, seen


def closure(gens, ident, mul) -> set:
    """The finite group gens generate, mul(x, y) = x * y on its elements."""
    return _dimino(gens, ident, mul)[1]


def generators(elements, ident, mul) -> list:
    """In order, each of elements outside the group the earlier ones make."""
    return _dimino(elements, ident, mul)[0]


def matrix_closure(gens, n: int) -> set:
    """The group the n x n integer matrices gens generate, as tuple rows."""
    return closure([tuple(map(tuple, g)) for g in gens],
                   tuple(map(tuple, identity(n))),
                   lambda f, g: tuple(map(tuple, mat_mul(f, g))))
