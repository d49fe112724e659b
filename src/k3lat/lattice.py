"""Integral lattices presented by Gram matrices.

A lattice is Z^n with a nondegenerate symmetric pairing; vectors are integer
row tuples in the basis, and an isometry Q acts on rows, v -> v*Q, so the
defining invariant is Q*G*Qᵀ = G.  Dual vectors live in Q^n as rational rows
in the same basis, carried as integer numerator rows over one denominator.
The discriminant group D_L = L^dual / L is produced as an Fqm together with
the lift/projection data the gluing code needs; that data is integer
numerators over the exponent of D_L, read off the Smith form, and the only
Fractions made are the q and b values of the generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import mul
from typing import Iterable, Optional, Sequence

from . import exact
from .fqm import Fqm, FqmHom

Vec = tuple[int, ...]


@dataclass(frozen=True)
class Lattice:
    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram):
        rows = tuple(tuple(int(x) for x in row) for row in gram)
        object.__setattr__(self, "gram", rows)
        if not exact.is_symmetric(rows):
            raise ValueError("gram matrix must be symmetric")
        if self.rank and exact.bareiss_det([list(r) for r in rows]) == 0:
            raise ValueError("gram matrix must be nondegenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def det(self) -> int:
        return exact.bareiss_det([list(r) for r in self.gram])

    @cached_property
    def signature(self) -> tuple[int, int]:
        if self.rank == 0:
            return (0, 0)
        return exact.signature([list(r) for r in self.gram])

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def is_positive_definite(self) -> bool:
        return self.signature == (self.rank, 0) and self.rank > 0

    @property
    def is_negative_definite(self) -> bool:
        return self.signature == (0, self.rank) and self.rank > 0

    @property
    def is_definite(self) -> bool:
        return self.is_positive_definite or self.is_negative_definite

    def pair(self, v: Sequence, w: Sequence):
        return sum(v[i] * self.gram[i][j] * w[j]
                   for i in range(self.rank) for j in range(self.rank))

    def norm(self, v: Sequence):
        return self.pair(v, v)

    def is_isometry(self, q: Sequence[Sequence[int]]) -> bool:
        g = [list(r) for r in self.gram]
        return exact.conjugate_rows(q, g) == g


def divisibility(lat: Lattice, v: Sequence[int]) -> int:
    """Positive generator of the pairing ideal v . L."""
    if not any(v):
        raise ValueError("divisibility of the zero vector")
    return math.gcd(*exact.mat_vec(list(v), [list(r) for r in lat.gram]))


@dataclass(frozen=True)
class Sublattice:
    """Saturated sublattice given by basis rows in ambient coordinates."""

    ambient: Lattice
    rows: tuple[Vec, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def gram_matrix(self) -> tuple[tuple[int, ...], ...]:
        g = exact.conjugate_rows([list(r) for r in self.rows],
                                 [list(r) for r in self.ambient.gram])
        return tuple(tuple(row) for row in g)

    def as_lattice(self) -> Lattice:
        return Lattice(self.gram_matrix)


def saturate(rows: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Basis of the smallest primitive subgroup of Z^n containing the rows."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    s, _, v = exact.smith_normal_form(rows)
    r = sum(1 for i in range(min(len(rows), n)) if s[i][i] != 0)
    return exact.rational_inverse(v)[:r]  # V is unimodular: integer rows


def sublattice(ambient: Lattice, rows: Iterable[Sequence[int]]) -> Sublattice:
    sat = saturate(list(rows), ambient.rank)
    return Sublattice(ambient, tuple(tuple(r) for r in sat))


def orthogonal_complement(ambient: Lattice, rows: Iterable[Sequence[int]]) -> Sublattice:
    """Primitive basis of {v in L : v . span(rows) = 0}."""
    rows = [list(r) for r in rows]
    if not rows:
        return Sublattice(ambient, tuple(tuple(r) for r in exact.identity(ambient.rank)))
    pairing_cols = exact.mat_mul([list(r) for r in ambient.gram], exact.transpose(rows))
    basis = exact.integer_kernel(pairing_cols)
    return Sublattice(ambient, tuple(tuple(r) for r in basis))


def invariant_and_coinvariant(lat: Lattice, gens: Sequence[Sequence[Sequence[int]]]
                              ) -> tuple[Sublattice, Sublattice]:
    """Fixed sublattice of the group generated by gens, and its complement."""
    n = lat.rank
    for q in gens:
        if not lat.is_isometry(q):
            raise ValueError("generator is not an isometry")
    if not gens:
        inv_rows = exact.identity(n)
    else:
        stack = [[q[i][j] - int(i == j) for q in gens for j in range(n)]
                 for i in range(n)]
        inv_rows = exact.integer_kernel(stack)
    inv = Sublattice(lat, tuple(tuple(r) for r in inv_rows))
    coinv = orthogonal_complement(lat, inv.rows) if inv.rows else \
        Sublattice(lat, tuple(tuple(r) for r in exact.identity(n)))
    return inv, coinv


# -- discriminant group -----------------------------------------------------

@dataclass(frozen=True)
class DiscMap:
    """Discriminant group of an even lattice with lift and projection data.

    A dual vector is an integer numerator row x over a denominator; the
    dual lift of generator a is lifts[a] / den, den the exponent of D_L.
    """

    lattice: Lattice
    fqm: Fqm
    den: int
    lifts: tuple[tuple[int, ...], ...]  # numerators over den, basis coords
    _v_cols: tuple[tuple[int, ...], ...]  # columns of V for the generators

    def project(self, x: Sequence[int], den: Optional[int] = None
                ) -> tuple[int, ...]:
        """Class in D_L of the dual vector x / den (den defaults to self.den,
        the denominator of lift): the coordinates of x.G.V / den."""
        den = self.den if den is None else den
        y = []
        for row in self.lattice.gram:  # G is symmetric: its rows are columns
            c, r = divmod(sum(map(mul, x, row)), den)
            if r:
                raise ValueError("vector does not pair integrally with the "
                                 "lattice")
            y.append(c)
        return tuple(sum(map(mul, y, col)) % d
                     for col, d in zip(self._v_cols, self.fqm.orders))

    def lift(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        """Numerators over den of a dual vector in the class with the given
        coefficients."""
        out = [0] * self.lattice.rank
        for c, gen in zip(coeffs, self.lifts):
            if c:
                out = [a + c * b for a, b in zip(out, gen)]
        return tuple(out)


@cache
def disc_map(lat: Lattice) -> DiscMap:
    if not lat.is_even:
        raise ValueError("discriminant form requires an even lattice")
    g = lat.gram
    s, u, v = exact.smith_normal_form([list(r) for r in g])
    kept = [i for i in range(lat.rank) if s[i][i] > 1]
    orders = tuple(s[i][i] for i in kept)
    den = math.lcm(*orders)
    # U G V = S gives G^-1 = V S^-1 U: the dual vector x with x.G.V = e_i
    # is u_i / s_i, and x.G = u_i.G / s_i is row i of V^-1
    lifts, ys = [], []
    for i in kept:
        d = s[i][i]
        lifts.append(tuple(den // d * x for x in u[i]))
        y = exact.mat_vec(u[i], g)
        if any(c % d for c in y):
            raise RuntimeError(f"Smith form U G V = S breaks: u_{i}.G is not "
                               f"divisible by s_{i} = {d} for G = {g}")
        ys.append([c // d for c in y])
    # q and b of the generators: x_a.G.x_b = y_a.lift_b / den
    q_diag = tuple(Fraction(sum(map(mul, ya, la)) % (2 * den), den)
                   for ya, la in zip(ys, lifts))
    b_rows = tuple(tuple(Fraction(sum(map(mul, ya, lb)) % den, den)
                         for lb in lifts[a + 1:])
                   for a, ya in enumerate(ys))
    v_cols = tuple(tuple(row[i] for row in v) for i in kept)
    return DiscMap(lat, Fqm(orders, q_diag, b_rows), den, tuple(lifts),
                   v_cols)


def discriminant_group(lat: Lattice) -> Fqm:
    return disc_map(lat).fqm


def induced_map(lat: Lattice, f: Sequence[Sequence[int]]) -> FqmHom:
    """Action of an isometry on the discriminant group."""
    if not lat.is_isometry(f):
        raise ValueError("not an isometry of the lattice")
    dm = disc_map(lat)
    images = tuple(dm.project(exact.mat_vec(lift, f)) for lift in dm.lifts)
    return FqmHom(dm.fqm, dm.fqm, images)


# -- standard constructions -------------------------------------------------

def hyperbolic_plane() -> Lattice:
    return Lattice([[0, 1], [1, 0]])


def a2(sign: int = 1) -> Lattice:
    return rescale(Lattice([[2, 1], [1, 2]]), sign)


_E8_EDGES = [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]


def e8(sign: int = 1) -> Lattice:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i, j in _E8_EDGES:
        g[i - 1][j - 1] = g[j - 1][i - 1] = -1
    return rescale(Lattice(g), sign)


def span_of_square(k: int) -> Lattice:
    if k == 0:
        raise ValueError("rank-1 lattice needs a nonzero square")
    return Lattice([[k]])


def rescale(lat: Lattice, m: int) -> Lattice:
    if m == 0:
        raise ValueError("rescaling by zero is degenerate")
    if m == 1:
        return lat
    return Lattice([[m * x for x in row] for row in lat.gram])


def direct_sum(*lats: Lattice) -> Lattice:
    n = sum(l.rank for l in lats)
    g = [[0] * n for _ in range(n)]
    off = 0
    for l in lats:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return Lattice(g)


def k3_lattice() -> Lattice:
    return direct_sum(e8(-1), e8(-1), hyperbolic_plane(),
                      hyperbolic_plane(), hyperbolic_plane())


def k3_square_lattice() -> Lattice:
    """Second cohomology of a Hilbert square of a K3: signature (3, 20), det 2."""
    return direct_sum(k3_lattice(), span_of_square(-2))


def leech_lattice() -> Lattice:
    from .leech import LEECH_GRAM
    return Lattice(LEECH_GRAM)
