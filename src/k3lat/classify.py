"""Good isometries of rank-3 lattices and assembly of classification rows.

Pipeline: enumerate good isometries of each invariant lattice, read the
admissible glue images off D(N) (fqm.admissible_images: each is c^perp for
an order-2 class c with q(c) = 3/2) together with one anti-embedding of the
coinvariant discriminant form onto each (fqm.k3sq_glue_images), keep the
isometries extending over the glued lattice, and emit one row per GL2(Z)
class of the transcendental lattice, carrying the polarization degree, its
divisibility and the K3-birational flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import exact
from .enumeration import Isometry, all_automorphisms
from .fqm import Fqm, FqmHom, Subgroup, conjugates, k3sq_glue_images
from .glue import check_extendable, divisibility_in_glued, realized_actions
from .lattice import Lattice, disc_map, induced_map, invariant_and_coinvariant

IntMatrix = tuple[tuple[int, ...], ...]

# order k paired with trace 1 + 2cos(2pi/k): eigenvalues 1, zeta_k, conj
GOOD_TRACES = {2: -1, 3: 0, 4: 1, 6: 2}
_ORDER_OF_TRACE = {t: k for k, t in GOOD_TRACES.items()}


def good_isometries(n: Lattice) -> list[Isometry]:
    """All f in O(N) with a single fixed line and primitive-root rotation
    part, i.e. (order, trace) in {(2,-1), (3,0), (4,1), (6,2)}: the f of
    det 1 but the identity.  f has finite order, so its characteristic
    polynomial is a product of cyclotomic polynomials of degree <= 2: its
    eigenvalues are det f = +-1 and a pair of product 1.  With det 1 the
    trace is 3 only for f = 1, and -1, 0, 1, 2 give orders 2, 3, 4, 6."""
    if n.rank != 3 or not n.is_even or not n.is_positive_definite:
        raise ValueError("good isometries live on even rank-3 positive "
                         "definite lattices")
    out = []
    for q in all_automorphisms(n):
        order = _ORDER_OF_TRACE.get(q[0][0] + q[1][1] + q[2][2])
        if order is not None and exact.bareiss_det(q) == 1:
            out.append(Isometry(q, order))
    return out


def _fixed_line_and_complement(n: Lattice, matrix):
    """(h, T basis rows, T gram) for an isometry fixing one line: h spans it,
    first nonzero entry > 0; T = h^perp, T[0][0] <= T[1][1], T[0][1] >= 0."""
    inv, coinv = invariant_and_coinvariant(n, [matrix])
    if len(inv) != 1:
        raise ValueError("isometry must fix exactly one line")
    (h,), (t1, t2) = inv, coinv
    if next(x for x in h if x) < 0:
        h = tuple(-x for x in h)
    (a, b), (_, c) = exact.conjugate_rows(coinv, n.gram)
    if a > c:  # swapping the rows swaps a and c
        t1, t2, a, c = t2, t1, c, a
    if b < 0:  # negating the second row negates b
        t2, b = tuple(-x for x in t2), -b
    return h, (t1, t2), ((a, b), (b, c))


def k3_birational_flag(n: Lattice, t_basis: Sequence[Sequence[int]],
                       image: Subgroup) -> str:
    """"excluded" when t1, t2 or t1+t2 has divisibility 2 in the glued
    lattice (a wall class survives on the transcendental side), else
    "unknown"."""
    t1, t2 = t_basis
    for v in (t1, t2, [a + b for a, b in zip(t1, t2)]):
        if divisibility_in_glued(n, v, image) == 2:
            return "excluded"
    return "unknown"


@dataclass(frozen=True)
class CoinvariantData:
    """Discriminant-side data of the rank-20 coinvariant lattice.

    Only the discriminant form is required.  obar (generators of the image
    of O(M) in O(D_M)) unlocks exact mode; gram, the lattice M itself, is
    checked against disc.
    """

    disc: Fqm
    gram: Optional[Lattice] = None
    obar: Optional[tuple[FqmHom, ...]] = None

    def __post_init__(self):
        if self.gram is not None and disc_map(self.gram).fqm != self.disc:
            raise ValueError("declared discriminant does not match the Gram")


@dataclass(frozen=True)
class ClassificationRow:
    group_name: str
    h_sq: int
    h_div: int
    m: int
    t_gram: IntMatrix
    k3_flag: str  # "excluded" / "unknown"; ROADMAP item 5 reserves "possible"
    invariant_gram: IntMatrix
    mode: str  # "exact" / "permissive"


def _row_key(row: ClassificationRow):
    return (row.h_sq, row.h_div, row.m, row.t_gram, row.invariant_gram)


def gauss_reduced(t_gram: IntMatrix) -> tuple[int, int, int]:
    """The unique (a, b, c) with 0 <= 2b <= a <= c in the GL2(Z) class of
    the positive definite binary Gram ((a, b), (b, c))."""
    (a, b), (_, c) = t_gram
    while True:
        k = (2 * b + a) // (2 * a)  # x -> x - ky brings b into [-a/2, a/2)
        b, c = b - k * a, c - 2 * k * b + k * k * a
        if a <= c:
            return a, abs(b), c
        a, c = c, a


def classify(invariant_lattices: Sequence[Lattice], m_data: CoinvariantData,
             group_name: str, mode: str = "permissive"
             ) -> list[ClassificationRow]:
    """One row per (h^2, div, m, GL2(Z) class of T, invariant Gram), sorted.

    Loops over the admissible glue images of D(N), each c^perp for an
    order-2 class c with q(c) = 3/2, found once per distinct D(N), with one
    gamma onto each; an image alone fixes condition 1, div and the k3 flag.
    Permissive mode ignores obar.  Exact mode needs obar: the gluings onto
    an image are gamma o a, a in O(D_M), with witnesses a^-1 w a, so it
    tests gamma's witness w against the O(D_M)-conjugates of <obar>.  Per
    invariant lattice, the map each good isometry induces on D(N) is built
    once, and its fixed line and complement once it yields a row.  A
    merged row prints its smallest T and flags "excluded" only if every
    gluing does (else "unknown").
    """
    if mode not in ("permissive", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and m_data.obar is None:
        raise ValueError("exact mode needs obar generators")
    realized = (conjugates(m_data.disc,
                           realized_actions(m_data.disc, m_data.obar))
                if mode == "exact" else None)
    images_of: dict[Fqm, list[tuple[Subgroup, FqmHom]]] = {}
    merged: dict[tuple, ClassificationRow] = {}
    for n in invariant_lattices:
        goods = good_isometries(n)  # raises unless rank 3, even, definite
        if not goods:
            continue
        d_n = disc_map(n).fqm
        if d_n not in images_of:
            images_of[d_n] = k3sq_glue_images(m_data.disc, d_n)
        images = images_of[d_n]
        if not images:
            continue
        fbars = [induced_map(n, f.matrix) for f in goods]
        lines: dict[int, tuple] = {}  # good isometry index -> (h, T rows, T)
        for image, gam in images:
            for i, f in enumerate(goods):
                if not check_extendable(fbars[i], gam, realized=realized)[0]:
                    continue
                if i not in lines:
                    lines[i] = _fixed_line_and_complement(n, f.matrix)
                h, t_rows, t_gram = lines[i]
                row = ClassificationRow(
                    group_name=group_name,
                    h_sq=n.norm(h),
                    h_div=divisibility_in_glued(n, h, image),
                    m=f.order,
                    t_gram=t_gram,
                    k3_flag=k3_birational_flag(n, t_rows, image),
                    invariant_gram=n.gram,
                    mode=mode)
                key = (row.h_sq, row.h_div, row.m, row.invariant_gram,
                       gauss_reduced(t_gram))
                old = merged.setdefault(key, row)
                merged[key] = replace(
                    row, t_gram=min(old.t_gram, t_gram),
                    k3_flag=row.k3_flag if row.k3_flag == old.k3_flag
                    else "unknown")
    return sorted(merged.values(), key=_row_key)
