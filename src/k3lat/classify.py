"""Good isometries of rank-3 lattices and assembly of classification rows.

Pipeline: enumerate good isometries of each invariant lattice, one per
cyclic group <f> (named by its axis and order), read the admissible glue
images c^perp of D(N), c an order-2 class with q(c) = 3/2, each as c and
one anti-embedding of the coinvariant form onto c^perp
(fqm.k3sq_glue_images), keep the isometries fixing c (in exact mode, with
a realized witness), and emit one row per GL2(Z) class of the
transcendental lattice, carrying the polarization degree, its
divisibility and the K3-birational flag: each read off x = dm.lift(c) by
one class test, _same_class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import exact
from .enumeration import Isometry, NotDefiniteError, all_automorphisms
from .fqm import Fqm, FqmHom, conjugates, k3sq_glue_images
from .glue import check_extendable, realized_actions
from .lattice import Lattice, disc_map, induced_map, orthogonal_complement

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
    trace is 3 only for f = 1, and -1, 0, 1, 2 give orders 2, 3, 4, 6.

    N is positive definite iff all_automorphisms succeeds (N is definite)
    and G00 > 0."""
    domain = ("good isometries live on even rank-3 positive definite "
              "lattices")
    if n.rank != 3 or not n.is_even or n.gram[0][0] <= 0:
        raise ValueError(domain)
    try:
        autos = all_automorphisms(n)
    except NotDefiniteError:
        raise ValueError(domain) from None
    out = []
    for q in autos:
        order = _ORDER_OF_TRACE.get(q[0][0] + q[1][1] + q[2][2])
        if order is not None and exact.bareiss_det(q) == 1:
            out.append(Isometry(q, order))
    return out


def _fixed_line(f) -> tuple[int, ...]:
    """The h spanning the line a good isometry f fixes, primitive, first
    nonzero entry > 0.  h (f - 1) = 0 and f - 1 has rank 2, so h is the
    cross product of two independent columns of f - 1, made primitive."""
    c0, c1, c2 = ([f[i][j] - (i == j) for i in range(3)] for j in range(3))
    for u, v in ((c0, c1), (c0, c2), (c1, c2)):
        h = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
        if any(h):
            break
    if not any(h) or tuple(exact.mat_vec(h, f)) != h:
        raise ValueError("isometry must fix exactly one line")
    g = math.gcd(*h) * (1 if next(x for x in h if x) > 0 else -1)
    return tuple(x // g for x in h)


def _complement(n: Lattice, h) -> tuple[tuple, IntMatrix]:
    """(T basis rows, T gram) for T = h^perp, T[0][0] <= T[1][1],
    T[0][1] >= 0.  The kernel, so T, is the same for h and -h."""
    t1, t2 = orthogonal_complement(n, [h])
    (a, b), (_, c) = exact.conjugate_rows((t1, t2), n.gram)
    if a > c:  # swapping the rows swaps a and c
        t1, t2, a, c = t2, t1, c, a
    if b < 0:  # negating the second row negates b
        t2, b = tuple(-x for x in t2), -b
    return (t1, t2), ((a, b), (b, c))


def _same_class(den: int, u: Sequence[int], x: Sequence[int]) -> bool:
    """Do the numerator rows u and x over den name one class of D(N)?  Iff
    u - x lies in N, i.e. iff den divides each of its numerators."""
    return not any((a - b) % den for a, b in zip(u, x))


def _fixes(dm, f, x) -> bool:
    """Does the isometry f fix the class of x = dm.lift(c) in D(N)?"""
    return _same_class(dm.den, exact.mat_vec(x, f), x)


def _glued_div(den: int, v: Sequence[int], x: Sequence[int]) -> int:
    """div(v), v primitive in N, in the lattice glued along c^perp,
    x = dm.lift(c).  That lattice projects onto N_c, the lifts of c^perp,
    of index 2 in N^* and holding N; v . N^* = Z, so div(v) is 1 or 2, and
    2 iff v pairs evenly with N_c, iff v/2 is in N^* with
    b(v/2, .) = b(c, .), iff (b has no radical) (den/2) v names c."""
    return 2 if _same_class(den, [den // 2 * a for a in v], x) else 1


def k3_birational_flag(den: int, x: Sequence[int],
                       t_basis: Sequence[Sequence[int]]) -> str:
    """"excluded" when t1, t2 or t1+t2 (primitive, as T = h^perp is
    saturated) has divisibility 2 in the lattice glued along c^perp,
    x = dm.lift(c) (a wall class survives on the transcendental side),
    else "unknown"."""
    t1, t2 = t_basis
    for v in (t1, t2, [a + b for a, b in zip(t1, t2)]):
        if _glued_div(den, v, x) == 2:
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

    Loops over the admissible images H = c^perp of D(N), found once per
    distinct D(N) as c and one gamma onto each; c alone fixes div and the
    k3 flag (_glued_div).  f extends only if fbar(H) = H (condition 1 of
    check_extendable), which holds iff f fixes c (Nikulin 1979, 1.5): fbar
    is an isometry of D(N), so fbar(c^perp) = fbar(c)^perp, and as b has
    no radical, (c^perp)^perp = <c> = {0, c}, so fbar(c)^perp = c^perp
    iff fbar(c) = c.  Permissive mode needs nothing else.  Exact mode needs
    obar: the gluings onto an image are gamma o a, a in O(D_M), with
    witnesses a^-1 w a, so for an f fixing c it tests gamma's witness w
    against the O(D_M)-conjugates of <obar>, building fbar on first use.
    Per invariant lattice it takes one generator f per cyclic group <f>
    (f^-1 gives the same rows); T = h^perp once per axis h, div h and the
    k3 flag once per axis and image.  A merged row prints its smallest T
    and flags "excluded" only if every gluing does (else "unknown").
    """
    if mode not in ("permissive", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and m_data.obar is None:
        raise ValueError("exact mode needs obar generators")
    realized = (conjugates(m_data.disc,
                           realized_actions(m_data.disc, m_data.obar))
                if mode == "exact" else None)
    images_of: dict[Fqm, list[tuple]] = {}  # D(N) -> (c, gamma)s
    merged: dict[tuple, ClassificationRow] = {}
    for n in invariant_lattices:
        goods = good_isometries(n)  # raises unless rank 3, even, definite
        if not goods:
            continue
        dm = disc_map(n)
        if dm.fqm not in images_of:
            images_of[dm.fqm] = k3sq_glue_images(m_data.disc, dm.fqm)
        images = images_of[dm.fqm]
        if not images:
            continue
        # rotations about h act faithfully on h^perp, a cyclic group, so
        # (h, m) names <f>; its other generator f^-1 gives the rows of f,
        # as it extends iff f does, with witness w^-1: keep the first f
        gens: dict[tuple, Isometry] = {}
        for f in goods:
            gens.setdefault((_fixed_line(f.matrix), f.order), f)
        fbars: dict[tuple, FqmHom] = {}  # exact mode, built on first use
        complements: dict[tuple, tuple] = {}  # axis h -> (T rows, T gram)
        for c, gam in images:
            x = dm.lift(c)
            orders: dict[tuple, list[int]] = {}  # axis -> m of extending f
            for (h, m), f in gens.items():
                if not _fixes(dm, f.matrix, x):
                    continue
                if realized is not None:
                    if (h, m) not in fbars:
                        fbars[h, m] = induced_map(n, f.matrix)
                    if not check_extendable(fbars[h, m], gam, realized)[0]:
                        continue
                orders.setdefault(h, []).append(m)
            for h, ms in orders.items():
                if h not in complements:
                    complements[h] = _complement(n, h)
                t_rows, t_gram = complements[h]
                h_div = _glued_div(dm.den, h, x)  # h is primitive
                flag = k3_birational_flag(dm.den, x, t_rows)
                for m in ms:
                    row = ClassificationRow(group_name, n.norm(h), h_div, m,
                                            t_gram, flag, n.gram, mode)
                    key = (row.h_sq, h_div, m, n.gram, gauss_reduced(t_gram))
                    old = merged.setdefault(key, row)
                    merged[key] = replace(
                        row, t_gram=min(old.t_gram, t_gram),
                        k3_flag=flag if flag == old.k3_flag else "unknown")
        # induced_map checked each f it built; no row leaves unchecked
        if not all(n.is_isometry(f.matrix)
                   for hm, f in gens.items() if hm not in fbars):
            raise RuntimeError(f"a good isometry breaks f G f^T = G for "
                               f"G = {n.gram}")
    return sorted(merged.values(), key=_row_key)
