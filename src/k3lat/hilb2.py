"""Ample-cone obstructions for Hilbert squares of polarized K3 surfaces.

For a polarization h of square ``h_sq`` on a K3 surface S, the class h - xi
on the Hilbert square (xi the half-diagonal, xi^2 = -2) is ample on some
birational model unless a -10-class of divisibility 2 is orthogonal to
h - xi, or a wall orthogonal to a -2-class crosses the open segment from h
to h - xi.  Writing such classes as 2k*x + (2l+1)*xi resp. k*x + l*xi with
x a primitive surface class turns both cases into two-variable Diophantine
systems; each solution pins down the Gram matrix of <x, h>, a rank-2 block
that would have to embed into the Picard lattice of S.  Both systems have
closed forms.  The -10 one (proof in minus10_solutions) has one block
((2(l^2+l-1), 2l+1), (2l+1, h_sq)) per l >= 0 up to the Hodge index bound.
The -2 one (proof in minus2_wall_scan) has in every degree one wall,
t = 1/2, and one block ((-2,p),(p,h_sq)) with p = (h_sq-2)/2.  Whether a
block really embeds is geometry the caller supplies, e.g. "S contains no
lines".  The witnesses that exclude a block, a -2-class orthogonal to h or
a line class, come from one completed-square test (vector_with), not a
search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

IntMatrix = tuple[tuple[int, ...], ...]
# wall datum: parameter t of the pierced point h - t*xi, coefficients (k, l)
WallSolution = tuple[Fraction, int, int]


@dataclass(frozen=True)
class ObstructionReport:
    minus10_grams: tuple[IntMatrix, ...]
    wall_solutions: tuple[WallSolution, ...]
    line_class_needed: bool


@dataclass(frozen=True)
class WallScan:
    solutions: tuple[WallSolution, ...]
    # Gram of <z, h> for the -2-class z the wall forces into the Picard lattice
    terminal_gram: IntMatrix


def _check_degree(h_sq: int) -> None:
    if h_sq <= 0 or h_sq % 2:
        raise ValueError("polarization square must be a positive even integer")


def minus10_solutions(h_sq: int, l_bound: Optional[int] = None):
    """Solutions of the -10-class system as (gram, k, l) triples.

    A primitive class y = 2k*x + (2l+1)*xi of square -10 and divisibility 2
    orthogonal to h - xi forces x^2 = 2(l^2+l-1)/k^2 and h.x = -(2l+1)/k.
    So k divides 2l+1 (h.x is an integer), while primitivity needs
    gcd(k, 2l+1) = 1: k = 1, and x^2 = 2(l^2+l-1) is even.  The Hodge index theorem,
    h_sq * x^2 < (h.x)^2, reads (2h_sq-4)(l^2+l) < 2h_sq+1: for h_sq >= 4
    it bounds l, and l_bound is ignored there (a negative one is still
    rejected); for h_sq = 2 it holds for every l, so the caller must cap
    |l| explicitly.  One solution per l, ascending.

    Witnesses are canonical: k >= 1, l >= 0 (the maps l -> -1-l and
    k -> -k only flip the sign of x), and h.x is recorded >= 0.
    """
    _check_degree(h_sq)
    if l_bound is not None and l_bound < 0:
        raise ValueError("l_bound must be a nonnegative integer")
    if h_sq == 2:
        if l_bound is None:
            raise ValueError(
                "square 2 admits infinitely many obstruction blocks; "
                "pass l_bound to truncate the scan")
        l_range = range(0, l_bound + 1)
    else:
        l_range = itertools.takewhile(
            lambda l: (2 * h_sq - 4) * (l * l + l) < 2 * h_sq + 1,
            itertools.count(0))
    return [(((2 * (l * l + l - 1), 2 * l + 1), (2 * l + 1, h_sq)), 1, l)
            for l in l_range]


def minus10_obstruction_grams(h_sq: int,
                              l_bound: Optional[int] = None) -> list[IntMatrix]:
    """Rank-2 Gram blocks forced by -10-classes of divisibility 2, in
    sorted order: x^2 = 2(l^2+l-1) ascends with l."""
    return [g for g, _, _ in minus10_solutions(h_sq, l_bound)]


def minus2_wall_scan(h_sq: int) -> WallScan:
    """Walls orthogonal to -2-classes crossing the open segment h to h - xi.

    y = k*x + l*xi orthogonal to h - t*xi with 0 < t < 1 forces
    x^2 = 2(l^2-1)/k^2 and h.x = 2tl/k =: m with k, l, m >= 1; t < 1 gives
    mk <= 2l - 1, while Hodge index needs (mk)^2 > 2*h_sq*(l^2-1).  For
    l >= 2 that fails, as 2*h_sq*(l^2-1) >= 4l^2-4 >= (2l-1)^2.  The one
    wall is (k, l, m) = (1, 1, 1), t = 1/2, on the block ((0,1),(1,h_sq)),
    whose -2-classes are +-z, z = h - ((h_sq+2)/2)*x; z.h = (h_sq-2)/2 =: p
    is the least nonnegative pairing, and z, h span ((-2,p),(p,h_sq)).  The
    l = 0 branch would need a -2-class orthogonal to the ample h; the same
    filter empties the t = 0 endpoint.
    """
    _check_degree(h_sq)
    p = (h_sq - 2) // 2
    return WallScan(((Fraction(1, 2), 1, 1),), ((-2, p), (p, h_sq)))


def vector_with(gram: IntMatrix, norm: int, pairing: int):
    """An integer vector v = (a, b) with vGv^T = norm and pairing with the
    second basis vector h, or None; of two solutions, the one with larger a.

    Domain: G = ((A, B), (B, H)) with H > 0 and D = AH - B^2 != 0, else
    ValueError.  Completing the square gives H*vGv^T = D*a^2 + (aB + bH)^2,
    and aB + bH is the pairing k, so a^2 = (H*norm - k^2)/D must be a
    perfect square and b = (k - aB)/H an integer.  Every block this module
    builds is in the domain: H = h_sq > 0; a -10 block has
    D = 2H(l^2+l-1) - (2l+1)^2, which is odd; the wall block has
    D = -2H - p^2 < 0.
    """
    (g00, g01), (_, g11) = gram
    det = g00 * g11 - g01 * g01
    if g11 <= 0 or det == 0:
        raise ValueError("vector_with needs H > 0 and a nonzero determinant")
    a_sq, rem = divmod(g11 * norm - pairing * pairing, det)
    root = math.isqrt(max(a_sq, 0))
    if rem or root * root != a_sq:
        return None
    for a in (root, -root):
        b, rem = divmod(pairing - a * g01, g11)
        if not rem:
            return (a, b)
    return None


def line_witness(gram: IntMatrix):
    """A class of norm -2 meeting h in exactly one point: on a surface
    whose polarization is a hyperplane section, an effective line."""
    return vector_with(gram, -2, 1)


def _obstruction_blocks(h_sq: int, l_bound: Optional[int]
                        ) -> tuple[list[IntMatrix], WallScan]:
    """The -10 blocks in sorted order, then the -2 wall block last; and the
    -2 wall scan the last block comes from."""
    grams = minus10_obstruction_grams(h_sq, l_bound)
    scan = minus2_wall_scan(h_sq)
    return grams + [scan.terminal_gram], scan


def obstruction_report(h_sq: int,
                       l_bound: Optional[int] = None) -> ObstructionReport:
    blocks, scan = _obstruction_blocks(h_sq, l_bound)
    needs_line = any(line_witness(g) is not None for g in blocks)
    return ObstructionReport(tuple(blocks[:-1]), scan.solutions, needs_line)


def ample_model_verdict(h_sq: int, no_lines: bool,
                        l_bound: Optional[int] = None) -> bool:
    """True iff every obstruction block of degree h_sq is excluded from the
    Picard lattice: it contains a -2-class orthogonal to h (impossible next
    to an ample class) or, when no_lines is set, a line class.
    """
    return all(vector_with(g, -2, 0) is not None
               or (no_lines and line_witness(g) is not None)
               for g in _obstruction_blocks(h_sq, l_bound)[0])
