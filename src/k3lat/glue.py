"""Overlattices from glue maps, the extension criterion, and divisibility.

Gluing: given even lattices N and M and a form-negating embedding gamma of
D(M) into D(N), an FqmHom, the vectors x + gamma(x) span an even
overlattice of N + M.  The extension criterion decides when an isometry of N
extends over such an overlattice; divisibility_in_glued computes div(v) of v
in N measured inside the glued ambient lattice without constructing it, and
wall_divisor_scan uses it to look for wall divisors in a definite lattice.
partner_disc_candidates lists the forms a glue partner of N can carry; like
classify it reads the admissible images c^perp off fqm.admissible_images.
Each form is -q(N~_c), N~_c = N + <2> + Z (c~, 1/2) for an admissible class
c: for L the K3^[2] lattice, L + <2> glues to the even unimodular II_{4,20},
M = N^perp_L is the complement of N~_c there, and q_M = -q(N~_c) (Nikulin
1.6.1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Optional, Sequence

from . import exact
from .enumeration import vectors_of_norm
from .fqm import (Element, Fqm, FqmHom, Subgroup, admissible_images,
                  hom_closure_images, is_isomorphic, negated)
from .lattice import Lattice, disc_map, divisibility


def overlattice_pairs(n: Lattice, m: Lattice,
                      class_pairs: Sequence[tuple]) -> Lattice:
    """Overlattice of N + M spanned by lifts of (class in D_N, class in D_M)
    pairs.  Raises if the span fails to be an integral even lattice."""
    dn, dm = disc_map(n), disc_map(m)
    # rows are numerators over den: the glue lifts, and N + M as the moduli
    den = math.lcm(dn.den, dm.den)
    sn, sm = den // dn.den, den // dm.den
    basis = exact.hermite_basis_mod(
        ([sn * x for x in dn.lift(a)] + [sm * x for x in dm.lift(b)]
         for a, b in class_pairs), [den] * (n.rank + m.rank))
    # a Gram entry of N + M is the sum of the pairings in N and in M
    gram_n = exact.conjugate_rows([row[:n.rank] for row in basis], n.gram)
    gram_m = exact.conjugate_rows([row[n.rank:] for row in basis], m.gram)
    out = []
    for i, (gn, gm) in enumerate(zip(gram_n, gram_m)):
        row = list(map(add, gn, gm))
        if any(x % (den * den) for x in row):
            raise ValueError("glue classes do not pair integrally")
        row = [x // (den * den) for x in row]
        if row[i] % 2:
            raise ValueError("glue class with odd square")
        out.append(tuple(row))
    return Lattice(tuple(out))


def overlattice(n: Lattice, m: Lattice, gamma: FqmHom) -> Lattice:
    """The overlattice glued along gamma, an anti-embedding D(M) -> D(N):
    negating the form, gamma is injective, as D(M) has no radical."""
    dn, dm = disc_map(n), disc_map(m)
    if gamma.source != dm.fqm:
        raise ValueError("glue map source must be D(M)")
    if gamma.target != dn.fqm:
        raise ValueError("glue map target must be D(N)")
    if not gamma.negates_form():
        raise ValueError("glue map must be a form-negating embedding")
    pairs = []
    for i in range(dm.fqm.rank):
        e = tuple(int(i == j) for j in range(dm.fqm.rank))
        pairs.append((gamma(e), e))
    lat = overlattice_pairs(n, m, pairs)
    if abs(lat.det) * dm.fqm.order ** 2 != abs(n.det * m.det):
        raise RuntimeError("glued lattice breaks |det L| |D_M|^2 = "
                           f"|det N det M|: det L = {lat.det}, "
                           f"|D_M| = {dm.fqm.order}, det N = {n.det}, "
                           f"det M = {m.det}")
    return lat


def glue_pairs(ambient: Lattice, n_rows: Sequence[Sequence[int]],
               m_rows: Sequence[Sequence[int]]) -> list[tuple]:
    """Glue classes (in D_N x D_M) of an ambient lattice over the split
    N + M given by basis rows of two mutually orthogonal primitive
    sublattices spanning it rationally."""
    stacked = list(n_rows) + list(m_rows)
    if len(stacked) != ambient.rank:
        raise ValueError("sublattices must span the ambient rationally")
    k = len(n_rows)
    n_lat = Lattice(exact.conjugate_rows(n_rows, ambient.gram))
    m_lat = Lattice(exact.conjugate_rows(m_rows, ambient.gram))
    dn, dm = disc_map(n_lat), disc_map(m_lat)
    # row i of adj / det holds the split coordinates of ambient basis vector i
    adj = exact.adjugate(stacked)
    # det = (stacked adj)_00, as in exact.rational_inverse
    det = sum(map(mul, stacked[0], (row[0] for row in adj))) if adj else 1
    return [(dn.project(row[:k], det), dm.project(row[k:], det))
            for row in adj]


def divisibility_in_glued(n: Lattice, v: Sequence[int],
                          image: Subgroup) -> int:
    """div(v) of v in N computed inside the glued lattice: the gcd of the
    pairings of v with N and with dual lifts of the glue image generators."""
    if not any(v):
        raise ValueError("divisibility of the zero vector is undefined")
    dn = disc_map(n)
    if image.ambient != dn.fqm:
        raise ValueError("image must live in D(N)")
    v_gram = exact.mat_vec(v, n.gram)
    g = math.gcd(*v_gram)  # divisibility of v in N
    # a basis row and its reduction lift to dual vectors that differ by a
    # vector of N, whose pairing with v is a multiple of g
    for gen in image.basis:
        pairing = sum(map(mul, v_gram, dn.lift(gen)))
        if pairing % dn.den:
            raise RuntimeError(f"v = {list(v)} in N pairs to "
                               f"{Fraction(pairing, dn.den)} with the dual "
                               f"lift of glue class {gen}, not an integer")
        g = math.gcd(g, pairing // dn.den)
    return g


def wall_divisor_scan(m_lat: Lattice, glue_image=None) -> bool:
    """True iff the lattice contains a wall divisor: a vector of square -2,
    or of square -10 with divisibility 2 in the glued ambient lattice."""
    if m_lat.rank and not m_lat.is_negative_definite:
        raise ValueError("wall scan expects a negative definite lattice")
    if vectors_of_norm(m_lat, -2):
        return True
    for v in vectors_of_norm(m_lat, -10):
        if glue_image is None:
            div = divisibility(m_lat, v)
        else:
            div = divisibility_in_glued(m_lat, v, glue_image)
        if div == 2:
            return True
    return False


def realized_actions(d_m: Fqm, obar: Iterable[FqmHom]
                     ) -> set[tuple[Element, ...]]:
    """Image tuples of the subgroup of O(D_M) generated by obar (generators
    of the image of O(M) in O(D_M)): the actions on D(M) that isometries of
    M realize.  Preserving the form, each is injective: D(M) has no radical."""
    obar = list(obar)
    for h in obar:
        if h.source != d_m or h.target != d_m or not h.preserves_form():
            raise ValueError("obar must consist of automorphisms of D(M)")
    return hom_closure_images(d_m, obar)


def check_extendable(fbar: FqmHom, gamma: FqmHom,
                     realized: Optional[set[tuple[Element, ...]]] = None
                     ) -> tuple[bool, Optional[FqmHom]]:
    """Does the isometry f of N extend over the lattice glued along gamma?

    fbar is the map f induces on D(N), induced_map(n, f); callers deciding
    many gluings compute it once per isometry.
    Condition 1: fbar preserves the glue image.
    Condition 2: the conjugated action on D(M) is realized by an isometry
    of M; with realized given (realized_actions of generators of the image
    of O(M) in O(D_M), built once per obar) this is checked exactly,
    otherwise any form-preserving automorphism is accepted (permissive
    mode, a superset).

    Returns (decision, witness), the witness being the conjugated action
    gamma^-1 . fbar . gamma on D(M) whenever condition 1 holds.
    """
    if fbar.source != gamma.target or fbar.target != gamma.target:
        raise ValueError("fbar must act on the target of gamma")
    preimage = gamma.preimage_table
    moved = [fbar(a) for a in gamma.images]
    if any(y not in preimage for y in moved):
        return False, None
    witness = FqmHom(gamma.source, gamma.source,
                     tuple(preimage[y] for y in moved))
    if realized is None:
        return True, witness
    return witness.images in realized, witness


def partner_disc_candidates(n: Lattice) -> list[Fqm]:
    """Discriminant forms a glue partner of N in the hyperkaehler lattice
    can carry.

    Such a partner anti-embeds onto an admissible image H = c^perp of D(N),
    one of fqm.admissible_images, so the partner's form is (H, -q).  It is
    read off N~_c = N + <2> + Z (c~, 1/2), which overlattice_pairs builds
    from (c, 1/2) and q(c) + 1/2 = 2 keeps even: as 2c = 0 and c is not in
    c^perp, x -> (x, 0) maps c^perp isomorphically onto
    D(N~_c) = (c, 1/2)^perp / <(c, 1/2)>, so D(N~_c) is (H, q) and
    N~_c(-1) + E8(-1)^2 has the partner's genus.  The images are visited
    in the binary order of the supports of their rows w, bit i standing
    for generator i.  Returns one form per isomorphism class of H; a single
    entry means the invariant side alone pins down the partner's glue data.
    """
    d = disc_map(n).fqm
    two = Lattice(((2,),))
    disc = disc_map.__wrapped__  # uncached: nothing asks for N~_c again
    kept: list[Fqm] = []
    # each w_i is 0 or e/2: reversed rows compare as the support masks do
    for c, _ in sorted(admissible_images(d), key=lambda t: t[1][::-1]):
        form = disc(overlattice_pairs(n, two, [(c, (1,))])).fqm
        # negation preserves isomorphism, so only the kept forms negate
        if not any(is_isomorphic(form, seen) for seen in kept):
            kept.append(form)
    return [negated(f) for f in kept]
