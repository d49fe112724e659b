"""Overlattices from glue maps, the extension criterion, and divisibility.

Gluing: given even lattices N and M and a form-negating embedding gamma of
D(M) into D(N), the vectors x + gamma(x) span an even overlattice of N + M.
The extension criterion decides when an isometry of N extends over such an
overlattice; divisibility_in_glued computes div(v) of v in N measured inside
the glued ambient lattice without constructing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from . import exact
from .fqm import (Element, Fqm, FqmHom, Subgroup, hom_closure_images,
                  hom_image, isomorphisms, k3sq_glue_admissible, negated,
                  subgroup_presentation)
from .lattice import Lattice, direct_sum, disc_map, induced_map

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GlueMap:
    """A form-negating embedding of D(M) into D(N), with its context."""

    gamma: FqmHom  # source = M_disc, target = D(N)
    n: Lattice
    m_disc: Fqm
    m_gram: Optional[Lattice] = None

    def __post_init__(self):
        if self.gamma.source != self.m_disc:
            raise ValueError("glue map source must be the stated M module")
        if self.gamma.target != disc_map(self.n).fqm:
            raise ValueError("glue map target must be D(N)")
        if not self.gamma.negates_form():
            raise ValueError("glue map must negate the quadratic form")
        if not self.gamma.is_injective():
            raise ValueError("glue map must be injective")
        if self.m_gram is not None:
            if disc_map(self.m_gram).fqm != self.m_disc:
                raise ValueError("M gram does not present the stated module")

    def image(self) -> Subgroup:
        return hom_image(self.gamma)


def _gamma_hom(gamma) -> FqmHom:
    return gamma.gamma if isinstance(gamma, GlueMap) else gamma


def overlattice_pairs(n: Lattice, m: Lattice,
                      class_pairs: Sequence[tuple]) -> Lattice:
    """Overlattice of N + M spanned by lifts of (class in D_N, class in D_M)
    pairs.  Raises if the span fails to be an integral even lattice."""
    dn, dm = disc_map(n), disc_map(m)
    total = n.rank + m.rank
    # every row is a numerator over den: N + M itself, then the glue lifts
    den = math.lcm(dn.den, dm.den)
    sn, sm = den // dn.den, den // dm.den
    rows = [[den * int(i == j) for j in range(total)] for i in range(total)]
    for a, b in class_pairs:
        rows.append([sn * x for x in dn.lift(a)] + [sm * x for x in dm.lift(b)])
    basis = [row for row in exact.hermite_row_basis(rows) if any(row)]
    if len(basis) != total:
        raise ValueError("glue classes do not span a full-rank lattice")
    ambient_gram = [list(r) for r in direct_sum(n, m).gram]
    gram = exact.conjugate_rows(basis, ambient_gram)
    out = []
    for i, row in enumerate(gram):
        if any(x % (den * den) for x in row):
            raise ValueError("glue classes do not pair integrally")
        row = [x // (den * den) for x in row]
        if row[i] % 2:
            raise ValueError("glue class with odd square")
        out.append(tuple(row))
    return Lattice(tuple(out))


def overlattice(n: Lattice, m: Lattice, gamma) -> Lattice:
    """The overlattice glued along gamma, an anti-embedding D(M) -> D(N)."""
    gam = _gamma_hom(gamma)
    dn, dm = disc_map(n), disc_map(m)
    if gam.source != dm.fqm:
        raise ValueError("glue map source must be D(M)")
    if gam.target != dn.fqm:
        raise ValueError("glue map target must be D(N)")
    if not gam.negates_form() or not gam.is_injective():
        raise ValueError("glue map must be a form-negating embedding")
    pairs = []
    for i in range(dm.fqm.rank):
        e = tuple(int(i == j) for j in range(dm.fqm.rank))
        pairs.append((gam(e), e))
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
    stacked = [list(r) for r in n_rows] + [list(r) for r in m_rows]
    if len(stacked) != ambient.rank:
        raise ValueError("sublattices must span the ambient rationally")
    k = len(n_rows)
    n_lat = Lattice(exact.conjugate_rows([list(r) for r in n_rows],
                                         [list(r) for r in ambient.gram]))
    m_lat = Lattice(exact.conjugate_rows([list(r) for r in m_rows],
                                         [list(r) for r in ambient.gram]))
    dn, dm = disc_map(n_lat), disc_map(m_lat)
    # row i of adj / det holds the split coordinates of ambient basis vector i
    adj = exact.adjugate(stacked)
    det = exact.bareiss_det(stacked)
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
    for gen in image.generators:
        pairing = sum(map(mul, v_gram, dn.lift(gen)))
        if pairing % dn.den:
            raise RuntimeError(f"v = {list(v)} in N pairs to "
                               f"{Fraction(pairing, dn.den)} with the dual "
                               f"lift of glue class {gen}, not an integer")
        g = math.gcd(g, pairing // dn.den)
    return g


def realized_actions(d_m: Fqm, obar: Iterable[FqmHom]
                     ) -> set[tuple[Element, ...]]:
    """Image tuples of the subgroup of O(D_M) generated by obar (generators
    of the image of O(M) in O(D_M)): the actions on D(M) that isometries of
    M realize."""
    obar = list(obar)
    for h in obar:
        if h.source != d_m or h.target != d_m or not h.preserves_form() \
                or not h.is_injective():
            raise ValueError("obar must consist of automorphisms of D(M)")
    return hom_closure_images(d_m, obar)


def check_extendable(fbar: FqmHom, gamma,
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
    gam = _gamma_hom(gamma)
    if fbar.source != gam.target or fbar.target != gam.target:
        raise ValueError("fbar must act on the target of gamma")
    preimage = gam.preimage_table
    moved = [fbar(a) for a in gam.images]
    if any(y not in preimage for y in moved):
        return False, None
    witness = FqmHom(gam.source, gam.source,
                     tuple(preimage[y] for y in moved))
    if realized is None:
        return True, witness
    return witness.images in realized, witness


@dataclass(frozen=True)
class LiftResult:
    matrix: IntMatrix
    order: int
    improved: bool  # True when the preferred (normalizing, high-order) form was found


def lift_order_search(f_witness: FqmHom, m: Lattice,
                      g_gens: Sequence[IntMatrix],
                      isos_m: Optional[Sequence[IntMatrix]] = None
                      ) -> LiftResult:
    """An isometry of M inducing f_witness on D(M).

    Preference order: a lift that normalizes the group generated by g_gens
    and has no power g^i (1 <= i <= ord/2) inside it; otherwise any lift.
    Raises when no lift exists.
    """
    if isos_m is None:
        from .enumeration import all_automorphisms
        pool = all_automorphisms(m)
    else:
        pool = sorted(tuple(tuple(int(x) for x in row) for row in q)
                      for q in isos_m)
    want = f_witness.images
    matches = []
    for q in pool:
        if induced_map(m, [list(r) for r in q]).images == want:
            matches.append(q)
    if not matches:
        raise ValueError("no isometry of M induces the witness")
    g_closure = exact.matrix_closure(
        [[list(r) for r in g] for g in g_gens], m.rank)

    def normalizes(q) -> bool:
        q_inv = exact.rational_inverse(q)  # integral: q is an isometry
        for h in g_gens:
            conj = exact.mat_mul(exact.mat_mul(q_inv, h), q)
            if tuple(map(tuple, conj)) not in g_closure:
                return False
        return True

    for q in matches:
        order = exact.multiplicative_order([list(r) for r in q])
        if not normalizes(q):
            continue
        powers_clear = True
        p = [list(r) for r in q]
        for i in range(1, order // 2 + 1):
            if tuple(tuple(row) for row in p) in g_closure:
                powers_clear = False
                break
            p = exact.mat_mul(p, [list(r) for r in q])
        if powers_clear:
            return LiftResult(q, order, True)
    q = matches[0]
    return LiftResult(q, exact.multiplicative_order([list(r) for r in q]),
                      False)


def _index_two_subgroups(d: Fqm) -> list[Subgroup]:
    # one subgroup per nontrivial character to Z/2; generators of odd
    # order must die, so characters live on the even-order factors
    evens = [i for i, o in enumerate(d.orders) if o % 2 == 0]
    rank = len(d.orders)

    def unit(i, c=1):
        e = [0] * rank
        e[i] = c
        return tuple(e)

    subs = []
    for mask in range(1, 1 << len(evens)):
        hit = [evens[j] for j in range(len(evens)) if mask >> j & 1]
        gens = [unit(i) for i in range(rank) if i not in hit]
        gens.append(unit(hit[0], 2))
        for i in hit[1:]:
            e = [0] * rank
            e[hit[0]] = 1
            e[i] = 1
            gens.append(tuple(e))
        sub = Subgroup.generated(d, gens)
        if 2 * sub.order != d.order:
            raise RuntimeError(f"kernel of the character on {hit} has order "
                               f"{sub.order} in a module of order {d.order}"
                               ", not index 2")
        subs.append(sub)
    return subs


def partner_disc_candidates(n: Lattice) -> list[Fqm]:
    """Discriminant forms a glue partner of N in the hyperkaehler lattice
    can carry.

    Such a partner anti-embeds onto an index-2 subgroup H of D(N) whose
    leftover coset holds a q = 3/2 class pairing integrally with H, so the
    partner's form is (H, -q).  Returns one presentation per isomorphism
    class of admissible H; a single entry means the invariant side alone
    pins down the partner's glue data.
    """
    d = disc_map(n).fqm
    out: list[Fqm] = []
    for sub in _index_two_subgroups(d):
        if not k3sq_glue_admissible(d, sub):
            continue
        neg = negated(subgroup_presentation(sub).source)
        if any(isomorphisms(neg, seen) for seen in out):
            continue
        out.append(neg)
    return out
