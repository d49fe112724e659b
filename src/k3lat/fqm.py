"""Finite quadratic modules: finite abelian groups with a Q/2Z-valued form.

A module is presented on invariant-factor generators g_1, ..., g_r of orders
d_1 | d_2 | ... | d_r (trivial factors dropped), with q(g_i) stored in [0, 2)
and the pairing b(g_i, g_j) in [0, 1).  Elements are coefficient tuples
reduced modulo the orders.  These objects model discriminant groups of even
lattices, but nothing in this module depends on a lattice.  Every module is
nondegenerate, as discriminant forms are: b has no radical, which is
checked once when a module is built.

Internally the form runs on scaled integers: with e the exponent (the
largest order), e*q takes values mod 2e and e*b values mod e, derived once
per module when it is built.  q and b still return Fractions; the searches
(anti-embeddings, isomorphisms), the form checks of FqmHom and the glue
criterion make none.  Every scan of a whole module is one incremental walk
(Fqm._walk), which steps e*q by one add per element.  The glue criterion is
decided once per module: admissible_images caches on it one (c, w) pair
per admissible image c^perp, c an order-2 class with q = 3/2 and w its
pairing row (y is in c^perp iff y . w = 0 mod e: in_perp), read off the at
most 2^r classes of the 2-torsion, and k3sq_glue_images scans D(N) once
for one anti-embedding onto each.

A subgroup is kept as the Hermite basis of its preimage lattice in Z^r:
order, membership and equality cost O(r^2) integer operations, and its
elements are listed only when elements() is called.

The form searches refuse modules of order above _SEARCH_BOUND = 10**6 with
an error naming that bound; closures in O(m) run under exact's element store.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional

from . import exact

Element = tuple[int, ...]


@dataclass(frozen=True)
class Fqm:
    orders: tuple[int, ...]
    q_diag: tuple[Fraction, ...]
    b_off: tuple[tuple[Fraction, ...], ...]  # row i lists b(g_i, g_j) for j > i

    def __post_init__(self):
        r = len(self.orders)
        if len(self.q_diag) != r or len(self.b_off) != r:
            raise ValueError("generator data length mismatch")
        for i, d in enumerate(self.orders):
            if d <= 1:
                raise ValueError("orders must exceed 1")
            if i + 1 < r and self.orders[i + 1] % d:
                raise ValueError("orders must form a divisibility chain")
            if len(self.b_off[i]) != r - i - 1:
                raise ValueError("pairing row length mismatch")
            q = self.q_diag[i]
            if not 0 <= q.numerator < 2 * q.denominator:
                raise ValueError("q values must be reduced into [0, 2)")
            # q(k g) = k^2 q(g) is well defined mod 2 iff both of these hold
            # (tested on numerators, so checking makes no Fraction)
            if q.numerator * d % q.denominator:
                raise ValueError(f"{d} * q(g) must be an integer")
            if q.numerator * d * d % (2 * q.denominator):
                raise ValueError(f"q({d}*g) must vanish mod 2")
            for b in self.b_off[i]:
                if not 0 <= b.numerator < b.denominator:
                    raise ValueError("b values must be reduced into [0, 1)")
                if b.numerator * d % b.denominator:
                    raise ValueError("pairing must kill the generator order")
        # x -> _pair_row(x) is a homomorphism A -> (Z/e)^r with the radical
        # of b as kernel.  Its image is L / e Z^r for the lattice L that the
        # rows of B and e I span, of order e^r / [Z^r : L], and [Z^r : L] is
        # the product of the pivots of L's Hermite basis; so the radical has
        # order |A| prod(pivots) / e^r
        e, _, bm = self._ints
        basis = exact.hermite_basis_mod(bm, [e] * r)
        radical = self.order * math.prod(
            row[i] for i, row in enumerate(basis)) // e ** r
        if radical != 1:
            raise ValueError(f"pairing is degenerate: its radical has order "
                             f"{radical}")

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def zero(self) -> Element:
        return (0,) * self.rank

    def reduce(self, x: Iterable[int]) -> Element:
        return tuple(c % d for c, d in zip(x, self.orders))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def scale(self, k: int, x: Element) -> Element:
        return tuple((k * a) % d for a, d in zip(x, self.orders))

    def elements(self) -> Iterator[Element]:
        return itertools.product(*[range(d) for d in self.orders])

    def element_order(self, x: Element) -> int:
        return math.lcm(1, *[d // math.gcd(d, c) for c, d in zip(x, self.orders)])

    @cached_property
    def _ints(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(e, Q, B): the exponent e, Q_i = e q(g_i) in [0, 2e) and the
        symmetric B_ij = e b(g_i, g_j) in [0, e).  All are integers because
        d_i q(g_i) and d_i b(g_i, g_j) are and d_i divides e."""
        r = self.rank
        e = self.orders[-1] if r else 1
        qs = tuple(q.numerator * (e // q.denominator) for q in self.q_diag)
        bm = [[0] * r for _ in range(r)]
        for i in range(r):
            bm[i][i] = qs[i] % e
            for j, b in enumerate(self.b_off[i], i + 1):
                bm[i][j] = bm[j][i] = b.numerator * (e // b.denominator)
        return e, qs, tuple(tuple(row) for row in bm)

    def _eq(self, x: Element) -> int:
        """e q(x) mod 2e.  Well defined on unreduced coordinates."""
        e, qs, bm = self._ints
        total = 0
        for i, c in enumerate(x):
            if c:
                total += c * c * qs[i]
                row = bm[i]
                for j in range(i + 1, len(x)):
                    if x[j]:
                        total += 2 * c * x[j] * row[j]
        return total % (2 * e)

    def _walk(self) -> Iterator[tuple[Element, int]]:
        """(x, e q(x) mod 2e) for x in elements(), in that order.

        Stepping x by g_i adds Q_i + 2 w_i to e q(x), with w_i = e b(x, g_i),
        and adds row i of B to w.  Along the last coordinate only w_r moves,
        by B_rr, so each element costs one add; the |A| / d_r prefixes
        carry the whole row w.  Nothing is kept past the walk.
        """
        e, qs, bm = self._ints
        if not self.rank:
            yield (), 0
            return
        two_e = 2 * e
        # (prefix, e q(prefix), e b(prefix, g_j) for each j), in product
        # order; the w_j are exact mod e, which is all 2 w_j needs
        prefixes = [((), 0, (0,) * self.rank)]
        for i, d in enumerate(self.orders[:-1]):
            grown = []
            for p, v, w in prefixes:
                for k in range(d):
                    grown.append((p + (k,), v, w))
                    v = (v + qs[i] + 2 * w[i]) % two_e
                    w = tuple(map(operator.add, w, bm[i]))
            prefixes = grown
        tails = [(k,) for k in range(self.orders[-1])]
        q_last, b_last = qs[-1], 2 * bm[-1][-1]
        for p, v, w in prefixes:
            step = q_last + 2 * w[-1]
            for tail in tails:
                yield p + tail, v
                v = (v + step) % two_e
                step += b_last

    def _pair_row(self, y: Element) -> tuple[int, ...]:
        """w with e b(x, y) = sum_i x_i w_i mod e for every x."""
        e, _, bm = self._ints
        return tuple(sum(c * bij for c, bij in zip(y, row)) % e for row in bm)

    def _eb(self, x: Element, y: Element) -> int:
        """e b(x, y) mod e."""
        return sum(c * w for c, w in zip(x, self._pair_row(y))) % self._ints[0]

    @cached_property
    def _admissible_images(self) -> list[tuple[Element, tuple[int, ...]]]:
        """admissible_images(self), built on first use."""
        e = self._ints[0]
        if e % 2:  # no q = 3/2 level
            return []
        # b(2c, .) = 0 is 2c = 0, as b has no radical: c is 2-torsion, with
        # each coordinate 0 or d_i / 2, listed in elements() order
        return [(c, self._pair_row(c)) for c in itertools.product(
            *[(0, d // 2) if d % 2 == 0 else (0,) for d in self.orders])
            if self._eq(c) == 3 * e // 2]

    def q(self, x: Iterable[int]) -> Fraction:
        """q(x) = sum c_i^2 q_i + 2 sum_{i<j} c_i c_j b_ij, reduced mod 2."""
        return Fraction(self._eq(self.reduce(x)), self._ints[0])

    def b(self, x: Iterable[int], y: Iterable[int]) -> Fraction:
        return Fraction(self._eb(self.reduce(x), self.reduce(y)),
                        self._ints[0])


TRIVIAL = Fqm((), (), ())


@dataclass(frozen=True)
class FqmHom:
    """Group homomorphism between modules, given by generator images."""

    source: Fqm
    target: Fqm
    images: tuple[Element, ...]

    def __post_init__(self):
        if len(self.images) != self.source.rank:
            raise ValueError("one image per source generator required")
        orders = self.target.orders
        images = [tuple(map(operator.mod, im, orders)) for im in self.images]
        for d, y in zip(self.source.orders, images):
            if any(d * c % o for c, o in zip(y, orders)):
                raise ValueError("image order does not divide generator order")
        object.__setattr__(self, "images", tuple(images))

    def __call__(self, x: Iterable[int]) -> Element:
        c = self.source.reduce(x)
        out = self.target.zero()
        for k, im in zip(c, self.images):
            if k:
                out = self.target.add(out, self.target.scale(k, im))
        return out

    @cached_property
    def preimage_table(self) -> dict[Element, Element]:
        """{f(x): x} over source.elements(), the first x winning, so each
        value is the one hom_preimage returns; its keys are hom_image(f).
        Built on first use (equality and hash ignore it)."""
        add = self.target.add
        pairs = [((), self.target.zero())]
        for d, im in zip(self.source.orders, self.images):
            nxt = []
            for x, y in pairs:
                for k in range(d):
                    nxt.append((x + (k,), y))
                    y = add(y, im)
            pairs = nxt
        table: dict[Element, Element] = {}
        for x, y in pairs:
            table.setdefault(y, x)
        return table

    def _form_sign_ok(self, sign: int) -> bool:
        qs, bs = _scaled_form(self.source, self.target, sign)
        t, ims = self.target, self.images
        return all(t._eq(y) == v for y, v in zip(ims, qs)) and all(
            t._eb(ims[i], ims[j]) == v
            for i, row in enumerate(bs) for j, v in enumerate(row))

    def preserves_form(self) -> bool:
        return self._form_sign_ok(1)

    def negates_form(self) -> bool:
        return self._form_sign_ok(-1)


def identity_hom(m: Fqm) -> FqmHom:
    return FqmHom(m, m, tuple(m.reduce([int(i == j) for j in range(m.rank)])
                              for i in range(m.rank)))


def negated(m: Fqm) -> Fqm:
    """The same group carrying -q: what a glue partner's form looks like."""
    return Fqm(m.orders, tuple((-q) % 2 for q in m.q_diag),
               tuple(tuple((-x) % 1 for x in row) for row in m.b_off))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup H of ambient, kept as the Hermite basis of its lattice.

    L_H, the preimage of H in Z^r, holds diag(d_i).  basis lists its rows
    in upper-triangular Hermite form: row i is zero before column i, has a
    pivot p_i dividing d_i at column i, and every entry above a pivot p_j
    lies in [0, p_j).  That form is unique, so basis depends on H alone
    and two generator lists of one H give equal Subgroups;
    |H| = prod d_i / prod p_i, membership is triangular division, and no
    element of H is listed unless elements() asks for them (Cohen, GTM 138,
    §2.4).
    """

    ambient: Fqm
    basis: tuple[Element, ...]

    @classmethod
    def generated(cls, ambient: Fqm, gens: Iterable[Iterable[int]]) -> "Subgroup":
        """L_H is spanned by the generators and the rows d_i e_i."""
        basis = exact.hermite_basis_mod(gens, ambient.orders)
        return cls(ambient, tuple(map(tuple, basis)))

    def __contains__(self, x) -> bool:
        v = list(self.ambient.reduce(x))
        for i, row in enumerate(self.basis):
            k, rest = divmod(v[i], row[i])
            if rest:
                return False
            if k:
                v[i:] = [c - k * w for c, w in zip(v[i:], row[i:])]
        return True

    @property
    def order(self) -> int:
        return self.ambient.order // math.prod(
            row[i] for i, row in enumerate(self.basis))

    def elements(self) -> list[Element]:
        """The members, sorted: sum_i k_i row_i with 0 <= k_i < d_i / p_i
        meets each of them once."""
        add = self.ambient.add
        out = [self.ambient.zero()]
        for i, (row, d) in enumerate(zip(self.basis, self.ambient.orders)):
            nxt = []
            for y in out:
                for _ in range(d // row[i]):
                    nxt.append(y)
                    y = add(y, row)
            out = nxt
        return sorted(out)


def hom_image(f: FqmHom) -> Subgroup:
    return Subgroup.generated(f.target, f.images)


def hom_preimage(f: FqmHom, y: Iterable[int]) -> Element:
    """Some x with f(x) = y; raises if y is not in the image."""
    want = f.target.reduce(y)
    for x in f.source.elements():
        if f(x) == want:
            return x
    raise ValueError("element is not in the image")


_SEARCH_BOUND = 10 ** 6


def _check_bound(*modules: Fqm) -> None:
    if any(m.order > _SEARCH_BOUND for m in modules):
        raise ValueError(f"module order exceeds search bound {_SEARCH_BOUND}")


def _scaled_form(a: Fqm, b: Fqm, sign: int
                 ) -> tuple[list[Optional[int]], list[list[Optional[int]]]]:
    """A's generator values times sign, carried into B's scale e: the
    e q(g_i) mod 2e and, for each i, the e b(g_i, g_j) mod e with j < i.
    A value that is not an integer there is None, as no element of B
    carries it."""
    ea, qa, ba = a._ints
    e = b._ints[0]

    def rescale(v: int, mod: int) -> Optional[int]:
        num = sign * v * e
        return None if num % ea else (num // ea) % mod

    return ([rescale(v, 2 * e) for v in qa],
            [[rescale(ba[i][j], e) for j in range(i)] for i in range(a.rank)])


def _candidates(a: Fqm, b: Fqm, sign: int) -> list[list[Element]]:
    """For each generator g_i of A, the y in B of order dividing d_i with
    q(y) = sign q(g_i), in elements() order: one walk of B, which looks
    up each value among the wanted ones before it touches y.  A generator
    value with no integer in B's scale (_scaled_form) has no candidate.
    Raises when a module is above the search bound."""
    _check_bound(a, b)
    wanted: dict[int, list[int]] = {}
    for i, t in enumerate(_scaled_form(a, b, sign)[0]):
        if t is not None:
            wanted.setdefault(t, []).append(i)
    candidates: list[list[Element]] = [[] for _ in a.orders]
    for y, v in b._walk():
        for i in wanted.get(v, ()):
            d = a.orders[i]
            if not any(d * c % o for c, o in zip(y, b.orders)):
                candidates[i].append(y)
    return candidates


def _form_embeddings(a: Fqm, b: Fqm, sign: int,
                     candidates: Optional[list[list[Element]]] = None
                     ) -> Iterator[FqmHom]:
    """Homs A -> B multiplying the form by sign, injective as their kernel
    lies in A's radical, 0, in the lexicographic order of their images.

    Without candidates they are picked here by _candidates, so the bound
    raises at call time; the backtrack runs lazily.  Given candidates
    (_candidates' lists, or sublists of them in the same order, such as
    the y inside one c^perp), the maps use only those.
    """
    if candidates is None:
        candidates = _candidates(a, b, sign)
    if not a.rank:
        return iter((FqmHom(a, b, ()),))
    e = b._ints[0]
    want = _scaled_form(a, b, sign)[1]
    row_of: dict[Element, tuple[int, ...]] = {}  # one pairing row per y

    def extend(chosen: tuple[Element, ...],
               rows: tuple[tuple[int, ...], ...]):
        i = len(chosen)
        if None in want[i]:
            return
        pairs = tuple(zip(rows, want[i]))
        for y in candidates[i]:
            for row, t in pairs:
                if sum(map(operator.mul, y, row)) % e != t:
                    break
            else:
                if i == a.rank - 1:  # the map is built here, once
                    yield FqmHom(a, b, chosen + (y,))
                    continue
                if y not in row_of:
                    row_of[y] = b._pair_row(y)
                yield from extend(chosen + (y,), rows + (row_of[y],))

    return extend((), ())


def anti_embeddings(a: Fqm, b: Fqm) -> list[FqmHom]:
    """All injective homs A -> B negating q (and hence the pairing)."""
    return list(_form_embeddings(a, b, -1))


def isomorphisms(a: Fqm, b: Fqm) -> list[FqmHom]:
    if a.order != b.order:
        return []
    return list(_form_embeddings(a, b, 1))


def is_isomorphic(a: Fqm, b: Fqm) -> bool:
    """bool(isomorphisms(a, b)), stopping at the first isomorphism."""
    return a.order == b.order and \
        next(_form_embeddings(a, b, 1), None) is not None


def admissible_images(d_n: Fqm) -> list[tuple[Element, tuple[int, ...]]]:
    """The admissible glue images c^perp of D(N) as (c, w) pairs, one per
    order-2 class c with q(c) = 3/2, in elements() order, read off the
    2-torsion alone and cached on the module.

    An admissible image H has index 2 and a class c outside it with
    q(c) = 3/2 and b(c, H) = 0.  As b(c, c) = q(c) mod 1 = 1/2, H = c^perp
    and b(c, .) has order 2, so 2c = 0 as b has no radical.  Conversely,
    for such a c, b(c, .) is nonzero (c is not 0) of order 2, so c^perp
    has index 2, and distinct c have distinct characters.  w is
    d_n._pair_row(c), each w_i 0 or e/2, and in_perp(d_n, y, w) tests y.
    """
    return d_n._admissible_images


def in_perp(d_n: Fqm, y: Iterable[int], w: tuple[int, ...]) -> bool:
    """Is y in c^perp, for w = d_n._pair_row(c)?  e b(y, c) = y . w mod e,
    well defined on unreduced coordinates."""
    return not sum(map(operator.mul, y, w)) % d_n._ints[0]


def k3sq_glue_admissible(d_n: Fqm, image: Subgroup) -> bool:
    """Does gluing along the image leave exactly the order-2, q = 3/2 quotient?

    True iff the image has index 2 and some x outside it pairs integrally
    with the whole image and has q(x) = 3/2 mod 2, i.e. iff it is c^perp
    for a c of admissible_images(d_n), iff it has index 2 and each basis
    row lies in c^perp.  This is the uniqueness criterion for the glued
    lattice being the rank-23 hyperkaehler one.
    """
    if image.ambient != d_n:
        raise ValueError("image must be a subgroup of the given module")
    return 2 * image.order == d_n.order and any(
        all(in_perp(d_n, y, w) for y in image.basis)
        for _, w in admissible_images(d_n))


def k3sq_glue_images(a: Fqm, d_n: Fqm) -> list[tuple[Element, FqmHom]]:
    """(c, gamma) for the admissible_images pairs whose c^perp
    anti-embeddings A -> D(N) reach, gamma the first one onto c^perp, in
    the order in which anti_embeddings(a, d_n) first meets the images.
    D(N) is scanned for candidates once; each c then runs its own search
    on the candidates inside its c^perp and stops at its first map: the
    others onto the image are its compositions with O(A).
    """
    if 2 * a.order != d_n.order:
        return []
    _check_bound(a, d_n)
    pairs = admissible_images(d_n)
    if not pairs:
        return []
    candidates = _candidates(a, d_n, -1)
    found = []
    for c, w in pairs:
        inside = [[y for y in ys if in_perp(d_n, y, w)] for ys in candidates]
        gam = next(_form_embeddings(a, d_n, -1, inside), None)
        if gam is not None:
            found.append((c, gam))
    # each candidate list is in elements() order, so sorting by the first
    # map's images is the order in which anti_embeddings meets the images
    found.sort(key=lambda item: item[1].images)
    return found


def orthogonal_group(m: Fqm) -> tuple[list[FqmHom], int]:
    """exact.generators of the form-preserving automorphisms, and their
    number; stops at the first one past the element-store limit."""
    autos = [f.images for f in itertools.islice(
        _form_embeddings(m, m, 1), exact._ELEMENT_STORE_LIMIT + 1)]
    exact.check_element_store(len(autos), "orthogonal group")
    gens = exact.generators(autos, *_image_group(m))
    return [FqmHom(m, m, g) for g in gens], len(autos)


def conjugates(m: Fqm, group: set) -> set:
    """Image tuples a^-1 w a for w in group, a subgroup R of O(m), and a in
    O(m), conjugating by one a per right coset R a (a^-1 R a depends on it
    alone) with a^-1 a power of a: if R = O(m), nothing is multiplied."""
    ident, mul = _image_group(m)
    out, covered = set(group), set(group)
    for a in (f.images for f in _form_embeddings(m, m, 1)):
        if a in covered:
            continue
        covered.update(mul(w, a) for w in group)
        exact.check_element_store(len(covered), "orthogonal group")
        inv = a
        while (power := mul(inv, a)) != ident:
            inv = power
        out.update(mul(mul(inv, w), a) for w in group)
    return out


def _image_group(m: Fqm):
    """(identity, mul(f, g) = g o f) on image tuples of endomorphisms of m."""
    return identity_hom(m).images, lambda f, g: tuple(
        tuple(sum(map(operator.mul, y, col)) % d
              for col, d in zip(zip(*g), m.orders)) for y in f)


def hom_closure_images(m: Fqm, gens: Iterable[FqmHom]) -> set:
    """Image tuples of the subgroup of O(m) the given maps generate, grown
    coset by coset by exact.closure."""
    return exact.closure([g.images for g in gens], *_image_group(m))
