"""The Leech lattice Gram matrix, rebuilt from the binary Golay code.

Construction: integer vectors x with all coordinates congruent mod 2,
(x - m)/2 reducing mod 2 to a Golay codeword, and coordinate sum 4m mod 8
(m the common parity), pairing x.y/8.  The shipped LEECH_GRAM constant was
produced by build_leech_gram(); the builder stays here so the constant can
be recomputed and checked.
"""

from __future__ import annotations

from . import exact


def _golay_basis() -> list[list[int]]:
    """Rows of a generator matrix of the extended [24,12,8] Golay code."""
    # the two quadratic-residue generator polynomials of the cyclic [23,12] code
    for taps in ((11, 10, 6, 5, 4, 2, 0), (11, 9, 7, 6, 5, 1, 0)):
        basis = []
        for shift in range(12):
            row = [0] * 23
            for t in taps:
                row[t + shift] = 1  # deg g + 11 < 23: shifts never wrap
            row.append(sum(row) % 2)
            basis.append(row)
        if _is_golay(basis):
            return basis
    raise AssertionError("neither quadratic-residue polynomial produced the Golay code")


def _is_golay(basis: list[list[int]]) -> bool:
    masks = [sum(b << i for i, b in enumerate(row)) for row in basis]
    words = [0] * 4096
    for c in range(1, 4096):
        low = c & -c
        words[c] = words[c ^ low] ^ masks[low.bit_length() - 1]
    weights = [w.bit_count() for w in words]
    if len(set(words)) != 4096:
        return False
    if any(w % 4 for w in weights):
        return False  # doubly even (with dim 12 this gives self-duality)
    return min(w for w in weights[1:]) == 8


def build_leech_gram() -> tuple[tuple[int, ...], ...]:
    gens: list[list[int]] = []
    for c in _golay_basis():
        gens.append([2 * b for b in c])
    for j in range(1, 24):
        row = [0] * 24
        row[0] = row[j] = 4
        gens.append(row)
    first = [0] * 24
    first[0] = 8
    gens.append(first)
    gens.append([-3] + [1] * 23)
    basis = exact.hermite_row_basis(gens)
    if len(basis) != 24:
        raise RuntimeError(f"Leech construction: the generators span rank "
                           f"{len(basis)}, not 24")
    det = exact.bareiss_det(basis)
    if abs(det) != 8 ** 12:
        raise RuntimeError(f"Leech construction: the sqrt(8)-scaled basis "
                           f"has det {det}, not +-8^12")
    prod = exact.mat_mul(basis, exact.transpose(basis))
    if any(x % 8 for row in prod for x in row):
        raise RuntimeError("Leech construction: a basis pairing is not "
                           "divisible by 8")
    out = tuple(tuple(x // 8 for x in row) for row in prod)
    det = exact.bareiss_det([list(r) for r in out])
    if det != 1 or any(out[i][i] % 2 for i in range(24)):
        raise RuntimeError(f"Leech Gram is not even unimodular: det {det}, "
                           f"diagonal {[out[i][i] for i in range(24)]}")
    return out


LEECH_GRAM = build_leech_gram()
