"""Dataset text format: the groups and lattices k3lat reads.

A dataset file is line oriented plain text.  It opens with a ``format 1``
header and then carries blocks, each closed by ``end``:

    lattice <name>      a named ambient lattice (one gram block)
    group <name>        a group fixture

Fields inside a group block:

    order <int>             order of the symplectic group
    gram <n>                followed by n rows of n integers (repeatable)
    disc <o1> <o2> ...      generator orders of the coinvariant disc form
    q <v1> <v2> ...         q values of those generators, rationals mod 2
    b <i> <j> <v>           off-diagonal pairing, one line per nonzero (i, j)
    obar <x,..> <x,..> ...  an isometry of the disc form, one image per
                            generator as comma-joined coordinates (repeatable)
    coinv_gram <n>          Gram matrix of the coinvariant lattice itself

The coinvariant (M-side) fields ``q``, ``b``, ``obar`` and ``coinv_gram``
need a ``disc`` line in the same block.  The ``disc``, ``q`` and ``b`` lines
must form a nondegenerate form, as every discriminant form is.  Any other
field is an error, and so is a second block of the same name.

Rationals are written ``p/q`` (plain ``p`` when integral); never floats.
Blank lines and ``#`` comments are skipped on input and never emitted, so
``emit_dataset(parse_dataset(text)) == text`` holds for canonical text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence

from .classify import CoinvariantData
from .fqm import Fqm, FqmHom
from .lattice import Lattice

Lines = Iterator[tuple[int, list[str]]]


class DatasetError(ValueError):
    """Malformed dataset text; the message carries a line diagnostic."""


def _plain_name(name: str) -> str:
    # group names are matched with subscript underscores ignored, so the
    # lookup accepts both 3^4:A6 and 3^4:A_6
    return name.replace("_", "")


@dataclass(frozen=True)
class GroupEntry:
    name: str
    order: int
    grams: tuple[Lattice, ...]
    coinv: Optional[CoinvariantData] = None

    @property
    def disc(self) -> Optional[Fqm]:
        return None if self.coinv is None else self.coinv.disc


@dataclass(frozen=True)
class Dataset:
    groups: tuple[GroupEntry, ...]
    lattices: tuple[tuple[str, Lattice], ...] = ()

    def group(self, name: str) -> GroupEntry:
        want = _plain_name(name)
        for entry in self.groups:
            if _plain_name(entry.name) == want:
                return entry
        raise KeyError(f"no group fixture named {name!r}")

    def lattice(self, name: str) -> Lattice:
        for key, lat in self.lattices:
            if key == name:
                return lat
        raise KeyError(f"no lattice fixture named {name!r}")


def disc_form(orders: Sequence[int], q_vals: Sequence[Fraction],
              b_triples: Iterable[tuple[int, int, Fraction]]) -> Fqm:
    """The form on generators of the given orders with q(g_i) = q_vals[i]
    and b(g_i, g_j) = v for each (i, j, v), 0 elsewhere; ValueError if the
    data do not make one."""
    r = len(orders)
    if len(q_vals) != r:
        raise ValueError("q: want one value per disc generator")
    given: dict[tuple[int, int], Fraction] = {}
    for i, j, val in b_triples:
        if not 0 <= i < j < r:
            raise ValueError(f"b {i} {j}: indices must satisfy "
                             "0 <= i < j < rank")
        if (i, j) in given:
            raise ValueError(f"b {i} {j}: pairing given twice")
        given[i, j] = val
    return Fqm(tuple(orders), tuple(q_vals), tuple(
        tuple(given.get((i, j), Fraction(0)) for j in range(i + 1, r))
        for i in range(r)))


def b_entries(fqm: Fqm) -> list[str]:
    """The ``b i j v`` line of each nonzero off-diagonal pairing."""
    return [f"b {i} {i + 1 + k} {val}" for i, row in enumerate(fqm.b_off)
            for k, val in enumerate(row) if val]


# ---------------------------------------------------------------- parsing

def _fail(line: int, message: str):
    raise DatasetError(f"line {line}: {message}")


def _lines(text: str) -> Lines:
    """Each contentful line as (1-based number, tokens)."""
    for number, raw in enumerate(text.split("\n"), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield number, body.split()


def _int(tok: str, line: int, field: str) -> int:
    try:
        return int(tok)
    except ValueError:
        _fail(line, f"{field}: {tok!r} is not an integer")


def _rational(tok: str, line: int, field: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        _fail(line, f"{field}: {tok!r} is not a rational p/q")


def _read_gram(lines: Lines, line: int, tokens: Sequence[str]) -> Lattice:
    """The symmetric matrix of the ``<keyword> <n>`` line and its n rows."""
    keyword = tokens[0]
    if len(tokens) != 2:
        _fail(line, f"{keyword} wants a single size argument")
    n = _int(tokens[1], line, keyword)
    if n <= 0:
        _fail(line, f"{keyword} size must be positive")
    rows = []
    for _ in range(n):
        rline, toks = next(lines, (line, None))
        if toks is None:
            _fail(line, f"{keyword} block ends before {n} rows were read")
        if len(toks) != n:
            _fail(rline, f"{keyword} row: expected {n} integers, "
                         f"got {len(toks)}")
        rows.append(tuple(_int(t, rline, keyword) for t in toks))
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                _fail(line, f"{keyword} symmetry: entry ({i}, {j}) "
                            f"disagrees with ({j}, {i})")
    try:
        return Lattice(rows)
    except ValueError as exc:
        _fail(line, f"{keyword}: {exc}")


def _block_lines(lines: Lines, start: int, what: str) -> Lines:
    """The lines of the block opened on line start, up to its ``end``."""
    for line, toks in lines:
        if toks[0] == "end":
            return
        yield line, toks
    _fail(start, f"{what} block is missing its 'end'")


def _parse_lattice_block(lines: Lines, start: int,
                         tokens: Sequence[str]) -> tuple[str, Lattice]:
    if len(tokens) != 2:
        _fail(start, "lattice wants a single name token")
    name = tokens[1]
    lat = None
    for line, toks in _block_lines(lines, start, f"lattice {name!r}"):
        if toks[0] != "gram" or lat is not None:
            _fail(line, f"lattice blocks hold a single gram, got {toks[0]!r}")
        lat = _read_gram(lines, line, toks)
    if lat is None:
        _fail(start, f"lattice {name!r} has no gram")
    return name, lat


_SINGLE_FIELDS = ("order", "disc", "q", "coinv_gram")  # at most once a block


def _parse_group_block(lines: Lines, start: int,
                       tokens: Sequence[str]) -> GroupEntry:
    if len(tokens) != 2:
        _fail(start, "group wants a single name token")
    name = tokens[1]
    order = None
    grams: list[Lattice] = []
    disc_orders = None
    q_vals = None
    b_triples: list[tuple[int, int, Fraction]] = []
    obar_rows: list[tuple[int, list[str]]] = []
    coinv = None
    line_of: dict[str, int] = {}  # field -> its last line
    for line, toks in _block_lines(lines, start, f"group {name!r}"):
        key = toks[0]
        if key in _SINGLE_FIELDS and key in line_of:
            _fail(line, f"repeated {key}: already given on line "
                        f"{line_of[key]}")
        line_of[key] = line
        if key == "order":
            if len(toks) != 2:
                _fail(line, "order wants a single integer")
            order = _int(toks[1], line, "order")
            if order <= 0:
                _fail(line, "order must be positive")
        elif key == "gram":
            lat = _read_gram(lines, line, toks)
            if lat.rank != 3:
                _fail(line, "gram: invariant lattices are 3x3")
            if not lat.is_even:
                _fail(line, "gram evenness: diagonal entries must be even")
            if not lat.is_positive_definite:
                _fail(line, "gram: invariant lattices are positive definite")
            grams.append(lat)
        elif key == "disc":
            if len(toks) < 2:
                _fail(line, "disc wants at least one generator order")
            disc_orders = tuple(_int(t, line, "disc") for t in toks[1:])
        elif key == "q":
            q_vals = tuple(_rational(t, line, "q") for t in toks[1:])
        elif key == "b":
            if len(toks) != 4:
                _fail(line, "b wants 'b <i> <j> <value>'")
            i, j = _int(toks[1], line, "b"), _int(toks[2], line, "b")
            pair = f"b {i} {j}"
            if pair in line_of:
                _fail(line, f"repeated {pair}: already given on line "
                            f"{line_of[pair]}")
            line_of[pair] = line
            b_triples.append((i, j, _rational(toks[3], line, "b")))
        elif key == "obar":
            obar_rows.append((line, toks[1:]))
        elif key == "coinv_gram":
            coinv = _read_gram(lines, line, toks)
            if not coinv.is_even:
                _fail(line, "coinv_gram evenness: diagonal must be even")
            if not coinv.is_negative_definite:
                _fail(line, "coinv_gram: coinvariant lattices are negative "
                            "definite")
        else:
            _fail(line, f"unknown group field {key!r}")

    if order is None:
        _fail(start, f"group {name!r}: order is missing")
    if not grams:
        _fail(start, f"group {name!r}: at least one gram is required")

    if disc_orders is None:  # every other M-side field hangs off disc
        orphans = [k for k in ("q", "b", "obar", "coinv_gram")
                   if k in line_of]
        if orphans:
            key = min(orphans, key=line_of.get)
            _fail(line_of[key], f"{key} without a disc line")
        return GroupEntry(name=name, order=order, grams=tuple(grams))
    if q_vals is None:
        _fail(line_of["disc"], "disc without a q line")
    try:
        disc = disc_form(disc_orders, q_vals, b_triples)
    except ValueError as exc:
        _fail(line_of["disc"], f"disc form: {exc}")

    obar = []
    for oline, imgs in obar_rows:
        if len(imgs) != disc.rank:
            _fail(oline, "obar: one image per disc generator")
        images = []
        for tok in imgs:
            coords = tuple(_int(c, oline, "obar") for c in tok.split(","))
            if len(coords) != disc.rank:
                _fail(oline, "obar: images are coordinate tuples in the "
                             "disc group")
            images.append(coords)
        try:
            hom = FqmHom(disc, disc, tuple(images))
        except ValueError as exc:
            _fail(oline, f"obar: {exc}")
        if not hom.preserves_form():
            _fail(oline, "obar: generator images must preserve the form")
        obar.append(hom)

    try:
        m_data = CoinvariantData(disc=disc, gram=coinv,
                                 obar=tuple(obar) or None)
    except ValueError as exc:
        _fail(line_of["coinv_gram"], f"disc/gram consistency: {exc}")
    return GroupEntry(name=name, order=order, grams=tuple(grams),
                      coinv=m_data)


def parse_dataset(text: str) -> Dataset:
    lines = _lines(text)
    line, toks = next(lines, (1, None))
    if toks is None:
        _fail(line, "empty dataset: expected a 'format 1' header")
    if toks != ["format", "1"]:
        _fail(line, "expected a 'format 1' header")
    groups: list[GroupEntry] = []
    lattices: list[tuple[str, Lattice]] = []
    seen: set[str] = set()
    lattice_names: set[str] = set()
    for line, toks in lines:
        if toks[0] == "lattice":
            name, lat = _parse_lattice_block(lines, line, toks)
            if name in lattice_names:
                _fail(line, f"duplicate lattice name {name!r}")
            lattice_names.add(name)
            lattices.append((name, lat))
        elif toks[0] == "group":
            entry = _parse_group_block(lines, line, toks)
            key = _plain_name(entry.name)
            if key in seen:
                _fail(line, f"duplicate group name {entry.name!r}")
            seen.add(key)
            groups.append(entry)
        else:
            _fail(line, f"unknown block {toks[0]!r}")
    return Dataset(tuple(groups), tuple(lattices))


def load_dataset(path: str) -> Dataset:
    with open(path, encoding="utf-8") as handle:
        return parse_dataset(handle.read())


@cache
def builtin_dataset() -> Dataset:
    from .fixtures import DATASET_TEXT
    return parse_dataset(DATASET_TEXT)


# --------------------------------------------------------------- emitting

def _gram_lines(keyword: str, lat: Lattice) -> list[str]:
    return [f"{keyword} {lat.rank}",
            *(" ".join(map(str, row)) for row in lat.gram)]


def emit_dataset(dataset: Dataset) -> str:
    blocks = []
    for name, lat in dataset.lattices:
        blocks.append([f"lattice {name}", *_gram_lines("gram", lat), "end"])
    for g in dataset.groups:
        lines = [f"group {g.name}", f"order {g.order}"]
        for lat in g.grams:
            lines += _gram_lines("gram", lat)
        m = g.coinv
        if m is not None:
            lines.append("disc " + " ".join(map(str, m.disc.orders)))
            lines.append("q " + " ".join(map(str, m.disc.q_diag)))
            lines += b_entries(m.disc)
            for hom in m.obar or ():
                lines.append("obar " + " ".join(
                    ",".join(map(str, img)) for img in hom.images))
            if m.gram is not None:
                lines += _gram_lines("coinv_gram", m.gram)
        blocks.append([*lines, "end"])
    if not blocks:
        return "format 1\n"
    return "format 1\n\n" + "\n\n".join(map("\n".join, blocks)) + "\n"
