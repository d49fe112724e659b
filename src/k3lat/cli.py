"""Dataset text format and the k3lat command line.

A dataset file is line oriented plain text.  It opens with a ``format 1``
header and then carries blocks, each closed by ``end``:

    lattice <name>      a named ambient lattice (one gram block)
    group <name>        a group fixture

Fields inside a group block:

    order <int>             order of the symplectic group
    gram <n>                followed by n rows of n integers (repeatable)
    disc <o1> <o2> ...      generator orders of the coinvariant disc form
    q <v1> <v2> ...         q values of those generators, rationals mod 2
    b <i> <j> <v>           off-diagonal pairing, one line per nonzero value
    obar <x,..> <x,..> ...  an isometry of the disc form, one image per
                            generator as comma-joined coordinates (repeatable)
    coinv_gram <n>          Gram matrix of the coinvariant lattice itself

The coinvariant (M-side) fields ``q``, ``b``, ``obar`` and ``coinv_gram``
need a ``disc`` line in the same block.  Any other field is an error.

Rationals are written ``p/q`` (plain ``p`` when integral); never floats.
Blank lines and ``#`` comments are skipped on input and never emitted, so
``emit_dataset(parse_dataset(text)) == text`` holds for canonical text.

Table schema (csv and markdown share it):

    group, h_sq, div, m, t_gram, k3, mode

with t_gram rendered as the compact literal ``[[a,b],[b,c]]``.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Optional, Sequence

from .classify import ClassificationRow, CoinvariantData, classify, \
    good_isometries
from .enumeration import automorphism_group, vectors_of_norm
from .fqm import Fqm, FqmHom, anti_embeddings, k3sq_glue_characters
# perfbench/workloads.py calls these through cli
from .fqm import hom_image, k3sq_glue_admissible  # noqa: F401
from .hilb2 import ample_model_verdict, minus2_wall_scan, obstruction_report
from .lattice import Lattice, disc_map

IntMatrix = tuple[tuple[int, ...], ...]

TABLE_COLUMNS = ("group", "h_sq", "div", "m", "t_gram", "k3", "mode")


class DatasetError(ValueError):
    """Malformed dataset text; the message carries a line diagnostic."""


class InputError(Exception):
    """Bad command line input; maps to exit code 1."""


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


# ---------------------------------------------------------------- parsing

def _fail(line: int, message: str):
    raise DatasetError(f"line {line}: {message}")


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.pos = 0

    def next(self) -> Optional[tuple[int, list[str]]]:
        """Next contentful line as (1-based number, tokens)."""
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            body = raw.split("#", 1)[0].strip()
            if body:
                return self.pos, body.split()
        return None


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


def _read_square(cur: _Cursor, line: int, tokens: Sequence[str],
                 keyword: str) -> tuple[int, IntMatrix]:
    if len(tokens) != 2:
        _fail(line, f"{keyword} wants a single size argument")
    n = _int(tokens[1], line, keyword)
    if n <= 0:
        _fail(line, f"{keyword} size must be positive")
    rows = []
    for _ in range(n):
        item = cur.next()
        if item is None:
            _fail(line, f"{keyword} block ends before {n} rows were read")
        rline, toks = item
        if len(toks) != n:
            _fail(rline, f"{keyword} row: expected {n} integers, "
                         f"got {len(toks)}")
        rows.append(tuple(_int(t, rline, keyword) for t in toks))
    return line, tuple(rows)


def _square_lattice(rows: IntMatrix, line: int, keyword: str) -> Lattice:
    n = len(rows)
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                _fail(line, f"{keyword} symmetry: entry ({i}, {j}) "
                            f"disagrees with ({j}, {i})")
    try:
        return Lattice(rows)
    except ValueError as exc:
        _fail(line, f"{keyword}: {exc}")


def _parse_lattice_block(cur: _Cursor, start: int,
                         tokens: Sequence[str]) -> tuple[str, Lattice]:
    if len(tokens) != 2:
        _fail(start, "lattice wants a single name token")
    name = tokens[1]
    lat = None
    while True:
        item = cur.next()
        if item is None:
            _fail(start, f"lattice {name!r} block is missing its 'end'")
        line, toks = item
        if toks[0] == "end":
            break
        if toks[0] != "gram" or lat is not None:
            _fail(line, f"lattice blocks hold a single gram, got {toks[0]!r}")
        gline, rows = _read_square(cur, line, toks, "gram")
        lat = _square_lattice(rows, gline, "gram")
    if lat is None:
        _fail(start, f"lattice {name!r} has no gram")
    return name, lat


_SINGLE_FIELDS = ("order", "disc", "q", "coinv_gram")  # at most once a block


def _parse_group_block(cur: _Cursor, start: int,
                       tokens: Sequence[str]) -> GroupEntry:
    if len(tokens) != 2:
        _fail(start, "group wants a single name token")
    name = tokens[1]
    order = None
    grams: list[Lattice] = []
    disc_orders = None
    q_vals = None
    b_entries: list[tuple[int, int, Fraction, int]] = []
    obar_rows: list[tuple[int, list[str]]] = []
    coinv = None
    line_of: dict[str, int] = {}  # field -> its last line
    while True:
        item = cur.next()
        if item is None:
            _fail(start, f"group {name!r} block is missing its 'end'")
        line, toks = item
        key = toks[0]
        if key == "end":
            break
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
            gline, rows = _read_square(cur, line, toks, "gram")
            lat = _square_lattice(rows, gline, "gram")
            if lat.rank != 3:
                _fail(gline, "gram: invariant lattices are 3x3")
            if not lat.is_even:
                _fail(gline, "gram evenness: diagonal entries must be even")
            if not lat.is_positive_definite:
                _fail(gline, "gram: invariant lattices are positive definite")
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
            b_entries.append((_int(toks[1], line, "b"),
                              _int(toks[2], line, "b"),
                              _rational(toks[3], line, "b"), line))
        elif key == "obar":
            obar_rows.append((line, toks[1:]))
        elif key == "coinv_gram":
            gline, rows = _read_square(cur, line, toks, "coinv_gram")
            coinv = _square_lattice(rows, gline, "coinv_gram")
            if not coinv.is_even:
                _fail(gline, "coinv_gram evenness: diagonal must be even")
            if not coinv.is_negative_definite:
                _fail(gline, "coinv_gram: coinvariant lattices are negative "
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
    if len(q_vals) != len(disc_orders):
        _fail(line_of["q"], "q: want one value per disc generator")
    r = len(disc_orders)
    b_off = [[Fraction(0)] * (r - 1 - i) for i in range(r)]
    for i, j, val, bline in b_entries:
        if not 0 <= i < j < r:
            _fail(bline, "b: indices must satisfy 0 <= i < j < rank")
        b_off[i][j - i - 1] = val
    try:
        disc = Fqm(disc_orders, q_vals, tuple(tuple(r_) for r_ in b_off))
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
    cur = _Cursor(text)
    first = cur.next()
    if first is None:
        _fail(1, "empty dataset: expected a 'format 1' header")
    line, toks = first
    if toks != ["format", "1"]:
        _fail(line, "expected a 'format 1' header")
    groups: list[GroupEntry] = []
    lattices: list[tuple[str, Lattice]] = []
    seen: set[str] = set()
    while (item := cur.next()) is not None:
        line, toks = item
        if toks[0] == "lattice":
            lattices.append(_parse_lattice_block(cur, line, toks))
        elif toks[0] == "group":
            entry = _parse_group_block(cur, line, toks)
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

def _emit_square(lines: list[str], keyword: str, rows: IntMatrix) -> None:
    lines.append(f"{keyword} {len(rows)}")
    for row in rows:
        lines.append(" ".join(str(x) for x in row))


def emit_dataset(dataset: Dataset) -> str:
    blocks = []
    for name, lat in dataset.lattices:
        lines = [f"lattice {name}"]
        _emit_square(lines, "gram", lat.gram)
        lines.append("end")
        blocks.append("\n".join(lines))
    for g in dataset.groups:
        lines = [f"group {g.name}", f"order {g.order}"]
        for lat in g.grams:
            _emit_square(lines, "gram", lat.gram)
        m = g.coinv
        if m is not None:
            lines.append("disc " + " ".join(str(d) for d in m.disc.orders))
            lines.append("q " + " ".join(str(v) for v in m.disc.q_diag))
            for i, row in enumerate(m.disc.b_off):
                for k, val in enumerate(row):
                    if val:
                        lines.append(f"b {i} {i + 1 + k} {val}")
            for hom in m.obar or ():
                lines.append("obar " + " ".join(
                    ",".join(str(c) for c in img) for img in hom.images))
            if m.gram is not None:
                _emit_square(lines, "coinv_gram", m.gram.gram)
        lines.append("end")
        blocks.append("\n".join(lines))
    if not blocks:
        return "format 1\n"
    return "format 1\n\n" + "\n\n".join(blocks) + "\n"


# ------------------------------------------------------------- the table

def run_table(dataset: Dataset, mode: str = "permissive"
              ) -> tuple[list[ClassificationRow], list[str]]:
    """Classification rows for every group with glue data, plus warnings.

    Groups without a disc form are skipped with a warning; asking for exact
    mode on a group without obar generators downgrades that group to
    permissive with a warning.  Row order follows the dataset.  A failure
    inside one group's classification is re-raised as a RuntimeError
    naming the group.
    """
    if mode not in ("permissive", "exact"):
        raise InputError(f"unknown mode {mode!r}")
    warnings: list[str] = []
    rows: list[ClassificationRow] = []
    for g in dataset.groups:
        if g.coinv is None:
            warnings.append(f"{g.name}: no coinvariant discriminant data, "
                            "skipped")
            continue
        group_mode = mode
        if mode == "exact" and g.coinv.obar is None:
            warnings.append(f"{g.name}: exact mode needs obar generators, "
                            "ran permissive")
            group_mode = "permissive"
        try:
            rows += classify(list(g.grams), g.coinv, g.name, group_mode)
        except Exception as exc:
            raise RuntimeError(f"{g.name}: {exc}") from exc
    return rows, warnings


def _t_text(t: IntMatrix) -> str:
    return "[[{},{}],[{},{}]]".format(t[0][0], t[0][1], t[1][0], t[1][1])


def _row_tuple(row: ClassificationRow):
    return (row.group_name, row.h_sq, row.h_div, row.m, row.t_gram,
            row.k3_flag, row.mode)


def format_table(rows: Sequence[ClassificationRow], out_format: str) -> str:
    tups = [_row_tuple(r) for r in rows]
    if out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for g, h_sq, div, m, t, k3, mode in tups:
            writer.writerow([g, h_sq, div, m, _t_text(t), k3, mode])
        return buf.getvalue()
    if out_format == "markdown":
        lines = ["| " + " | ".join(TABLE_COLUMNS) + " |",
                 "|" + "|".join(" --- " for _ in TABLE_COLUMNS) + "|"]
        for g, h_sq, div, m, t, k3, mode in tups:
            cells = [g, str(h_sq), str(div), str(m), _t_text(t), k3, mode]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise InputError(f"unknown table format {out_format!r}")


def parse_table(text: str, out_format: str):
    """Inverse of format_table; returns (group, h_sq, div, m, t, k3, mode)
    tuples, for round-tripping the documented schema."""
    def decode(cells):
        if len(cells) != len(TABLE_COLUMNS):
            raise InputError(f"table row has {len(cells)} cells")
        g, h_sq, div, m, t_text, k3, mode = cells
        t = tuple(tuple(int(x) for x in row)
                  for row in ast.literal_eval(t_text))
        return (g, int(h_sq), int(div), int(m), t, k3, mode)

    rows = []
    if out_format == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if tuple(header or ()) != TABLE_COLUMNS:
            raise InputError("csv header does not match the table schema")
        for record in reader:
            if record:
                rows.append(decode(record))
    elif out_format == "markdown":
        lines = [l for l in text.split("\n") if l.strip()]
        if len(lines) < 2:
            raise InputError("markdown table needs a header and a rule")
        header = [c.strip() for c in lines[0].strip().strip("|").split("|")]
        if tuple(header) != TABLE_COLUMNS:
            raise InputError("markdown header does not match the table "
                             "schema")
        for line in lines[2:]:
            rows.append(decode([c.strip()
                                for c in line.strip().strip("|").split("|")]))
    else:
        raise InputError(f"unknown table format {out_format!r}")
    return rows


# ------------------------------------------------------------ cli plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(f"{message}\n{self.format_usage().rstrip()}")


def _add_gram_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gram", help="inline rows, e.g. '2 1; 1 6'")
    p.add_argument("--gram-file", help="file with one row of integers per "
                                       "line")
    p.add_argument("--group", help="use a dataset group's invariant gram")
    p.add_argument("--index", type=int, default=0,
                   help="which gram of the group (default 0)")
    p.add_argument("--lattice", help="use a named dataset lattice, e.g. "
                                     "Leech")
    p.add_argument("--dataset", help="dataset file (default: built-in "
                                     "fixtures)")


def _resolve_dataset(args) -> Dataset:
    path = getattr(args, "dataset", None)
    if path is None:
        return builtin_dataset()
    try:
        return load_dataset(path)
    except OSError as exc:
        raise InputError(f"dataset: {exc}")


def _rows_from_text(text: str, what: str) -> IntMatrix:
    rows = []
    for chunk in text.split(";"):
        entries = chunk.replace(",", " ").split()
        if not entries:
            raise InputError(f"{what}: empty row")
        try:
            rows.append(tuple(int(e) for e in entries))
        except ValueError:
            raise InputError(f"{what}: rows are integers, got {chunk!r}")
    if any(len(r) != len(rows) for r in rows):
        raise InputError(f"{what}: matrix must be square")
    return tuple(rows)


def _resolve_lattice(args) -> Lattice:
    sources = [s for s in ("gram", "gram_file", "group", "lattice")
               if getattr(args, s, None) is not None]
    if len(sources) != 1:
        raise InputError("pass exactly one of --gram, --gram-file, --group, "
                         "--lattice")
    if args.gram is not None:
        rows = _rows_from_text(args.gram, "gram")
    elif args.gram_file is not None:
        try:
            with open(args.gram_file, encoding="utf-8") as handle:
                rows = _rows_from_text(";".join(
                    l for l in handle.read().splitlines() if l.strip()),
                    "gram")
        except OSError as exc:
            raise InputError(f"gram file: {exc}")
    elif args.group is not None:
        entry = _group_entry(args)
        if not 0 <= args.index < len(entry.grams):
            raise InputError(f"group {entry.name!r} has "
                             f"{len(entry.grams)} grams; bad --index")
        return entry.grams[args.index]
    else:
        try:
            return _resolve_dataset(args).lattice(args.lattice)
        except KeyError as exc:
            raise InputError(str(exc.args[0]))
    try:
        return Lattice(rows)
    except ValueError as exc:
        raise InputError(f"gram: {exc}")


def _group_entry(args) -> GroupEntry:
    try:
        return _resolve_dataset(args).group(args.group)
    except KeyError as exc:
        raise InputError(str(exc.args[0]))


def _inline_disc(args) -> Fqm:
    try:
        orders = tuple(int(x) for x in args.disc.split(","))
        q_vals = tuple(Fraction(x) for x in args.q.split(",")) \
            if args.q else ()
        r = len(orders)
        b_off = [[Fraction(0)] * (r - 1 - i) for i in range(r)]
        for triple in args.b or ():
            if triple.count(",") != 2:
                raise InputError("disc form: --b wants i,j,value "
                                 f"triples, got {triple!r}")
            i_txt, j_txt, val = triple.split(",")
            i, j = int(i_txt), int(j_txt)
            if not 0 <= i < j < r:
                raise InputError("--b: indices must satisfy "
                                 "0 <= i < j < rank")
            b_off[i][j - i - 1] = Fraction(val)
        return Fqm(orders, q_vals, tuple(tuple(row) for row in b_off))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"disc form: {exc}")


# ---------------------------------------------------------------- commands

def _resolve_disc(args) -> Fqm:
    lat = _resolve_lattice(args)
    if not lat.is_even:
        raise InputError("discriminant form requires an even gram")
    return disc_map(lat).fqm


def _cmd_disc(args) -> int:
    d = _resolve_disc(args)
    print("orders:", " ".join(str(o) for o in d.orders) or "trivial")
    if d.orders:
        print("q:", " ".join(str(v) for v in d.q_diag))
        for i, row in enumerate(d.b_off):
            for k, val in enumerate(row):
                if val:
                    print(f"b {i} {i + 1 + k} {val}")
    return 0


def _cmd_autgroup(args) -> int:
    lat = _resolve_lattice(args)
    if not lat.is_definite:
        raise InputError("automorphism enumeration needs a definite gram")
    gens, order = automorphism_group(lat)
    print("order:", order)
    print("generators:", len(gens))
    return 0


def _cmd_shortvec(args) -> int:
    lat = _resolve_lattice(args)
    if not lat.is_definite:
        raise InputError("short vector enumeration needs a definite gram")
    vecs = vectors_of_norm(lat, args.norm)
    print("count:", len(vecs))
    if not args.count_only:
        for v in vecs:
            print(" ".join(str(x) for x in v))
    return 0


def _cmd_good_isos(args) -> int:
    lat = _resolve_lattice(args)
    try:
        goods = good_isometries(lat)
    except ValueError as exc:
        raise InputError(str(exc))
    print("count:", len(goods))
    for f in goods:
        trace = sum(f.matrix[i][i] for i in range(len(f.matrix)))
        print(f"order {f.order} trace {trace}")
        for row in f.matrix:
            print(" ".join(str(x) for x in row))
    return 0


def _cmd_glue_check(args) -> int:
    if args.group is not None and args.disc is None:
        entry = _group_entry(args)
        if entry.disc is None:
            raise InputError(f"group {entry.name!r} ships without "
                             "coinvariant discriminant data")
        m_disc = entry.disc
    else:
        if args.disc is None:
            raise InputError("pass --group or an inline --disc/--q form")
        m_disc = _inline_disc(args)
    d_n = _resolve_disc(args)
    embeddings = anti_embeddings(m_disc, d_n)
    # gamma is admissible iff its image, of index 2, is some c^perp
    rows = k3sq_glue_characters(d_n) if 2 * m_disc.order == d_n.order else []
    admissible = sum(any(all(sum(map(mul, y, w)) % d_n.orders[-1] == 0
                             for y in gamma.images) for w in rows)
                     for gamma in embeddings)
    print("anti-embeddings:", len(embeddings))
    print("admissible:", admissible)
    print("verdict:", "admissible" if admissible else "no admissible glue")
    return 0


def _cmd_classify(args) -> int:
    entry = _group_entry(args)
    if entry.disc is None:
        raise InputError(f"group {entry.name!r} ships without coinvariant "
                         "discriminant data; supply a dataset with disc "
                         "fields")
    rows, warnings = run_table(Dataset((entry,)), mode=args.mode)
    for w in warnings:
        print(f"k3lat: warning: {w}", file=sys.stderr)
    sys.stdout.write(format_table(rows, args.format))
    return 0


def _cmd_hilb2(args) -> int:
    try:
        report = obstruction_report(args.h2, l_bound=args.l_bound)
        scan = minus2_wall_scan(args.h2)
        verdict = ample_model_verdict(args.h2, no_lines=args.no_lines,
                                      l_bound=args.l_bound)
    except ValueError as exc:
        raise InputError(str(exc))
    print("obstruction blocks:", len(report.minus10_grams))
    for gram in report.minus10_grams:
        print(" ", _t_text(gram))
    print("walls:")
    for t, k, l in report.wall_solutions:
        print(f"  t={t} k={k} l={l}")
    if scan.terminal_gram is not None:
        print("wall block:", _t_text(scan.terminal_gram))
    print("line class needed:", "yes" if report.line_class_needed else "no")
    print("ample model certain:", "yes" if verdict else "no")
    return 0


def _cmd_table(args) -> int:
    dataset = _resolve_dataset(args)
    rows, warnings = run_table(dataset, mode=args.mode)
    sys.stdout.write(format_table(rows, args.format))
    for w in warnings:
        print(f"k3lat: warning: {w}", file=sys.stderr)
    print(f"rows: {len(rows)}  warnings: {len(warnings)}", file=sys.stderr)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="k3lat",
                     description="Lattice side of symplectic automorphism "
                                 "classification on hyperkaehler fourfolds.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("disc", help="discriminant form of a gram")
    _add_gram_source(p)
    p.set_defaults(handler=_cmd_disc)

    p = sub.add_parser("autgroup", help="isometry group of a definite gram")
    _add_gram_source(p)
    p.set_defaults(handler=_cmd_autgroup)

    p = sub.add_parser("shortvec", help="vectors of a given norm")
    _add_gram_source(p)
    p.add_argument("--norm", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=_cmd_shortvec)

    p = sub.add_parser("good-isos",
                       help="order 2/3/4/6 isometries with the right trace")
    _add_gram_source(p)
    p.set_defaults(handler=_cmd_good_isos)

    p = sub.add_parser("glue-check",
                       help="count admissible anti-embeddings into D(N)")
    _add_gram_source(p)
    p.add_argument("--disc", help="inline generator orders, e.g. '11,11'")
    p.add_argument("--q", help="inline q values, e.g. '16/11,20/11'")
    p.add_argument("--b", action="append",
                   help="inline pairing entry 'i,j,value' (repeatable)")
    p.set_defaults(handler=_cmd_glue_check)

    p = sub.add_parser("classify", help="classification rows for one group")
    p.add_argument("--group", required=True)
    p.add_argument("--dataset")
    p.add_argument("--mode", choices=("permissive", "exact"),
                   default="permissive")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("hilb2",
                       help="ample-cone obstructions for a Hilbert square")
    p.add_argument("--h2", type=int, required=True,
                   help="square of the polarization")
    p.add_argument("--l-bound", type=int)
    p.add_argument("--no-lines", action="store_true",
                   help="assume the surface contains no lines")
    p.set_defaults(handler=_cmd_hilb2)

    p = sub.add_parser("table", help="run the full classification table")
    p.add_argument("--dataset")
    p.add_argument("--mode", choices=("permissive", "exact"),
                   default="permissive")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.set_defaults(handler=_cmd_table)

    return parser


def _gram_label(args) -> str:
    """"<source>: " for the Gram of a Gram-taking command, else ""."""
    for source in ("gram", "gram_file", "lattice", "group"):
        value = getattr(args, source, None)
        if value is not None and hasattr(args, "index"):
            index = f" gram {args.index}" if source == "group" else ""
            return f"{source.replace('_', ' ')} {value!r}{index}: "
    return ""  # table and classify name the group themselves


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (InputError, DatasetError) as exc:
        print(f"k3lat: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"k3lat: internal invariant violation: {_gram_label(args)}"
              f"{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
