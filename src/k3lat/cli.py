"""The k3lat command line.

Dataset files are read and written by k3lat.dataset.  Table schema (csv and
markdown share it):

    group, h_sq, div, m, t_gram, k3, mode

with t_gram rendered as the compact literal ``[[a,b],[b,c]]``.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .classify import ClassificationRow, classify, good_isometries
from .dataset import Dataset, DatasetError, GroupEntry, b_entries, \
    builtin_dataset, disc_form, load_dataset
from .enumeration import automorphism_group, vectors_of_norm
from .fqm import Fqm, admissible_images, anti_embeddings, in_perp
from .hilb2 import ample_model_verdict, minus2_wall_scan, obstruction_report
# perfbench reads these through cli
from .dataset import emit_dataset, parse_dataset  # noqa: F401
from .fqm import hom_image, k3sq_glue_admissible  # noqa: F401
from .lattice import Lattice, disc_map

IntMatrix = tuple[tuple[int, ...], ...]

TABLE_COLUMNS = ("group", "h_sq", "div", "m", "t_gram", "k3", "mode")


class InputError(Exception):
    """Bad command line input; maps to exit code 1."""


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


def format_table(rows: Sequence[ClassificationRow], out_format: str) -> str:
    cells = [[r.group_name, str(r.h_sq), str(r.h_div), str(r.m),
              _t_text(r.t_gram), r.k3_flag, r.mode] for r in rows]
    if out_format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([TABLE_COLUMNS, *cells])
        return buf.getvalue()
    if out_format == "markdown":
        lines = ["| " + " | ".join(TABLE_COLUMNS) + " |",
                 "|" + "|".join(" --- " for _ in TABLE_COLUMNS) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in cells]
        return "\n".join(lines) + "\n"
    raise InputError(f"unknown table format {out_format!r}")


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
        b_triples = []
        for triple in args.b or ():
            if triple.count(",") != 2:
                raise InputError("disc form: --b wants i,j,value "
                                 f"triples, got {triple!r}")
            i, j, val = triple.split(",")
            b_triples.append((int(i), int(j), Fraction(val)))
        q_vals = [Fraction(x) for x in args.q.split(",")] if args.q else []
        return disc_form([int(x) for x in args.disc.split(",")], q_vals,
                         b_triples)
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
        for line in b_entries(d):
            print(line)
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
    # an injective map of order |D_N| / 2 is onto c^perp iff its images are
    rows = ([w for _, w in admissible_images(d_n)]
            if 2 * m_disc.order == d_n.order else [])
    admissible = sum(any(all(in_perp(d_n, y, w) for y in gam.images)
                         for w in rows) for gam in embeddings)
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
        verdict = ample_model_verdict(args.h2, args.no_lines,
                                      l_bound=args.l_bound)
    except ValueError as exc:
        raise InputError(str(exc))
    print("obstruction blocks:", len(report.minus10_grams))
    for gram in report.minus10_grams:
        print(" ", _t_text(gram))
    print("walls:")
    for t, k, l in report.wall_solutions:
        print(f"  t={t} k={k} l={l}")
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

    rows_opts = argparse.ArgumentParser(add_help=False)  # classify, table
    rows_opts.add_argument("--dataset")
    rows_opts.add_argument("--mode", choices=("permissive", "exact"),
                           default="permissive")
    rows_opts.add_argument("--format", choices=("csv", "markdown"),
                           default="csv")

    p = sub.add_parser("classify", parents=[rows_opts],
                       help="classification rows for one group")
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("hilb2",
                       help="ample-cone obstructions for a Hilbert square")
    p.add_argument("--h2", type=int, required=True,
                   help="square of the polarization")
    p.add_argument("--l-bound", type=int,
                   help="cap on the -10 scan, required for --h2 2 and "
                        "ignored above it (Hodge index ends the scan)")
    p.add_argument("--no-lines", action="store_true",
                   help="assume the surface contains no lines")
    p.set_defaults(handler=_cmd_hilb2)

    p = sub.add_parser("table", parents=[rows_opts],
                       help="run the full classification table")
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
