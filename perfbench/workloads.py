"""The three workloads: one pass each, timed, then checked.

A pass starts with every k3lat cache cold, parses its dataset text outside
the timed region, runs the timed operations as one closed-loop client and
then checks each output.  A failed check counts against the operation
(one group for the table workloads, one query for ``lattice-queries``); it
never aborts the run.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
EXPECTED_CSV = HERE / "expected" / "table.csv"
EXPECTED_ANSWERS = HERE / "expected" / "answers.json"

GOOD = {(2, -1), (3, 0), (4, 1), (6, 2)}  # (order, trace) of good isometries


@dataclass
class Pass:
    spans: list[tuple[float, float]]  # (start, end) clock of each query
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:  # the timed operations only
        return sum(end - start for start, end in self.spans)


def clear_caches(k3: dict) -> None:
    """Empty every functools cache in the program."""
    for mod in k3.values():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _csv_by_group(text: str) -> tuple[list[str], dict[str, list[list[str]]]]:
    records = list(csv.reader(io.StringIO(text)))
    out: dict[str, list[list[str]]] = {}
    for rec in records[1:]:
        out.setdefault(rec[0], []).append(rec)
    return (records[0] if records else []), out


def _check_groups(p: Pass, got_csv: str, want_csv: str) -> None:
    """One operation per group: its rows must equal the expected rows."""
    got_head, got = _csv_by_group(got_csv)
    want_head, want = _csv_by_group(want_csv)
    names = list(want) + [g for g in got if g not in want]
    p.attempted += len(names)
    for name in names:
        if got_head != want_head or got.get(name) != want.get(name):
            p.failed += 1
            p.problems.append(f"{name}: rows differ from the expected table")


class Table:
    """``k3lat table``: the built-in dataset in permissive mode, as csv."""

    name = "table"
    mode = "permissive"

    def __init__(self, k3: dict, builtin_text: str, seed: int):
        # the built-in dataset is the input users run: the seed has no say
        self.k3, self.text = k3, builtin_text
        self.want = EXPECTED_CSV.read_text(encoding="utf-8")

    def load(self):
        return self.k3["cli"].builtin_dataset()

    def run(self, tracer=None, clock=time.perf_counter) -> Pass:
        cli = self.k3["cli"]
        clear_caches(self.k3)
        dataset = self.load()
        start = clock()
        try:
            rows, _ = cli.run_table(dataset, mode=self.mode)
            got = cli.format_table(rows, "csv")
        except Exception as exc:  # a crash fails every group
            got = f"error: {exc!r}\n"
        # one query is one `k3lat table` request; one checked operation is
        # one group of it
        p = Pass([(start, clock())])
        _check_groups(p, got, self.expected())
        return p

    def expected(self) -> str:
        return self.want


class TableExact(Table):
    """Exact mode on the two-generator groups of inputs.EXACT_GROUPS, each
    carrying a seeded obar that generates the full O(D_M).  Every witness
    then lies in O(D_M), so the rows must equal the permissive rows."""

    name = "table-exact"
    mode = "exact"

    def __init__(self, k3: dict, builtin_text: str, seed: int):
        super().__init__(k3, builtin_text, seed)
        self.text = inputs.table_exact_text(builtin_text, seed)

    def load(self):
        return self.k3["cli"].parse_dataset(self.text)

    def expected(self) -> str:
        head, groups = _csv_by_group(self.want)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(head)
        for name in inputs.EXACT_GROUPS:
            writer.writerows(rec[:-1] + ["exact"] for rec in groups[name])
        return buf.getvalue()


# ------------------------------------------------------------ the queries

def _is_isometry(q, g1, g2) -> bool:
    """Q . G2 . Q^T == G1."""
    return [list(r) for r in inputs.conjugate(q, g2)] == [list(r) for r in g1]


def _norm(gram, v) -> int:
    n = len(v)
    return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def _q_spectrum(fqm) -> list:
    """How often each q value occurs on the module: basis independent."""
    r = len(fqm.orders)
    values: Counter = Counter()
    elements = [()]
    for d in fqm.orders:
        elements = [x + (c,) for x in elements for c in range(d)]
    for x in elements:
        total = sum(x[i] * x[i] * fqm.q_diag[i] for i in range(r))
        total += sum(2 * x[i] * x[j] * fqm.b_off[i][j - i - 1]
                     for i in range(r) for j in range(i + 1, r))
        values[str(Fraction(total) % 2)] += 1
    return sorted(values.items())


def run_query(k3: dict, dataset, lattices: dict, q: inputs.Query):
    """One query of a ``k3lat`` command kind, through cli's own bindings."""
    cli = k3["cli"]
    lat = [lattices[name] for name in q.lattices]
    if q.kind == "shortvec":
        return cli.vectors_of_norm(lat[0], q.arg)
    if q.kind == "autgroup":
        return cli.automorphism_group(lat[0])
    if q.kind == "good-isos":
        return cli.good_isometries(lat[0])
    if q.kind == "isometric":
        return k3["enumeration"].is_isometric(lat[0], lat[1])
    if q.kind == "disc":
        return cli.disc_map(lat[0]).fqm
    if q.kind == "partner":
        return k3["glue"].partner_disc_candidates(lat[0])
    if q.kind == "glue-check":
        m_disc = dataset.group(q.group).disc
        d_n = cli.disc_map(lat[0]).fqm
        embeddings = cli.anti_embeddings(m_disc, d_n)
        admissible = [e for e in embeddings
                      if cli.k3sq_glue_admissible(d_n, cli.hom_image(e))]
        return len(embeddings), len(admissible)
    if q.kind == "hilb2":
        l_bound = inputs.HILB2_L_BOUND if q.arg == 2 else None
        report = cli.obstruction_report(q.arg, l_bound=l_bound)
        scan = cli.minus2_wall_scan(q.arg)
        verdict = cli.ample_model_verdict(q.arg, no_lines=True,
                                          l_bound=l_bound)
        return report, scan, verdict
    raise ValueError(f"unknown query kind {q.kind!r}")


def answer(q: inputs.Query, grams: list, result) -> tuple[object, list[str]]:
    """(seed-independent summary, structural problems) of one result."""
    bad: list[str] = []
    if q.kind == "shortvec":
        vecs = set(result)
        if len(vecs) != len(result) or any(
                _norm(grams[0], v) != q.arg for v in vecs) or any(
                tuple(-x for x in v) not in vecs for v in vecs):
            bad.append("vectors are repeated, of the wrong norm or not "
                       "closed under negation")
        return len(result), bad
    if q.kind == "autgroup":
        gens, order = result
        if not all(_is_isometry(g.matrix, grams[0], grams[0]) for g in gens):
            bad.append("a generator is not an isometry")
        return order, bad
    if q.kind == "good-isos":
        kinds = Counter()
        for f in result:
            if not _is_isometry(f.matrix, grams[0], grams[0]):
                bad.append("a good isometry is not an isometry")
            kinds[f"{f.order},{sum(f.matrix[i][i] for i in range(3))}"] += 1
        if any(tuple(map(int, k.split(","))) not in GOOD for k in kinds):
            bad.append("an isometry has the wrong order or trace")
        return sorted(kinds.items()), bad
    if q.kind == "isometric":
        if result is None:
            return "no", bad
        if not _is_isometry(result.matrix, grams[0], grams[1]):
            bad.append("witness Q fails Q.G2.Q^T = G1")
        return "yes", bad
    if q.kind == "disc":
        return [list(result.orders), _q_spectrum(result)], bad
    if q.kind == "partner":
        return sorted(list(f.orders) for f in result), bad
    if q.kind == "glue-check":
        return list(result), bad
    report, scan, verdict = result
    return {"blocks": [[list(r) for r in g] for g in report.minus10_grams],
            "walls": [[str(t), k, l] for t, k, l in report.wall_solutions],
            "terminal": scan.terminal_gram and [list(r) for r in
                                                scan.terminal_gram],
            "line": report.line_class_needed, "verdict": verdict}, bad


def _facts(q: inputs.Query, result, summary) -> list[str]:
    """Answers that are mathematical facts, not frozen program output."""
    if q.key == "shortvec:Leech" and summary != 0:
        return ["Leech has norm-2 vectors"]
    if q.key == "shortvec:E8+E8" and summary != 480:
        return ["E8+E8 does not have 480 norm-2 vectors"]
    if q.key == "disc:K3" and result.orders != ():
        return ["the rank-22 K3 lattice is not unimodular"]
    if q.key == "disc:K3sq" and (result.orders != (2,) or
                                 result.q_diag != (Fraction(3, 2),)):
        return ["the rank-23 lattice is not Z/2 with q = 3/2"]
    if q.key == "hilb2:4" and (
            summary["blocks"] != [[[-2, 1], [1, 4]], [[2, 3], [3, 4]]]
            or summary["walls"] != [["1/2", 1, 1]]):
        return ["degree 4 lacks the two blocks or the t = 1/2 wall"]
    return []


class LatticeQueries:
    """A seeded stream of single-lattice queries of the CLI kinds."""

    name = "lattice-queries"

    def __init__(self, k3: dict, builtin_text: str, seed: int):
        self.k3 = k3
        self.text, self.queries = inputs.query_stream(builtin_text, seed)
        self.grams = {b.name: b.grams[0]
                      for b in inputs.split_blocks(self.text)
                      if b.kind == "lattice"}
        self.want = json.loads(EXPECTED_ANSWERS.read_text(encoding="utf-8"))

    def run(self, tracer=None, clock=time.perf_counter) -> Pass:
        clear_caches(self.k3)
        dataset = self.k3["cli"].parse_dataset(self.text)
        lattices = dict(dataset.lattices)
        results, spans = [], []
        for i, q in enumerate(self.queries):
            if tracer is not None:
                tracer.run_id = f"{i}:{q.key}"
            start = clock()
            try:
                results.append(run_query(self.k3, dataset, lattices, q))
            except Exception as exc:  # a crash fails this query only
                results.append(exc)
            spans.append((start, clock()))
        p = Pass(spans)
        for q, result in zip(self.queries, results):
            p.attempted += 1
            problems = self.check(q, result)
            if problems:
                p.failed += 1
                p.problems.extend(f"{q.key}: {m}" for m in problems)
        return p

    def check(self, q: inputs.Query, result) -> list[str]:
        if isinstance(result, Exception):
            return [f"raised {result!r}"]
        try:
            summary, bad = answer(q, [self.grams[n] for n in q.lattices],
                                  result)
            summary = json.loads(json.dumps(summary))
            bad += _facts(q, result, summary)
        except Exception as exc:  # a result of the wrong shape
            return [f"unreadable result: {exc!r}"]
        if summary != self.want.get(q.key):
            bad.append(f"answer {summary!r} != expected "
                       f"{self.want.get(q.key)!r}")
        return bad


WORKLOADS = {w.name: w for w in (Table, TableExact, LatticeQueries)}
