"""The k3lat benchmark.

    python3 perfbench/run.py --workload table --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Workloads (see README.md): ``table``, ``table-exact``, ``lattice-queries``.

A run repeats whole passes of its workload while the next pass is expected
to end within ``--seconds``; it always completes at least one pass.  With
``--trace 0`` it prints the end-to-end metrics: each operation's time
scaled to a nominal host speed as the host's speed swings (speed.py), and
its median over passes.  With ``--trace 1`` it runs one untraced pass, then
one traced pass, and prints the per-layer metrics plus the tracing
overhead, in unscaled seconds.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
MODULES = ("cli", "classify", "glue", "fqm", "lattice", "enumeration",
           "exact", "hilb2")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "query_p50_ms": "ms", "query_p95_ms": "ms"}


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def setup_seconds(text: str, want: str) -> tuple[float, list[str]]:
    """Median wall time of fresh interpreters that import k3lat and parse
    the workload's dataset text, each scaled by the host speed measured
    just before and after it."""
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.bracket_scale()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py")],
                              input=text, capture_output=True, text=True,
                              cwd=ROOT, timeout=120)
        took = time.perf_counter() - start
        times.append(took * (before + speed.bracket_scale()) / 2)
        if proc.returncode != 0 or proc.stdout.strip() != want:
            problems.append(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(times), problems


def source_digest() -> str:
    """Digest of the program and the benchmark sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counters(name: str, counters: dict) -> list[str]:
    """Work counters must repeat exactly for the same code, workload and
    seed: compare with any earlier traced run of this source tree."""
    path = OUT / f"counters-{name}-{source_digest()}.json"
    text = json.dumps(counters, sort_keys=True, indent=1)
    if path.exists() and path.read_text(encoding="utf-8") != text:
        return [f"work counters differ from the earlier run in {path.name}"]
    OUT.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=("table", "table-exact", "lattice-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "k3lat" / "cli.py").is_file():
        print(f"run.py: no k3lat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    k3 = {m: importlib.import_module(f"k3lat.{m}") for m in MODULES}
    from spans import Tracer
    from workloads import WORKLOADS

    builtin_text = k3["cli"].emit_dataset(k3["cli"].builtin_dataset())
    workload = WORKLOADS[args.workload](k3, builtin_text, args.seed)
    problems: list[str] = []
    if not args.trace:
        parsed = k3["cli"].parse_dataset(workload.text)
        setup_s, problems = setup_seconds(
            workload.text, f"{len(parsed.groups)} {len(parsed.lattices)}")

    passes = []
    sampler = speed.Sampler()
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if args.trace:  # the traced run compares raw times
            passes.append(workload.run())
        else:
            with sampler:
                passes.append(workload.run(clock=sampler.clock))
        took = time.perf_counter() - began
        if args.trace or time.perf_counter() - start + took > args.seconds:
            break
    # every pass times the same operations in the same order: an operation's
    # time is its median over passes (scaled to the nominal host unless
    # traced), and wall_s is the sum of those medians
    nominal = (lambda t0, t1: t1 - t0) if args.trace else sampler.nominal
    op_ms = [statistics.median(nominal(*span) * 1e3 for span in spans)
             for spans in zip(*(p.spans for p in passes))]
    wall = sum(op_ms) / 1e3
    metrics: dict[str, float] = {}
    if args.trace:
        tracer = Tracer(k3)
        tracer.install()
        try:
            passes.append(workload.run(tracer))
        finally:
            tracer.uninstall()
        traced = passes[-1].wall_s
        metrics = tracer.metrics(k3["lattice"].disc_map.cache_info()[:2])
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - wall
        metrics["trace.overhead_ratio"] = (traced - wall) / wall
        counters = tracer.work_counters()
        problems += check_counters(f"{args.workload}-{args.seed}", counters)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        for op, c in counters["by_op"].items():
            print(f"counters {op}: " + " ".join(
                f"{k}={v}" for k, v in c.items()), file=sys.stderr)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "query_p50_ms": percentile(op_ms, 50),
            "query_p95_ms": percentile(op_ms, 95),
        }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems += p.problems
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  operations {attempted}")
    print(f"fail_ratio {failed / attempted:.4f} ratio")
    if not args.trace:
        print(f"host speed {sampler.mean_scale():.4f} of nominal; "
              f"unscaled wall "
              f"{statistics.median(p.wall_s for p in passes):.6g} s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS.get(name, unit_of(name))}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": UNITS.get(name, unit_of(name))}
                    for name, value in metrics.items()}}))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
