"""Regenerate the frozen expected outputs under perfbench/expected.

    python3 perfbench/freeze.py

table.csv is ``k3lat table`` on the built-in dataset.  answers.json holds
the seed-independent answer of every lattice query; it is computed on two
seeds, which must agree, so a basis-dependent answer cannot be frozen.
Run it only when a change is meant to alter the program's output, and say
why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from k3lat import cli, enumeration, glue  # noqa: E402

import inputs  # noqa: E402
from workloads import (EXPECTED_ANSWERS, EXPECTED_CSV, answer,  # noqa: E402
                       run_query)

K3 = {"cli": cli, "enumeration": enumeration, "glue": glue}


def answers(builtin_text: str, seed: int) -> dict:
    text, queries = inputs.query_stream(builtin_text, seed)
    dataset = cli.parse_dataset(text)
    lattices = dict(dataset.lattices)
    grams = {b.name: b.grams[0] for b in inputs.split_blocks(text)
             if b.kind == "lattice"}
    out = {}
    for q in queries:
        summary, bad = answer(q, [grams[n] for n in q.lattices],
                              run_query(K3, dataset, lattices, q))
        if bad or out.get(q.key, summary) != summary:
            raise SystemExit(f"{q.key}: cannot freeze {summary!r} {bad}")
        out[q.key] = summary
    return json.loads(json.dumps(out))


def main() -> None:
    rows, _ = cli.run_table(cli.builtin_dataset(), mode="permissive")
    EXPECTED_CSV.parent.mkdir(exist_ok=True)
    EXPECTED_CSV.write_text(cli.format_table(rows, "csv"), encoding="utf-8")
    builtin_text = cli.emit_dataset(cli.builtin_dataset())
    first, second = answers(builtin_text, 0), answers(builtin_text, 1)
    if first != second:
        raise SystemExit("answers depend on the seed")
    lines = (f" {json.dumps(key)}: {json.dumps(value)}"
             for key, value in sorted(first.items()))
    EXPECTED_ANSWERS.write_text("{\n" + ",\n".join(lines) + "\n}\n",
                                encoding="utf-8")


if __name__ == "__main__":
    main()
