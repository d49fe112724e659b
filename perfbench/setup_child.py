"""One fresh-interpreter set-up: import k3lat and parse the dataset text on
stdin.  run.py times this whole process to get ``setup_s``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from k3lat import cli  # noqa: E402

dataset = cli.parse_dataset(sys.stdin.read())
print(len(dataset.groups), len(dataset.lattices))
