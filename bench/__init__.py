"""The repository's benchmark: five feasible workloads through ``repro.api``.

``python -m bench run`` is the one command; ``bench/README.md`` is the
glossary of workload and metric names, and ``BENCHMARK.json`` at the
repository root is the driver-facing contract.

The package lives beside ``src/`` rather than inside it, so it puts
``src/`` on the import path itself: the driver runs the command from a
bare checkout with no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Trace files and result files land here; the directory is ignored by git.
OUT_DIR = ROOT / "bench" / "out"
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
