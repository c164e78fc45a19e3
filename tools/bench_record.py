"""Record a pinned benchmark workload into ``BENCH_runner.json``.

Usage (from the repo root)::

    PYTHONPATH=src python tools/bench_record.py                       # full workload
    PYTHONPATH=src python tools/bench_record.py --workload smoke --check  # CI job

This is ``repro bench`` under another name: it forwards its arguments to
the CLI subcommand (options, workload names, one-line ``error:``
diagnoses and exit codes included), and only makes the tool runnable
without installing the package, mirroring ``tools/check_docs.py`` and
``tools/golden.py``.  All logic lives in :mod:`repro.experiments.bench`.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
