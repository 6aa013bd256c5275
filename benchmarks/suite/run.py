"""Benchmark entry point: ``python3 benchmarks/suite/run.py [...]``.

Equivalent to ``python -m benchmarks.suite`` from the repository root;
this form names a file inside the benchmark's own directory.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.suite.cli import main

    sys.exit(main())
