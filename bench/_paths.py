"""Path bootstrap: make the checkout's ``src/repro`` importable.

The driver runs the benchmark from a checkout that is not installed, so
every bench module imports this one before its first ``repro`` import.
The benchmark measures the source tree it sits in and nothing else:
without ``src/repro`` beside it, it stops here.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "repro").is_dir():
    raise SystemExit(f"bench: no source tree to measure at {SRC / 'repro'}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
