"""Upload and download latency against ledger height.

Usage::

    python3 perfbench/heights.py

Run from the repository root. Runs the ``small_files_deep_ledger``
operations of seed 1, as a 10-second run does them, on a ledger written to
heights 1, 1,000 and the workload's own height, and prints the median
upload and download latency at each.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from stats import percentile  # noqa: E402


HEIGHTS = (1, 1000, workloads.LEDGER_HEIGHT)
SECONDS = 10
SEED = 1


def main() -> int:
    print(f"{'height':>8s} {'upload p50 ms':>14s} {'download p50 ms':>16s}")
    for height in HEIGHTS:
        loop = workloads.Loop()
        work = HERE / "out" / f"heights-{height}"
        try:
            workloads.small_files_deep_ledger(loop, SEED, SECONDS, work, height=height)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        up, down = (percentile(loop.latency[k], 50) * 1000 for k in ("upload", "download"))
        print(f"{height:8d} {up:14.2f} {down:16.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
