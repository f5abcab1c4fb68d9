"""Open the program's ``StorageService`` on a state directory, in a fresh process.

Usage: ``python3 perfbench/opener.py <state_dir> <trace 0|1>``

The workloads run this at evenly spaced points of the timed phase, as a
restart of the service would: a new process opens the directory as the run
has left it so far. It imports the program first, then times one open, and
prints one JSON line: the seconds the open took and, when tracing, the
exported trace.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dnavault.config import ServiceConfig  # noqa: E402
from dnavault.service import StorageService  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    state_dir, traced = Path(sys.argv[1]), sys.argv[2] == "1"
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    with tracer.op("open") if tracer else nullcontext():
        start = time.perf_counter()
        StorageService(ServiceConfig.load_or_create(state_dir))
        seconds = time.perf_counter() - start
    print(json.dumps({"open_s": seconds, "trace": tracer.export() if tracer else None}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
