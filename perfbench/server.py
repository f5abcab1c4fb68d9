"""Run the program's REST service in its own process for the ``rest_64kib`` workload.

Usage: ``python3 perfbench/server.py <state_dir> <trace 0|1>``

Builds the server with ``dnavault.service.make_server`` on port 0, prints
the port on the first line of stdout, and serves until stdin closes. It
then shuts the server down and prints one JSON line: its peak RSS and, when
tracing, the exported trace.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dnavault.config import ServiceConfig  # noqa: E402
from dnavault.service import make_server  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    state_dir, traced = Path(sys.argv[1]), sys.argv[2] == "1"
    tracer = tracing.Tracer(server=True) if traced else None
    if tracer:
        tracer.install()
    server = make_server(ServiceConfig.load_or_create(state_dir, port=0))
    print(server.server_address[1], flush=True)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kib": peak_kib, "trace": tracer.export() if tracer else None}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
