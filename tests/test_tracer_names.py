"""The benchmark's tracer still finds every name it wraps, and its observers still read what they expect.

``perfbench/tracing.py`` wraps program functions by name and reads fields of
their arguments and results. A rename in the program breaks it only when a
traced run happens, so this test makes one: in a subprocess, so that the
wrapping stays out of the other tests, and with bytecode writing off, so
that nothing is written under ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import importlib.util, json, random, sys

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()

from dnavault.config import ServiceConfig
from dnavault.fountain import DEFAULT_SCREEN
from dnavault.service import StorageService

data = random.Random(5).randbytes(600)
with tracer.op("setup"):
    service = StorageService(ServiceConfig.load_or_create(sys.argv[2]))
with tracer.op("upload"):
    file_hash = service.upload("alice", data)["file_hash"]
    DEFAULT_SCREEN.accepts("ACGTACGT")  # the upload screens code rows, so call the wrapped string check once
with tracer.op("open"):
    service = StorageService(ServiceConfig.load_or_create(sys.argv[2]))
with tracer.op("download"):
    assert service.download("alice", file_hash) == data
print(json.dumps(tracer.export()))
"""


def test_a_traced_upload_and_download_runs_every_observer(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(REPO / "perfbench" / "tracing.py"), str(tmp_path / "state")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    trace = json.loads(proc.stdout)
    counters = trace["counters"]
    for counter in ("screen_accepted", "droplets_stored", "oligos_sequenced", "reads", "consensus_out"):
        assert counters.get(counter, 0) > 0, counter
    called = {name for name, _, calls, _, _ in trace["stats"] if calls}
    for name in (
        "synthesis.synthesize",
        "synthesis.save_bead",
        "synthesis.load_bead",
        "synthesis.sequence_bead",
        "synthesis.consensus_reads",
        "contract.upload",
        "contract.download",
        "service.open",
    ):
        assert name in called, name
