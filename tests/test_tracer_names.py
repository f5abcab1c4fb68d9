"""The benchmark's tracer still finds every name it wraps, its observers still read what they expect,
and every traced name runs on the thread that called the program.

``perfbench/tracing.py`` wraps program functions by name and reads fields of
their arguments and results. A rename in the program breaks it only when a
traced run happens, so this test makes one: in a subprocess, so that the
wrapping stays out of the other tests, and with bytecode writing off, so
that nothing is written under ``perfbench/``. The tracer keeps its operation
per thread, so a traced function that ran on a worker would record nothing.
"""

import functools
import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path

from dnavault import fountain
from dnavault.contract import StorageContract
from dnavault.ledger import Validator
from dnavault.network import Cluster

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


def test_every_traced_name_runs_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    monkeypatch.setattr(fountain, "_CORES", 2)  # split the large batches, whatever the runner has
    threads = defaultdict(set)  # name -> idents of the threads it ran on

    def recording(fn, name):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            threads[name].add(threading.get_ident())
            return fn(*args, **kwargs)

        return recorded

    # Wrapped as the tracer wraps them, wherever a dnavault module holds them; plan_batch shows the split ran.
    for name, (module_name, attr) in {**tracing.TRACED, "rng.plan_batch": ("rng", "plan_batch")}.items():
        module = importlib.import_module(f"dnavault.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            monkeypatch.setattr(cls, method, recording(cls.__dict__[method], name))
            continue
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "dnavault" and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, recording(original, name))

    contract = StorageContract(Cluster([f"node-{i}" for i in range(10)]), [Validator("v", 1)])
    data = random.Random(18).randbytes(400 * 1024)  # 12,800 segments: an encode batch and the decode split
    assert contract.download_file("alice", contract.upload_file("alice", data).file_hash) == data

    main = threading.get_ident()
    assert threads["rng.plan_batch"] - {main}, "no batch was split"
    assert {name: idents for name, idents in threads.items() if name in tracing.TRACED and idents != {main}} == {}
    for name in ("fountain.encode_droplets", "fountain.decode", "synthesis.sequence_bead", "synthesis.consensus_reads"):
        assert name in threads, name
