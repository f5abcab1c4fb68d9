"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of the program's layer
modules with wrappers, in every ``dnavault`` module that imported them, so
calls made between layers are timed too. Each wrapped call belongs to the
operation that caused it; a wrapper's *self* time is its duration minus the
time spent in wrapped calls it made. Nothing is recorded outside an
operation. Wrapping happens only in traced runs; end-to-end metrics come
from runs without it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import Counter
import time
from contextlib import contextmanager

# Phases: operations of the timed phase, and the opens of a state directory
# (set-ups, and the opens of the probes).
OPEN_KINDS = ("setup", "open")

# Traced name -> (module, attribute). "Class.method" wraps a method.
TRACED = {
    "fountain.encode_droplets": ("fountain", "encode_droplets"),
    "fountain.recoverable_segments": ("fountain", "recoverable_segments"),
    "fountain.droplet_to_oligo": ("fountain", "droplet_to_oligo"),
    "fountain.droplet_plan": ("fountain", "droplet_plan"),
    "fountain.screen": ("fountain", "OligoScreen.accepts"),
    "fountain.oligo_to_droplet": ("fountain", "oligo_to_droplet"),
    "fountain.decode": ("fountain", "decode"),
    "synthesis.synthesize": ("synthesis", "synthesize"),
    "synthesis.sequence_bead": ("synthesis", "sequence_bead"),
    "synthesis.consensus_reads": ("synthesis", "consensus_reads"),
    "synthesis.save_bead": ("synthesis", "save_bead"),
    "synthesis.load_bead": ("synthesis", "load_bead"),
    "dna_codec.dna_to_bytes": ("dna_codec", "dna_to_bytes"),
    "dna_codec.keystream_encrypt": ("dna_codec", "keystream_encrypt"),
    "ledger.verify_chain": ("ledger", "verify_chain"),
    "ledger.fold_records": ("ledger", "fold_records"),
    "ledger.append_block": ("ledger", "append_block"),
    "ledger.find_record": ("ledger", "find_record"),
    "ledger.append_chain_file": ("ledger", "append_chain_file"),
    "ledger.load_chain": ("ledger", "load_chain"),
    "network.place_beads": ("network", "Cluster.place_beads"),
    "network.audit_redundancy": ("network", "Cluster.audit_redundancy"),
    "contract.upload": ("contract", "StorageContract.upload_file"),
    "contract.download": ("contract", "StorageContract.download_file"),
    "contract.grant": ("contract", "StorageContract.grant_permission"),
    "contract.revoke": ("contract", "StorageContract.revoke_permission"),
    "service.open": ("service", "StorageService.__init__"),
    "service.upload": ("service", "StorageService.upload"),
    "service.download": ("service", "StorageService.download"),
    "service.change_permission": ("service", "StorageService.change_permission"),
    "service.chain_info": ("service", "StorageService.chain_info"),
    "service.nodes_info": ("service", "StorageService.nodes_info"),
}

# In the REST server, a service entry point called outside an operation starts
# one of this kind: each request becomes an operation.
BOUNDARY = {
    "service.open": "open",
    "service.upload": "upload",
    "service.download": "download",
    "service.change_permission": "perm",
    "service.chain_info": "chain",
    "service.nodes_info": "nodes",
}


def _observe_screen(counters, args, result):
    counters["screen_accepted"] += bool(result)


def _observe_synthesize(counters, args, result):
    counters["droplets_stored"] += len(args[0])


def _observe_sequence(counters, args, result):
    counters["oligos_sequenced"] += len(args[0].oligos)
    counters["reads"] += len(result.reads)


def _observe_consensus(counters, args, result):
    counters["consensus_out"] += len(result)


OBSERVERS = {
    "fountain.screen": _observe_screen,
    "synthesis.synthesize": _observe_synthesize,
    "synthesis.sequence_bead": _observe_sequence,
    "synthesis.consensus_reads": _observe_consensus,
}


class Tracer:
    """Self time, calls and calling operations per traced name and phase.

    Stacks are per thread. Aggregates are shared without a lock: the
    benchmark has one caller in a closed loop, so one thread records at a time.
    """

    def __init__(self, server: bool = False):
        self.server = server  # requests start operations (see BOUNDARY)
        self.stats: dict[tuple[str, str], list] = {}  # (name, phase) -> [calls, self_s, ops]
        self.counters: Counter = Counter()
        self.ops = {"timed": 0, "open": 0}
        self.op_seconds = {"timed": 0.0, "open": 0.0}
        self._last_op: dict[tuple[str, str], int] = {}
        self._next_op = 0
        self._local = threading.local()

    @contextmanager
    def op(self, kind: str):
        """Mark one operation; wrapped calls inside it are charged to it."""
        phase = "open" if kind in OPEN_KINDS else "timed"
        self._next_op += 1
        local = self._local
        local.op, local.stack = (self._next_op, phase), []
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_seconds[phase] += time.perf_counter() - start
            self.ops[phase] += 1
            local.op = None

    def wrap(self, fn, name: str):
        tracer, observe = self, OBSERVERS.get(name)
        boundary = BOUNDARY.get(name) if self.server else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            op = getattr(local, "op", None)
            if op is None:
                if boundary is None:
                    return fn(*args, **kwargs)
                with tracer.op(boundary):
                    return traced(*args, **kwargs)
            stack = local.stack
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = (name, op[1])
                entry = tracer.stats.get(key)
                if entry is None:
                    entry = tracer.stats[key] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed - frame[0]
                if tracer._last_op.get(key) != op[0]:
                    tracer._last_op[key] = op[0]
                    entry[2] += 1
            if observe is not None and op[1] == "timed":
                observe(tracer.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a loaded ``dnavault`` module holds it."""
        for name, (module_name, attr) in TRACED.items():
            module = importlib.import_module(f"dnavault.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(cls.__dict__[method], name))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "dnavault" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def export(self) -> dict:
        return {
            "stats": [[n, p, *v] for (n, p), v in self.stats.items()],
            "counters": dict(self.counters),
            "ops": dict(self.ops),
            "op_seconds": dict(self.op_seconds),
        }

    def merge(self, exported: dict) -> None:
        """Add a trace exported by another process (the REST server)."""
        for name, phase, calls, self_s, ops in exported["stats"]:
            entry = self.stats.setdefault((name, phase), [0, 0.0, 0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += ops
        for key, value in exported["counters"].items():
            self.counters[key] += value
        for phase in self.ops:
            self.ops[phase] += exported["ops"][phase]
            self.op_seconds[phase] += exported["op_seconds"][phase]


# Traced names reported as self milliseconds per calling operation, as
# "<name>.ms" ("<name>.self_ms" for contract entry points, whose callees are
# traced too). Those in OPEN_NAMES are taken over the opens of a state
# directory, the rest over the timed phase.
SELF_MS_NAMES = (
    "fountain.encode_droplets", "fountain.recoverable_segments", "fountain.droplet_to_oligo",
    "fountain.droplet_plan", "fountain.oligo_to_droplet", "fountain.decode",
    "synthesis.synthesize", "synthesis.sequence_bead", "synthesis.consensus_reads", "synthesis.save_bead",
    "synthesis.load_bead", "dna_codec.keystream_encrypt", "contract.upload", "contract.download",
    "ledger.verify_chain", "ledger.fold_records", "ledger.append_block", "ledger.find_record",
    "ledger.append_chain_file", "ledger.load_chain", "network.place_beads", "network.audit_redundancy",
    "service.open", "service.chain_info",
)
OPEN_NAMES = {"ledger.load_chain", "synthesis.load_bead", "service.open"}
SELF_MS = {
    f"{name}.{'self_ms' if name.startswith('contract.') else 'ms'}": (name, "open" if name in OPEN_NAMES else "timed")
    for name in SELF_MS_NAMES
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, requests: int = 0, client_s: float = 0.0, server_s: float = 0.0) -> dict:
    """Every per-layer metric; a layer the workload does not exercise reads 0.

    ``requests``, ``client_s`` and ``server_s`` describe the REST requests:
    how many, the client's wait on them, and the server's time inside the
    service operations that answered them.
    """

    def calls(name):
        return tracer.stats.get((name, "timed"), [0])[0]

    out = {}
    for metric, key in SELF_MS.items():
        entry = tracer.stats.get(key, [0, 0.0, 0])
        out[metric] = (_ratio(entry[1] * 1000, entry[2]), "ms")
    counters = tracer.counters.get
    timed_ops = tracer.ops["timed"]
    out["fountain.screen.accept_ratio"] = (_ratio(counters("screen_accepted", 0), calls("fountain.screen")), "ratio")
    out["contract.encode_attempts"] = (_ratio(calls("fountain.encode_droplets"), calls("contract.upload")), "calls/upload")
    out["fountain.droplet_plan.calls_per_droplet"] = (
        _ratio(calls("fountain.droplet_plan"), counters("droplets_stored", 0)),
        "calls/droplet",
    )
    out["synthesis.consensus_yield"] = (_ratio(counters("consensus_out", 0), counters("oligos_sequenced", 0)), "ratio")
    out["dna_codec.dna_to_bytes.calls_per_read"] = (_ratio(calls("dna_codec.dna_to_bytes"), counters("reads", 0)), "calls/read")
    out["ledger.verify_chain.calls_per_op"] = (_ratio(calls("ledger.verify_chain"), timed_ops), "calls/op")
    out["ledger.fold_records.calls_per_op"] = (_ratio(calls("ledger.fold_records"), timed_ops), "calls/op")
    out["service.request_overhead_ms"] = (_ratio(client_s - server_s, requests) * 1000, "ms")
    return out
