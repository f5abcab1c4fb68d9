"""The benchmark's workloads: closed loops of seeded operations on the program.

One caller sends each operation only after the previous one returned. A
run does a fixed count of rounds, ``round(seconds / ROUND_S[workload])``,
so every run with the same ``--seconds`` does the same operations whatever
the machine's speed. Inputs derive from ``--seed``, except the small-file
pool, which is fixed so that the files that hit the known decode fault are
the same in every run.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from dnavault import errors, ledger
from dnavault.config import ServiceConfig
from dnavault.contract import StorageContract, StoreParams
from dnavault.network import Cluster
from dnavault.service import StorageService
from dnavault.synthesis import ErrorModel

import chainfmt
import oracle
from stats import percentile

HERE = Path(__file__).resolve().parent

# Seconds of --seconds that one round stands for. They only turn --seconds
# into a round count; the count, not the time, is what every run repeats. At
# --seconds 20 a run does 2, 60 and 10 rounds. The machine's speed drifts over
# minutes, so short runs keep a set of runs, and two sets, close in time.
ROUND_S = {"bulk_1mib": 10.0, "small_files_deep_ledger": 1 / 3, "rest_64kib": 2.0}
# Probes per run, at evenly spaced points of the timed phase. Each sets the
# program up once more on a fresh side directory and opens the run's state
# directory in a fresh process. setup_s is the median over the run's own
# set-up and the probes', open_s over the probes'. Spread over the run, they
# see the machine's speed as the operations do.
PROBES = 8
# The machine's speed changes within a second. Operations of a few
# milliseconds issued back to back all land in one such phase; a pause
# between them spreads them out, so their median repeats.
PAUSE_S = 0.1
# The machine's speed also drifts, by up to 1.8x over minutes, and moves every
# timing of a run alike. So each run times a fixed integer loop after every
# operation, set-up and open (it allocates nothing the garbage collector
# tracks, so it cannot trigger a collection of the program's objects), and
# reports its times at the speed where that loop takes CALIBRATION_REF_S:
# each time is multiplied by CALIBRATION_REF_S / (the run's median loop time).
CALIBRATION_LOOPS = 20_000
CALIBRATION_REF_S = 0.004

NOISY = StoreParams(error_model=ErrorModel(0.001, rng_seed=7), coverage=5)
ZERO_NOISE = StoreParams()
OWNERS = ("owner-a", "owner-b", "owner-c", "owner-d")
READERS = ("reader-1", "reader-2")
CHECK_READER = "reader-x"  # the oracle's own grantee, after the timed phase

BULK_SIZE = 1 << 20
BULK_PERM_PAIRS = 3  # grant/revoke pairs per bulk file
REST_SIZE = 64 << 10
SMALL_SIZES = (16, 4096)  # log-uniform
SMALL_POOL_SEED = 3
# The pool files whose download fails with DecodeFailed at zero noise, among
# the first SMALL_POOL_LIMIT: _encode_decodable keeps a droplet set that does
# not peel. Found by uploading and downloading each pool file once.
SMALL_POOL_LIMIT = 512
SMALL_UNREADABLE = frozenset(
    (0, 21, 29, 65, 69, 71, 100, 103, 110, 119, 186, 192, 196, 251, 268, 293, 299, 317, 329, 332, 367, 466, 484, 494)
)
LEDGER_HEIGHT = 2000
LEDGER_T0 = 1_700_000_000


class RestError(Exception):
    """A REST request answered with an error status."""

    def __init__(self, status: int, name: str):
        super().__init__(f"HTTP {status} {name}")
        self.status = status
        self.name = name


def _failure_name(exc: Exception) -> str:
    name = exc.name if isinstance(exc, RestError) else type(exc).__name__
    cls = getattr(errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, errors.StorageError)):
        raise oracle.OracleError(f"an operation failed without a named StorageError: {exc}")
    return name


def calibrate() -> float:
    """Seconds one pass of the calibration loop takes."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x ^= (i * 2654435761) & 0xFFFFFFFF
    return time.perf_counter() - start


class Loop:
    """The closed loop: one operation at a time, timed, failures counted by kind and error name."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latency: dict[str, list[float]] = {k: [] for k in ("upload", "download", "perm", "chain", "nodes")}
        self.attempted = 0
        self.failures: Counter = Counter()
        self.busy_s = 0.0
        self.setup_s: list[float] = []
        self.open_s: list[float] = []
        self.calibration: list[float] = []  # seconds per pass of the calibration loop
        self.time_scale = 1.0  # the factor _finish scaled the run's times by
        # REST requests sent, seconds the client waited on them, seconds the server spent in them
        self.rest = (0, 0.0, 0.0)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def expect_failures(self, expected: dict[str, int]) -> None:
        """The run's failures must be exactly ``expected`` ("kind ErrorName" -> count)."""
        if dict(self.failures) != expected:
            raise oracle.OracleError(f"operations failed as {dict(self.failures)}, expected {expected}")

    def phase(self, kind: str):
        return self.tracer.op(kind) if self.tracer else nullcontext()

    def call(self, kind: str, fn):
        """Run one operation; returns its result, or None if it failed with a named error."""
        self.attempted += 1
        with self.phase(kind):
            start = time.perf_counter()
            try:
                result = fn()
            except (errors.StorageError, RestError) as exc:
                self.busy_s += time.perf_counter() - start
                self.failures[f"{kind} {_failure_name(exc)}"] += 1
                self.calibration.append(calibrate())
                return None
            elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.latency[kind].append(elapsed)
        self.calibration.append(calibrate())
        return result

    def time_setup(self, setup):
        """Run and time the program's share of a set-up; returns its result.

        The caller does the benchmark's own share, such as clearing the
        directory or writing inputs, before, untimed.
        """
        time.sleep(PAUSE_S)
        with self.phase("setup"):
            start = time.perf_counter()
            result = setup()
            self.setup_s.append(time.perf_counter() - start)
        self.calibration.append(calibrate())
        return result

    def probe(self, state: Path, side_setup) -> None:
        """One probe: ``side_setup()`` sets the program up on a side directory, then ``state`` is opened.

        The open runs in a fresh process (``opener.py``), as a restart would.
        """
        side_setup()
        proc = subprocess.run(
            [sys.executable, str(HERE / "opener.py"), str(state), "1" if self.tracer else "0"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"opening the state directory failed:\n{proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.open_s.append(report["open_s"])
        self.calibration.append(calibrate())
        if self.tracer:
            self.tracer.merge(report["trace"])


def rounds(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def probe_marks(n: int) -> set[int]:
    """The rounds after which a run probes: PROBES of them, evenly spaced."""
    return {round((j + 1) * n / PROBES) - 1 for j in range(PROBES)}


def _log_uniform(rng: random.Random, low: int, high: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(low), math.log(high)))))


def small_pool(count: int) -> list[bytes]:
    """The small files, the same in every run: sizes log-uniform over 16 B..4 KiB."""
    if count > SMALL_POOL_LIMIT:
        raise ValueError(f"the small-file pool has known faults listed for {SMALL_POOL_LIMIT} files, not {count}")
    rng = random.Random(SMALL_POOL_SEED)
    return [rng.randbytes(_log_uniform(rng, *SMALL_SIZES)) for _ in range(count)]


def write_deep_ledger(state: Path, config: ServiceConfig, seed: int, height: int) -> None:
    """Write ``chain.jsonl`` up to ``height``: per six blocks four record-creates, a grant and a revoke.

    The records describe files whose beads were never written; they only
    give the ledger its depth.
    """
    rng = random.Random(f"ledger/{seed}")
    nodes = [entry["node_id"] for entry in config.topology]
    writer = chainfmt.ChainWriter(state / "chain.jsonl", config.validators)
    created: list[tuple[str, str]] = []
    granted: list[tuple[str, str, str]] = []
    try:
        for i in range(1, height + 1):
            if i % 6 == 3:
                file_hash, owner = rng.choice(created)
                grantee = rng.choice(READERS)
                granted.append((file_hash, owner, grantee))
                tx = dict(type="permission-grant", file_hash=file_hash, issuer=owner, grantee=grantee)
            elif i % 6 == 0:
                file_hash, owner, grantee = granted.pop(rng.randrange(len(granted)))
                tx = dict(type="permission-revoke", file_hash=file_hash, issuer=owner, grantee=grantee)
            else:
                file_hash = hashlib.sha256(f"ledger/{seed}/{i}".encode()).hexdigest()
                owner = rng.choice(OWNERS)
                size = _log_uniform(rng, *SMALL_SIZES)
                k = math.ceil(size / 32)
                beads = [f"{file_hash[:16]}.{b}" for b in range(min(4, math.ceil(1.7 * k)))]
                created.append((file_hash, owner))
                record = {
                    "file_hash": file_hash,
                    "owner": owner,
                    "timestamp": LEDGER_T0 + i,
                    "bead_locations": [[b, n] for b in beads for n in rng.sample(nodes, 3)],
                    "permissions": [],
                    "codec_params": {"K": k, "segment_size": 32, "original_length": size},
                }
                tx = {"type": "record-create", "record": record}
            writer.append([tx], LEDGER_T0 + i)
    finally:
        writer.close()


def _open_service(state: Path) -> StorageService:
    return StorageService(ServiceConfig.load_or_create(state))


def _finish(loop: Loop, state: Path, growth: int, user_bytes: int, peak_kib: int):
    """Returns the end-to-end metrics, and the program re-opened on the final directory for the oracle.

    Times are scaled to the calibration loop's reference speed (see
    CALIBRATION_REF_S); ``loop.time_scale`` is the factor.
    """
    lat = loop.latency
    for kind in ("upload", "download", "perm", "chain"):
        if not lat[kind]:
            raise oracle.OracleError(f"no {kind} operation succeeded")
    ok = sum(len(v) for v in lat.values())
    scale = loop.time_scale = CALIBRATION_REF_S / statistics.median(loop.calibration)
    ms = 1000 * scale
    metrics = {
        "setup_s": (statistics.median(loop.setup_s) * scale, "s"),
        "open_s": (statistics.median(loop.open_s) * scale, "s"),
        "upload_ms.p50": (percentile(lat["upload"], 50) * ms, "ms"),
        "upload_ms.p90": (percentile(lat["upload"], 90) * ms, "ms"),
        "download_ms.p50": (percentile(lat["download"], 50) * ms, "ms"),
        "download_ms.p90": (percentile(lat["download"], 90) * ms, "ms"),
        "perm_ms.p50": (percentile(lat["perm"], 50) * ms, "ms"),
        "chain_ms.p50": (percentile(lat["chain"], 50) * ms, "ms"),
        "ops_per_s": (ok / (loop.busy_s * scale), "1/s"),
        "disk_bytes_per_byte": (growth / user_bytes, "B/B"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    return metrics, _open_service(state)


def _check_store(state, service, config, height, hashes, zero_noise) -> int:
    records = oracle.check_chain(state, config.validators, height, service.chain_info())
    return oracle.check_beads(
        state, records, hashes, replication=config.store.replication, overhead=config.store.overhead, zero_noise=zero_noise
    )


def _check_grantee(grant, read, revoke, data: bytes) -> None:
    """A grantee reads the file; once revoked, it is refused."""
    grant()
    oracle.check_download(data, read())
    revoke()
    try:
        read()
    except (errors.PermissionDenied, RestError) as exc:
        if isinstance(exc, RestError) and (exc.status, exc.name) != (403, "PermissionDenied"):
            raise oracle.OracleError(f"a revoked grantee got {exc}, not 403 PermissionDenied") from exc
        return
    raise oracle.OracleError("a revoked grantee could still read the file")


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- bulk_1mib: the library on a state directory ----------------------------------


def bulk_1mib(loop: Loop, seed: int, seconds: int, work: Path) -> dict:
    n = rounds("bulk_1mib", seconds)
    state = work / "state"
    rng = random.Random(f"bulk_1mib/{seed}")
    files = [rng.randbytes(BULK_SIZE) for _ in range(n)]

    def set_up(directory: Path):
        shutil.rmtree(directory, ignore_errors=True)
        config = ServiceConfig(directory, store=NOISY)

        def setup():
            config.save()
            return StorageContract(
                Cluster.from_topology(config.topology), config.validator_objects(), config.store, state_dir=directory
            )

        return config, loop.time_setup(setup)

    config, contract = set_up(state)
    start_bytes = oracle.dir_bytes(state)
    owner, reader = OWNERS[0], READERS[0]
    hashes, writes = [], 0
    # A round has two long operations; the run probes after the upload and at the end of the round.
    probes_per_point = max(1, PROBES // (2 * n))
    for data in files:
        receipt = loop.call("upload", lambda: contract.upload_file(owner, data))
        if receipt is None:
            break  # no operation may fail; the failure check below reports it
        for _ in range(probes_per_point):
            loop.probe(state, lambda: set_up(work / "side"))
        oracle.check_receipt(data, receipt.file_hash)
        hashes.append(h := receipt.file_hash)
        got = loop.call("download", lambda: contract.download_file(owner, h))
        if got is not None:
            oracle.check_download(data, got)
        # Permission changes and chain checks take under a millisecond here;
        # a pause after each spreads them over the machine's speed phases.
        for change in (contract.grant_permission, contract.revoke_permission) * BULK_PERM_PAIRS:
            writes += loop.call("perm", lambda: change(owner, h, reader)) is not None
            time.sleep(PAUSE_S)
            verdict = loop.call("chain", lambda: ledger.verify_chain(contract.chain))
            if verdict is not None and verdict != (True, None):
                raise oracle.OracleError(f"the ledger fails its own verification: {verdict}")
            time.sleep(PAUSE_S)
        for _ in range(probes_per_point):
            loop.probe(state, lambda: set_up(work / "side"))
    loop.expect_failures({})
    peak_kib, growth = _peak_rss_kib(), oracle.dir_bytes(state) - start_bytes
    user_bytes = len(files) * BULK_SIZE
    # A grantee reading a 1 MiB file would double the run; the oracle reads a
    # fixed 64 KiB file instead, which decodes under this channel.
    check = random.Random("check-file").randbytes(REST_SIZE)
    checked = contract.upload_file(owner, check).file_hash
    _check_grantee(
        lambda: contract.grant_permission(owner, checked, CHECK_READER),
        lambda: contract.download_file(CHECK_READER, checked),
        lambda: contract.revoke_permission(owner, checked, CHECK_READER),
        check,
    )
    metrics, service = _finish(loop, state, growth, user_bytes, peak_kib)
    bases = _check_store(state, service, config, len(hashes) + writes + 3, hashes, zero_noise=False)
    metrics["stored_bases_per_byte"] = (bases / user_bytes, "bases/B")
    return metrics


# --- small_files_deep_ledger: StorageService on a deep ledger ------------------------


def small_files_deep_ledger(loop: Loop, seed: int, seconds: int, work: Path, height: int = LEDGER_HEIGHT) -> dict:
    n = rounds("small_files_deep_ledger", seconds)
    state = work / "state"
    pool = small_pool(n)
    rng = random.Random(f"small_files_deep_ledger/{seed}")
    order = list(range(n))
    rng.shuffle(order)
    owners = [rng.choice(OWNERS) for _ in range(n)]
    # Every cycle uploads a file and downloads it. Even cycles also change a
    # permission: a reader is granted on a file uploaded so far, and revoked
    # two cycles later. Odd cycles also query the chain.
    grants = [(rng.randrange(i + 1), rng.choice(READERS)) for i in range(0, n, 4)]

    def set_up(directory: Path) -> StorageService:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        config = ServiceConfig(directory, store=ZERO_NOISE)
        write_deep_ledger(directory, config, seed, height)

        def setup():
            config.save()
            return StorageService(config)

        return loop.time_setup(setup)

    service = set_up(state)
    config = service.config
    start_bytes = oracle.dir_bytes(state)
    marks = probe_marks(n)
    hashes: list[str] = []
    owner_of: dict[str, str] = {}
    readable = []  # (hash, data) of files whose download returned them
    unreadable = []  # pool indices of files whose download failed
    writes = 0
    for i in range(n):
        data, owner = pool[order[i]], owners[i]
        receipt = loop.call("upload", lambda: service.upload(owner, data))
        if receipt is None:
            break  # no upload may fail; the failure check below reports it
        oracle.check_receipt(data, receipt["file_hash"])
        hashes.append(h := receipt["file_hash"])
        owner_of[h] = owner
        got = loop.call("download", lambda: service.download(owner, h))
        if got is None:
            unreadable.append(order[i])
        else:
            oracle.check_download(data, got)
            readable.append((h, data))
        if i % 2:
            info = loop.call("chain", service.chain_info)
            if info is not None and not info["valid"]:
                raise oracle.OracleError(f"the program reports an invalid chain: {info}")
        else:
            slot, grantee = grants[i // 4]
            target = hashes[slot]
            action = "grant" if i % 4 == 0 else "revoke"
            writes += loop.call(
                "perm", lambda: service.change_permission(owner_of[target], target, action, grantee)
            ) is not None
        if i in marks:
            loop.probe(state, lambda: set_up(work / "side"))
    expected = sorted(SMALL_UNREADABLE.intersection(range(n)))
    if sorted(unreadable) != expected:
        raise oracle.OracleError(f"pool files {sorted(unreadable)} could not be read back, expected {expected}")
    loop.expect_failures({"download DecodeFailed": len(expected)} if expected else {})
    peak_kib, growth = _peak_rss_kib(), oracle.dir_bytes(state) - start_bytes
    user_bytes = sum(len(pool[i]) for i in order)
    h, data = readable[0]
    _check_grantee(
        lambda: service.change_permission(owner_of[h], h, "grant", CHECK_READER),
        lambda: service.download(CHECK_READER, h),
        lambda: service.change_permission(owner_of[h], h, "revoke", CHECK_READER),
        data,
    )
    metrics, reopened = _finish(loop, state, growth, user_bytes, peak_kib)
    final = height + len(hashes) + writes + 2
    bases = _check_store(state, reopened, config, final, hashes, zero_noise=True)
    metrics["stored_bases_per_byte"] = (bases / user_bytes, "bases/B")
    return metrics


# --- rest_64kib: the REST service in its own process ---------------------------------


class RestServer:
    """The program's REST service in a child process, reached over one keep-alive connection."""

    def __init__(self, state: Path, traced: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(state), "1" if traced else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        port = self.proc.stdout.readline()
        if not port.strip().isdigit():
            self.kill()
            raise RuntimeError("the REST server did not start")
        self.conn = http.client.HTTPConnection("127.0.0.1", int(port), timeout=120)
        self.requests, self.seconds = 0, 0.0  # every request sent, and the time spent waiting on them

    def request(self, method: str, path: str, body: bytes | None = None, headers: dict | None = None) -> bytes:
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers or {})
        response = self.conn.getresponse()
        data = response.read()
        self.requests += 1
        self.seconds += time.perf_counter() - start
        if response.status >= 400:
            raise RestError(response.status, json.loads(data).get("error", ""))
        return data

    def stop(self) -> dict:
        """Close the connection, let the server exit, and return its final report."""
        self.conn.close()
        try:
            out, _ = self.proc.communicate(timeout=60)  # closes stdin, which stops the server
        finally:
            self.kill()
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def rest_64kib(loop: Loop, seed: int, seconds: int, work: Path) -> dict:
    n = rounds("rest_64kib", seconds)
    state = work / "state"
    rng = random.Random(f"rest_64kib/{seed}")
    files = [rng.randbytes(REST_SIZE) for _ in range(n)]
    key = "".join(rng.choice("ACGT") for _ in range(16))
    owner, reader = OWNERS[0], READERS[0]
    servers: list[RestServer] = []  # every server running, so that none outlives the run
    # The server traces its own requests; the client side records nothing.
    tracer, loop.tracer = loop.tracer, None

    def set_up(directory: Path):
        shutil.rmtree(directory, ignore_errors=True)
        config = ServiceConfig(directory, store=NOISY)

        def setup():
            config.save()
            servers.append(RestServer(directory, tracer is not None))
            return servers[-1]

        return config, loop.time_setup(setup)

    def side_setup():
        _, side = set_up(work / "side")
        servers.remove(side)
        side.stop()

    try:
        config, server = set_up(state)
        start_bytes = oracle.dir_bytes(state)
        hashes, writes = [], 0
        marks = probe_marks(n)
        for i, data in enumerate(files):
            keyed = {"X-Key": key} if i % 2 else {}  # every other upload is encrypted
            raw = loop.call("upload", lambda: server.request("POST", "/files", data, {"X-Owner": owner, **keyed}))
            if raw is None:
                break  # no operation may fail; the failure check below reports it
            h = json.loads(raw)["file_hash"]
            oracle.check_receipt(data, h)
            hashes.append(h)
            grant = json.dumps({"action": "grant", "grantee": reader}).encode()
            perm_path = f"/files/{h}/permissions"
            writes += loop.call("perm", lambda: server.request("POST", perm_path, grant, {"X-Owner": owner})) is not None
            for who in (owner, reader):
                got = loop.call("download", lambda: server.request("GET", f"/files/{h}", None, {"X-Requester": who, **keyed}))
                if got is not None:
                    oracle.check_download(data, got)
            info = loop.call("chain", lambda: json.loads(server.request("GET", "/chain")))
            if info is not None and not info["valid"]:
                raise oracle.OracleError(f"the program reports an invalid chain: {info}")
            nodes = loop.call("nodes", lambda: json.loads(server.request("GET", "/nodes")))
            if nodes is not None and nodes["audit"]["under_replicated"]:
                raise oracle.OracleError(f"the audit reports under-replicated beads: {nodes['audit']}")
            if i in marks:
                loop.probe(state, side_setup)
        loop.expect_failures({})
        user_bytes = len(files) * REST_SIZE
        growth = oracle.dir_bytes(state) - start_bytes
        first = f"/files/{hashes[0]}"

        def change(action):
            body = json.dumps({"action": action, "grantee": CHECK_READER}).encode()
            server.request("POST", f"{first}/permissions", body, {"X-Owner": owner})

        _check_grantee(
            lambda: change("grant"),
            lambda: server.request("GET", first, None, {"X-Requester": CHECK_READER}),
            lambda: change("revoke"),
            files[0],
        )
        requests, waited = server.requests, server.seconds
        report = servers.pop().stop()
    finally:
        loop.tracer = tracer
        for leftover in servers:
            leftover.kill()
    if tracer is not None:
        tracer.merge(report["trace"])
        loop.rest = (requests, waited, report["trace"]["op_seconds"]["timed"])
    metrics, service = _finish(loop, state, growth, user_bytes, report["peak_rss_kib"])
    bases = _check_store(state, service, config, len(hashes) + writes + 2, hashes, zero_noise=False)
    metrics["stored_bases_per_byte"] = (bases / user_bytes, "bases/B")
    return metrics


WORKLOADS = {
    "bulk_1mib": bulk_1mib,
    "small_files_deep_ledger": small_files_deep_ledger,
    "rest_64kib": rest_64kib,
}
