"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Every tolerance is pinned in the assertions below.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from dnavault import ledger
from dnavault.cli import EXIT_CHAIN_INVALID, main as cli_main
from dnavault.config import ServiceConfig
from dnavault.contract import StorageContract, StoreParams
from dnavault.dna_codec import (
    bytes_to_dna,
    cgk_factorize,
    dna_to_bytes,
    dna_to_number,
    number_to_dna,
    oligo_codes,
    oligo_strings,
)
from dnavault.errors import BeadUnavailable, ChecksumMismatch, CorruptChain, DecodeFailed, NotFactorable
from dnavault.fountain import decode, encode_droplets, fragment, oligo_to_droplet, split_frames
from dnavault.ledger import Validator, select_validator
from dnavault.network import Cluster
from dnavault.service import make_server
from dnavault.synthesis import Bead, ErrorModel

VALIDATORS = [Validator("v-a", 1), Validator("v-b", 3), Validator("v-c", 6)]


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}", flush=True)
                raise
            print(f"[PASS] {label}", flush=True)

        return run

    return wrap


@criterion("1. end-to-end 1 MiB roundtrip, noisy channel, < 60 s, tolerates a node failure")
def test_end_to_end_roundtrip():
    cluster = Cluster([f"node-{i:02d}" for i in range(10)])
    params = StoreParams(
        segment_size=32,
        overhead=1.7,
        beads_per_file=4,
        replication=3,
        error_model=ErrorModel(substitution_rate=0.001, oligo_dropout_rate=0.0, rng_seed=20240808),
        coverage=5,
    )
    contract = StorageContract(cluster, VALIDATORS, defaults=params)
    data = random.Random(20240808).randbytes(1 << 20)

    start = time.perf_counter()
    receipt = contract.upload_file("alice", data)
    assert contract.download_file("alice", receipt.file_hash) == data
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"roundtrip took {elapsed:.1f}s"
    assert len(receipt.bead_ids) == 4
    replicas = {}
    for bead_id, node_id in receipt.placement:
        replicas.setdefault(bead_id, set()).add(node_id)
    assert all(len(nodes) == 3 for nodes in replicas.values())

    # repeat the download with one (arbitrary: the first-listed) node failed
    cluster.fail_node(receipt.placement[0][1])
    start = time.perf_counter()
    assert contract.download_file("alice", receipt.file_hash) == data
    assert time.perf_counter() - start < 60.0


@criterion("2. fountain reliability: K=256 decodes >= 99/100 at 1.7x, fails at 1.0x")
def test_fountain_reliability():
    def trial(overhead: float, seed: int) -> bool:
        data = random.Random(seed).randbytes(256 * 32)
        segments, length = fragment(data, 32)
        count = max(256, math.ceil(256 * overhead))
        seeds, payloads, _ = split_frames(encode_droplets(segments, count, rng_seed=seed).frames)
        try:
            return decode(seeds, payloads, 256, length) == data
        except DecodeFailed:
            return False

    successes = sum(trial(1.7, seed) for seed in range(100))
    assert successes >= 99, f"only {successes}/100 decodes at 1.7x overhead"
    failures = 100 - sum(trial(1.0, seed) for seed in range(100))
    assert failures > 0, "overhead 1.0x unexpectedly always decodable"


@criterion("3. factorization matches a trial-division oracle for all odd n in [9, 10000]")
def test_factorization_oracle_equivalence():
    def smallest_factor(n: int) -> int | None:
        i = 3
        while i * i <= n:
            if n % i == 0:
                return i
            i += 2
        return None

    for n in range(9, 10_001, 2):
        seq = number_to_dna(n)
        composite = smallest_factor(n) is not None
        if composite:
            pair, _ = cgk_factorize(seq, 1, max_retries=16)
            assert pair.p * pair.q == n
            assert 1 < pair.p <= pair.q < n
            assert dna_to_number(pair.p_dna) == pair.p
            assert dna_to_number(pair.q_dna) == pair.q
        else:
            with pytest.raises(NotFactorable):
                cgk_factorize(seq, 1, max_retries=16)


@criterion("4. codec roundtrips: 256 single bytes, 10000 random buffers, all v <= 2^20")
def test_codec_exhaustive_roundtrip():
    for b in range(256):
        assert dna_to_bytes(bytes_to_dna(bytes([b]))) == bytes([b])
    rng = random.Random(4)
    for _ in range(10_000):
        data = rng.randbytes(rng.randrange(1, 65))
        assert dna_to_bytes(bytes_to_dna(data)) == data
    for v in range(2**20 + 1):
        assert dna_to_number(number_to_dna(v)) == v


@criterion("5. every byte/bit flip of a 3-block chain.jsonl fails `chain verify` at its height")
def test_tamper_evidence_exhaustive(tmp_path):
    state = tmp_path / "state"
    state.mkdir()
    from dnavault.ledger import CodecParams, FileRecord, append_block, genesis, permission_grant, record_create, save_chain

    record = FileRecord(
        file_hash=hashlib.sha256(b"tamper-target").hexdigest(),
        owner="alice",
        timestamp=1_700_000_000,
        bead_locations=[("bead.0", "node-01"), ("bead.0", "node-02"), ("bead.0", "node-03")],
        permissions=set(),
        codec_params=CodecParams(8, 32, 250),
    )
    chain = [genesis()]
    append_block(chain, [record_create(record)], VALIDATORS, 1_700_000_001)
    append_block(chain, [permission_grant(record.file_hash, "alice", "bob")], VALIDATORS, 1_700_000_002)
    chain_path = state / "chain.jsonl"
    save_chain(chain_path, chain)
    original = chain_path.read_bytes()
    assert original.count(b"\n") == 3

    def cli_verify() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["--state", str(state), "chain", "verify"])
        return code, buf.getvalue()

    code, out = cli_verify()
    assert code == 0 and out.startswith("chain OK height=2")

    # every byte position, flipped through the real CLI entry point
    for pos in range(len(original)):
        expected_height = original[:pos].count(b"\n")
        tampered = bytearray(original)
        tampered[pos] ^= 0xFF
        chain_path.write_bytes(bytes(tampered))
        code, out = cli_verify()
        assert code == EXIT_CHAIN_INVALID, f"flip at byte {pos} not detected"
        assert f"height {expected_height}" in out, (pos, out)

    # every single bit, through the byte-level verifier
    for pos in range(len(original)):
        expected_height = original[:pos].count(b"\n")
        for bit in range(8):
            tampered = bytearray(original)
            tampered[pos] ^= 1 << bit
            chain_path.write_bytes(bytes(tampered))
            with pytest.raises(CorruptChain) as info:
                ledger.read_ledger(chain_path)
            assert info.value.height == expected_height, (pos, bit, info.value.height)

    # spot check the installed command end to end
    chain_path.write_bytes(original)
    tampered = bytearray(original)
    tampered[len(original) // 3] ^= 0x10
    chain_path.write_bytes(bytes(tampered))
    proc = subprocess.run(
        [sys.executable, "-m", "dnavault.cli", "--state", str(state), "chain", "verify"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_CHAIN_INVALID
    chain_path.write_bytes(original)


@criterion("6. validator selection frequency within +/-2pp of stake share at 100000 draws")
def test_stake_proportionality():
    validators = [Validator("one", 1), Validator("three", 3), Validator("six", 6)]
    counts = {"one": 0, "three": 0, "six": 0}
    rng = random.Random(6)
    samples = 100_000
    for _ in range(samples):
        prev_hash = rng.getrandbits(256).to_bytes(32, "big").hex()
        counts[select_validator(validators, prev_hash)] += 1
    for name, share in (("one", 0.1), ("three", 0.3), ("six", 0.6)):
        observed = counts[name] / samples
        assert abs(observed - share) < 0.02, f"{name}: {observed:.4f} vs {share}"


@criterion("7. 6 nodes / r=3: retrieval over all 64 failure subsets matches host coverage")
def test_fault_tolerance_exhaustive():
    cluster = Cluster([f"n{i}" for i in range(6)])
    bead = Bead("the-bead", oligo_codes(["ACGTACGTACGTACGT"]))
    placement = cluster.place_beads([bead], 3, placement_seed=7)
    hosts = {node_id for _, node_id in placement}
    assert len(hosts) == 3
    survivable = unsurvivable = 0
    for mask in range(64):
        failed = {f"n{i}" for i in range(6) if mask >> i & 1}
        for node_id in failed:
            cluster.fail_node(node_id)
        if hosts <= failed:
            with pytest.raises(BeadUnavailable):
                cluster.retrieve_bead("the-bead", placement)
            unsurvivable += 1
        else:
            assert cluster.retrieve_bead("the-bead", placement) is bead
            survivable += 1
        for node_id in failed:
            cluster.restore_node(node_id)
    assert unsurvivable == 8  # the 2^3 subsets covering all three hosts
    assert survivable == 56


@criterion("8. every single-base substitution in a segment_size-4 oligo trips the CRC")
def test_error_detection_exhaustive():
    data = random.Random(8).randbytes(8)
    segments, _ = fragment(data, 4)
    batch = encode_droplets(segments, 6, rng_seed=8)
    for oligo, payload in zip(oligo_strings(batch.codes), split_frames(batch.frames)[1]):
        assert len(oligo) == 48
        assert oligo_to_droplet(oligo, 4).payload == bytes(payload)
        for pos in range(48):
            for base in "ACGT":
                if base == oligo[pos]:
                    continue
                corrupted = oligo[:pos] + base + oligo[pos + 1 :]
                with pytest.raises(ChecksumMismatch):
                    oligo_to_droplet(corrupted, 4)


@criterion("9. service restart reproduces the tip hash and serves the pre-restart upload")
def test_crash_consistency(tmp_path):
    state = tmp_path / "state"
    data = random.Random(9).randbytes(65_536)

    def with_service(fn):
        config = ServiceConfig(state_dir=state, port=0)
        if not (state / "config.json").exists():
            config.save()
        server = make_server(config)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            return fn(base)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def fetch(base, path, method="GET", body=None, headers=None):
        req = urllib.request.Request(base + path, data=body, method=method, headers=headers or {})
        with urllib.request.urlopen(req) as resp:
            return resp.read()

    def first_run(base):
        receipt = json.loads(fetch(base, "/files", "POST", data, {"X-Owner": "alice"}))
        info = json.loads(fetch(base, "/chain"))
        return receipt["file_hash"], info["tip_hash"]

    file_hash, tip_before = with_service(first_run)

    def second_run(base):
        info = json.loads(fetch(base, "/chain"))
        assert info["tip_hash"] == tip_before
        assert info["valid"] is True
        assert fetch(base, f"/files/{file_hash}", headers={"X-Requester": "alice"}) == data

    with_service(second_run)
