"""Walkthrough: the whole system end to end.

A file goes in: encrypted, fountain-coded, rendered as oligos, synthesized
into beads under a noisy channel, scattered over nodes, recorded on the
ledger. It comes back out through permissions, sequencing, consensus and
the peeling decoder, surviving a node failure on the way. Run it:

    python demos/06_full_pipeline.py
"""

import random
import time

from dnavault.contract import StorageContract, StoreParams
from dnavault.errors import PermissionDenied
from dnavault.ledger import Validator, verify_chain
from dnavault.network import Cluster
from dnavault.synthesis import ErrorModel

cluster = Cluster([f"node-{i:02d}" for i in range(10)])
validators = [Validator("v-small", 1), Validator("v-mid", 3), Validator("v-large", 6)]
params = StoreParams(
    segment_size=32,
    overhead=1.7,
    beads_per_file=4,
    replication=3,
    error_model=ErrorModel(substitution_rate=0.001, rng_seed=1234),
    coverage=5,
)
contract = StorageContract(cluster, validators, defaults=params)

print("=" * 70)
print("1. UPLOAD (encrypted with a DNA key)")
print("=" * 70)
data = random.Random(99).randbytes(128 * 1024)
key = "GATTACAGATTACA"
start = time.perf_counter()
receipt = contract.upload_file("alice", data, key=key)
print(f"  {len(data)} bytes uploaded in {time.perf_counter() - start:.2f}s")
print(f"  content address : {receipt.file_hash}")
print(f"  recorded at     : block {receipt.block_index}")
print(f"  beads           : {receipt.bead_ids}")
print(f"  first placements: {receipt.placement[:3]} ...")

print()
print("=" * 70)
print("2. THE LEDGER SAW EVERYTHING")
print("=" * 70)
record = contract.find_record(receipt.file_hash)
print(f"  owner={record.owner} permissions={record.permissions or '{}'}")
print(f"  codec: K={record.codec_params.k} segment={record.codec_params.segment_size} length={record.codec_params.original_length}")
print(f"  chain verifies: {verify_chain(contract.chain)}")

print()
print("=" * 70)
print("3. PERMISSIONED DOWNLOAD, WITH A NODE DOWN")
print("=" * 70)
try:
    contract.download_file("bob", receipt.file_hash, key=key)
except PermissionDenied as exc:
    print(f"  bob before grant -> PermissionDenied: {exc}")
height = contract.grant_permission("alice", receipt.file_hash, "bob")
print(f"  grant recorded at block {height}")

victim = receipt.placement[0][1]
cluster.fail_node(victim)
print(f"  failed node {victim}; its replicas are dark")
start = time.perf_counter()
roundtrip = contract.download_file("bob", receipt.file_hash, key=key)
print(f"  bob downloaded {len(roundtrip)} bytes in {time.perf_counter() - start:.2f}s")
print(f"  byte-identical to the original: {roundtrip == data}")

audit = cluster.audit_redundancy(contract.ledger.records)
print(f"  audit flags {len(audit.flagged)} under-replicated placements while {victim} is down")
cluster.restore_node(victim)
print(f"  restored {victim}; audit flags: {len(cluster.audit_redundancy(contract.ledger.records).flagged)}")
