"""Walkthrough: replicated placement and fault tolerance.

Rendezvous hashing spreads beads over nodes deterministically; retrieval
succeeds while any replica survives; the audit spots under-replication.
Run it:

    python demos/05_cluster_faults.py
"""

import hashlib
import itertools
from collections import Counter

from dnavault.dna_codec import oligo_codes
from dnavault.errors import BeadUnavailable
from dnavault.ledger import CodecParams, FileRecord, Validator, append_block, fold_records, genesis, record_create
from dnavault.network import Cluster
from dnavault.synthesis import Bead

print("=" * 70)
print("1. RENDEZVOUS PLACEMENT IS BALANCED AND DETERMINISTIC")
print("=" * 70)
cluster = Cluster([f"n{i}" for i in range(8)])
beads = [Bead(f"bead.{i}", oligo_codes(["ACGTACGT"])) for i in range(120)]
placement = cluster.place_beads(beads, 3, placement_seed=11)
load = Counter(node_id for _, node_id in placement)
for node_id in sorted(load):
    print(f"  {node_id}: {'#' * (load[node_id] // 2)} {load[node_id]} replicas")

print()
print("=" * 70)
print("2. ONE BEAD, THREE HOSTS, EVERY FAILURE PATTERN")
print("=" * 70)
bead = beads[0]
locations = [(b, n) for b, n in placement if b == bead.bead_id]
hosts = [n for _, n in locations]
print(f"  {bead.bead_id} lives on {hosts}")
for k in range(4):
    outcomes = []
    for downed in itertools.combinations(hosts, k):
        for node_id in downed:
            cluster.fail_node(node_id)
        try:
            cluster.retrieve_bead(bead.bead_id, locations)
            outcomes.append("ok")
        except BeadUnavailable:
            outcomes.append("LOST")
        for node_id in downed:
            cluster.restore_node(node_id)
    print(f"  {k} of 3 hosts down -> {outcomes}")

print()
print("=" * 70)
print("3. THE REDUNDANCY AUDIT")
print("=" * 70)
record = FileRecord(
    file_hash=hashlib.sha256(b"audited file").hexdigest(),
    owner="alice",
    timestamp=0,
    bead_locations=locations,
    permissions=set(),
    codec_params=CodecParams(1, 1, 1),
)
chain = [genesis()]
append_block(chain, [record_create(record)], [Validator("v", 1)], 1)
print(f"  healthy: flagged={cluster.audit_redundancy(fold_records(chain)).flagged}")
cluster.fail_node(hosts[0])
report = cluster.audit_redundancy(fold_records(chain))
for entry in report.flagged:
    print(f"  {hosts[0]} down: bead {entry.bead_id} live {entry.replicas_live}/{entry.replicas_expected} -> under-replicated")
cluster.restore_node(hosts[0])
