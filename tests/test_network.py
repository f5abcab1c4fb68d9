"""Cluster placement, retrieval under failures, fault injection, audit."""

import hashlib
import itertools

import pytest

from dnavault.dna_codec import oligo_codes
from dnavault.errors import BeadUnavailable, InsufficientNodes, UnknownNode
from dnavault.ledger import CodecParams, FileRecord, Validator, append_block, fold_records, genesis, record_create
from dnavault.network import Cluster
from dnavault.synthesis import Bead

VALIDATORS = [Validator("v", 1)]


def make_bead(tag: str) -> Bead:
    return Bead(tag, oligo_codes(["ACGTACGTACGT"]))


def make_cluster(n: int) -> Cluster:
    return Cluster([f"n{i}" for i in range(n)])


# --- placement -----------------------------------------------------------------

def test_placement_uses_r_distinct_nodes():
    cluster = make_cluster(5)
    placement = cluster.place_beads([make_bead("b")], 3, placement_seed=1)
    assert len(placement) == 3
    nodes = [n for _, n in placement]
    assert len(set(nodes)) == 3
    for node_id in nodes:
        assert "b" in cluster.nodes[node_id].beads


def test_placement_single_node():
    cluster = make_cluster(1)
    placement = cluster.place_beads([make_bead("b")], 1, placement_seed=0)
    assert placement == [("b", "n0")]


def test_placement_insufficient_nodes():
    cluster = make_cluster(3)
    with pytest.raises(InsufficientNodes):
        cluster.place_beads([make_bead("b")], 4, placement_seed=0)
    cluster.fail_node("n0")
    with pytest.raises(InsufficientNodes):
        cluster.place_beads([make_bead("b")], 3, placement_seed=0)


def test_placement_rejects_a_replication_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        make_cluster(3).place_beads([make_bead("b")], 0, placement_seed=0)


def test_placement_is_deterministic():
    beads = [make_bead(f"b{i}") for i in range(6)]
    placements = []
    for _ in range(2):
        cluster = make_cluster(7)
        placements.append(cluster.place_beads([make_bead(f"b{i}") for i in range(6)], 3, 42))
    assert placements[0] == placements[1]
    cluster = make_cluster(7)
    different = cluster.place_beads(beads, 3, 43)
    assert different != placements[0]


def test_placement_matches_rendezvous_ranking():
    cluster = make_cluster(6)
    placement = cluster.place_beads([make_bead("ranked")], 3, 9)
    scores = sorted(
        ((hashlib.sha256(f"ranked|n{i}|9".encode()).digest(), f"n{i}") for i in range(6)),
        reverse=True,
    )
    assert [n for _, n in placement] == [n for _, n in scores[:3]]


def test_placement_skips_offline_nodes():
    cluster = make_cluster(5)
    cluster.fail_node("n1")
    placement = cluster.place_beads([make_bead("b")], 3, 5)
    assert "n1" not in {n for _, n in placement}


def test_placement_balances_across_nodes():
    cluster = make_cluster(8)
    beads = [make_bead(f"b{i}") for i in range(200)]
    cluster.place_beads(beads, 3, 3)
    counts = [len(n.beads) for n in cluster.nodes.values()]
    assert min(counts) > 0
    assert max(counts) < 2.5 * (sum(counts) / len(counts))


# --- retrieval --------------------------------------------------------------------

def test_retrieve_from_any_live_replica():
    cluster = make_cluster(6)
    bead = make_bead("b")
    placement = cluster.place_beads([bead], 3, 11)
    hosts = [n for _, n in placement]
    assert cluster.retrieve_bead("b", placement).oligos == bead.oligos
    # any 2-subset of the 3 hosts may fail; the third still serves
    for downed in itertools.combinations(hosts, 2):
        for node_id in downed:
            cluster.fail_node(node_id)
        assert cluster.retrieve_bead("b", placement) is bead
        for node_id in downed:
            cluster.restore_node(node_id)


def test_retrieve_fails_when_all_hosts_down():
    cluster = make_cluster(4)
    placement = cluster.place_beads([make_bead("b")], 3, 2)
    for _, node_id in placement:
        cluster.fail_node(node_id)
    with pytest.raises(BeadUnavailable):
        cluster.retrieve_bead("b", placement)


def test_retrieve_respects_listed_order():
    cluster = make_cluster(5)
    bead = make_bead("b")
    placement = cluster.place_beads([bead], 3, 8)
    first = placement[0][1]
    assert cluster.retrieve_bead("b", placement) is cluster.nodes[first].beads["b"]


def test_retrieve_ignores_unknown_locations():
    cluster = make_cluster(3)
    bead = make_bead("b")
    placement = cluster.place_beads([bead], 1, 0)
    padded = [("b", "ghost-node")] + placement
    assert cluster.retrieve_bead("b", padded) is bead


# --- fault injection ----------------------------------------------------------------

def test_fail_restore_cycle_preserves_content():
    cluster = make_cluster(3)
    bead = make_bead("b")
    placement = cluster.place_beads([bead], 3, 1)
    for node_id in list(cluster.nodes):
        cluster.fail_node(node_id)
        cluster.fail_node(node_id)  # idempotent
        assert not cluster.nodes[node_id].online
        cluster.restore_node(node_id)
        assert cluster.nodes[node_id].online
    assert cluster.retrieve_bead("b", placement) is bead


def test_unknown_node_errors():
    cluster = make_cluster(2)
    with pytest.raises(UnknownNode):
        cluster.fail_node("nope")
    with pytest.raises(UnknownNode):
        cluster.restore_node("nope")


def test_duplicate_registration_rejected():
    cluster = make_cluster(2)
    with pytest.raises(ValueError):
        cluster.register_node("n0")


# --- audit ----------------------------------------------------------------------------

def chain_with_placement(placement, file_tag="audited"):
    record = FileRecord(
        file_hash=hashlib.sha256(file_tag.encode()).hexdigest(),
        owner="alice",
        timestamp=0,
        bead_locations=placement,
        permissions=set(),
        codec_params=CodecParams(1, 1, 1),
    )
    chain = [genesis()]
    append_block(chain, [record_create(record)], VALIDATORS, 1)
    return chain


def test_audit_healthy_cluster_has_no_flags():
    cluster = make_cluster(5)
    placement = cluster.place_beads([make_bead("b")], 3, 4)
    report = cluster.audit_redundancy(fold_records(chain_with_placement(placement)))
    assert len(report.entries) == 1
    assert report.entries[0].replicas_live == 3
    assert report.flagged == []


def test_audit_flags_under_replicated_bead():
    cluster = make_cluster(5)
    placement = cluster.place_beads([make_bead("b")], 3, 4)
    cluster.fail_node(placement[0][1])
    report = cluster.audit_redundancy(fold_records(chain_with_placement(placement)))
    (entry,) = report.flagged
    assert entry.replicas_expected == 3
    assert entry.replicas_live == 2


def test_audit_with_everything_down():
    cluster = make_cluster(4)
    placement = cluster.place_beads([make_bead("b")], 3, 4)
    for node_id in list(cluster.nodes):
        cluster.fail_node(node_id)
    report = cluster.audit_redundancy(fold_records(chain_with_placement(placement)))
    (entry,) = report.flagged
    assert entry.replicas_live == 0


def test_fault_tolerance_exhaustive_six_nodes():
    cluster = make_cluster(6)
    bead = make_bead("exhaustive")
    placement = cluster.place_beads([bead], 3, 99)
    hosts = {n for _, n in placement}
    for mask in range(64):
        failed = {f"n{i}" for i in range(6) if mask >> i & 1}
        for node_id in failed:
            cluster.fail_node(node_id)
        if hosts <= failed:
            with pytest.raises(BeadUnavailable):
                cluster.retrieve_bead("exhaustive", placement)
        else:
            assert cluster.retrieve_bead("exhaustive", placement) is bead
        for node_id in failed:
            cluster.restore_node(node_id)
