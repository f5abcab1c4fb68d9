"""The upload/download workflow across codec, synthesis, cluster and ledger."""

import hashlib
import math
import random

import pytest

from dnavault.config import ServiceConfig
from dnavault.contract import StorageContract, StoreParams
from dnavault.errors import (
    BeadUnavailable,
    DecodeFailed,
    DuplicateFile,
    EmptyInput,
    IntegrityMismatch,
    NotOwner,
    PermissionDenied,
    UnknownFile,
)
from dnavault.ledger import Validator, verify_chain
from dnavault.network import Cluster
from dnavault.service import StorageService
from dnavault.synthesis import ErrorModel

VALIDATORS = [Validator("v-a", 1), Validator("v-b", 3), Validator("v-c", 6)]


def make_contract(nodes=10, params: StoreParams | None = None, state_dir=None) -> StorageContract:
    cluster = Cluster([f"node-{i:02d}" for i in range(nodes)])
    return StorageContract(
        cluster, VALIDATORS, defaults=params or StoreParams(), state_dir=state_dir, clock=lambda: 1_700_000_000
    )


def payload_bytes(size=4096, seed=0) -> bytes:
    return random.Random(seed).randbytes(size)


# --- upload ---------------------------------------------------------------------

def test_upload_records_everything_on_the_ledger():
    contract = make_contract()
    data = payload_bytes()
    receipt = contract.upload_file("alice", data)
    assert receipt.file_hash == hashlib.sha256(data).hexdigest()
    assert receipt.block_index == 1
    record = contract.find_record(receipt.file_hash)
    assert record.owner == "alice"
    assert record.bead_locations == receipt.placement
    assert record.codec_params.original_length == len(data)
    assert verify_chain(contract.chain) == (True, None)


def test_upload_duplicate_rejected():
    contract = make_contract()
    data = payload_bytes()
    contract.upload_file("alice", data)
    with pytest.raises(DuplicateFile):
        contract.upload_file("alice", data)
    with pytest.raises(DuplicateFile):
        contract.upload_file("bob", data)  # content addressing ignores the owner


def test_upload_empty_rejected():
    contract = make_contract()
    with pytest.raises(EmptyInput):
        contract.upload_file("alice", b"")
    with pytest.raises(ValueError):
        contract.upload_file("", b"data")


def test_upload_bead_and_replica_counts():
    params = StoreParams(beads_per_file=4, replication=3)
    contract = make_contract(params=params)
    receipt = contract.upload_file("alice", payload_bytes(8192, seed=2))
    assert len(receipt.bead_ids) == 4
    per_bead = {}
    for bead_id, node_id in receipt.placement:
        per_bead.setdefault(bead_id, set()).add(node_id)
    assert set(per_bead) == set(receipt.bead_ids)
    assert all(len(nodes) == 3 for nodes in per_bead.values())


def test_tiny_upload_gets_fewer_beads_not_empty_ones():
    contract = make_contract(params=StoreParams(beads_per_file=8, overhead=1.0))
    receipt = contract.upload_file("alice", b"x")
    assert 1 <= len(receipt.bead_ids) <= 8
    assert contract.download_file("alice", receipt.file_hash) == b"x"


# --- download -----------------------------------------------------------------------

def test_owner_roundtrip_zero_error():
    contract = make_contract()
    data = payload_bytes(10_000, seed=3)
    receipt = contract.upload_file("alice", data)
    assert contract.download_file("alice", receipt.file_hash) == data


def test_download_unknown_hash():
    contract = make_contract()
    with pytest.raises(UnknownFile):
        contract.download_file("alice", "0" * 64)


def test_permission_lifecycle():
    contract = make_contract()
    receipt = contract.upload_file("alice", payload_bytes(seed=4))
    with pytest.raises(PermissionDenied):
        contract.download_file("bob", receipt.file_hash)
    height = contract.grant_permission("alice", receipt.file_hash, "bob")
    assert height == 2
    assert contract.download_file("bob", receipt.file_hash) == payload_bytes(seed=4)
    contract.revoke_permission("alice", receipt.file_hash, "bob")
    with pytest.raises(PermissionDenied):
        contract.download_file("bob", receipt.file_hash)


def test_permission_changes_require_ownership():
    contract = make_contract()
    receipt = contract.upload_file("alice", payload_bytes(seed=5))
    with pytest.raises(NotOwner):
        contract.grant_permission("bob", receipt.file_hash, "carol")
    with pytest.raises(NotOwner):
        contract.revoke_permission("bob", receipt.file_hash, "alice")
    with pytest.raises(UnknownFile):
        contract.grant_permission("alice", "1" * 64, "bob")


def test_noisy_roundtrip_with_failed_node():
    params = StoreParams(error_model=ErrorModel(0.001, 0.0, rng_seed=99), coverage=5, replication=3)
    contract = make_contract(params=params)
    data = payload_bytes(32_768, seed=6)
    receipt = contract.upload_file("alice", data)
    contract.cluster.fail_node(receipt.placement[0][1])
    assert contract.download_file("alice", receipt.file_hash) == data


def test_download_fails_when_a_bead_is_unreachable():
    contract = make_contract(nodes=3, params=StoreParams(replication=3))
    receipt = contract.upload_file("alice", payload_bytes(seed=7))
    for node_id in list(contract.cluster.nodes):
        contract.cluster.fail_node(node_id)
    with pytest.raises(BeadUnavailable):
        contract.download_file("alice", receipt.file_hash)


def test_total_dropout_means_decode_failure():
    params = StoreParams(error_model=ErrorModel(0.0, 1.0, rng_seed=1))
    contract = make_contract(params=params)
    receipt = contract.upload_file("alice", payload_bytes(seed=8))
    with pytest.raises(DecodeFailed) as info:
        contract.download_file("alice", receipt.file_hash)
    assert info.value.recovered == 0


def test_integrity_mismatch_on_swapped_content():
    contract = make_contract()
    data_a = payload_bytes(2048, seed=10)
    data_b = payload_bytes(2048, seed=11)
    receipt_a = contract.upload_file("alice", data_a)
    receipt_b = contract.upload_file("alice", data_b)
    # graft B's bead content under A's bead ids on every replica: decode
    # succeeds but yields bytes whose hash contradicts the record -- the
    # download must refuse rather than return silent corruption
    beads_b = {}
    for node in contract.cluster.nodes.values():
        for bid in receipt_b.bead_ids:
            if bid in node.beads:
                beads_b[bid] = node.beads[bid]
    for node in contract.cluster.nodes.values():
        for aid, bid in zip(receipt_a.bead_ids, receipt_b.bead_ids):
            if aid in node.beads:
                source = beads_b[bid]
                node.beads[aid] = type(source)(aid, source.codes)
    with pytest.raises(IntegrityMismatch):
        contract.download_file("alice", receipt_a.file_hash)


# --- encryption --------------------------------------------------------------------------

def test_encrypted_upload_changes_oligos_but_not_plaintext():
    data = payload_bytes(1500, seed=12)
    plain = make_contract()
    receipt_plain = plain.upload_file("alice", data)
    encrypted = make_contract()
    key = "GATTACA"
    receipt_enc = encrypted.upload_file("alice", data, key=key)
    assert receipt_enc.file_hash == receipt_plain.file_hash  # plaintext addressing

    def stored_oligos(contract):
        out = set()
        for node in contract.cluster.nodes.values():
            for bead in node.beads.values():
                out.update(bead.oligos)
        return out

    assert stored_oligos(plain) != stored_oligos(encrypted)
    assert encrypted.download_file("alice", receipt_enc.file_hash, key=key) == data


def test_encrypted_download_requires_the_key():
    data = payload_bytes(900, seed=13)
    contract = make_contract()
    receipt = contract.upload_file("alice", data, key="CCGG")
    with pytest.raises(IntegrityMismatch):
        contract.download_file("alice", receipt.file_hash)  # missing key
    with pytest.raises(IntegrityMismatch):
        contract.download_file("alice", receipt.file_hash, key="GGCC")  # wrong key
    assert contract.download_file("alice", receipt.file_hash, key="CCGG") == data


def test_a_keyed_upload_stores_the_same_beads_through_the_library_and_the_service(tmp_path):
    params = StoreParams(error_model=ErrorModel(0.001, rng_seed=7))
    data, key = payload_bytes(16384, seed=17), "GATTACA"
    contract = make_contract(params=params)
    service = StorageService(ServiceConfig(state_dir=tmp_path, store=params))
    file_hash = contract.upload_file("alice", data, key=key).file_hash
    assert service.upload("alice", data, key)["file_hash"] == file_hash

    def stored_beads(cluster):
        return {b.bead_id: b.codes.tobytes() for node in cluster.nodes.values() for b in node.beads.values()}

    assert stored_beads(contract.cluster) and stored_beads(contract.cluster) == stored_beads(service.cluster)
    assert contract.download_file("alice", file_hash, key=key) == data
    assert service.download("alice", file_hash, key) == data


# --- workflow ordering / determinism ------------------------------------------------------

def test_receipt_matches_ledger_transaction_log():
    contract = make_contract()
    receipt = contract.upload_file("alice", payload_bytes(seed=14))
    block = contract.chain[receipt.block_index]
    (tx,) = block.transactions
    assert tx["type"] == "record-create"
    assert tx["record"]["file_hash"] == receipt.file_hash
    assert [(b, n) for b, n in tx["record"]["bead_locations"]] == receipt.placement


def test_upload_is_deterministic_for_fixed_clock_and_seed():
    data = payload_bytes(seed=15)
    a = make_contract().upload_file("alice", data)
    b = make_contract().upload_file("alice", data)
    assert a == b


def test_persistence_writes_chain_and_beads(tmp_path):
    contract = make_contract(state_dir=tmp_path)
    receipt = contract.upload_file("alice", payload_bytes(seed=16))
    assert (tmp_path / "chain.jsonl").exists()
    for bead_id in receipt.bead_ids:
        assert (tmp_path / "beads" / bead_id / "oligos.txt").exists()
    from dnavault.ledger import load_chain

    loaded = load_chain(tmp_path / "chain.jsonl")
    assert [b.block_hash for b in loaded] == [b.block_hash for b in contract.chain]


def test_store_params_validation():
    for name, value in [
        ("overhead", 0.5),
        ("segment_size", 0),
        ("coverage", 0),
        ("overhead", math.inf),
        ("overhead", math.nan),
        ("overhead", True),
        ("overhead", "1.7"),
        ("segment_size", 2.5),
        ("segment_size", True),
        ("beads_per_file", 4.0),
        ("replication", False),
        ("coverage", "5"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            StoreParams(**{name: value})
    assert StoreParams(overhead=2).overhead == 2
