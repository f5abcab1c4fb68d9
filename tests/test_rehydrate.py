"""Reopening a state directory: which persisted beads come back, onto which nodes, and how the chain goes on."""

import json
import random
import shutil

import pytest

from dnavault import contract as contract_module
from dnavault.cli import EXIT_USAGE, main
from dnavault.config import ServiceConfig
from dnavault.contract import StorageContract
from dnavault.errors import BeadUnavailable
from dnavault.ledger import Validator, read_ledger
from dnavault.network import Cluster
from dnavault.service import StorageService

FILES = [random.Random(i).randbytes(600) for i in range(3)]


@pytest.fixture
def stored(tmp_path):
    """A state directory holding three uploaded files, and their receipts."""
    state = tmp_path / "state"
    first = StorageService(ServiceConfig.load_or_create(state))
    receipts = [first.upload("alice", data) for data in FILES]
    assert [first.download("alice", r["file_hash"]) for r in receipts] == FILES
    return state, receipts


def reopen(state) -> StorageService:
    return StorageService(ServiceConfig.load_or_create(state))


def test_a_bead_missing_from_disk_is_skipped(stored):
    state, receipts = stored
    lost = receipts[1]["bead_ids"][0]
    shutil.rmtree(state / "beads" / lost)

    service = reopen(state)
    assert all(lost not in node.beads for node in service.cluster.nodes.values())
    with pytest.raises(BeadUnavailable):
        service.download("alice", receipts[1]["file_hash"])
    for i in (0, 2):
        assert service.download("alice", receipts[i]["file_hash"]) == FILES[i]


def test_a_node_missing_from_the_topology_is_skipped(stored):
    state, receipts = stored
    gone = receipts[0]["placement"][0][1]
    config = json.loads((state / "config.json").read_text())
    config["topology"] = [entry for entry in config["topology"] if entry["node_id"] != gone]
    (state / "config.json").write_text(json.dumps(config))

    service = reopen(state)
    assert gone not in service.cluster.nodes
    for receipt, data in zip(receipts, FILES):
        for bead_id, node_id in receipt["placement"]:
            if node_id != gone:
                assert bead_id in service.cluster.nodes[node_id].beads
        assert service.download("alice", receipt["file_hash"]) == data


def test_each_bead_on_disk_is_loaded_once_and_installed_on_every_listed_node(stored, monkeypatch):
    state, receipts = stored
    loads = []
    original = contract_module.load_bead

    def counted(beads_dir, bead_id, codec):
        loads.append(bead_id)
        return original(beads_dir, bead_id, codec)

    monkeypatch.setattr(contract_module, "load_bead", counted)
    service = reopen(state)

    on_disk = sorted(path.name for path in (state / "beads").iterdir())
    assert sorted(loads) == on_disk == sorted(b for r in receipts for b in r["bead_ids"])
    for receipt in receipts:
        for bead_id in receipt["bead_ids"]:
            holders = [n for b, n in receipt["placement"] if b == bead_id]
            assert len(holders) == 3
            installed = [service.cluster.nodes[n].beads[bead_id] for n in holders]
            assert all(bead is installed[0] for bead in installed)  # one loaded copy, shared
        for bead_id, node_id in receipt["placement"]:
            assert bead_id in service.cluster.nodes[node_id].beads
    held = {(b, n.node_id) for n in service.cluster.nodes.values() for b in n.beads}
    assert held == {(b, n) for r in receipts for b, n in r["placement"]}


def test_a_foreign_symbol_in_a_stored_bead_reads_as_a_and_the_file_still_downloads(stored):
    state, receipts = stored
    bead_id = receipts[0]["bead_ids"][0]
    path = state / "beads" / bead_id / "oligos.txt"
    header, first, rest = path.read_bytes().split(b"\n", 2)
    pos = first.index(b"G")
    path.write_bytes(b"\n".join([header, first[:pos] + b"N" + first[pos + 1 :], rest]))

    service = reopen(state)
    holder = receipts[0]["placement"][0][1]
    assert service.cluster.nodes[holder].beads[bead_id].oligos[0][pos] == "A"
    assert service.download("alice", receipts[0]["file_hash"]) == FILES[0]  # the CRC drops the oligo


def test_an_upload_writes_one_oligo_file_per_bead(stored):
    state, receipts = stored
    for bead_id in (b for r in receipts for b in r["bead_ids"]):
        assert [path.name for path in (state / "beads" / bead_id).iterdir()] == ["oligos.txt"]


def test_a_state_directory_with_bead_manifests_opens_and_downloads(stored):
    # Earlier versions wrote a manifest.json next to each oligo file. It is never read: give each
    # one a wrong oligo_count, and every file still downloads byte for byte.
    state, receipts = stored
    for bead_dir in (state / "beads").iterdir():
        header = (bead_dir / "oligos.txt").read_text().split("\n", 1)[0]
        k, segment_size, length = (int(item.split("=")[1]) for item in header[1:].split())
        manifest = {"K": k, "segment_size": segment_size, "original_length": length, "oligo_count": 10**6}
        (bead_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    service = reopen(state)
    for receipt, data in zip(receipts, FILES):
        assert service.download("alice", receipt["file_hash"]) == data


def test_a_bead_header_that_differs_from_its_record_fails_the_open(stored, capsys):
    state, receipts = stored
    bead_id = receipts[2]["bead_ids"][1]
    path = state / "beads" / bead_id / "oligos.txt"
    header, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(b"#K=999 SEG=1 LEN=5\n" + rest)

    with pytest.raises(ValueError, match="does not match") as caught:
        reopen(state)
    for part in (str(path), "#K=999 SEG=1 LEN=5", header.decode()):
        assert part in str(caught.value)
    assert main(["--state", str(state), "chain", "show"]) == EXIT_USAGE
    assert "#K=999 SEG=1 LEN=5" in capsys.readouterr().err


def test_a_second_contract_on_a_state_directory_continues_its_chain(tmp_path):
    def contract():
        cluster = Cluster([f"node-{i:02d}" for i in range(6)])
        return StorageContract(cluster, [Validator("v", 1)], state_dir=tmp_path)

    first = contract()
    receipt = first.upload_file("alice", FILES[0])
    second = contract()
    assert second.chain[-1].block_hash == first.chain[-1].block_hash
    assert second.download_file("alice", receipt.file_hash) == FILES[0]
    assert second.upload_file("alice", FILES[1]).block_index == 2
    assert read_ledger(tmp_path / "chain.jsonl").tip.block_hash == second.chain[-1].block_hash
    assert contract().download_file("alice", receipt.file_hash) == FILES[0]
