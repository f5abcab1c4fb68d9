"""Reopening a state directory: which persisted beads come back, onto which nodes, and how the chain goes on."""

import json
import random
import shutil
import sys
import threading
import urllib.error
import urllib.request

import pytest

from dnavault import contract as contract_module
from dnavault import synthesis
from dnavault.cli import EXIT_USAGE, main
from dnavault.config import ServiceConfig
from dnavault.contract import StorageContract, StoreParams
from dnavault.errors import BeadUnavailable, DecodeFailed
from dnavault.ledger import Validator, read_ledger
from dnavault.network import Cluster
from dnavault.service import StorageService, make_server
from dnavault.synthesis import ErrorModel

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


# --- the lazy open: headers at open, oligo lines at first use ----------------------------

@pytest.fixture
def body_reads(monkeypatch):
    """The ids of the beads whose oligo lines are read, one entry a read."""
    reads = []
    original = synthesis._read_oligo_lines

    def counted(path):
        reads.append(path.parent.name)
        return original(path)

    monkeypatch.setattr(synthesis, "_read_oligo_lines", counted)
    return reads


def test_an_open_reads_no_bead_body(stored, body_reads):
    state, receipts = stored
    service = reopen(state)
    assert body_reads == []
    assert {b for node in service.cluster.nodes.values() for b in node.beads} == {
        b for r in receipts for b in r["bead_ids"]
    }


def test_a_download_reads_its_own_bead_bodies_once(stored, body_reads):
    state, receipts = stored
    service = reopen(state)
    for receipt, data in zip(receipts, FILES):
        assert service.download("alice", receipt["file_hash"]) == data
        assert sorted(body_reads) == sorted(receipt["bead_ids"])  # each of its beads once, no other file's
        assert service.download("alice", receipt["file_hash"]) == data
        assert len(body_reads) == len(receipt["bead_ids"])  # the second download reads none
        for bead_id in receipt["bead_ids"]:
            installed = [service.cluster.nodes[n].beads[bead_id] for b, n in receipt["placement"] if b == bead_id]
            assert len(installed) == 3 and all(bead is installed[0] for bead in installed)
        body_reads.clear()


def test_threads_that_download_the_same_file_right_after_an_open_all_get_its_bytes(stored):
    # No lock: threads that first use a bead at the same time may each read its file, and each gets the same codes.
    state, receipts = stored
    service = reopen(state)
    start, got = threading.Barrier(4), []

    def download():
        start.wait()
        got.append(service.download("alice", receipts[0]["file_hash"]))

    threads = [threading.Thread(target=download) for _ in range(4)]  # more threads than a 2-core machine has cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [FILES[0]] * 4


def outcome(service, file_hash):
    """The bytes a download returns, or DecodeFailed for a file that does not peel (ROADMAP item 4)."""
    try:
        return service.download("alice", file_hash)
    except DecodeFailed:
        return DecodeFailed


@pytest.mark.parametrize("rate", [0.0, 0.001])
def test_an_open_then_a_download_of_every_file_returns_what_the_uploading_service_does(tmp_path, rate):
    state = tmp_path / "state"
    store = StoreParams(error_model=ErrorModel(substitution_rate=rate, rng_seed=11))
    first = StorageService(ServiceConfig.load_or_create(state, store=store))
    files = [random.Random(20 + i).randbytes(size) for i, size in enumerate((40, 900, 5000, 20000))]
    hashes = [first.upload("alice", data)["file_hash"] for data in files]
    service = reopen(state)
    assert service.config.store == store
    got = [outcome(service, file_hash) for file_hash in hashes]
    assert got == [outcome(first, file_hash) for file_hash in hashes]
    assert got[-1] == files[-1]


def ragged(path):
    """Drop one base from the first oligo line of the bead file at ``path``."""
    header, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + body[1:])


def test_a_damaged_body_fails_only_its_own_file(stored):
    state, receipts = stored
    path = state / "beads" / receipts[1]["bead_ids"][2] / "oligos.txt"
    ragged(path)
    service = reopen(state)
    with pytest.raises(BeadUnavailable, match=f"{path}: oligo lines are blank or of unequal length"):
        service.download("alice", receipts[1]["file_hash"])
    for i in (0, 2):
        assert service.download("alice", receipts[i]["file_hash"]) == FILES[i]
    assert service.chain_info()["valid"] is True


def test_a_body_deleted_after_the_open_fails_only_its_own_file(stored):
    state, receipts = stored
    service = reopen(state)
    path = state / "beads" / receipts[1]["bead_ids"][0] / "oligos.txt"
    path.unlink()
    with pytest.raises(BeadUnavailable, match=f"{path}: No such file"):
        service.download("alice", receipts[1]["file_hash"])
    for i in (0, 2):
        assert service.download("alice", receipts[i]["file_hash"]) == FILES[i]


def test_a_damaged_body_fails_only_its_own_file_through_the_cli(stored, tmp_path, capsys):
    state, receipts = stored
    path = state / "beads" / receipts[1]["bead_ids"][0] / "oligos.txt"
    ragged(path)
    assert main(["--state", str(state), "chain", "show"]) == 0
    out = tmp_path / "out.bin"
    assert main(["--state", str(state), "download", receipts[1]["file_hash"], "--as", "alice", "--out", str(out)]) == 8
    err = capsys.readouterr().err
    assert "BeadUnavailable" in err and str(path) in err and "oligo lines are blank or of unequal length" in err
    assert main(["--state", str(state), "download", receipts[0]["file_hash"], "--as", "alice", "--out", str(out)]) == 0
    assert out.read_bytes() == FILES[0]


def test_a_damaged_body_fails_only_its_own_file_through_rest(stored):
    state, receipts = stored
    path = state / "beads" / receipts[1]["bead_ids"][0] / "oligos.txt"
    ragged(path)
    server = make_server(ServiceConfig.load_or_create(state, port=0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"

    def get(route):
        request = urllib.request.Request(base + route, headers={"X-Requester": "alice"})
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    try:
        status, body = get(f"/files/{receipts[1]['file_hash']}")
        assert status == 503
        reply = json.loads(body)
        assert reply["error"] == "BeadUnavailable" and str(path) in reply["detail"]
        assert get(f"/files/{receipts[2]['file_hash']}") == (200, FILES[2])
        status, body = get("/chain")
        assert status == 200 and json.loads(body)["valid"] is True
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
