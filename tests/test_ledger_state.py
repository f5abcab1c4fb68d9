"""The incremental ledger: its state matches a full replay, and writes never replay."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnavault import ledger
from dnavault.config import ServiceConfig
from dnavault.errors import InvalidTransaction
from dnavault.ledger import (
    CodecParams,
    CorruptChain,
    FileRecord,
    Ledger,
    Validator,
    fold_records,
    permission_grant,
    permission_revoke,
    record_create,
    save_chain,
    verify_chain,
)
from dnavault.service import StorageService

VALIDATORS = [Validator("v-a", 1), Validator("v-b", 3), Validator("v-c", 6)]
TAGS = ("f0", "f1", "f2", "f3")
OWNERS = ("alice", "bob")
READERS = ("carol", "dave")


def tag_hash(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def make_record(tag: str, owner: str) -> FileRecord:
    return FileRecord(
        file_hash=tag_hash(tag),
        owner=owner,
        timestamp=1_700_000_000,
        bead_locations=[(f"{tag}.0", "node-1"), (f"{tag}.0", "node-2")],
        codec_params=CodecParams(2, 32, 40),
    )


MALFORMED = (
    {"type": "record-create"},
    {"type": "record-create", "record": "not a record"},
    {"type": "record-create", "record": {"file_hash": tag_hash("f0")}},
    {"type": "record-create", "record": {**make_record("f0", "alice").to_dict(), "bead_locations": ["abc"]}},
    {"type": "permission-grant", "file_hash": tag_hash("f0"), "issuer": "alice"},
    {"type": "permission-revoke", "grantee": "carol"},
    {"type": "transfer", "file_hash": tag_hash("f0")},
    {},
    ["not", "a", "dict"],
)

transactions = st.one_of(
    st.builds(lambda t, o: record_create(make_record(t, o)), st.sampled_from(TAGS), st.sampled_from(OWNERS)),
    st.builds(
        lambda make, t, o, r: make(tag_hash(t), o, r),
        st.sampled_from((permission_grant, permission_revoke)),
        st.sampled_from(TAGS + ("unknown",)),
        st.sampled_from(OWNERS),
        st.sampled_from(READERS),
    ),
    st.sampled_from(MALFORMED),
)


def expected_valid(model: dict[str, tuple[str, set]], txs: list) -> bool:
    """The rules, restated over a plain model: file_hash -> (owner, readers)."""
    staged = {h: (owner, set(readers)) for h, (owner, readers) in model.items()}
    for tx in txs:
        if any(tx is bad for bad in MALFORMED):
            return False
        if tx["type"] == "record-create":
            if tx["record"]["file_hash"] in staged:
                return False
            staged[tx["record"]["file_hash"]] = (tx["record"]["owner"], set())
            continue
        entry = staged.get(tx["file_hash"])
        if entry is None or entry[0] != tx["issuer"]:
            return False
        if tx["type"] == "permission-grant":
            entry[1].add(tx["grantee"])
        else:
            entry[1].discard(tx["grantee"])
    model.clear()
    model.update(staged)
    return True


def snapshot(book: Ledger) -> tuple:
    return [b.block_hash for b in book.blocks], {h: r.to_dict() for h, r in book.records.items()}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(transactions, min_size=1, max_size=3), max_size=12))
def test_incremental_state_equals_full_replay(blocks):
    book = Ledger()
    model: dict[str, tuple[str, set]] = {}
    for step, txs in enumerate(blocks, start=1):
        before = snapshot(book)
        if expected_valid(model, txs):
            block = book.append(txs, VALIDATORS, step)
            assert block is book.tip and block.index == len(book.blocks) - 1
        else:
            with pytest.raises(InvalidTransaction):
                book.append(txs, VALIDATORS, step)
            assert snapshot(book) == before
        assert book.records == fold_records(book.blocks)
        assert verify_chain(book.blocks) == (True, None)
        assert {h: (r.owner, r.permissions) for h, r in book.records.items()} == model


def test_rejected_block_keeps_its_valid_prefix_out():
    book = Ledger()
    book.append([record_create(make_record("f0", "alice"))], VALIDATORS, 1)
    before = snapshot(book)
    block_txs = [
        permission_grant(tag_hash("f0"), "alice", "carol"),
        record_create(make_record("f1", "bob")),
        permission_grant(tag_hash("f0"), "bob", "dave"),  # bob does not own f0
    ]
    with pytest.raises(InvalidTransaction) as info:
        book.append(block_txs, VALIDATORS, 2)
    assert (info.value.index, info.value.reason) == (2, "NotOwner")
    assert snapshot(book) == before
    assert book.records[tag_hash("f0")].permissions == set()


def test_record_returns_a_copy():
    book = Ledger()
    book.append([record_create(make_record("f0", "alice"))], VALIDATORS, 1)
    copy = book.record(tag_hash("f0"))
    copy.permissions.add("mallory")
    copy.bead_locations.append(("x", "y"))
    assert book.record(tag_hash("f0")) == make_record("f0", "alice")


def test_replay_names_the_first_failing_height():
    book = Ledger()
    for i in range(4):
        book.append([record_create(make_record(f"f{i}", "alice"))], VALIDATORS, i + 1)
    blocks = list(book.blocks)
    blocks[2], blocks[3] = blocks[3], blocks[2]
    with pytest.raises(CorruptChain) as info:
        Ledger(blocks)
    assert info.value.height == 2
    assert verify_chain(blocks) == (False, 2)


# --- no replay per operation -----------------------------------------------------


def deep_state(tmp_path, height: int) -> ServiceConfig:
    """A state directory whose ledger has ``height`` blocks of records without beads."""
    config = ServiceConfig(tmp_path / "state")
    config.save()
    book = Ledger()
    validators = config.validator_objects()
    for i in range(1, height + 1):
        if i % 3:
            tx = record_create(make_record(f"deep-{i}", OWNERS[i % 2]))
        else:
            tx = permission_grant(tag_hash(f"deep-{i - 1}"), OWNERS[(i - 1) % 2], READERS[0])
        book.append([tx], validators, i)
    save_chain(config.state_dir / "chain.jsonl", book.blocks)
    return config


def counting(monkeypatch, name: str, counts: dict):
    """Count calls of ``ledger.<name>`` from every dnavault module that holds it."""
    original = getattr(ledger, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "dnavault" and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)


def test_operations_never_replay_the_chain(tmp_path, monkeypatch):
    height = 300
    config = deep_state(tmp_path, height)
    counts = dict.fromkeys(("verify_chain", "fold_records", "hash_payload"), 0)
    for name in counts:
        counting(monkeypatch, name, counts)

    service = StorageService(ServiceConfig.load_or_create(config.state_dir))
    # one pass over the file: each stored block hashed once, no separate verify or fold
    assert counts == {"verify_chain": 0, "fold_records": 0, "hash_payload": height + 1}

    counts.update(dict.fromkeys(counts, 0))
    data = b"incremental ledger payload " * 3
    receipt = service.upload("alice", data)
    assert service.download("alice", receipt["file_hash"]) == data
    service.change_permission("alice", receipt["file_hash"], "grant", "carol")
    assert service.download("carol", receipt["file_hash"]) == data
    service.change_permission("alice", receipt["file_hash"], "revoke", "carol")
    # three writes, each hashing only its own block
    assert counts == {"verify_chain": 0, "fold_records": 0, "hash_payload": 3}

    assert verify_chain(service.contract.chain) == (True, None)
    assert service.contract.ledger.records == fold_records(service.contract.chain)
    assert len(service.contract.chain) == height + 4


def test_chain_info_verifies_each_block_once(tmp_path, monkeypatch):
    config = deep_state(tmp_path, 50)
    service = StorageService(ServiceConfig.load_or_create(config.state_dir))
    counts = {"compute_block_hash": 0}
    counting(monkeypatch, "compute_block_hash", counts)
    assert service.chain_info()["valid"] is True
    assert service.chain_info()["valid"] is True
    assert counts["compute_block_hash"] == 0  # opening verified every block; nothing is new

    receipt = service.upload("alice", b"verified height payload")
    assert counts["compute_block_hash"] == 1  # the append hashes its own block
    assert service.chain_info()["height"] == 51
    assert counts["compute_block_hash"] == 1

    chain = service.contract.chain
    tip = chain[-1]
    forged = ledger.Block(tip.index + 1, tip.block_hash, tip.timestamp, tip.validator, (), "0" * 64)
    chain.append(forged)  # behind the ledger's back
    info = service.chain_info()
    assert (info["valid"], info["failure_height"]) == (False, 52)
    assert service.chain_info()["valid"] is False  # a bad block stays unverified
    assert verify_chain(chain) == (False, 52)

    chain.pop()
    honest = ledger.permission_grant(receipt["file_hash"], "alice", "carol")
    good = ledger.Block(
        tip.index + 1, tip.block_hash, 7, "v", (honest,),
        ledger.compute_block_hash(tip.index + 1, tip.block_hash, 7, "v", [honest]),
    )
    chain.append(good)
    before = dict(service.contract.ledger.records)
    assert service.chain_info()["valid"] is True  # a valid outside block passes the full check
    assert service.contract.ledger.records == before  # reading the chain folds nothing in
    assert verify_chain(chain) == (True, None)
    service.upload("alice", b"appended behind an outside block")
    assert service.chain_info()["valid"] is verify_chain(chain)[0] is True
