"""Block structure, validator selection, verification, chain persistence."""

import hashlib
import json
import random

import pytest

from dnavault.errors import CorruptChain, InvalidTransaction, NoStake, UnknownFile
from dnavault.ledger import (
    Block,
    CodecParams,
    FileRecord,
    Ledger,
    Validator,
    append_block,
    append_chain_file,
    block_line,
    canonical_json,
    find_record,
    genesis,
    load_chain,
    permission_grant,
    permission_revoke,
    read_ledger,
    record_create,
    save_chain,
    select_validator,
    verify_chain,
)

VALIDATORS = [Validator("v-a", 1), Validator("v-b", 3), Validator("v-c", 6)]


def sample_record(tag: str, owner: str = "alice") -> FileRecord:
    file_hash = hashlib.sha256(tag.encode()).hexdigest()
    return FileRecord(
        file_hash=file_hash,
        owner=owner,
        timestamp=1_700_000_000,
        bead_locations=[(f"{tag}.0", "node-1"), (f"{tag}.0", "node-2")],
        permissions=set(),
        codec_params=CodecParams(4, 32, 100),
    )


def verify_file(path) -> tuple[bool, int | None]:
    """``read_ledger`` as a verdict: (True, None), or (False, the ``CorruptChain`` height)."""
    try:
        read_ledger(path)
    except CorruptChain as exc:
        return False, exc.height
    return True, None


def three_block_chain() -> list[Block]:
    chain = [genesis()]
    append_block(chain, [record_create(sample_record("one"))], VALIDATORS, 1_700_000_001)
    rec = sample_record("one")
    append_block(chain, [permission_grant(rec.file_hash, "alice", "bob")], VALIDATORS, 1_700_000_002)
    return chain


# --- genesis -------------------------------------------------------------------

def test_genesis_shape():
    g = genesis()
    assert g.index == 0
    assert g.prev_hash == "0" * 64
    assert g.transactions == ()
    assert g.validator == "genesis"


def test_genesis_hash_matches_independent_serialization():
    g = genesis()
    payload = {
        "index": 0,
        "prev_hash": "0" * 64,
        "timestamp": 0,
        "validator": "genesis",
        "transactions": [],
    }
    expected = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert g.block_hash == expected


# --- validator selection -----------------------------------------------------------

def test_single_validator_always_selected():
    for h in ("0" * 64, "f" * 64, hashlib.sha256(b"x").hexdigest()):
        assert select_validator([Validator("only", 7)], h) == "only"


def test_zero_stake_never_selected():
    validators = [Validator("ghost", 0), Validator("whale", 5)]
    rng = random.Random(0)
    for _ in range(300):
        h = bytes(rng.randrange(256) for _ in range(32)).hex()
        assert select_validator(validators, h) == "whale"


def test_selection_is_deterministic_and_stake_proportional():
    h = hashlib.sha256(b"tip").hexdigest()
    assert select_validator(VALIDATORS, h) == select_validator(VALIDATORS, h)
    rng = random.Random(7)
    counts = {"v-a": 0, "v-b": 0, "v-c": 0}
    samples = 20_000
    for _ in range(samples):
        counts[select_validator(VALIDATORS, bytes(rng.randrange(256) for _ in range(32)).hex())] += 1
    assert abs(counts["v-a"] / samples - 0.1) < 0.04
    assert abs(counts["v-b"] / samples - 0.3) < 0.04
    assert abs(counts["v-c"] / samples - 0.6) < 0.04


def test_selection_follows_documented_rule():
    h = hashlib.sha256(b"rule-check").hexdigest()
    t = int.from_bytes(hashlib.sha256(h.encode()).digest()[:8], "big") % 10
    expected = "v-a" if t < 1 else ("v-b" if t < 4 else "v-c")
    assert select_validator(VALIDATORS, h) == expected


def test_no_stake_raises():
    with pytest.raises(NoStake):
        select_validator([Validator("x", 0)], "0" * 64)


# --- append / validate ----------------------------------------------------------------

def test_append_extends_chain():
    chain = [genesis()]
    block = append_block(chain, [record_create(sample_record("f"))], VALIDATORS, 1000)
    assert block.index == 1
    assert block.prev_hash == chain[0].block_hash
    assert len(chain) == 2
    assert verify_chain(chain) == (True, None)


def test_append_rejects_duplicate_create():
    chain = [genesis()]
    append_block(chain, [record_create(sample_record("dup"))], VALIDATORS, 1000)
    with pytest.raises(InvalidTransaction) as info:
        append_block(chain, [record_create(sample_record("dup"))], VALIDATORS, 1001)
    assert info.value.reason == "DuplicateFile"
    # duplicates are also caught within one block
    with pytest.raises(InvalidTransaction) as info:
        append_block(
            chain,
            [record_create(sample_record("two")), record_create(sample_record("two"))],
            VALIDATORS,
            1002,
        )
    assert info.value.index == 1


def test_append_is_deterministic():
    def build():
        chain = [genesis()]
        append_block(chain, [record_create(sample_record("same"))], VALIDATORS, 42)
        return chain

    a, b = build(), build()
    assert [blk.block_hash for blk in a] == [blk.block_hash for blk in b]
    assert block_line(a[1]) == block_line(b[1])


def test_append_requires_valid_chain():
    chain = [genesis()]
    forged = Block(1, "f" * 64, 1, "evil", (), "0" * 64)
    with pytest.raises(CorruptChain) as info:
        append_block(chain + [forged], [], VALIDATORS, 2)
    assert info.value.height == 1


def test_append_reports_transaction_reasons():
    book = Ledger()
    rec = sample_record("perm")

    def reason(tx) -> str:
        with pytest.raises(InvalidTransaction) as info:
            book.append([tx], VALIDATORS, 1)
        return info.value.reason

    assert reason(permission_grant(rec.file_hash, "alice", "bob")) == "UnknownFile"
    assert book.append([record_create(rec)], VALIDATORS, 1).index == 1
    assert reason(permission_grant(rec.file_hash, "mallory", "bob")) == "NotOwner"
    assert reason({"type": "mystery"}) == "MalformedTransaction"
    assert book.append([permission_grant(rec.file_hash, "alice", "bob")], VALIDATORS, 2).index == 2


# --- permissions ------------------------------------------------------------------------

def test_permission_folding():
    chain = [genesis()]
    rec = sample_record("folded")
    append_block(chain, [record_create(rec)], VALIDATORS, 1)
    append_block(chain, [permission_grant(rec.file_hash, "alice", "bob")], VALIDATORS, 2)
    found = find_record(chain, rec.file_hash)
    assert "bob" in found.permissions
    assert found.is_permitted("bob") and found.is_permitted("alice")
    append_block(chain, [permission_revoke(rec.file_hash, "alice", "bob")], VALIDATORS, 3)
    found = find_record(chain, rec.file_hash)
    assert "bob" not in found.permissions
    assert not found.is_permitted("bob")


def test_find_record_unknown_hash():
    with pytest.raises(UnknownFile):
        find_record([genesis()], "ab" * 32)


# --- verification --------------------------------------------------------------------------

def test_verify_detects_reordering():
    chain = three_block_chain()
    swapped = [chain[0], chain[2], chain[1]]
    ok, height = verify_chain(swapped)
    assert not ok and height == 1


def test_verify_detects_tampered_field():
    chain = three_block_chain()
    victim = chain[1]
    chain[1] = Block(
        victim.index, victim.prev_hash, victim.timestamp + 1, victim.validator,
        victim.transactions, victim.block_hash,
    )
    ok, height = verify_chain(chain)
    assert not ok and height == 1


def test_verify_rejects_empty_and_bad_genesis():
    assert verify_chain([]) == (False, 0)
    fake = Block(0, "1" * 64, 0, "genesis", (), "x")
    assert verify_chain([fake]) == (False, 0)


def test_append_only_prefixes_stay_verifiable():
    chain = three_block_chain()
    for cut in range(1, len(chain) + 1):
        assert verify_chain(chain[:cut]) == (True, None)


# --- persistence ------------------------------------------------------------------------------

def test_chain_file_roundtrip(tmp_path):
    chain = three_block_chain()
    path = tmp_path / "chain.jsonl"
    save_chain(path, chain)
    loaded = load_chain(path)
    assert [b.block_hash for b in loaded] == [b.block_hash for b in chain]
    assert verify_file(path) == (True, None)


def test_incremental_append_equals_full_save(tmp_path):
    chain = three_block_chain()
    full = tmp_path / "full.jsonl"
    incremental = tmp_path / "inc.jsonl"
    save_chain(full, chain)
    for block in chain:
        append_chain_file(incremental, block)
    assert full.read_bytes() == incremental.read_bytes()


def test_bit_flips_detected_at_correct_height(tmp_path):
    chain = three_block_chain()
    path = tmp_path / "chain.jsonl"
    save_chain(path, chain)
    original = path.read_bytes()
    rng = random.Random(123)
    positions = rng.sample(range(len(original)), 120)
    for pos in positions:
        expected_height = original[:pos].count(b"\n")
        for bit in (1, 128):
            tampered = bytearray(original)
            tampered[pos] ^= bit
            path.write_bytes(bytes(tampered))
            ok, height = verify_file(path)
            assert not ok, f"flip at byte {pos} went undetected"
            assert height == expected_height, (pos, bit, height, expected_height)
    path.write_bytes(original)
    assert verify_file(path) == (True, None)


def test_non_canonical_line_rejected(tmp_path):
    chain = [genesis()]
    path = tmp_path / "chain.jsonl"
    # same JSON value, non-canonical spacing: must fail byte-level verification
    padded = json.dumps(chain[0].to_dict(), sort_keys=True, separators=(", ", ": "))
    path.write_text(padded + "\n")
    ok, height = verify_file(path)
    assert not ok and height == 0
    with pytest.raises(ValueError):
        load_chain(path)


def test_canonical_json_is_sorted_and_compact():
    blob = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    assert blob == b'{"a":[1,2],"b":1,"c":{"x":1,"y":0}}'
