"""Loading ``chain.jsonl``: the one-dump loader against the two-dump reference, on mutated chains."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnavault.ledger import (
    Block,
    CodecParams,
    CorruptChain,
    FileRecord,
    Ledger,
    Validator,
    block_line,
    canonical_json,
    permission_grant,
    read_ledger,
    record_create,
)

VALIDATORS = [Validator("v-a", 1), Validator("v-b", 3)]
BLOCK_KEYS = {"index", "prev_hash", "timestamp", "validator", "transactions", "block_hash"}


def reference_parse_block_line(line: bytes) -> Block:
    """The loader's line parse as it was: the block is dumped again to check the line is canonical."""
    raw = json.loads(line.decode("utf-8"))
    if not isinstance(raw, dict) or set(raw) != BLOCK_KEYS:
        raise ValueError("block line has unexpected fields")
    block = Block(
        index=raw["index"],
        prev_hash=raw["prev_hash"],
        timestamp=raw["timestamp"],
        validator=raw["validator"],
        transactions=tuple(raw["transactions"]),
        block_hash=raw["block_hash"],
    )
    if canonical_json(block.to_dict()) != line:
        raise ValueError("block line is not in canonical form")
    return block


def reference_ledger(data: bytes) -> Ledger:
    """Parse with the reference, then verify and fold as ``Ledger(blocks)`` does, hashing each block's fields."""

    def blocks():
        lines = data.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        for i, line in enumerate(lines):
            try:
                yield reference_parse_block_line(line)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
                raise CorruptChain(i, f"line is corrupt: {exc}") from exc

    return Ledger(blocks())


def small_chain() -> bytes:
    book = Ledger()
    for i, owner in enumerate(("alice", "böb \"quoted\" \\ owner", "carol")):
        record = FileRecord(f"{i:064x}", owner, 100 + i, [(f"bead-{i}", "node-00")], set(), CodecParams(1, 32, 5))
        book.append([record_create(record)], VALIDATORS, 100 + i)
    book.append([permission_grant(f"{0:064x}", "alice", "dave\n")], VALIDATORS, 200)
    return b"".join(block_line(block) for block in book.blocks)


CHAIN = small_chain()
LINES = CHAIN.split(b"\n")[:-1]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
HASH_VALUES = st.one_of(
    st.integers(),
    st.none(),
    st.just("0" * 63),
    st.just("0" * 65),
    st.text(max_size=70),
    st.sampled_from(["a\"b\\c", "é" * 64, "\n", ""]),
)


def with_line(i: int, line: bytes) -> bytes:
    return b"".join(l + b"\n" for l in LINES[:i] + [line] + LINES[i + 1 :])


@st.composite
def mutated_chains(draw) -> bytes:
    kind = draw(st.sampled_from(["flip", "block_hash", "field", "key_order", "whitespace", "torn"]))
    i = draw(st.integers(0, len(LINES) - 1))
    raw = json.loads(LINES[i])
    if kind == "flip":
        at = draw(st.integers(0, len(CHAIN) - 1))
        data = bytearray(CHAIN)
        data[at] ^= draw(st.integers(1, 255))
        return bytes(data)
    if kind in ("block_hash", "field"):
        key = "block_hash" if kind == "block_hash" else draw(st.sampled_from(sorted(BLOCK_KEYS)))
        raw[key] = draw(HASH_VALUES if key == "block_hash" else JSON_VALUES)
        return with_line(i, canonical_json(raw))
    if kind == "key_order":
        keys = draw(st.permutations(sorted(raw)))
        return with_line(i, json.dumps({k: raw[k] for k in keys}, separators=(",", ":")).encode())
    if kind == "whitespace":
        line = LINES[i]
        at = draw(st.integers(0, len(line)))
        return with_line(i, line[:at] + draw(st.sampled_from([b" ", b"\t", b"\r", b"  "])) + line[at:])
    return CHAIN[: draw(st.integers(len(CHAIN) - len(LINES[-1]) - 1, len(CHAIN) - 1))]  # a torn last line


def outcome(load):
    """``load()``'s ledger as its blocks and records, or its ``CorruptChain`` as height and message."""
    try:
        ledger = load()
    except CorruptChain as exc:
        return "corrupt", exc.height, str(exc)
    return "ok", ledger.blocks, ledger.records


def loaded_both_ways(path, data: bytes):
    path.write_bytes(data)
    return outcome(lambda: read_ledger(path)), outcome(lambda: reference_ledger(data))


@pytest.fixture(scope="module")
def chain_path(tmp_path_factory):
    return tmp_path_factory.mktemp("chain") / "chain.jsonl"


@settings(max_examples=400, deadline=None)
@given(data=mutated_chains())
def test_loader_matches_the_two_dump_reference(chain_path, data):
    got, expected = loaded_both_ways(chain_path, data)
    assert got == expected


def test_unmutated_chain_loads_like_the_reference(chain_path):
    got, expected = loaded_both_ways(chain_path, CHAIN)
    assert got == expected
    assert got[0] == "ok" and len(got[1]) == len(LINES)
    assert b"".join(block_line(b) for b in got[1]) == CHAIN


def test_a_non_string_block_hash_reads_as_a_mismatch(chain_path):
    for value in (5, None, ["x"], "0" * 63, "a\"b"):
        raw = json.loads(LINES[2])
        raw["block_hash"] = value
        got, expected = loaded_both_ways(chain_path, with_line(2, canonical_json(raw)))
        assert got == expected == ("corrupt", 2, "chain fails verification at height 2: block hash mismatch")


def test_non_list_transactions_are_not_canonical(chain_path):
    for value in ("", "ab", {}, {"type": "record-create"}):
        raw = json.loads(LINES[1])
        raw["transactions"] = value
        got, expected = loaded_both_ways(chain_path, with_line(1, canonical_json(raw)))
        assert got == expected
        assert got[:2] == ("corrupt", 1) and "not in canonical form" in got[2]
