"""The documented ``chain.jsonl`` format, written and checked apart from the program.

One block per line, each line the canonical JSON of the block (UTF-8,
sorted keys, no insignificant whitespace, ASCII escapes). A block's hash is
the SHA-256 hex of the canonical JSON of its fields without ``block_hash``.
Block 0 is the fixed genesis block. The proposer of block i is picked from
the hash of block i-1: the first 8 bytes of SHA-256 over that hash's ASCII
hex, read big-endian, modulo the total stake, index one stake unit of the
validators in id order. A record-create needs an unseen file hash; grants
and revokes need a recorded file and its owner as issuer.

The benchmark uses this module to build deep ledgers in linear time and to
re-derive every chain the program leaves behind.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GENESIS_PREV_HASH = "0" * 64
BLOCK_KEYS = {"index", "prev_hash", "timestamp", "validator", "transactions", "block_hash"}


class ChainError(Exception):
    """The chain bytes break the documented format or rules."""


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("utf-8")


def block_hash(index: int, prev_hash: str, timestamp: int, validator: str, transactions: list) -> str:
    payload = {
        "index": index,
        "prev_hash": prev_hash,
        "timestamp": timestamp,
        "validator": validator,
        "transactions": transactions,
    }
    return hashlib.sha256(canonical(payload)).hexdigest()


def proposer(validators: list[dict], prev_hash: str) -> str:
    total = sum(v["stake"] for v in validators)
    t = int.from_bytes(hashlib.sha256(prev_hash.encode("ascii")).digest()[:8], "big") % total
    acc = 0
    for v in sorted(validators, key=lambda v: v["id"]):
        acc += v["stake"]
        if t < acc:
            return v["id"]
    raise ChainError("stake rule found no proposer")


def make_block(index: int, prev_hash: str, timestamp: int, validator: str, transactions: list) -> dict:
    return {
        "index": index,
        "prev_hash": prev_hash,
        "timestamp": timestamp,
        "validator": validator,
        "transactions": transactions,
        "block_hash": block_hash(index, prev_hash, timestamp, validator, transactions),
    }


def genesis() -> dict:
    return make_block(0, GENESIS_PREV_HASH, 0, "genesis", [])


class ChainWriter:
    """Appends blocks to a new ``chain.jsonl`` in linear time."""

    def __init__(self, path: Path, validators: list[dict]):
        self.validators = validators
        self.tip = genesis()
        self._fh = open(path, "wb")
        self._fh.write(canonical(self.tip) + b"\n")

    def append(self, transactions: list, timestamp: int) -> dict:
        prev = self.tip["block_hash"]
        block = make_block(self.tip["index"] + 1, prev, timestamp, proposer(self.validators, prev), transactions)
        self._fh.write(canonical(block) + b"\n")
        self.tip = block
        return block

    def close(self) -> None:
        self._fh.close()


def _apply(state: dict[str, dict], tx: dict) -> str | None:
    """Apply ``tx`` to ``state`` (file hash -> record); returns why it is invalid, or None."""
    kind = tx.get("type")
    if kind == "record-create":
        record = tx.get("record")
        if not isinstance(record, dict) or "file_hash" not in record or "owner" not in record:
            return "malformed record-create"
        if record["file_hash"] in state:
            return "duplicate record"
        state[record["file_hash"]] = {**record, "permissions": set(record.get("permissions", []))}
        return None
    if kind in ("permission-grant", "permission-revoke"):
        record = state.get(tx.get("file_hash"))
        if record is None:
            return "permission change on an unknown file"
        if tx.get("issuer") != record["owner"]:
            return "permission change not issued by the owner"
        if kind == "permission-grant":
            record["permissions"].add(tx.get("grantee"))
        else:
            record["permissions"].discard(tx.get("grantee"))
        return None
    return f"unknown transaction type {kind!r}"


def verify(data: bytes, validators: list[dict]) -> tuple[list[dict], dict[str, dict]]:
    """Re-derive a chain from its file bytes; returns (blocks, folded records).

    Raises :class:`ChainError` naming the first height that breaks the
    format, the canonical form, the hash links, the stake rule or the
    transaction rules.
    """
    if not data.endswith(b"\n"):
        raise ChainError("chain file does not end with a newline")
    blocks: list[dict] = []
    state: dict[str, dict] = {}
    for i, line in enumerate(data[:-1].split(b"\n")):
        try:
            block = json.loads(line.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ChainError(f"height {i}: line is not ASCII JSON ({exc})") from exc
        if not isinstance(block, dict) or set(block) != BLOCK_KEYS:
            raise ChainError(f"height {i}: block has the wrong fields")
        if canonical(block) != line:
            raise ChainError(f"height {i}: line is not canonical JSON")
        if block["index"] != i:
            raise ChainError(f"height {i}: index reads {block['index']}")
        if i == 0:
            if block != genesis():
                raise ChainError("height 0: not the genesis block")
        else:
            prev = blocks[-1]["block_hash"]
            if block["prev_hash"] != prev:
                raise ChainError(f"height {i}: prev_hash does not link to block {i - 1}")
            if block["validator"] != proposer(validators, prev):
                raise ChainError(f"height {i}: proposer breaks the stake rule")
        fields = (block["index"], block["prev_hash"], block["timestamp"], block["validator"], block["transactions"])
        if block_hash(*fields) != block["block_hash"]:
            raise ChainError(f"height {i}: block hash does not match its contents")
        for tx in block["transactions"]:
            reason = _apply(state, tx)
            if reason:
                raise ChainError(f"height {i}: {reason}")
        blocks.append(block)
    return blocks, state
