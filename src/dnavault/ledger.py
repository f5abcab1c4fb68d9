"""Append-only hash-linked ledger of file records with stake-weighted proposers.

Blocks serialize to *canonical JSON* -- UTF-8, lexicographically sorted
keys, no insignificant whitespace -- and ``block_hash`` is the SHA-256 hex
of the canonical serialization of every field except the hash itself.
Identities are opaque strings; there are no signatures, one proposer is
picked deterministically per block, and forks do not exist. Three
transaction types are understood::

    {"type": "record-create",    "record": {...FileRecord...}}
    {"type": "permission-grant",  "file_hash": h, "issuer": who, "grantee": whom}
    {"type": "permission-revoke", "file_hash": h, "issuer": who, "grantee": whom}

A record-create is valid while its file hash is unseen; grants and revokes
are valid only from the record owner. The chain persists as ``chain.jsonl``,
one canonical block per line, and reloading reproduces identical hashes.

A ``Ledger`` keeps its folded ``file_hash -> FileRecord`` state
incrementally: an append checks only the new block's transactions against
that state and hashes only the new block, so no write replays the chain.
Records in a state are never changed in place; a grant or revoke installs a
changed copy. Full verification -- every hash, link and transaction from
genesis -- runs when a chain is loaded (``read_ledger``, in the same pass
that folds it) and on ``chain verify``. A load dumps each line once, to check
that it is canonical, and hashes the line's own payload slice: ``block_hash``
sorts first, so the rest of a canonical line after it is the hashed JSON.
``GET /chain`` asks ``Ledger.verify``, which replays the chain only when it
holds blocks the ledger did not verify.
"""

from __future__ import annotations

import gc
import hashlib
import json
from collections import ChainMap
from collections.abc import Iterable, MutableMapping
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import CorruptChain, InvalidTransaction, NoStake, StaleChain, UnknownFile

GENESIS_PREV_HASH = "0" * 64
GENESIS_VALIDATOR = "genesis"

_BLOCK_KEYS = {"index", "prev_hash", "timestamp", "validator", "transactions", "block_hash"}
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)  # json.dumps builds one a call


@dataclass(frozen=True)
class Validator:
    id: str
    stake: int


@dataclass(frozen=True)
class CodecParams:
    k: int
    segment_size: int
    original_length: int

    def to_dict(self) -> dict:
        return {"K": self.k, "segment_size": self.segment_size, "original_length": self.original_length}

    @classmethod
    def from_dict(cls, raw: dict) -> CodecParams:
        return cls(raw["K"], raw["segment_size"], raw["original_length"])


@dataclass
class FileRecord:
    """Ledger view of one stored file.

    ``permissions`` holds explicitly granted readers; the owner is always
    implicitly permitted. ``bead_locations`` is the placement map written
    at upload time, ordered (bead_id, node_id) pairs.
    """

    file_hash: str
    owner: str
    timestamp: int
    bead_locations: list[tuple[str, str]]
    permissions: set[str] = field(default_factory=set)
    codec_params: CodecParams | None = None

    def is_permitted(self, identity: str) -> bool:
        return identity == self.owner or identity in self.permissions

    def with_permissions(self, permissions: set[str]) -> FileRecord:
        """A copy with ``permissions`` (built directly: ``dataclasses.replace`` is several times slower)."""
        return FileRecord(
            self.file_hash, self.owner, self.timestamp, self.bead_locations, permissions, self.codec_params
        )

    def to_dict(self) -> dict:
        return {
            "file_hash": self.file_hash,
            "owner": self.owner,
            "timestamp": self.timestamp,
            "bead_locations": [[b, n] for b, n in self.bead_locations],
            "permissions": sorted(self.permissions),
            "codec_params": self.codec_params.to_dict() if self.codec_params else None,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> FileRecord:
        return cls(
            file_hash=raw["file_hash"],
            owner=raw["owner"],
            timestamp=raw["timestamp"],
            bead_locations=[(b, n) for b, n in raw["bead_locations"]],
            permissions=set(raw["permissions"]),
            codec_params=CodecParams.from_dict(raw["codec_params"]) if raw.get("codec_params") else None,
        )


@dataclass(frozen=True)
class Block:
    index: int
    prev_hash: str
    timestamp: int
    validator: str
    transactions: tuple[dict, ...]
    block_hash: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "prev_hash": self.prev_hash,
            "timestamp": self.timestamp,
            "validator": self.validator,
            "transactions": list(self.transactions),
            "block_hash": self.block_hash,
        }


def canonical_json(obj) -> bytes:
    return _CANONICAL.encode(obj).encode("utf-8")


def hash_payload(payload: bytes) -> str:
    """The block hash of ``payload``, the canonical JSON of a block's fields without ``block_hash``."""
    return hashlib.sha256(payload).hexdigest()


def compute_block_hash(index: int, prev_hash: str, timestamp: int, validator: str, transactions: list[dict]) -> str:
    payload = {
        "index": index,
        "prev_hash": prev_hash,
        "timestamp": timestamp,
        "validator": validator,
        "transactions": transactions,
    }
    return hash_payload(canonical_json(payload))


def record_create(record: FileRecord) -> dict:
    return {"type": "record-create", "record": record.to_dict()}


def permission_grant(file_hash: str, issuer: str, grantee: str) -> dict:
    return {"type": "permission-grant", "file_hash": file_hash, "issuer": issuer, "grantee": grantee}


def permission_revoke(file_hash: str, issuer: str, grantee: str) -> dict:
    return {"type": "permission-revoke", "file_hash": file_hash, "issuer": issuer, "grantee": grantee}


def genesis() -> Block:
    """Height-0 block: all-zero parent, no transactions, fixed timestamp."""
    block_hash = compute_block_hash(0, GENESIS_PREV_HASH, 0, GENESIS_VALIDATOR, [])
    return Block(0, GENESIS_PREV_HASH, 0, GENESIS_VALIDATOR, (), block_hash)


def select_validator(validators: list[Validator], prev_block_hash: str) -> str:
    """Deterministic stake-weighted pick.

    The first 8 bytes of SHA-256 over the previous hash (as ASCII hex) are
    read as a big-endian integer t; t mod total_stake indexes one stake
    unit under id-lexicographic cumulative ordering.
    """
    total = sum(v.stake for v in validators)
    if total <= 0:
        raise NoStake("total registered stake must be positive")
    t = int.from_bytes(hashlib.sha256(prev_block_hash.encode("ascii")).digest()[:8], "big") % total
    acc = 0
    for v in sorted(validators, key=lambda v: v.id):
        acc += v.stake
        if t < acc:
            return v.id
    raise AssertionError("unreachable: cumulative stake exhausted")


# --- transaction folding ---------------------------------------------------------


def _apply_transaction(state: MutableMapping[str, FileRecord], tx: dict) -> tuple[bool, str]:
    """Validate ``tx`` against ``state`` and apply it when valid.

    A grant or revoke stores a changed copy of the record, so records already
    in ``state`` are never mutated.
    """
    if not isinstance(tx, dict):
        return False, "MalformedTransaction"
    tx_type = tx.get("type")
    if tx_type == "record-create":
        raw = tx.get("record")
        if not isinstance(raw, dict):
            return False, "MalformedTransaction"
        try:
            record = FileRecord.from_dict(raw)
        except (KeyError, TypeError, ValueError):
            return False, "MalformedTransaction"
        if record.file_hash in state:
            return False, "DuplicateFile"
        state[record.file_hash] = record
        return True, "ok"
    if tx_type in ("permission-grant", "permission-revoke"):
        try:
            file_hash, issuer, grantee = tx["file_hash"], tx["issuer"], tx["grantee"]
        except KeyError:
            return False, "MalformedTransaction"
        record = state.get(file_hash)
        if record is None:
            return False, "UnknownFile"
        if issuer != record.owner:
            return False, "NotOwner"
        if tx_type == "permission-grant":
            permissions = record.permissions | {grantee}
        else:
            permissions = record.permissions - {grantee}
        state[file_hash] = record.with_permissions(permissions)
        return True, "ok"
    return False, "MalformedTransaction"


def fold_records(chain: list[Block]) -> dict[str, FileRecord]:
    """Replay the chain into its effective file_hash -> record state."""
    state: dict[str, FileRecord] = {}
    for block in chain:
        for tx in block.transactions:
            _apply_transaction(state, tx)
    return state


def validate_transaction(chain: list[Block], tx: dict) -> tuple[bool, str]:
    """Would ``tx`` be valid appended right after ``chain``? Returns (ok, reason)."""
    state = fold_records(chain)
    return _apply_transaction(state, tx)


class Ledger:
    """The blocks, their folded ``file_hash -> FileRecord`` state and the tip.

    ``Ledger()`` starts at genesis. ``Ledger(blocks)`` verifies ``blocks`` in
    full -- index, genesis shape, link, hash and transactions, in that order
    per block -- while folding them in the same pass, and raises
    ``CorruptChain`` at the first failure. After that, ``append`` checks only
    the new block.
    """

    def __init__(self, blocks: Iterable[Block] | None = None):
        self._load((block, None) for block in ([genesis()] if blocks is None else blocks))

    def _load(self, parsed: Iterable[tuple[Block, bytes | None]]) -> None:
        """Verify and fold ``(block, hash payload)`` pairs; a block without a payload is hashed from its fields."""
        self.blocks: list[Block] = []
        self.records: dict[str, FileRecord] = {}
        for i, (block, payload) in enumerate(parsed):
            if block.index != i:
                raise CorruptChain(i, "index out of sequence")
            if i == 0:
                if block.prev_hash != GENESIS_PREV_HASH or block.transactions or block.validator != GENESIS_VALIDATOR:
                    raise CorruptChain(0, "not a genesis block")
            elif block.prev_hash != self.blocks[-1].block_hash:
                raise CorruptChain(i, "broken link to the previous block")
            if payload is None:
                recomputed = compute_block_hash(
                    block.index, block.prev_hash, block.timestamp, block.validator, list(block.transactions)
                )
            else:
                recomputed = hash_payload(payload)
            if recomputed != block.block_hash:
                raise CorruptChain(i, "block hash mismatch")
            # A failure discards this half-built ledger, so transactions apply to records unstaged.
            for tx in block.transactions:
                valid, reason = _apply_transaction(self.records, tx)
                if not valid:
                    raise CorruptChain(i, reason)
            self.blocks.append(block)
        if not self.blocks:
            raise CorruptChain(0, "the chain is empty")
        self._verified = len(self.blocks)  # blocks[:_verified] are checked and folded into records

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def append(self, transactions: list[dict], validators: list[Validator], timestamp: int) -> Block:
        """Extend the ledger by one proposer-selected block holding ``transactions``.

        Each transaction must be valid in its prefix context (earlier
        transactions of the same block included). The changes are staged on
        copies, so a block that fails leaves the blocks and the state as
        they were.
        """
        staged: dict[str, FileRecord] = {}
        view = ChainMap(staged, self.records)
        for i, tx in enumerate(transactions):
            valid, reason = _apply_transaction(view, tx)
            if not valid:
                raise InvalidTransaction(i, reason)
        tip = self.tip
        validator = select_validator(validators, tip.block_hash)
        index = tip.index + 1
        block_hash = compute_block_hash(index, tip.block_hash, timestamp, validator, list(transactions))
        block = Block(index, tip.block_hash, timestamp, validator, tuple(transactions), block_hash)
        if self._verified == len(self.blocks):
            self._verified += 1
        self.blocks.append(block)
        self.records.update(staged)
        return block

    def verify(self) -> tuple[bool, int | None]:
        """``verify_chain(self.blocks)``, skipped while every block is one this ledger verified.

        Blocks are immutable and only loading and :meth:`append` add verified
        ones, so a chain that holds nothing else is valid. Blocks put on
        ``blocks`` from outside send it to the full ``verify_chain``.
        """
        if len(self.blocks) == self._verified:
            return True, None
        return verify_chain(self.blocks)

    def record(self, file_hash: str) -> FileRecord:
        """A copy of the current record for ``file_hash``; changing it leaves the ledger alone."""
        record = self.records.get(file_hash)
        if record is None:
            raise UnknownFile(f"no ledger record for {file_hash}")
        return replace(record, bead_locations=list(record.bead_locations), permissions=set(record.permissions))


def append_block(chain: list[Block], transactions: list[dict], validators: list[Validator], timestamp: int) -> Block:
    """Extend the chain by one proposer-selected block holding ``transactions``.

    The chain is re-verified first; each transaction must be valid in its
    prefix context (earlier transactions of the same block included).
    """
    try:
        current = Ledger(chain)
    except CorruptChain as exc:
        raise StaleChain(exc.height) from None
    block = current.append(transactions, validators, timestamp)
    chain.append(block)
    return block


def verify_chain(chain: list[Block]) -> tuple[bool, int | None]:
    """Full structural and transactional verification.

    Returns (True, None) or (False, height-of-first-failure).
    """
    try:
        Ledger(chain)
    except CorruptChain as exc:
        return False, exc.height
    return True, None


def find_record(chain: list[Block], file_hash: str) -> FileRecord:
    """The record for ``file_hash`` with grants/revokes folded in chain order."""
    state = fold_records(chain)
    record = state.get(file_hash)
    if record is None:
        raise UnknownFile(f"no ledger record for {file_hash}")
    return record


# --- persistence: chain.jsonl ------------------------------------------------------


def block_line(block: Block) -> bytes:
    return canonical_json(block.to_dict()) + b"\n"


def save_chain(path: Path | str, chain: list[Block]) -> None:
    Path(path).write_bytes(b"".join(block_line(b) for b in chain))


def append_chain_file(path: Path | str, block: Block) -> None:
    """Append one block line; the on-disk file stays append-only."""
    with open(path, "ab") as fh:
        fh.write(block_line(block))
        fh.flush()


def _parse_block_line(line: bytes) -> tuple[Block, bytes]:
    """The block on a canonical line, and its hash payload: ``{`` plus the line after ``"block_hash":<value>,``."""
    raw = json.loads(line.decode("utf-8"))
    if not isinstance(raw, dict) or set(raw) != _BLOCK_KEYS:
        raise ValueError("block line has unexpected fields")
    block = Block(**{**raw, "transactions": tuple(raw["transactions"])})
    # A non-list ``transactions`` dumps differently once held as a tuple, so it is not canonical.
    if type(raw["transactions"]) is not list or canonical_json(raw) != line:
        raise ValueError("block line is not in canonical form")
    prefix = len(b'{"block_hash":') + len(canonical_json(raw["block_hash"])) + 1
    return block, b"{" + line[prefix:]


def _parse_blocks(data: bytes):
    """The blocks of ``chain.jsonl`` bytes and their hash payloads, parsed one line at a time as they are consumed."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    for i, line in enumerate(lines):
        try:
            yield _parse_block_line(line)
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise CorruptChain(i, f"line is corrupt: {exc}") from exc


def read_ledger(path: Path | str) -> Ledger:
    """Parse, hash-check (over each line's own payload slice), link-check and fold ``chain.jsonl`` in one pass.

    Each line is parsed only once the lines before it have verified, so a
    ``CorruptChain`` (a ValueError) names the height (line number) of the
    first failure of any kind. The cyclic garbage collector is held off
    while the blocks load (they make many small objects and no cycles) and
    is left as it was found.
    """
    data = Path(path).read_bytes()
    loaded = Ledger.__new__(Ledger)
    enabled = gc.isenabled()
    gc.disable()
    try:
        loaded._load(_parse_blocks(data))
    finally:
        if enabled:
            gc.enable()
    return loaded


def load_chain(path: Path | str) -> list[Block]:
    """Load and fully verify a persisted chain; raises ValueError on tampering."""
    return read_ledger(path).blocks


def verify_chain_file(path: Path | str) -> tuple[bool, int | None]:
    """Byte-level verification of ``chain.jsonl``.

    Any deviation -- unparsable line, non-canonical bytes, broken hash or
    link, invalid transaction -- reports the height (line number) of the
    first failure.
    """
    try:
        read_ledger(path)
    except OSError:
        return False, 0
    except CorruptChain as exc:
        return False, exc.height
    return True, None
