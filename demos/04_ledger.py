"""Walkthrough: the append-only ledger and stake-weighted validation.

Blocks link by hash over a canonical serialization; proposers are picked
in proportion to stake; any tampering with the persisted chain file is
detected at the exact height. Run it:

    python demos/04_ledger.py
"""

import hashlib
import random
import tempfile
from collections import Counter
from pathlib import Path

from dnavault.errors import CorruptChain
from dnavault.ledger import (
    CodecParams,
    FileRecord,
    Validator,
    append_block,
    genesis,
    permission_grant,
    read_ledger,
    record_create,
    save_chain,
    select_validator,
    verify_chain,
)

validators = [Validator("ant", 1), Validator("bee", 3), Validator("cow", 6)]

print("=" * 70)
print("1. BUILDING A CHAIN")
print("=" * 70)
chain = [genesis()]
record = FileRecord(
    file_hash=hashlib.sha256(b"a stored file").hexdigest(),
    owner="alice",
    timestamp=1_700_000_000,
    bead_locations=[("bead.0", "node-1"), ("bead.0", "node-2")],
    permissions=set(),
    codec_params=CodecParams(8, 32, 222),
)
append_block(chain, [record_create(record)], validators, 1_700_000_001)
append_block(chain, [permission_grant(record.file_hash, "alice", "bob")], validators, 1_700_000_002)
for block in chain:
    print(f"  height {block.index}: validator={block.validator:7} txs={len(block.transactions)} hash={block.block_hash[:16]}...")
print(f"  verify_chain -> {verify_chain(chain)}")

print()
print("=" * 70)
print("2. STAKE-PROPORTIONAL PROPOSER SELECTION")
print("=" * 70)
rng = random.Random(0)
draws = 30_000
counts = Counter(
    select_validator(validators, rng.getrandbits(256).to_bytes(32, "big").hex()) for _ in range(draws)
)
for v in validators:
    share = counts[v.id] / draws
    print(f"  {v.id:4} stake={v.stake}  selected {share:6.1%}  (stake share {v.stake / 10:.0%})")

print()
print("=" * 70)
print("3. TAMPER EVIDENCE ON THE PERSISTED FILE")
print("=" * 70)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "chain.jsonl"
    save_chain(path, chain)
    blob = bytearray(path.read_bytes())
    print(f"  chain.jsonl: {len(blob)} bytes, {blob.count(10)} lines")
    for pos in (40, len(blob) // 2, len(blob) - 5):
        tampered = bytearray(blob)
        tampered[pos] ^= 0x01
        path.write_bytes(bytes(tampered))
        try:
            read_ledger(path)
            print(f"  flip one bit at byte {pos:4} -> undetected")
        except CorruptChain as exc:
            print(f"  flip one bit at byte {pos:4} -> CorruptChain, first failure at height {exc.height}")
    path.write_bytes(bytes(blob))
    print(f"  restored file            -> loads at height {read_ledger(path).tip.index}")
