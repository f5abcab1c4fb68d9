"""Correctness checks on what the program returns and leaves on disk.

Everything here is computed by the benchmark's own code from the bytes:
the generator's copy of each file, ``chain.jsonl`` (through
:mod:`chainfmt`) and the bead files. Each check raises
:class:`OracleError` naming what is wrong.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from pathlib import Path

import chainfmt

BASES = b"ACGT"
_TO_BASE4 = bytes.maketrans(b"ACGT", b"0123")


class OracleError(Exception):
    """The program returned or stored something wrong."""


def check_receipt(data: bytes, receipt_hash: str) -> None:
    expected = hashlib.sha256(data).hexdigest()
    if receipt_hash != expected:
        raise OracleError(f"receipt names {receipt_hash}, the file hashes to {expected}")


def check_download(data: bytes, got: bytes) -> None:
    if got != data:
        diff = next((i for i, (a, b) in enumerate(zip(data, got)) if a != b), min(len(data), len(got)))
        raise OracleError(f"download differs from the stored file at byte {diff} ({len(got)} of {len(data)} bytes)")


def check_chain(state_dir: Path, validators: list[dict], height: int, tip: dict) -> dict[str, dict]:
    """Re-derive ``chain.jsonl``; it must reach ``height`` and end at ``tip``.

    ``tip`` is the program's own chain report (``height``, ``tip_hash``).
    Returns the folded records, file hash -> record.
    """
    try:
        blocks, records = chainfmt.verify((state_dir / "chain.jsonl").read_bytes(), validators)
    except chainfmt.ChainError as exc:
        raise OracleError(f"chain.jsonl: {exc}") from exc
    last = blocks[-1]
    if last["index"] != height:
        raise OracleError(f"chain.jsonl reaches height {last['index']}, the run should reach {height}")
    if (tip.get("height"), tip.get("tip_hash")) != (last["index"], last["block_hash"]):
        raise OracleError(f"the program reports tip {tip}, chain.jsonl ends at {last['index']} {last['block_hash']}")
    return records


def _oligo_crc_ok(line: bytes) -> bool:
    raw = int(line.translate(_TO_BASE4), 4).to_bytes(len(line) // 4, "big")
    return zlib.crc32(raw[:-4]) == int.from_bytes(raw[-4:], "big")


def check_beads(
    state_dir: Path,
    records: dict[str, dict],
    file_hashes: list[str],
    *,
    replication: int,
    overhead: float,
    zero_noise: bool,
) -> int:
    """Check the bead files of ``file_hashes``; returns the bases they hold.

    Every base is A, C, G or T; every oligo has 4*(8+segment_size) bases;
    at zero noise every oligo passes its CRC-32; each file stores at least
    ceil(overhead*K) oligos; each bead is placed on ``replication``
    distinct nodes.
    """
    bases = 0
    for file_hash in file_hashes:
        record = records[file_hash]
        codec = record["codec_params"]
        frame = 4 * (8 + codec["segment_size"])
        header = f"#K={codec['K']} SEG={codec['segment_size']} LEN={codec['original_length']}".encode()
        nodes: dict[str, list[str]] = {}
        for bead_id, node_id in record["bead_locations"]:
            nodes.setdefault(bead_id, []).append(node_id)
        stored = 0
        for bead_id, placed in nodes.items():
            if len(set(placed)) != len(placed) or len(placed) != replication:
                raise OracleError(f"bead {bead_id} sits on {placed}, not on {replication} distinct nodes")
            lines = (state_dir / "beads" / bead_id / "oligos.txt").read_bytes().split(b"\n")
            if lines[0] != header or lines[-1] != b"":
                raise OracleError(f"bead {bead_id}: header {lines[0][:60]!r} does not match the ledger record")
            oligos = lines[1:-1]
            if b"".join(oligos).translate(None, BASES):
                raise OracleError(f"bead {bead_id} holds a base other than A, C, G or T")
            if any(len(o) != frame for o in oligos):
                raise OracleError(f"bead {bead_id} holds an oligo whose length is not {frame}")
            if zero_noise and not all(_oligo_crc_ok(o) for o in oligos):
                raise OracleError(f"bead {bead_id} holds an oligo that fails its CRC-32 at zero noise")
            stored += len(oligos)
            bases += len(oligos) * frame
        if stored < math.ceil(overhead * codec["K"]):
            raise OracleError(f"file {file_hash} stores {stored} oligos for K={codec['K']}")
    return bases


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
