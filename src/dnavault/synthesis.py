"""Simulated synthesis of oligos into beads and noisy sequencing back out.

The error channel applies two effects, both driven by the deterministic
generator in :mod:`dnavault.rng`:

* whole-oligo dropout at synthesis time (the molecule was never made);
* independent per-base substitutions, at synthesis (corrupts the stored
  molecule) and again per sequencing read (read noise around whatever is
  stored).

Randomness contract (what a re-implementation must reproduce): with
``base = derive_seed(label, rng_seed, bead_id)`` and per-oligo stream seed
``substream(base, oligo_index)`` (label ``"synthesize"``) or per-read seed
``substream(substream(base, oligo_index), read_index)`` (label
``"sequence"``), each stream is an xorshift64* generator whose draws are
consumed in order: for synthesis one dropout draw first, then one draw per
base; for a read, one draw per base. A base substitutes when the draw u
satisfies ``u < floor(rate * 2**64)`` (rate >= 1 always substitutes), and
the replacement is ``(original + 1 + ((u >> 32) % 3)) % 4`` so it always
differs from the original. Reads are emitted round-major: every stored
oligo once at read index 0, then all again at index 1, so a lower coverage
is a prefix of a higher one.

Indels are out of scope; framing stays fixed-length so the consensus step
can vote position by position. Consensus works on the ``(n, L)`` matrix of
base codes: reads are grouped by their seed bases, CRCs are checked on the
packed bytes and votes are taken from per-column base counts.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyBead
from .fountain import OLIGO_HEADER_BYTES, read_oligo_file, write_oligo_file
from .rng import derive_seed, seed_states, step_states, substream_array

_CODE_OF_CHAR = np.zeros(256, dtype=np.uint8)
for _i, _c in enumerate(b"ACGT"):
    _CODE_OF_CHAR[_c] = _i
_CHAR_OF_CODE = np.frombuffer(b"ACGT", dtype=np.uint8)
_BASE_WEIGHTS = np.array([64, 16, 4, 1], dtype=np.uint8)  # a byte's four bases, most significant first


@dataclass(frozen=True)
class ErrorModel:
    substitution_rate: float = 0.0
    oligo_dropout_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("substitution_rate", "oligo_dropout_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")


@dataclass(frozen=True)
class Manifest:
    k: int
    segment_size: int
    original_length: int
    oligo_count: int


@dataclass
class Bead:
    """One simulated glass bead: an identified container of oligos."""

    bead_id: str
    oligos: list[str]
    manifest: Manifest


@dataclass
class ReadSet:
    reads: list[str]
    coverage: int


def _hits(u: np.ndarray, rate: float) -> np.ndarray:
    """Which draws ``u`` satisfy ``u < floor(rate * 2**64)``; at rate >= 1 every draw does."""
    if rate >= 1.0:
        return np.ones(len(u), dtype=bool)  # 2**64 does not fit a uint64
    return u < np.uint64(int(rate * (1 << 64)))


def _to_codes(oligos: list[str]) -> np.ndarray:
    """Equal-length oligos as an ``(n, L)`` matrix of base codes, A=0 C=1 G=2 T=3 (any other symbol reads as A)."""
    length = len(oligos[0])
    flat = np.frombuffer("".join(oligos).encode("ascii"), dtype=np.uint8)
    return _CODE_OF_CHAR[flat].reshape(len(oligos), length)


def _to_strings(codes: np.ndarray) -> list[str]:
    n, length = codes.shape
    text = _CHAR_OF_CODE[codes.reshape(-1)].tobytes().decode("ascii")
    return [text[i * length : (i + 1) * length] for i in range(n)]


def _substitute(codes: np.ndarray, states: np.ndarray, rate: float) -> np.ndarray:
    """A copy of ``codes`` substituted by one draw per stream and base."""
    out = codes.copy()
    for pos in range(codes.shape[1]):
        u = step_states(states)
        if rate <= 0.0:
            continue  # nothing substitutes, but the draw is still taken, as the randomness contract says
        mask = _hits(u, rate)
        if not mask.any():
            continue
        offset = ((u[mask] >> np.uint64(32)) % np.uint64(3)).astype(np.uint8)
        out[mask, pos] = (out[mask, pos] + 1 + offset) % 4
    return out


def synthesize(oligos: list[str], manifest: Manifest, model: ErrorModel, bead_id: str) -> Bead:
    """Produce a bead from designed oligos through the synthesis channel.

    Oligos must all share one length. Dropout removes whole oligos;
    substitutions corrupt the stored copies. Deterministic for a fixed
    (model.rng_seed, bead_id).
    """
    if not oligos:
        return Bead(bead_id, [], manifest)
    if len({len(o) for o in oligos}) != 1:
        raise ValueError("all oligos in a bead must have equal length")

    base = derive_seed("synthesize", model.rng_seed, bead_id)
    seeds = substream_array(base, np.arange(len(oligos)))
    states = seed_states(seeds)

    u0 = step_states(states)  # dropout draw, consumed even at rate 0
    kept = ~_hits(u0, model.oligo_dropout_rate)

    codes = _substitute(_to_codes(oligos), states, model.substitution_rate)
    stored = [s for s, keep in zip(_to_strings(codes), kept) if keep]
    return Bead(bead_id, stored, manifest)


def sequence_bead(bead: Bead, coverage: int, model: ErrorModel) -> ReadSet:
    """Emit ``coverage`` noisy reads of every stored oligo, round-major."""
    if coverage < 1:
        raise ValueError("coverage must be at least 1")
    if not bead.oligos:
        raise EmptyBead(f"bead {bead.bead_id} holds no oligos")

    n = len(bead.oligos)
    base = derive_seed("sequence", model.rng_seed, bead.bead_id)
    oligo_seeds = substream_array(base, np.arange(n))
    # (n, coverage) grid of per-read stream seeds, flattened oligo-major.
    read_seeds = substream_array(oligo_seeds[:, None], np.broadcast_to(np.arange(coverage), (n, coverage)))
    states = seed_states(read_seeds.reshape(-1))

    codes = np.repeat(_to_codes(bead.oligos), coverage, axis=0)
    noisy = _to_strings(_substitute(codes, states, model.substitution_rate))
    # noisy[i * coverage + j] is read j of oligo i; reorder round-major.
    reads = [noisy[i * coverage + j] for j in range(coverage) for i in range(n)]
    return ReadSet(reads, coverage)


def _pack(codes: np.ndarray) -> np.ndarray:
    """``(n, 4B)`` base codes to the ``(n, B)`` bytes they spell, first base in the top bits."""
    return codes.reshape(len(codes), -1, 4) @ _BASE_WEIGHTS


def _crc_valid(raw: np.ndarray) -> np.ndarray:
    """Per row of frame bytes: does the trailing big-endian CRC-32 match the bytes before it?"""
    width = raw.shape[1]
    framed = memoryview(raw.tobytes())
    computed = [zlib.crc32(framed[i * width : (i + 1) * width - 4]) for i in range(len(raw))]
    return np.array(computed, dtype=np.int64) == raw[:, -4:].copy().view(">u4").ravel()


def consensus_reads(read_set: ReadSet, segment_size: int) -> list[str]:
    """Collapse noisy reads into CRC-valid consensus oligos.

    Reads are grouped by their raw 16-base seed field. Within a group the
    CRC-valid reads win outright (they are the molecule); a group with no
    valid read is put to a per-position majority vote, and the voted
    consensus survives only if it passes the CRC. Output preserves the
    first-seen group order.

    CRCs are checked on the packed bytes of the framed reads' base-code
    matrix. A pool whose reads all agree yields its first read unchanged;
    the other pools are voted together from per-column base counts, the
    lowest code (alphabetically first base) winning a tie.
    """
    frame_len = 4 * (OLIGO_HEADER_BYTES + segment_size)
    framed = [read for read in read_set.reads if len(read) == frame_len]  # foreign framing has nothing to vote on
    if not framed:
        return []
    codes = _to_codes(framed)
    valid = _crc_valid(_pack(codes)).tolist()
    groups: dict[str, list[int]] = {}
    for i, read in enumerate(framed):
        groups.setdefault(read[:16], []).append(i)

    consensus: list[str | None] = []
    ballots: list[list[int]] = []  # the pools put to a vote, in output order (their slot reads None)
    for members in groups.values():
        pool = [i for i in members if valid[i]] or members
        first = framed[pool[0]]
        if all(framed[i] == first for i in pool[1:]):
            if valid[pool[0]]:
                consensus.append(first)
        else:
            consensus.append(None)
            ballots.append(pool)
    if not ballots:
        return consensus
    sizes = np.array([len(pool) for pool in ballots])
    votes = codes[np.concatenate(ballots)]
    starts = sizes.cumsum() - sizes
    counts = np.stack([np.add.reduceat(votes == b, starts, axis=0, dtype=np.int32) for b in range(4)])
    voted = counts.argmax(axis=0).astype(np.uint8)  # argmax takes the first, lowest code on a tie
    passed = _crc_valid(_pack(voted)).tolist()
    outcome = iter([text if ok else None for text, ok in zip(_to_strings(voted), passed)])
    filled = [c if c is not None else next(outcome) for c in consensus]
    return [c for c in filled if c is not None]


# --- on-disk bead format --------------------------------------------------------
#
#   beads/<bead_id>/oligos.txt     oligo file format (header + one oligo per line)
#   beads/<bead_id>/manifest.json  {"K":, "segment_size":, "original_length":, "oligo_count":}


def save_bead(beads_dir: Path | str, bead: Bead) -> Path:
    bead_dir = Path(beads_dir) / bead.bead_id
    bead_dir.mkdir(parents=True, exist_ok=True)
    m = bead.manifest
    write_oligo_file(bead_dir / "oligos.txt", bead.oligos, m.k, m.segment_size, m.original_length)
    manifest = {
        "K": m.k,
        "segment_size": m.segment_size,
        "original_length": m.original_length,
        "oligo_count": m.oligo_count,
    }
    (bead_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return bead_dir


def load_bead(beads_dir: Path | str, bead_id: str) -> Bead:
    bead_dir = Path(beads_dir) / bead_id
    raw = json.loads((bead_dir / "manifest.json").read_text(encoding="utf-8"))
    manifest = Manifest(raw["K"], raw["segment_size"], raw["original_length"], raw["oligo_count"])
    oligos, _, _, _ = read_oligo_file(bead_dir / "oligos.txt")
    return Bead(bead_id, oligos, manifest)
