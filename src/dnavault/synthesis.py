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
can vote position by position. Beads and reads hold ``(n, L)`` matrices of
base codes, and consensus hands back packed frame bytes: strings appear
only in ``Bead.oligos`` and in the bead files on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dna_codec import codes_to_bytes, oligo_strings
from .errors import EmptyBead
from .fountain import OLIGO_HEADER_BYTES, frame_crcs, read_oligo_file, split_frames, write_oligo_file
from .rng import derive_seed, seed_states, step_states, substream_array


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


@dataclass(eq=False)
class Bead:
    """One simulated glass bead: an identified container of oligos, held as an ``(n, L)`` base-code matrix."""

    bead_id: str
    codes: np.ndarray
    manifest: Manifest

    @property
    def oligos(self) -> list[str]:
        """The stored oligos as strings."""
        return oligo_strings(self.codes)


@dataclass(eq=False)
class ReadSet:
    reads: np.ndarray  # (coverage * n, L) base codes, round-major
    coverage: int


def _hits(u: np.ndarray, rate: float) -> np.ndarray:
    """Which draws ``u`` satisfy ``u < floor(rate * 2**64)``; at rate >= 1 every draw does."""
    if rate >= 1.0:
        return np.ones(len(u), dtype=bool)  # 2**64 does not fit a uint64
    return u < np.uint64(int(rate * (1 << 64)))


def _substitute(codes: np.ndarray, states: np.ndarray, rate: float) -> np.ndarray:
    """Substitute the rows of ``codes`` in place by one draw per stream (row) and base; returns ``codes``."""
    for pos in range(codes.shape[1]):
        u = step_states(states)
        if rate <= 0.0:
            continue  # nothing substitutes, but the draw is still taken, as the randomness contract says
        hits = np.flatnonzero(_hits(u, rate))
        offset = ((u[hits] >> np.uint64(32)) % np.uint64(3)).astype(np.uint8)
        codes[hits, pos] = (codes[hits, pos] + 1 + offset) % 4
    return codes


def synthesize(codes: np.ndarray, manifest: Manifest, model: ErrorModel, bead_id: str) -> Bead:
    """Produce a bead from the ``(n, L)`` base-code matrix of designed oligos through the synthesis channel.

    Dropout removes whole oligos; substitutions corrupt the stored copies.
    The designed matrix is not changed. Deterministic for a fixed
    (model.rng_seed, bead_id).
    """
    base = derive_seed("synthesize", model.rng_seed, bead_id)
    states = seed_states(substream_array(base, np.arange(len(codes))))
    kept = ~_hits(step_states(states), model.oligo_dropout_rate)  # dropout draw, consumed even at rate 0
    # Each row's draws come from its own stream, so a dropped row's draws need not be taken.
    return Bead(bead_id, _substitute(codes[kept], states[kept], model.substitution_rate), manifest)


def sequence_bead(bead: Bead, coverage: int, model: ErrorModel) -> ReadSet:
    """Emit ``coverage`` noisy reads of every stored oligo as one matrix, round-major."""
    if coverage < 1:
        raise ValueError("coverage must be at least 1")
    n = len(bead.codes)
    if not n:
        raise EmptyBead(f"bead {bead.bead_id} holds no oligos")

    base = derive_seed("sequence", model.rng_seed, bead.bead_id)
    oligo_seeds = substream_array(base, np.arange(n))
    # (coverage, n) grid of per-read stream seeds: row j holds read j of every oligo.
    read_seeds = substream_array(oligo_seeds[None, :], np.arange(coverage)[:, None])
    reads = np.tile(bead.codes, (coverage, 1))
    return ReadSet(_substitute(reads, seed_states(read_seeds.reshape(-1)), model.substitution_rate), coverage)


def consensus_reads(read_set: ReadSet, segment_size: int) -> np.ndarray:
    """Collapse noisy reads into the frames of CRC-valid consensus oligos.

    Reads are grouped by their seed field. Within a group the CRC-valid
    reads win outright (they are the molecule); a group with no valid read
    is put to a per-position majority vote, and the voted consensus
    survives only if it passes the CRC. Returns the ``(m, 8 + segment_size)``
    packed bytes of the survivors, in first-seen group order.

    Each read is packed to bytes and CRC-checked once. Groups come from a
    stable argsort of the packed 4-byte seed field. A pool whose reads all
    agree yields its first read unchanged; the other pools are voted
    together from per-column base counts, the lowest code (alphabetically
    first base) winning a tie. Reads whose length is not the frame length
    have nothing to vote on and yield no consensus.
    """
    width = OLIGO_HEADER_BYTES + segment_size
    codes = read_set.reads
    if codes.shape[1] != 4 * width or not len(codes):
        return np.zeros((0, width), dtype=np.uint8)
    frames = codes_to_bytes(codes)
    seeds, _, checksums = split_frames(frames)
    valid = frame_crcs(frames) == checksums
    order = np.argsort(seeds, kind="stable")  # reads grouped by seed, in read order within a group
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = seeds[order[1:]] != seeds[order[:-1]]
    group_starts, group = np.flatnonzero(opens), np.cumsum(opens) - 1  # group number per sorted read
    pooled = valid[order] | ~np.logical_or.reduceat(valid[order], group_starts)[group]
    pool, pool_group = order[pooled], group[pooled]
    pool_starts = np.searchsorted(pool_group, np.arange(len(group_starts)))  # every group keeps a pool
    first = pool[pool_starts]
    agree = np.logical_and.reduceat((frames[pool] == frames[first[pool_group]]).all(axis=1), pool_starts)
    out, keep = frames[first], valid[first] & agree
    ballot = ~agree[pool_group]
    if ballot.any():
        sizes = np.diff(pool_starts, append=len(pool))[~agree]
        votes = codes[pool[ballot]]
        counts = np.stack([np.add.reduceat(votes == b, sizes.cumsum() - sizes, axis=0, dtype=np.int32) for b in range(4)])
        voted = codes_to_bytes(counts.argmax(axis=0).astype(np.uint8))  # argmax takes the first, lowest code on a tie
        out[~agree], keep[~agree] = voted, frame_crcs(voted) == split_frames(voted)[2]
    seen = np.argsort(order[group_starts])  # groups in the order their first read came
    return out[seen][keep[seen]]


# --- on-disk bead format --------------------------------------------------------
#
#   beads/<bead_id>/oligos.txt     oligo file format (header + one oligo per line)
#   beads/<bead_id>/manifest.json  {"K":, "segment_size":, "original_length":, "oligo_count":}


def save_bead(beads_dir: Path | str, bead: Bead) -> Path:
    bead_dir = Path(beads_dir) / bead.bead_id
    bead_dir.mkdir(parents=True, exist_ok=True)
    m = bead.manifest
    write_oligo_file(bead_dir / "oligos.txt", bead.codes, m.k, m.segment_size, m.original_length)
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
    codes, _, _, _ = read_oligo_file(bead_dir / "oligos.txt")
    return Bead(bead_id, codes, manifest)
