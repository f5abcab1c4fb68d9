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
consumed in order. Synthesis takes one dropout draw first; an oligo is
dropped when it satisfies ``u < floor(rate * 2**64)`` (rate >= 1 always
drops). Substitutions then hit by gaps, not base by base: a draw u gives
the gap to the next hit as the number of entries of
:func:`gap_table` ``t_g = floor((1 - rate)**g * 2**64)``, g = 1..L, that
lie above u, so the gap is g or more with odds ``(1 - rate)**g``. The hit
lands that many bases on from the current one; a gap that runs past the
end of the row means no further hit in it. The next draw picks the
replacement, ``(original + 1 + ((u >> 32) % 3)) % 4``, which always
differs from the original, and the draw after that starts the next gap,
from the base after the hit. At rate 1 the table is all zeros and every
base hits. At substitution rate 0 no stream is seeded or stepped for
substitutions: synthesis takes only the dropout draw, and only when the
dropout rate is above 0, and every read is its stored oligo. Reads are
emitted round-major: every stored oligo once at read index 0, then all
again at index 1, so a lower coverage is a prefix of a higher one.

Indels are out of scope; framing stays fixed-length so the consensus step
can vote position by position. Beads hold ``(n, L)`` matrices of base
codes. The channel records where substitutions hit instead of writing them
into copies, so sequencing builds only the reads that took one. A
:class:`ReadSet` row stands for a count of equal reads: each stored oligo
with a clean read is one row, and at a low rate most reads are such copies;
each read that took a hit is a row of its own. Rows need not be distinct,
since equal rows agree and their votes add up the same. Consensus counts
each row once per read and hands back packed frame bytes: strings appear
only in ``Bead.oligos`` and in the bead files on disk.

A bead is its oligos and nothing else: what a reader needs to decode them
(K, segment size, length) is the ledger record's :class:`CodecParams`,
written once more as the header of the bead's file, and the number of
oligos is the number of rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .dna_codec import CHAR_OF_CODE, CODE_OF_CHAR, codes_to_bytes, oligo_strings
from .errors import EmptyBead
from .fountain import OLIGO_HEADER_BYTES, frame_crcs, split_frames
from .ledger import CodecParams
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


@dataclass(eq=False)
class Bead:
    """One simulated glass bead: an identified container of oligos, held as an ``(n, L)`` base-code matrix."""

    bead_id: str
    codes: np.ndarray

    @property
    def oligos(self) -> list[str]:
        """The stored oligos as strings."""
        return oligo_strings(self.codes)


@dataclass(eq=False)
class ReadSet:
    """The reads of one bead, as rows with counts.

    ``reads`` is an ``(m, L)`` base-code matrix. Row ``i`` is a read's
    content, and ``counts[i]`` is how many reads it stands for. From
    :func:`sequence_bead` a row is a stored oligo standing for its clean
    reads, or one read that took a hit; rows come in the order of their first
    read, round-major, so a lower coverage's rows are a prefix of a higher
    one's. Equal rows may repeat.
    """

    reads: np.ndarray
    counts: np.ndarray


def _hits(u: np.ndarray, rate: float) -> np.ndarray:
    """Which draws ``u`` satisfy ``u < floor(rate * 2**64)``; at rate >= 1 every draw does."""
    if rate >= 1.0:
        return np.ones(len(u), dtype=bool)  # 2**64 does not fit a uint64
    return u < np.uint64(int(rate * (1 << 64)))


@lru_cache(maxsize=32)
def gap_table(rate: float, length: int) -> np.ndarray:
    """``t_g = floor((1 - rate)**g * 2**64)`` for g = 1..length, descending, for 0 < rate <= 1.

    Built in exact integer arithmetic, so it is the same on every machine.
    A draw u gives the gap to a stream's next hit as the number of entries
    above u: the gap is g or more exactly when ``u < t_g``. The array is
    shared by every caller and read-only.
    """
    keep, whole = (1 - Fraction(rate)).as_integer_ratio()
    table = np.array([(keep**g << 64) // whole**g for g in range(1, length + 1)], dtype=np.uint64)
    table.flags.writeable = False
    return table


def _substitute(states: np.ndarray, length: int, rate: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw each stream's hits on a ``length``-base row, gap by gap; returns the hits ``(rows, positions, shifts)``.

    Base ``positions[h]`` of row ``rows[h]`` becomes ``(code + shifts[h]) % 4``.
    A stream draws the gap to its next hit, then the hit's replacement, then
    its next gap, until a gap runs past the end of its row, so it takes about
    1 + 2 * hits draws; each round steps only the streams still live. Hits
    come round by round, rows ascending within a round, and no ``(row,
    position)`` pair repeats. At rate 0 nothing hits and no stream is stepped.
    """
    found = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64))]
    if rate > 0.0:
        ascending = gap_table(rate, length)[::-1].copy()
        rows, at = np.arange(len(states)), np.zeros(len(states), dtype=np.int64)
        while len(rows):
            at += length - np.searchsorted(ascending, step_states(states), side="right")  # the gap: entries above u
            live = at < length
            rows, at, states = rows[live], at[live], states[live]
            found.append((rows, at, step_states(states)))  # the replacement draw
            at = at + 1  # the next gap starts after the hit; ``at`` itself is kept in ``found``
    rows, positions, draws = (np.concatenate(parts) for parts in zip(*found))
    return rows, positions, ((draws >> np.uint64(32)) % np.uint64(3) + np.uint64(1)).astype(np.uint8)


def synthesize(codes: np.ndarray, model: ErrorModel, bead_id: str) -> Bead:
    """Produce a bead from the ``(n, L)`` base-code matrix of designed oligos through the synthesis channel.

    Dropout removes whole oligos; substitutions corrupt the stored copies.
    The designed matrix is not changed. Deterministic for a fixed
    (model.rng_seed, bead_id).
    """
    if model.substitution_rate <= 0.0 and model.oligo_dropout_rate <= 0.0:
        return Bead(bead_id, codes.copy())  # nothing can drop or substitute, so no stream is seeded
    base = derive_seed("synthesize", model.rng_seed, bead_id)
    states = seed_states(substream_array(base, np.arange(len(codes))))
    kept = ~_hits(step_states(states), model.oligo_dropout_rate)  # the dropout draw comes first in every stream
    # Each row's draws come from its own stream, so a dropped row's draws need not be taken.
    stored = codes[kept]
    rows, positions, shifts = _substitute(states[kept], codes.shape[1], model.substitution_rate)
    stored[rows, positions] = (stored[rows, positions] + shifts) % 4
    return Bead(bead_id, stored)


def sequence_bead(bead: Bead, coverage: int, model: ErrorModel) -> ReadSet:
    """Sequence ``coverage`` noisy reads of every stored oligo, as rows with counts.

    Read ``j * n + i`` is read ``j`` of stored row ``i``; without a
    substitution it is that row, so only the reads that took one are built.
    The rows come in order of their first read (see :class:`ReadSet`).
    """
    if coverage < 1:
        raise ValueError("coverage must be at least 1")
    n, length = bead.codes.shape
    if not n:
        raise EmptyBead(f"bead {bead.bead_id} holds no oligos")
    if model.substitution_rate <= 0.0:  # every read is its stored row: no stream is seeded
        return ReadSet(bead.codes.copy(), np.full(n, coverage))

    base = derive_seed("sequence", model.rng_seed, bead.bead_id)
    oligo_seeds = substream_array(base, np.arange(n))
    # (coverage, n) grid of per-read stream seeds: row j holds read j of every oligo.
    read_seeds = substream_array(oligo_seeds[None, :], np.arange(coverage)[:, None])
    reads, positions, shifts = _substitute(seed_states(read_seeds.reshape(-1)), length, model.substitution_rate)

    # Row c < n is stored row c, standing for its reads without a hit; row n + h is the h-th read with
    # a hit, in read order. Each row comes in at its first read.
    hit = np.bincount(reads, minlength=coverage * n) > 0
    noisy = np.flatnonzero(hit)
    clean = ~hit.reshape(coverage, n)
    counts = np.concatenate([clean.sum(axis=0), np.ones(len(noisy), dtype=np.int64)])
    first = np.full(coverage * n, -1)  # the row whose first read each read is
    first[clean.argmax(axis=0) * n + np.arange(n)] = np.arange(n)
    first[noisy] = n + np.arange(len(noisy))
    order = first[first >= 0]  # a stored row all of whose reads took a hit has none
    rows = bead.codes[np.concatenate([np.arange(n), noisy % n])[order]]
    at = np.zeros(n + len(noisy), dtype=np.int64)
    at[order] = np.arange(len(order))
    target = at[first[reads]]  # where each hit's read landed
    rows[target, positions] = (rows[target, positions] + shifts) % 4
    return ReadSet(rows, counts[order])


def consensus_reads(read_set: ReadSet, segment_size: int) -> np.ndarray:
    """Collapse noisy reads into the frames of CRC-valid consensus oligos.

    Reads are grouped by their seed field. Within a group the CRC-valid
    reads win outright (they are the molecule); a group with no valid read
    is put to a per-position majority vote, and the voted consensus
    survives only if it passes the CRC. Returns the ``(m, 8 + segment_size)``
    packed bytes of the survivors, in first-seen group order.

    Each row stands for its count of reads and is packed to bytes and
    CRC-checked once. Groups come from a stable argsort of the packed 4-byte
    seed field. A pool whose rows all agree yields its first row unchanged;
    the other pools are voted together, each row's bases counting once per
    read it stands for, the lowest code (alphabetically first base) winning
    a tie. A voted pool starts from its first row, and the vote is tallied
    only at the columns where some row of the pool differs from it, since
    every other column is unanimous. Reads whose length is not the frame
    length have nothing to vote on and yield no consensus.
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
    whole = frames.view(np.dtype((np.void, width))).ravel()  # one item per row
    agree = np.logical_and.reduceat(whole[pool] == whole[first[pool_group]], pool_starts)
    out, keep = frames[first], valid[first] & agree
    ballot = ~agree[pool_group]
    if ballot.any():
        voters, length = pool[ballot], codes.shape[1]
        weights = read_set.counts[voters]
        box = (np.cumsum(~agree) - 1)[pool_group[ballot]]  # which voted pool each voter is in, ascending
        voted = codes[first[~agree]]  # each voted pool starts from its first row
        who, column = np.nonzero(codes[voters] != voted[box])
        # Only the (pool, column) cells where some voter differs from the first row are contested. There a
        # voter that differs votes for its own code, and the rest of the pool's reads for the first row's.
        cells, cell = np.unique(box[who] * length + column, return_inverse=True)
        tally = np.bincount(cell * 4 + codes[voters[who], column], weights[who], minlength=4 * len(cells))
        tally = tally.reshape(-1, 4)
        flat = voted.reshape(-1)
        tally[np.arange(len(cells)), flat[cells]] = np.bincount(box, weights)[cells // length] - tally.sum(axis=1)
        flat[cells] = tally.argmax(axis=1)  # most votes, then the lowest code
        voted = codes_to_bytes(voted)
        out[~agree], keep[~agree] = voted, frame_crcs(voted) == split_frames(voted)[2]
    seen = np.argsort(order[group_starts])  # groups in the order their first read came
    return out[seen][keep[seen]]


# --- on-disk bead format --------------------------------------------------------
#
#   beads/<bead_id>/oligos.txt
#
# Plain text, one uppercase oligo per line, LF separated, under a single
# header line carrying the record's decode parameters:
#
#   #K=<int> SEG=<int> LEN=<int>

_HEADER = re.compile(rb"#K=\d+ SEG=\d+ LEN=\d+")


def _header(codec: CodecParams) -> bytes:
    return f"#K={codec.k} SEG={codec.segment_size} LEN={codec.original_length}".encode("ascii")


def save_bead(beads_dir: Path | str, bead: Bead, codec: CodecParams) -> Path:
    """Write the bead's oligos under the header of ``codec``; returns the file's path."""
    path = Path(beads_dir) / bead.bead_id / "oligos.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = np.empty((len(bead.codes), bead.codes.shape[1] + 1), dtype=np.uint8)
    lines[:, :-1], lines[:, -1] = bead.codes, 4  # code 4 renders as the line end
    path.write_bytes(_header(codec) + b"\n" + lines.tobytes().translate(CHAR_OF_CODE))
    return path


def load_bead(beads_dir: Path | str, bead_id: str, codec: CodecParams | None = None) -> Bead:
    """The bead written by :func:`save_bead`; its lines, all non-blank and of one length, as codes.

    A damaged file, or a header other than that of ``codec`` when one is
    given, raises ValueError naming it.
    """
    path = Path(beads_dir) / bead_id / "oligos.txt"
    header, _, body = path.read_bytes().partition(b"\n")
    if not header.startswith(b"#"):
        raise ValueError(f"{path}: missing oligo file header")
    if not _HEADER.fullmatch(header):
        raise ValueError(f"{path}: malformed oligo file header")
    if codec is not None and header != _header(codec):
        raise ValueError(f"{path}: header {header.decode()} does not match the record's {_header(codec).decode()}")
    lines = np.frombuffer(body.translate(CODE_OF_CHAR), dtype=np.uint8)
    width = body.find(b"\n") + 1  # the first line with its line end
    rows = lines.reshape(-1, width) if width > 1 and len(lines) % width == 0 else lines[:, None]
    if body and (rows.shape[1] < 2 or (rows[:, -1] != 4).any() or rows[:, :-1].max() > 3):
        raise ValueError(f"{path}: oligo lines are blank or of unequal length")
    return Bead(bead_id, rows[:, :-1])
