"""Rateless fountain coding of files into DNA oligos.

A file is cut into K fixed-size segments. Each output *droplet* XORs a
pseudo-random subset of segments; the subset is fully determined by the
droplet's 32-bit seed, so only the seed travels with the payload. Decoding
peels: resolve any droplet that covers exactly one unknown segment, XOR the
resolved segment out of every other droplet, repeat.

Wire framing of one droplet as an oligo::

    bytes_to_dna( seed(4B, big-endian) || payload(segment_size B) || CRC-32(4B) )

The CRC (standard reflected 0xEDB88320 polynomial, as implemented by
zlib.crc32) covers seed and payload, so any single-base substitution is
detected. Degree sampling uses the robust soliton distribution, its c and
delta fixed because no record stores them; candidate droplets whose oligo
fails the biological-plausibility screen (homopolymer runs, GC window) are
discarded and regenerated from the next seed.

Each droplet's plan (degree and segment indices) is derived once, in batch,
and bit-identically to the scalar :func:`droplet_plan`: the encoder plans,
XORs, frames and screens candidates a batch at a time on numpy arrays and
hands back a :class:`DropletBatch` (frames, base codes, int32 CSR plans)
written once: kept frames and plans go straight to it, part by part, and the
codes are rendered from its frames. Decoding plans seeds and payload rows in
one batch. A batch of at least 16,384 seeds (two parts of ``_PART``) is
split: the calling thread and one pool worker per further usable core plan,
XOR, frame and screen its parts in turn, and the results are taken in seed
order, so they equal a serial call's. Both peel with one core, on the calling
thread, over CSR index arrays in linear passes: one sort of composite keys
groups the plan entries by segment, each round counts the holders of the
segments it resolved down with one ``bincount``, and a scan of a droplet's
plan row finds its last unresolved segment. The peel's rounds depend on one
another, and the bead reads stay serial because the benchmark's tracer keeps
its operation per thread.
The scalar :func:`droplet_plan`, :class:`Droplet` and the one-oligo string
helpers serve only the tests and ``perfbench/tracing.py`` ``TRACED``.
"""

from __future__ import annotations

import math
import os
import struct
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cache

import numpy as np

from .dna_codec import bytes_to_codes, bytes_to_dna, dna_to_bytes, oligo_codes
from .errors import ChecksumMismatch, DecodeFailed, EmptyInput, LengthError, ScreenStarvation
from .rng import Xorshift64Star, plan_batch

DEFAULT_SOLITON_C = 0.1
DEFAULT_SOLITON_DELTA = 0.05

OLIGO_HEADER_BYTES = 8  # 4-byte seed + 4-byte CRC


@dataclass(frozen=True)
class Droplet:
    seed: int
    payload: bytes
    checksum: int


@dataclass(frozen=True, eq=False)
class DropletBatch:
    """Droplets as rows: ``frames[i]`` is seed || payload || CRC-32, ``codes[i]`` its
    base codes, and its plan is ``indices[offsets[i]:offsets[i + 1]]``."""

    frames: np.ndarray
    codes: np.ndarray
    offsets: np.ndarray
    indices: np.ndarray


class RobustSoliton:
    """Degree distribution over 1..K used for droplet generation.

    Ideal soliton (1/K at degree 1, 1/(d(d-1)) above) plus the ripple term
    R/(dK) below the spike at floor(K/R) and R*ln(R/delta)/K at it, where
    R = c * ln(K/delta) * sqrt(K); normalized to sum to one.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("segment count must be positive")
        self.k = k

        # Built with numpy in the scalar loop's arithmetic; the left-to-right cumsum totals as Python's
        # float sum did before 3.12 switched it to compensated summation, so the CDF is one on every interpreter.
        d = np.arange(k + 1, dtype=np.int64)
        weights = np.zeros(k + 1)
        weights[1] = 1.0 / k
        weights[2:] = 1.0 / (d[2:] * (d[2:] - 1))
        r = DEFAULT_SOLITON_C * math.log(k / DEFAULT_SOLITON_DELTA) * math.sqrt(k)
        spike = int(k / r) if r > 0 else 0
        ripple = d[1 : min(spike, k + 1)]
        weights[ripple] += r / (ripple * k)
        if 1 <= spike <= k:
            weights[spike] += r * math.log(r / DEFAULT_SOLITON_DELTA) / k
        self.probabilities = weights[1:] / np.cumsum(weights)[-1]
        self.cdf = np.cumsum(self.probabilities)
        self.cdf[-1] = 1.0

    def sample(self, rng: Xorshift64Star) -> int:
        """Draw a degree in 1..K (one uniform draw, inverse CDF)."""
        return bisect_left(self.cdf, rng.random()) + 1


@dataclass(frozen=True)
class OligoScreen:
    """Synthesis-plausibility screen applied to candidate oligos."""

    max_homopolymer: int = 4
    gc_min: float = 0.25
    gc_max: float = 0.75

    def accepts(self, seq: str) -> bool:
        """:meth:`accepts_codes` on one string (the empty one passes); kept for ``perfbench/tracing.py`` ``TRACED``."""
        return not seq or bool(self.accepts_codes(oligo_codes([seq]))[0])

    def accepts_codes(self, codes: np.ndarray) -> np.ndarray:
        """Which rows of an ``(n, L)`` matrix of base codes (A=0 .. T=3, L >= 1) pass the screen.

        A run longer than the cap is ``max_homopolymer`` equal neighbours in a
        row; the GC fraction is the count of C and G codes over L. Rows are
        screened 1,024 at a time, which bounds the temporaries.
        """
        ok = np.empty(len(codes), dtype=bool)
        for start in range(0, len(codes), 1024):
            rows = codes[start : start + 1024]
            runs = rows[:, 1:] == rows[:, :-1]
            for _ in range(self.max_homopolymer - 1):
                runs = runs[:, :-1] & runs[:, 1:]  # now: this many neighbours in a row are equal
            gc = ((rows == 1) | (rows == 2)).sum(axis=1) / rows.shape[1]
            ok[start : start + len(rows)] = ~runs.any(axis=1) & (self.gc_min <= gc) & (gc <= self.gc_max)
        ok &= self.max_homopolymer > 0
        return ok


DEFAULT_SCREEN = OligoScreen()


def fragment(data: bytes, segment_size: int) -> tuple[np.ndarray, int]:
    """``data`` as the rows of a zero-padded ``(K, segment_size)`` uint8 matrix, and its true length."""
    if not data:
        raise EmptyInput("cannot fragment zero bytes")
    if segment_size < 1:
        raise ValueError("segment_size must be positive")
    k = -(-len(data) // segment_size)
    return np.frombuffer(data.ljust(k * segment_size, b"\0"), np.uint8).reshape(k, segment_size), len(data)


def droplet_plan(seed: int, k: int, dist: RobustSoliton) -> tuple[int, list[int]]:
    """Degree and sorted segment indices from a droplet seed; the tests' scalar reference for :func:`plan_droplets`."""
    rng = Xorshift64Star(seed)
    degree = min(dist.sample(rng), k)
    return degree, rng.sample_distinct(degree, k)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_CORES = _usable_cores()

# Seeds per part of a split batch. Splitting a batch of planning between two
# cores lost below about 7k seeds (3.5k: 5.2 -> 10.1 ms; 7k: 19.7 -> 20.7 ms)
# and won above (13.9k: 34.8 -> 27.1 ms; 55.7k: 165 -> 98 ms), as GIL
# hand-offs between small numpy calls outweigh the overlap; so a batch splits
# only into parts of this size, at least two of them. Small parts taken in
# turn by the calling thread also keep the workers' malloc arenas small.
_PART = 8192


@cache
def _pool():
    from concurrent.futures import ThreadPoolExecutor  # here, not at the top: its import costs every process ~8 ms

    return ThreadPoolExecutor(max(_CORES - 1, 1), thread_name_prefix="dnavault-plan")


def _parts(work, seeds: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """``work`` on ``seeds``, as a list of its results in seed order: one, or one per part of a split batch.

    A batch of at least two parts, on more than one usable core, is cut into parts of ``_PART`` seeds: the calling
    thread and ``_CORES - 1`` pool workers take them in turn. ``work`` must not call a traced function: the tracer
    keeps its operation per thread.
    """
    if _CORES < 2 or len(seeds) < 2 * _PART:
        return [work(seeds)]
    parts = [seeds[start : start + _PART] for start in range(0, len(seeds), _PART)]
    results = [None] * len(parts)
    todo = deque(range(len(parts)))

    def drain():
        while True:
            try:
                i = todo.popleft()  # deque pops are atomic, so each part runs once
            except IndexError:
                return
            results[i] = work(parts[i])

    helpers = [_pool().submit(drain) for _ in range(min(_CORES, len(parts)) - 1)]
    try:
        drain()
    finally:
        for helper in helpers:
            if not helper.cancel():  # a helper that never started has nothing to hand back
                helper.result()
    return results


def plan_droplets(seeds, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`droplet_plan` for many seeds at once, as CSR ``(offsets, indices)``; large batches split across cores."""
    if k >= 1 << 31:
        raise ValueError(f"K = {k} segments: plans are int32, so K must stay below 2**31")
    cdf = RobustSoliton(k).cdf

    def plan(part):
        offsets, indices = plan_batch(part, cdf, k)
        return offsets[1:] - offsets[:-1], indices

    parts = _parts(plan, np.asarray(seeds, dtype=np.uint64))
    sizes, indices = parts[0] if len(parts) == 1 else (np.concatenate(column) for column in zip(*parts))
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets, indices


def _segment_words(payloads: np.ndarray) -> np.ndarray:
    """``(n, segment_size)`` payload bytes as rows of native uint64 words, zero-padded to whole words (XOR is bytewise)."""
    n, size = payloads.shape
    words = np.zeros((n, -(-size // 8) * 8), dtype=np.uint8)
    words[:, :size] = payloads
    return words.view(np.uint64)


def split_frames(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeds, ``(n, segment_size)`` payloads and CRC fields of ``(n, 8 + segment_size)`` frame rows."""
    words = np.ascontiguousarray(frames[:, [0, 1, 2, 3, -4, -3, -2, -1]]).view(">u4")  # the fields, big-endian
    return words[:, 0], frames[:, 4:-4], words[:, 1]


# zlib's CRC-32 (reflected polynomial 0xEDB88320) as lookup tables: _CRC_BYTE steps the state over one byte;
# _CRC_LOW[c & 0xFFFF] ^ _CRC_HIGH[c >> 16] steps it over four, c being the state XOR their little-endian word.
_CRC_BYTE = np.arange(256, dtype=np.uint32)
for _ in range(8):
    _CRC_BYTE = np.where(_CRC_BYTE & 1, (_CRC_BYTE >> 1) ^ 0xEDB88320, _CRC_BYTE >> 1)
_CRC_AHEAD = [_CRC_BYTE]  # entry j: a byte's step followed by j zero bytes
for _ in range(3):
    _CRC_AHEAD.append((_CRC_AHEAD[-1] >> 8) ^ _CRC_BYTE[_CRC_AHEAD[-1] & 0xFF])
_LOW, _HIGH = np.arange(1 << 16, dtype=np.uint16) & 0xFF, np.arange(1 << 16, dtype=np.uint16) >> 8
_CRC_LOW, _CRC_HIGH = _CRC_AHEAD[3][_LOW] ^ _CRC_AHEAD[2][_HIGH], _CRC_AHEAD[1][_LOW] ^ _CRC_AHEAD[0][_HIGH]


def frame_crcs(frames: np.ndarray) -> np.ndarray:
    """``zlib.crc32`` of each frame row's seed and payload (all but its last 4 bytes), four byte columns at a time."""
    data = frames[:, :-4]
    whole = data.shape[1] // 4 * 4
    crc = np.full(len(frames), 0xFFFFFFFF, dtype=np.uint32)
    for word in np.ascontiguousarray(data[:, :whole]).view("<u4").T:
        crc ^= word
        crc = _CRC_LOW.take(crc & 0xFFFF) ^ _CRC_HIGH.take(crc >> 16)
    for column in data[:, whole:].T:
        crc = _CRC_BYTE.take((crc ^ column) & 0xFF) ^ (crc >> 8)
    return crc ^ np.uint32(0xFFFFFFFF)


# Candidates planned, framed and screened per batch; bounds the temporaries.
_ENCODE_BATCH = 16384


def encode_droplets(
    segments: np.ndarray,
    count: int,
    rng_seed: int,
    *,
    screen: OligoScreen | None = None,
) -> DropletBatch:
    """Generate exactly ``count`` droplets over the rows of ``segments`` from a master seed.

    Candidate 32-bit droplet seeds come from the top bits of an
    xorshift64* stream seeded with ``rng_seed``; duplicates are skipped so
    every droplet is distinct. With a screen, candidates whose oligo fails
    it are dropped and the next seed is tried. Candidates are planned,
    framed and screened in batches; the result holds the first ``count``
    accepted candidates in seed order: their frames, base codes and plans.
    """
    if not len(segments):
        raise EmptyInput("no segments to encode")
    if count < 1:
        raise ValueError("count must be positive")
    k, segment_size = segments.shape
    cdf = RobustSoliton(k).cdf
    word_columns = np.ascontiguousarray(_segment_words(segments).T)  # XORed a column at a time: smaller gathers

    def candidates(seeds):
        """Plan, XOR, frame and screen candidates: all their frames and CSR plans, and which pass."""
        offsets, indices = plan_batch(seeds, cdf, k)
        n = len(seeds)
        xored = np.empty((n, len(word_columns)), dtype=np.uint64)
        positions = indices.astype(np.intp)  # numpy indexes faster with these than with int32
        for w, column in enumerate(word_columns):
            xored[:, w] = np.bitwise_xor.reduceat(column[positions], offsets[:-1])
        del positions
        raw = np.empty((n, OLIGO_HEADER_BYTES + segment_size), dtype=np.uint8)
        raw[:, :4] = seeds.astype(">u4").view(np.uint8).reshape(n, 4)
        raw[:, 4:-4] = xored.view(np.uint8)[:, :segment_size]
        raw[:, -4:] = frame_crcs(raw).astype(">u4").view(np.uint8).reshape(n, 4)
        accepted = np.ones(n, dtype=bool) if screen is None else screen.accepts_codes(bytes_to_codes(raw))
        return raw, offsets, indices, accepted

    master = Xorshift64Star(rng_seed)
    frames = np.empty((count, OLIGO_HEADER_BYTES + segment_size), dtype=np.uint8)
    offsets = np.zeros(count + 1, dtype=np.int64)
    plans = []  # the accepted plan indices of each part, in seed order
    done = 0
    seen = np.zeros(0, dtype=np.uint64)  # every candidate seed drawn so far, sorted
    attempts = 0
    budget = 200 * count + 1000  # screen starvation guard
    while done < count:
        if attempts >= budget:
            raise ScreenStarvation(f"screen accepted {done} of {count} droplets in {attempts} attempts")
        # Size the batch by the accept ratio so far, so that one more batch usually
        # completes the set; while nothing has passed the screen, draw the rest of the budget.
        need = count - done
        if not attempts:
            want = need
        elif done:
            want = need * attempts // done + 1
        else:
            want = budget - attempts
        # One round of draws, capped by the budget; a seed drawn before is skipped.
        draws = min(want, _ENCODE_BATCH, budget - attempts)
        attempts += draws
        values = master.next_u64s(draws) >> np.uint64(32)
        # Sorted keys seed << 32 | when (0 for a seed seen before, 1.. in this round's stream order):
        # each seed's first key is its earliest draw, a new seed only if that came in this round.
        when = np.arange(1, draws + 1, dtype=np.uint64)
        keys = np.sort(np.concatenate([seen << np.uint64(32), values << np.uint64(32) | when]))
        earliest = keys[np.concatenate(([True], (keys[1:] >> np.uint64(32)) != (keys[:-1] >> np.uint64(32))))]
        seen, when = earliest >> np.uint64(32), earliest & np.uint64(0xFFFFFFFF)
        seeds = values[np.sort(when[when > 0]).astype(np.int64) - 1]
        if not len(seeds):
            continue
        parts = _parts(candidates, seeds)
        for i in range(len(parts)):
            raw, part_offsets, indices, accepted = parts[i]
            parts[i] = None  # each part goes once it is copied
            accepted &= np.cumsum(accepted) <= count - done  # the first ones that complete the set
            taken = int(accepted.sum())
            frames[done : done + taken] = raw[accepted]
            sizes = part_offsets[1:] - part_offsets[:-1]
            offsets[done + 1 : done + taken + 1] = offsets[done] + np.cumsum(sizes[accepted])
            plans.append(indices[accepted.repeat(sizes)])
            done += taken
        del raw, part_offsets, indices, accepted  # not alive during the next batch
    plans = plans[0] if len(plans) == 1 else np.concatenate(plans)  # the parts go before the codes come
    return DropletBatch(frames, bytes_to_codes(frames), offsets, plans)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenation of ``arange(start, start + length)`` over the pairs, and where each range begins in it."""
    begins = lengths.cumsum() - lengths
    positions = (starts - begins).repeat(lengths)
    positions += np.arange(len(positions))
    return positions, begins


def _holders_by_segment(offsets: np.ndarray, indices: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The droplets holding each segment: segment ``s``'s are ``holders[starts[s]:starts[s + 1]]``, ascending, int32.

    One in-place sort of the plan entries' composite keys ``segment << b | droplet``, ``b`` the bit length of the
    largest droplet number, int32 while they fit; a binary search finds the group starts.
    """
    if k >= 1 << 31:
        raise ValueError(f"K = {k} segments: plans are int32, so K must stay below 2**31")
    n = len(offsets) - 1
    bits = int(n - 1).bit_length()
    if k << bits >= 1 << 63:
        raise ValueError("plan too large: segment-droplet keys would overflow int64")
    keys = np.arange(n, dtype=np.int32 if k << bits <= 1 << 31 else np.int64).repeat(offsets[1:] - offsets[:-1])
    for start in range(0, len(keys), 1 << 16):  # the shifted segments a chunk at a time: no second plan-sized array
        keys[start : start + (1 << 16)] |= indices[start : start + (1 << 16)].astype(keys.dtype) << bits
    keys.sort()
    starts = np.searchsorted(keys, ((np.arange(k + 1) << bits) - 1).astype(keys.dtype), side="right")  # keys < s << b
    keys &= (1 << bits) - 1  # now the holders
    return keys.astype(np.int32, copy=False), starts


def _peel_csr(offsets: np.ndarray, indices: np.ndarray, values: np.ndarray | None, k: int):
    """Shared peeling core over CSR index arrays; ``values`` may be None for a structure-only pass.

    Per droplet it keeps the count of unresolved indices. Each round resolves every droplet then at count one (one
    per segment; the rest are redundant) and strips the resolved segments from the droplets that hold them by counting
    those holders; a droplet that resolved or went redundant counts on below zero and never joins a ripple again. The
    droplets that came down to count one form the next ripple, and a scan of each one's plan row finds its one
    unresolved index. The resolved set is the peeling closure, so it does not depend on the order of resolution. With
    values, a segment resolved by a droplet is the droplet's value XOR every other segment of its plan, all resolved
    in earlier rounds; the rounds are replayed in order at the end, once the holder index is gone. Returns
    ``(resolved, segment_values)``: a boolean mask over the K segments and, with values, their ``(K, w)`` values
    (unresolved rows 0).
    """
    n = len(offsets) - 1
    degrees = offsets[1:] - offsets[:-1]
    remaining = degrees.copy()
    holders, starts = _holders_by_segment(offsets, indices, k)
    resolved = np.zeros(k, dtype=bool)
    slot = np.zeros(k, dtype=np.int64)  # reused buffer: keeps one of several droplets resolving a segment
    rounds = []  # (droplets, the segments they resolved) per round
    ripple = np.flatnonzero(remaining == 1)
    while len(ripple):
        plans = indices[_ranges(offsets[ripple], degrees[ripple])[0]]
        segs = plans[~resolved[plans]].astype(np.intp)  # one unresolved index per row, in ripple order
        remaining[ripple] = 0
        slot[segs] = ripple
        keep = slot[segs] == ripple
        ripple, segs = ripple[keep], segs[keep]
        resolved[segs] = True
        rounds.append((ripple, segs))
        remaining -= np.bincount(holders[_ranges(starts[segs], starts[segs + 1] - starts[segs])[0]],
                                 minlength=n)
        ripple = np.flatnonzero(remaining == 1)
    if values is None:
        return resolved, None
    del holders, starts, remaining, slot  # the replay needs none of them
    seg_values = np.zeros((k, values.shape[1]), dtype=values.dtype)
    for droplets, segs in rounds:
        edges, begins = _ranges(offsets[droplets], degrees[droplets])
        plan_values = seg_values[indices[edges]]  # the segment being resolved still reads 0
        seg_values[segs] = values[droplets] ^ np.bitwise_xor.reduceat(plan_values, begins, axis=0)
    return resolved, seg_values


def recoverable_segments(offsets: np.ndarray, indices: np.ndarray, k: int) -> int:
    """How many segments an error-free peel of droplets with these CSR plans recovers.

    Peeling success depends only on the seed-derived index sets, so this is
    a cheap decodability check (no payload XOR work). A
    :class:`DropletBatch` from :func:`encode_droplets` carries its plans, so
    none is derived again.
    """
    return int(_peel_csr(offsets, indices, None, k)[0].sum())


def decode(seeds: np.ndarray, payloads: np.ndarray, k: int, original_length: int) -> bytes:
    """Peel distinct droplets, given as seeds and ``(n, segment_size)`` payload rows, back into the original bytes.

    Raises :class:`DecodeFailed` with the recovered count when peeling stalls.
    """
    offsets, indices = plan_droplets(seeds, k)
    resolved, seg_values = _peel_csr(offsets, indices, _segment_words(payloads), k)
    recovered = int(resolved.sum())
    if recovered < k:
        raise DecodeFailed(recovered, k)
    return seg_values.view(np.uint8)[:, : payloads.shape[1]].tobytes()[:original_length]


def droplet_to_oligo(droplet: Droplet) -> str:
    """Frame a droplet as bases (seed || payload || CRC-32, 4 a byte); kept for ``perfbench/tracing.py`` ``TRACED``."""
    raw = struct.pack(">I", droplet.seed) + droplet.payload + struct.pack(">I", droplet.checksum)
    return bytes_to_dna(raw)


def oligo_to_droplet(seq: str, segment_size: int) -> Droplet:
    """Parse and CRC-check one oligo; kept for ``perfbench/tracing.py`` ``TRACED``."""
    expected = 4 * (OLIGO_HEADER_BYTES + segment_size)
    if len(seq) != expected:
        raise LengthError(f"oligo length {len(seq)} != expected {expected} bases")
    frame = np.frombuffer(dna_to_bytes(seq), dtype=np.uint8).reshape(1, -1)
    seeds, _, checksums = split_frames(frame)
    seed, checksum = int(seeds[0]), int(checksums[0])
    if frame_crcs(frame)[0] != checksum:
        raise ChecksumMismatch(f"oligo with seed {seed} failed its CRC check")
    return Droplet(seed, frame[0, 4:-4].tobytes(), checksum)
