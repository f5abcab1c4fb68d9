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
detected. Degree sampling uses the robust soliton distribution; candidate
droplets whose oligo fails the biological-plausibility screen (homopolymer
runs, GC window) are discarded and regenerated from the next seed.

Each droplet's plan (degree and segment indices) is derived once, in batch,
and bit-identically to the scalar :func:`droplet_plan`: the encoder plans,
XORs, frames and screens candidates a batch at a time on numpy arrays, and
every accepted droplet carries its index set into the peelability check.
Decoding plans all received droplets in one batch. Both peel with one core
over CSR index arrays.
"""

from __future__ import annotations

import math
import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dna_codec import bytes_to_dna, dna_to_bytes
from .errors import ChecksumMismatch, EmptyInput, InsufficientDroplets, LengthError, ScreenStarvation
from .rng import Xorshift64Star, plan_batch

DEFAULT_SOLITON_C = 0.1
DEFAULT_SOLITON_DELTA = 0.05

OLIGO_HEADER_BYTES = 8  # 4-byte seed + 4-byte CRC


@dataclass(frozen=True)
class Segment:
    index: int
    payload: bytes


@dataclass(frozen=True)
class Droplet:
    seed: int
    payload: bytes
    checksum: int
    degree: int | None = None
    # Sorted segment indices of the seed's plan, carried from encoding so the
    # peel check need not derive them again; None when parsed from an oligo.
    indices: np.ndarray | None = field(default=None, compare=False, repr=False)


class RobustSoliton:
    """Degree distribution over 1..K used for droplet generation.

    Ideal soliton (1/K at degree 1, 1/(d(d-1)) above) plus the ripple term
    R/(dK) below the spike at floor(K/R) and R*ln(R/delta)/K at it, where
    R = c * ln(K/delta) * sqrt(K); normalized to sum to one.
    """

    def __init__(self, k: int, c: float = DEFAULT_SOLITON_C, delta: float = DEFAULT_SOLITON_DELTA):
        if k < 1:
            raise ValueError("segment count must be positive")
        if c <= 0:
            raise ValueError("c must be positive")
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        self.k = k
        self.c = c
        self.delta = delta

        weights = [0.0] * (k + 1)
        weights[1] = 1.0 / k
        for d in range(2, k + 1):
            weights[d] += 1.0 / (d * (d - 1))
        r = c * math.log(k / delta) * math.sqrt(k)
        spike = int(k / r) if r > 0 else 0
        for d in range(1, min(spike, k + 1)):
            weights[d] += r / (d * k)
        if 1 <= spike <= k:
            weights[spike] += r * math.log(r / delta) / k
        total = sum(weights)
        self.probabilities = [w / total for w in weights[1:]]
        self._cumulative = []
        acc = 0.0
        for p in self.probabilities:
            acc += p
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0
        self.cdf = np.array(self._cumulative)

    def sample(self, rng: Xorshift64Star) -> int:
        """Draw a degree in 1..K (one uniform draw, inverse CDF)."""
        return bisect_left(self._cumulative, rng.random()) + 1


@dataclass(frozen=True)
class OligoScreen:
    """Synthesis-plausibility screen applied to candidate oligos."""

    max_homopolymer: int = 4
    gc_min: float = 0.25
    gc_max: float = 0.75

    def accepts(self, seq: str) -> bool:
        return screen_oligo(seq, self.max_homopolymer, self.gc_min, self.gc_max)

    def accepts_codes(self, codes: np.ndarray) -> np.ndarray:
        """:meth:`accepts` for each row of an ``(n, L)`` matrix of base codes (A=0 .. T=3), L >= 1.

        A run longer than the cap is ``max_homopolymer`` equal neighbours in a
        row; the GC fraction is the count of C and G codes over L.
        """
        runs = codes[:, 1:] == codes[:, :-1]
        for _ in range(self.max_homopolymer - 1):
            runs = runs[:, :-1] & runs[:, 1:]  # now: this many neighbours in a row are equal
        ok = ~runs.any(axis=1) if self.max_homopolymer > 0 else np.zeros(len(codes), dtype=bool)
        gc = ((codes == 1) | (codes == 2)).sum(axis=1) / codes.shape[1]
        return ok & (self.gc_min <= gc) & (gc <= self.gc_max)


DEFAULT_SCREEN = OligoScreen()


def fragment(data: bytes, segment_size: int) -> tuple[list[Segment], int]:
    """Split ``data`` into zero-padded segments; returns (segments, true length)."""
    if not data:
        raise EmptyInput("cannot fragment zero bytes")
    if segment_size < 1:
        raise ValueError("segment_size must be positive")
    segments = []
    for index, start in enumerate(range(0, len(data), segment_size)):
        chunk = data[start : start + segment_size]
        segments.append(Segment(index, chunk.ljust(segment_size, b"\x00")))
    return segments, len(data)


def droplet_plan(seed: int, k: int, dist: RobustSoliton) -> tuple[int, list[int]]:
    """Degree and sorted segment indices determined by a droplet seed."""
    rng = Xorshift64Star(seed)
    degree = min(dist.sample(rng), k)
    return degree, rng.sample_distinct(degree, k)


def plan_droplets(seeds, k: int, dist: RobustSoliton) -> tuple[np.ndarray, np.ndarray]:
    """:func:`droplet_plan` for many seeds at once, as CSR ``(offsets, indices)``."""
    return plan_batch(np.asarray(seeds, dtype=np.uint64), dist.cdf, k)


def _segment_words(payloads: list[bytes], segment_size: int) -> np.ndarray:
    """Payloads as rows of native uint64 words, zero-padded to whole words (XOR is bytewise)."""
    width = -(-segment_size // 8) * 8
    joined = b"".join(p.ljust(width, b"\x00") for p in payloads)
    return np.frombuffer(joined, dtype=np.uint64).reshape(len(payloads), width // 8)


def _codes_of_bytes(raw: np.ndarray) -> np.ndarray:
    """``(n, B)`` bytes to the ``(n, 4B)`` base codes of :func:`bytes_to_dna` (A=0 .. T=3)."""
    shifts = np.array([6, 4, 2, 0], dtype=np.uint8)
    return ((raw[:, :, None] >> shifts) & 3).reshape(len(raw), -1)


# Candidates planned, framed and screened per batch; bounds the temporaries.
_ENCODE_BATCH = 16384


def encode_droplets(
    segments: list[Segment],
    count: int,
    rng_seed: int,
    dist: RobustSoliton | None = None,
    *,
    screen: OligoScreen | None = None,
) -> list[Droplet]:
    """Generate exactly ``count`` droplets from a master seed.

    Candidate 32-bit droplet seeds come from the top bits of an
    xorshift64* stream seeded with ``rng_seed``; duplicates are skipped so
    every droplet is distinct. With a screen, candidates whose oligo fails
    it are dropped and the next seed is tried. Candidates are planned,
    framed and screened in batches; the result is the first ``count``
    accepted candidates in seed order, each carrying its plan's indices.
    """
    if not segments:
        raise EmptyInput("no segments to encode")
    if count < 1:
        raise ValueError("count must be positive")
    k = len(segments)
    dist = dist or RobustSoliton(k)
    segment_size = len(segments[0].payload)
    seg_words = _segment_words([s.payload for s in segments], segment_size)

    master = Xorshift64Star(rng_seed)
    droplets: list[Droplet] = []
    seen: set[int] = set()
    attempts = 0
    budget = 200 * count + 1000  # screen starvation guard
    while len(droplets) < count:
        if attempts >= budget:
            raise ScreenStarvation(
                f"screen accepted {len(droplets)} of {count} droplets in {attempts + 1} attempts"
            )
        # Size the batch by the accept ratio so far, so that one more batch usually
        # completes the set; grow it fourfold while nothing has passed the screen.
        need = count - len(droplets)
        if not attempts:
            want = need
        elif droplets:
            want = need * attempts // len(droplets) + 1
        else:
            want = 4 * attempts
        want = min(want, _ENCODE_BATCH)
        seeds: list[int] = []
        while len(seeds) < want and attempts < budget:
            attempts += 1
            seed = master.next_u64() >> 32
            if seed not in seen:
                seen.add(seed)
                seeds.append(seed)
        if not seeds:
            continue
        offsets, indices = plan_droplets(seeds, k, dist)
        n = len(seeds)
        xored = np.bitwise_xor.reduceat(seg_words[indices], offsets[:-1], axis=0)
        raw = np.empty((n, OLIGO_HEADER_BYTES + segment_size), dtype=np.uint8)
        raw[:, :4] = np.array(seeds, dtype=">u4").view(np.uint8).reshape(n, 4)
        raw[:, 4:-4] = xored.view(np.uint8)[:, :segment_size]
        framed = memoryview(raw[:, :-4].tobytes())
        width = 4 + segment_size
        checksums = [zlib.crc32(framed[i * width : (i + 1) * width]) for i in range(n)]
        raw[:, -4:] = np.array(checksums, dtype=">u4").view(np.uint8).reshape(n, 4)
        accepted = np.arange(n) if screen is None else np.flatnonzero(screen.accepts_codes(_codes_of_bytes(raw)))
        accepted = accepted[: count - len(droplets)]
        payloads = raw[accepted, 4:-4].tobytes()
        starts, ends = offsets[accepted].tolist(), offsets[accepted + 1].tolist()
        for j, i in enumerate(accepted.tolist()):
            payload = payloads[j * segment_size : (j + 1) * segment_size]
            droplets.append(Droplet(seeds[i], payload, checksums[i], ends[j] - starts[j], indices[starts[j] : ends[j]]))
    return droplets


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenation of ``arange(start, start + length)`` over the pairs, and where each range begins in it."""
    begins = lengths.cumsum() - lengths
    return (starts - begins).repeat(lengths) + np.arange(lengths.sum()), begins


def _peel_csr(offsets: np.ndarray, indices: np.ndarray, values: np.ndarray | None, k: int):
    """Shared peeling core over CSR index arrays; ``values`` may be None for a structure-only pass.

    Per droplet it keeps the count of unresolved indices and the XOR of
    them, which is the last index once the count reaches one. Each round
    resolves every droplet then at count one (one per segment; the rest are
    redundant) and strips the resolved segments from the droplets that hold
    them; a droplet that resolved or went redundant counts on below zero and
    never joins a ripple again. The resolved set is the peeling closure, so
    it does not depend on the order of resolution. With values, a segment
    resolved by a droplet is the droplet's value XOR every other segment of
    its plan, all resolved in earlier rounds; the rounds are replayed in
    order at the end. Returns ``(resolved, segment_values)``: a boolean mask
    over the K segments and, with values, their ``(K, w)`` values
    (unresolved rows 0).
    """
    n = len(offsets) - 1
    degrees = offsets[1:] - offsets[:-1]
    remaining = degrees.copy()
    rows = np.arange(n).repeat(degrees)
    last = np.zeros(n, dtype=np.int64)
    np.bitwise_xor.at(last, rows, indices)
    order = np.argsort(indices)
    holders, held = rows[order], indices[order]  # (droplet, segment) pairs grouped by segment
    first_holder = np.searchsorted(held, np.arange(k + 1))
    resolved = np.zeros(k, dtype=bool)
    slot = np.zeros(max(n, k), dtype=np.int64)  # reused buffer: keeps one of several equal entries
    rounds = []  # (droplets, the segments they resolved) per round
    ripple = (remaining == 1).nonzero()[0]
    while len(ripple):
        remaining[ripple] = 0
        segs = last[ripple]  # never resolved yet: resolving a segment strips it from every holder
        slot[segs] = ripple
        ripple = ripple[slot[segs] == ripple]
        segs = last[ripple]
        resolved[segs] = True
        rounds.append((ripple, segs))
        edges, _ = _ranges(first_holder[segs], first_holder[segs + 1] - first_holder[segs])
        hit = holders[edges]
        np.subtract.at(remaining, hit, 1)
        np.bitwise_xor.at(last, hit, held[edges])
        ripple = hit[remaining[hit] == 1]
        position = np.arange(len(ripple))
        slot[ripple] = position
        ripple = ripple[slot[ripple] == position]
    if values is None:
        return resolved, None
    seg_values = np.zeros((k, values.shape[1]), dtype=values.dtype)
    for droplets, segs in rounds:
        edges, begins = _ranges(offsets[droplets], degrees[droplets])
        plan_values = seg_values[indices[edges]]  # the segment being resolved still reads 0
        seg_values[segs] = values[droplets] ^ np.bitwise_xor.reduceat(plan_values, begins, axis=0)
    return resolved, seg_values


def _plans_of(droplets: list[Droplet], k: int, dist: RobustSoliton | None) -> tuple[np.ndarray, np.ndarray]:
    """CSR plans of ``droplets``: the indices they carry, else derived in one batch."""
    if droplets and all(d.indices is not None for d in droplets):
        offsets = np.zeros(len(droplets) + 1, dtype=np.int64)
        np.cumsum([len(d.indices) for d in droplets], out=offsets[1:])
        return offsets, np.concatenate([d.indices for d in droplets])
    return plan_droplets([d.seed for d in droplets], k, dist or RobustSoliton(k))


def recoverable_segments(droplets: list[Droplet], k: int, dist: RobustSoliton | None = None) -> int:
    """How many segments an error-free peel of this droplet set recovers.

    Peeling success depends only on the seed-derived index sets, so this is
    a cheap decodability check (no payload XOR work). Droplets from
    :func:`encode_droplets` carry their index sets, so none is derived again.
    """
    offsets, indices = _plans_of(droplets, k, dist)
    return int(_peel_csr(offsets, indices, None, k)[0].sum())


def decode(
    droplets: list[Droplet],
    k: int,
    segment_size: int,
    original_length: int,
    dist: RobustSoliton | None = None,
) -> bytes:
    """Peel the droplet set back into the original bytes.

    ``dist`` must match the encoder's distribution (defaults agree with
    :func:`encode_droplets`). Raises :class:`InsufficientDroplets` with the
    recovered count when peeling stalls.
    """
    offsets, indices = _plans_of(droplets, k, dist)
    values = _segment_words([d.payload for d in droplets], segment_size)
    resolved, seg_values = _peel_csr(offsets, indices, values, k)
    recovered = int(resolved.sum())
    if recovered < k:
        raise InsufficientDroplets(recovered, k)
    return seg_values.view(np.uint8)[:, :segment_size].tobytes()[:original_length]


def droplet_to_oligo(droplet: Droplet) -> str:
    """Frame a droplet as bases: seed || payload || CRC-32, 4 bases per byte."""
    raw = struct.pack(">I", droplet.seed) + droplet.payload + struct.pack(">I", droplet.checksum)
    return bytes_to_dna(raw)


def oligo_to_droplet(
    seq: str,
    segment_size: int,
    k: int | None = None,
    dist: RobustSoliton | None = None,
) -> Droplet:
    """Parse and CRC-check an oligo.

    The degree field is only reconstructible from (seed, K, distribution);
    pass ``k`` (and optionally ``dist``) to fill it, otherwise it is None.
    """
    expected = 4 * (OLIGO_HEADER_BYTES + segment_size)
    if len(seq) != expected:
        raise LengthError(f"oligo length {len(seq)} != expected {expected} bases")
    raw = dna_to_bytes(seq)
    seed = struct.unpack(">I", raw[:4])[0]
    payload = raw[4 : 4 + segment_size]
    checksum = struct.unpack(">I", raw[-4:])[0]
    if zlib.crc32(raw[:-4]) != checksum:
        raise ChecksumMismatch(f"oligo with seed {seed} failed its CRC check")
    degree = None
    if k is not None:
        degree = droplet_plan(seed, k, dist or RobustSoliton(k))[0]
    return Droplet(seed, payload, checksum, degree)


def screen_oligo(seq: str, max_homopolymer: int, gc_min: float, gc_max: float) -> bool:
    """True iff no homopolymer run exceeds the cap and GC fraction is in range.

    The empty sequence passes (nothing to violate).
    """
    if not seq:
        return True
    run = 1
    for prev, cur in zip(seq, seq[1:]):
        if cur == prev:
            run += 1
            if run > max_homopolymer:
                return False
        else:
            run = 1
    if run > max_homopolymer:
        return False
    gc = (seq.count("G") + seq.count("C")) / len(seq)
    return gc_min <= gc <= gc_max


# --- oligo file format --------------------------------------------------------
#
# Plain text, one uppercase oligo per line, LF separated, with a single
# header line carrying the decode parameters:
#
#   #K=<int> SEG=<int> LEN=<int>


def write_oligo_file(path: Path | str, oligos: list[str], k: int, segment_size: int, original_length: int) -> None:
    lines = [f"#K={k} SEG={segment_size} LEN={original_length}"]
    lines.extend(oligos)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_oligo_file(path: Path | str) -> tuple[list[str], int, int, int]:
    """Returns (oligos, K, segment_size, original_length)."""
    text = Path(path).read_text(encoding="ascii")
    lines = [line for line in text.split("\n") if line]
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing oligo file header")
    fields = dict(item.split("=", 1) for item in lines[0][1:].split())
    try:
        k = int(fields["K"])
        segment_size = int(fields["SEG"])
        original_length = int(fields["LEN"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed oligo file header") from exc
    return lines[1:], k, segment_size, original_length
