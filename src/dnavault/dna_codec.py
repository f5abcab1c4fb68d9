"""Binary <-> nucleotide translation plus the DNA-number operations built on it.

The base alphabet carries two bits per symbol::

    A = 00    C = 01    G = 10    T = 11

``bytes_to_dna`` renders each byte as four bases, most-significant bit pair
first, so the byte and number codecs are exact inverses of each other.
Equal-length oligos travel as ``(n, L)`` uint8 *base-code matrices* (A=0 ..
T=3); ``codes_to_bytes`` and ``bytes_to_codes`` map whole matrices.

On top of the numeric mapping sit two DNA-keyed operations:

* ``cgk_factorize`` -- reads a sequence as an integer n and factors it with
  a rho-style walk (f(x) = (x^2 + M) mod n, tortoise/hare, gcd of the gap),
  returning both factors re-encoded as sequences along with the full walk
  trace. When a round collapses to gcd = n the offset M is bumped by one
  and the walk restarts, up to ``max_retries`` times.
* ``keystream_encrypt`` -- XORs data against a stream of SHA-256 blocks
  keyed by a sequence, giving a deterministic, involutive cipher whose key
  space is the DNA alphabet.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyKey, EmptySequence, InvalidInput, LengthError, NotFactorable

BASES = "ACGT"
_BASE_SET = frozenset(BASES)
_TO_BASE4 = str.maketrans("ACGT", "0123")
_BYTE_TO_QUAD = [
    "".join(BASES[(b >> shift) & 0b11] for shift in (6, 4, 2, 0)) for b in range(256)
]

# bytes.translate tables, ASCII <-> base code: the line end "\n" is code 4, and any other symbol reads as A.
CODE_OF_CHAR = bytes(max(b"ACGT\n".find(c), 0) for c in range(256))
CHAR_OF_CODE = b"ACGT\n".ljust(256, b"A")
# _SPREAD[b] holds byte b's four base codes in the bytes of a little-endian word, most significant pair first.
_SPREAD = sum(((np.arange(256, dtype="<u4") >> (6 - 2 * i)) & 3) << (8 * i) for i in range(4)).astype("<u4")

DEFAULT_MAX_RETRIES = 16


def validate_sequence(seq: str) -> str:
    """Return ``seq`` unchanged if every symbol is one of A/C/G/T."""
    if not _BASE_SET.issuperset(seq):
        bad = sorted(set(seq) - _BASE_SET)
        raise ValueError(f"sequence contains non-nucleotide symbols: {bad}")
    return seq


def bytes_to_dna(data: bytes) -> str:
    """Render bytes as bases, 4 per byte, MSB pair first."""
    return "".join(map(_BYTE_TO_QUAD.__getitem__, data))


def dna_to_bytes(seq: str) -> bytes:
    """Invert :func:`bytes_to_dna`; the length must be a multiple of 4."""
    validate_sequence(seq)
    if len(seq) % 4 != 0:
        raise LengthError(f"sequence length {len(seq)} is not a multiple of 4")
    if not seq:
        return b""
    return int(seq.translate(_TO_BASE4), 4).to_bytes(len(seq) // 4, "big")


def oligo_codes(oligos: list[str]) -> np.ndarray:
    """Equal-length oligos as an ``(n, L)`` base-code matrix; no oligos give ``(0, 0)``."""
    if len({len(o) for o in oligos}) > 1:
        raise ValueError("all oligos must have equal length")
    codes = np.frombuffer("".join(oligos).encode("ascii").translate(CODE_OF_CHAR), dtype=np.uint8)
    return codes.reshape(len(oligos), len(oligos[0]) if oligos else 0)


def oligo_strings(codes: np.ndarray) -> list[str]:
    """The rows of a base-code matrix as strings."""
    n, length = codes.shape
    text = codes.tobytes().translate(CHAR_OF_CODE).decode("ascii")
    return [text[i * length : (i + 1) * length] for i in range(n)]


def codes_to_bytes(codes: np.ndarray) -> np.ndarray:
    """``(n, 4B)`` base codes to the ``(n, B)`` bytes they spell, first base in the top bits.

    Each four codes ``c0..c3`` read as the little-endian word ``c0 | c1 << 8 | c2 << 16 | c3 << 24``;
    multiplying by ``0x40100401`` moves ``c0 << 6 | c1 << 4 | c2 << 2 | c3`` into its top byte, no two
    partial products overlapping.
    """
    words = np.ascontiguousarray(codes, dtype=np.uint8).view("<u4")
    return ((words * np.uint32(0x40100401)) >> np.uint32(24) & np.uint32(0xFF)).astype(np.uint8)


def bytes_to_codes(raw: np.ndarray) -> np.ndarray:
    """``(n, B)`` bytes to the ``(n, 4B)`` base codes of :func:`bytes_to_dna`, 1,024 rows a take (it widens indices)."""
    words = np.empty(raw.shape, dtype="<u4")
    for start in range(0, len(raw), 1024):
        np.take(_SPREAD, raw[start : start + 1024], out=words[start : start + 1024], mode="clip")
    return words.view(np.uint8).reshape(raw.shape[0], 4 * raw.shape[1])


def dna_to_number(seq: str) -> int:
    """Read a non-empty sequence as one big-endian base-4 integer."""
    validate_sequence(seq)
    if not seq:
        raise EmptySequence("cannot read a number from an empty sequence")
    return int(seq.translate(_TO_BASE4), 4)


def number_to_dna(value: int) -> str:
    """Encode a non-negative integer; odd bit-lengths gain one leading zero bit."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if value == 0:
        return "A"
    nbases = (value.bit_length() + 1) // 2
    return "".join(BASES[(value >> (2 * i)) & 0b11] for i in range(nbases - 1, -1, -1))


@dataclass(frozen=True)
class FactorPair:
    """A factorization n = p * q with both factors rendered as sequences."""

    p: int
    q: int
    p_dna: str
    q_dna: str


@dataclass
class CgkTrace:
    """Every (x, y, d) triple the walk visited, plus the number of M bumps.

    The flat iteration list spans all rounds; a triple with d == n marks the
    end of a failed round (the next triple starts over with M + 1).
    """

    iterations: list[tuple[int, int, int]]
    retries: int


def cgk_factorize(
    s: str, M: int = 1, max_retries: int = DEFAULT_MAX_RETRIES
) -> tuple[FactorPair, CgkTrace]:
    """Factor the integer encoded by ``s`` into p * q with p <= q.

    Raises :class:`InvalidInput` when the decoded value is below 4 (no
    non-trivial factorization can exist) and :class:`NotFactorable` once
    ``max_retries`` restarts are exhausted, which is the expected outcome
    for primes.
    """
    n = dna_to_number(s)
    if n < 4:
        raise InvalidInput(f"decoded value {n} is below 4 and has no non-trivial factors")
    if M < 1:
        raise InvalidInput("offset M must be at least 1")
    if max_retries < 0:
        raise InvalidInput("max_retries must be non-negative")

    iterations: list[tuple[int, int, int]] = []
    retries = 0
    m = M
    while True:
        # One rho round: both walkers start at 2; the offset in f is kept
        # inside [0, n) so gcd always sees bounded arguments.
        def f(v: int) -> int:
            return (v * v + m) % n

        x = y = 2
        d = 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
            iterations.append((x, y, d))
        if d != n:
            p, q = d, n // d
            if p > q:
                p, q = q, p
            pair = FactorPair(p, q, number_to_dna(p), number_to_dna(q))
            return pair, CgkTrace(iterations, retries)
        if retries >= max_retries:
            raise NotFactorable(n, retries)
        retries += 1
        m += 1


def _keystream(key_bytes: bytes, length: int) -> bytes:
    blocks = []
    for counter in range((length + 31) // 32):
        blocks.append(hashlib.sha256(key_bytes + counter.to_bytes(8, "big")).digest())
    return b"".join(blocks)[:length]


def keystream_encrypt(data: bytes, key: str) -> bytes:
    """XOR ``data`` with a SHA-256 keystream derived from ``key``.

    Keystream block i is SHA-256(key-bytes || 8-byte big-endian i), where
    key-bytes is the byte rendering of the key left-padded with 'A' to a
    multiple of four bases. Applying the function twice restores the input.
    """
    validate_sequence(key)
    if not key:
        raise EmptyKey("encryption key must contain at least one base")
    if not data:
        return b""
    key_bytes = dna_to_bytes("A" * (-len(key) % 4) + key)
    stream = _keystream(key_bytes, len(data))
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(n, "big")
