"""Base mapping, DNA-number codec, factorization walk, keystream cipher."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnavault.dna_codec import (
    bytes_to_codes,
    bytes_to_dna,
    codes_to_bytes,
    cgk_factorize,
    dna_to_bytes,
    dna_to_number,
    keystream_encrypt,
    number_to_dna,
)
from dnavault.errors import EmptyKey, EmptySequence, InvalidInput, LengthError, NotFactorable


def oracle_bytes_to_dna(data: bytes) -> str:
    """Independent rendering through explicit bit strings."""
    bits = "".join(format(b, "08b") for b in data)
    table = {"00": "A", "01": "C", "10": "G", "11": "T"}
    return "".join(table[bits[i : i + 2]] for i in range(0, len(bits), 2))


# --- byte codec ---------------------------------------------------------------

def test_known_byte_values():
    assert bytes_to_dna(b"\x00") == "AAAA"
    assert bytes_to_dna(b"\xff") == "TTTT"
    assert bytes_to_dna(b"\x1b") == "ACGT"
    assert dna_to_bytes("AAAA") == b"\x00"
    assert dna_to_bytes("ACGT") == b"\x1b"


def test_all_single_bytes_roundtrip():
    for b in range(256):
        data = bytes([b])
        seq = bytes_to_dna(data)
        assert len(seq) == 4
        assert seq == oracle_bytes_to_dna(data)
        assert dna_to_bytes(seq) == data


def test_random_long_inputs_roundtrip():
    rng = random.Random(1234)
    for _ in range(200):
        data = rng.randbytes(rng.randrange(0, 300))
        seq = bytes_to_dna(data)
        assert len(seq) == 4 * len(data)
        assert dna_to_bytes(seq) == data
    assert bytes_to_dna(b"") == ""
    assert dna_to_bytes("") == b""


_SHIFTS = np.array([6, 4, 2, 0], dtype=np.uint8)


def reference_codes_to_bytes(codes):
    """The packing by one uint8 matmul that the multiply-shift replaced."""
    return codes.reshape(len(codes), -1, 4) @ (1 << _SHIFTS)


def reference_bytes_to_codes(raw):
    """The unpacking by broadcast shifts that the spread table replaced."""
    return ((raw[:, :, None] >> _SHIFTS) & 3).reshape(len(raw), -1)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 12), width=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), sliced=st.booleans())
def test_code_matrix_kernels_match_their_references(rows, width, seed, sliced):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, (rows, width), dtype=np.uint8)
    codes = rng.integers(0, 4, (rows, 4 * width + sliced), dtype=np.uint8)[:, : 4 * width]  # maybe a strided view
    assert np.array_equal(bytes_to_codes(raw), reference_bytes_to_codes(raw))
    assert bytes_to_codes(raw).dtype == np.uint8
    packed = codes_to_bytes(codes)
    assert packed.dtype == np.uint8 and np.array_equal(packed, reference_codes_to_bytes(codes))
    assert np.array_equal(codes_to_bytes(bytes_to_codes(raw)), raw)
    assert bytes_to_codes(raw[:1]).tobytes().translate(b"ACGT".ljust(256, b"?")).decode() == bytes_to_dna(raw[0].tobytes())


def test_dna_to_bytes_rejects_bad_lengths_and_symbols():
    with pytest.raises(LengthError):
        dna_to_bytes("ACG")
    with pytest.raises(ValueError):
        dna_to_bytes("ACGU")
    with pytest.raises(ValueError):
        dna_to_bytes(" ACG")  # whitespace must not sneak through int()


# --- number codec ---------------------------------------------------------------

def test_number_decode_examples():
    assert dna_to_number("A") == 0
    assert dna_to_number("GC") == 9
    assert dna_to_number("TT") == 15
    with pytest.raises(EmptySequence):
        dna_to_number("")


def test_number_encode_examples():
    assert number_to_dna(0) == "A"
    assert number_to_dna(15) == "TT"
    assert number_to_dna(5) == "CC"  # 101 -> padded 0101
    with pytest.raises(ValueError):
        number_to_dna(-1)


def test_number_roundtrip_range():
    for v in range(4097):
        assert dna_to_number(number_to_dna(v)) == v
    for v in (2**19 + 17, 2**20, 2**31 - 1):
        assert dna_to_number(number_to_dna(v)) == v


def test_number_encoding_has_no_redundant_leading_base():
    # minimal length: one base per two bits, odd widths padded by one zero bit
    for v in (1, 2, 3, 4, 255, 256, 1023):
        seq = number_to_dna(v)
        assert len(seq) == (v.bit_length() + 1) // 2


# --- factorization walk ------------------------------------------------------------

def smallest_odd_factor(n: int) -> int | None:
    i = 3
    while i * i <= n:
        if n % i == 0:
            return i
        i += 2
    return None


def test_factorize_fifteen_matches_hand_trace():
    pair, trace = cgk_factorize("TT", 1)
    assert (pair.p, pair.q) == (3, 5)
    assert (pair.p_dna, pair.q_dna) == ("T", "CC")
    assert trace.iterations[0] == (5, 11, 3)
    assert trace.retries == 0


def test_factorize_twentyone_retries_once():
    pair, trace = cgk_factorize("CCC", 1)
    assert (pair.p, pair.q) == (3, 7)
    assert (pair.p_dna, pair.q_dna) == ("T", "CT")
    assert trace.retries == 1
    # the failed first round ends on a d == n triple
    assert trace.iterations[0][2] == 21


def test_factorize_prime_exhausts_retries():
    with pytest.raises(NotFactorable) as info:
        cgk_factorize("CT", 1, max_retries=8)  # n = 7
    assert info.value.n == 7
    assert info.value.retries == 8


def test_factorize_rejects_small_n():
    with pytest.raises(InvalidInput):
        cgk_factorize("AT", 1)  # n = 3
    with pytest.raises(InvalidInput):
        cgk_factorize("A", 1)  # n = 0
    with pytest.raises(InvalidInput):
        cgk_factorize("TT", 0)  # M below 1


def test_factorize_agrees_with_trial_division_oracle():
    for n in range(9, 2002, 2):
        seq = number_to_dna(n)
        oracle = smallest_odd_factor(n)
        if oracle is None:
            with pytest.raises(NotFactorable):
                cgk_factorize(seq)
            continue
        pair, _ = cgk_factorize(seq)
        assert pair.p * pair.q == n
        assert 1 < pair.p <= pair.q < n
        assert dna_to_number(pair.p_dna) == pair.p
        assert dna_to_number(pair.q_dna) == pair.q


def test_trace_triples_replay_the_walk():
    for n in (15, 21, 91, 8051):
        pair, trace = cgk_factorize(number_to_dna(n), 1)
        m = 1
        x = y = 2
        for tx, ty, td in trace.iterations:
            x = (x * x + m) % n
            y = (y * y + m) % n
            y = (y * y + m) % n
            assert (tx, ty) == (x, y)
            assert td == math.gcd(abs(x - y), n)
            assert 0 <= tx < n and 0 <= ty < n and n % td == 0
            if td == n:  # round failed; the implementation restarts with M+1
                m += 1
                x = y = 2
        assert m == 1 + trace.retries


# --- keystream cipher ----------------------------------------------------------------

def oracle_keystream(key_bytes: bytes, length: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(key_bytes + counter.to_bytes(8, "big")).digest()
        counter += 1
    return out[:length]


def test_keystream_known_block():
    # key "ACGT" is the single byte 0x1b; zero plaintext exposes the stream
    expected = oracle_keystream(b"\x1b", 32)
    assert keystream_encrypt(b"\x00" * 32, "ACGT") == expected


def test_keystream_key_padding():
    # "GC" pads to "AAGC" = 0x09
    expected = oracle_keystream(b"\x09", 16)
    assert keystream_encrypt(b"\x00" * 16, "GC") == expected
    assert keystream_encrypt(b"\x00" * 16, "AAGC") == expected


def test_keystream_involution_and_length():
    rng = random.Random(99)
    for _ in range(50):
        data = rng.randbytes(rng.randrange(0, 200))
        key = "".join(rng.choice("ACGT") for _ in range(rng.randrange(1, 12)))
        enc = keystream_encrypt(data, key)
        assert len(enc) == len(data)
        assert keystream_encrypt(enc, key) == data


def test_keystream_edge_cases():
    assert keystream_encrypt(b"", "ACGT") == b""
    with pytest.raises(EmptyKey):
        keystream_encrypt(b"data", "")
    with pytest.raises(ValueError):
        keystream_encrypt(b"data", "AXGT")
    # leading zero bytes must survive the integer XOR path
    assert keystream_encrypt(keystream_encrypt(b"\x00\x00\x01", "GG"), "GG") == b"\x00\x00\x01"
