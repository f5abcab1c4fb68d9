"""Fragmentation, droplet coding, peeling decode, oligo framing, screening."""

import math
import random
import struct
import zlib

import numpy as np
import pytest

from dnavault import fountain
from dnavault.dna_codec import bytes_to_dna, codes_to_bytes, oligo_strings
from dnavault.errors import (
    ChecksumMismatch,
    DecodeFailed,
    EmptyInput,
    LengthError,
    ScreenStarvation,
)
from dnavault.fountain import (
    Droplet,
    OligoScreen,
    RobustSoliton,
    decode,
    droplet_plan,
    droplet_to_oligo,
    encode_droplets,
    fragment,
    frame_crcs,
    oligo_to_droplet,
    plan_droplets,
    recoverable_segments,
    split_frames,
)
from dnavault.ledger import CodecParams
from dnavault.rng import Xorshift64Star
from dnavault.synthesis import Bead, load_bead, save_bead


def oracle_crc32(data: bytes) -> int:
    """Bit-by-bit CRC-32, reflected polynomial 0xEDB88320."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def find_seed_covering(k: int, want: list[int], dist: RobustSoliton) -> int:
    """Search droplet seeds until one selects exactly ``want``."""
    for seed in range(200_000):
        degree, indices = droplet_plan(seed, k, dist)
        if indices == want:
            return seed
    raise AssertionError(f"no seed found covering {want}")


def make_droplet(seed: int, payload: bytes) -> Droplet:
    checksum = oracle_crc32(struct.pack(">I", seed) + payload)
    return Droplet(seed, payload, checksum)


def batch_droplets(batch) -> list[Droplet]:
    """The rows of a ``DropletBatch`` as droplet objects, read through ``split_frames``."""
    seeds, payloads, checksums = split_frames(batch.frames)
    return [Droplet(int(s), bytes(p), int(c)) for s, p, c in zip(seeds, payloads, checksums)]


def decode_droplets(droplets: list[Droplet], k: int, length: int) -> bytes:
    """``decode`` on droplet objects: their seeds and payload rows."""
    payloads = np.frombuffer(b"".join(d.payload for d in droplets), dtype=np.uint8).reshape(len(droplets), -1)
    return decode(np.array([d.seed for d in droplets], dtype=np.uint64), payloads, k, length)


# --- fragment -------------------------------------------------------------------

def test_fragment_pads_final_segment():
    segments, length = fragment(b"0123456789", 4)
    assert length == 10
    assert [bytes(s) for s in segments] == [b"0123", b"4567", b"89\x00\x00"]
    assert segments.shape == (3, 4)


def test_fragment_exact_and_oversized():
    segments, _ = fragment(b"abcd", 4)
    assert len(segments) == 1 and bytes(segments[0]) == b"abcd"
    segments, length = fragment(b"x", 256)
    assert length == 1
    assert len(segments) == 1 and len(bytes(segments[0])) == 256


def test_fragment_rejects_empty():
    with pytest.raises(EmptyInput):
        fragment(b"", 4)
    with pytest.raises(ValueError):
        fragment(b"abc", 0)


# --- degree distribution ------------------------------------------------------------

def test_robust_soliton_is_a_distribution():
    for k in (1, 2, 10, 256, 1000):
        dist = RobustSoliton(k)
        assert len(dist.probabilities) == k
        assert all(p >= 0 for p in dist.probabilities)
        assert abs(sum(dist.probabilities) - 1.0) < 1e-9


def test_robust_soliton_single_segment():
    assert RobustSoliton(1).probabilities == [1.0]


def test_robust_soliton_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RobustSoliton(0)


def reference_soliton_cdf(k: int, c: float = 0.1, delta: float = 0.05) -> tuple[list[float], list[float]]:
    """Probabilities and CDF in Python floats, every sum taken left to right."""
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
    total = 0.0
    for w in weights:
        total += w
    probabilities = [w / total for w in weights[1:]]
    cdf, acc = [], 0.0
    for p in probabilities:
        acc += p
        cdf.append(acc)
    cdf[-1] = 1.0
    return probabilities, cdf


@pytest.mark.parametrize("k", [1, 2, 3, 7, 100, 32768])
def test_soliton_cdf_is_bitwise_the_left_to_right_float_sums(k):
    # Python 3.12 made sum() compensated; the distribution must not depend on the interpreter.
    probabilities, cdf = reference_soliton_cdf(k)
    dist = RobustSoliton(k)
    assert np.asarray(dist.probabilities).tobytes() == np.array(probabilities).tobytes()
    assert dist.cdf.tobytes() == np.array(cdf).tobytes()


def test_degree_spike_boosts_low_degrees():
    dist = RobustSoliton(100)
    # degree 1 carries more than the ideal soliton's 1/K
    assert dist.probabilities[0] > 1.0 / 100


# --- encoding ----------------------------------------------------------------------

def test_single_segment_droplets_are_identity():
    segments, _ = fragment(b"only one", 8)
    batch = encode_droplets(segments, 5, rng_seed=3)
    assert np.diff(batch.offsets).tolist() == [1] * 5
    assert all(bytes(payload) == bytes(segments[0]) for payload in split_frames(batch.frames)[1])


def test_degree_one_droplet_equals_selected_segment():
    data = random.Random(5).randbytes(16 * 8)
    segments, _ = fragment(data, 8)
    batch = encode_droplets(segments, 60, rng_seed=11)
    seeds, payloads, _ = split_frames(batch.frames)
    ones = np.flatnonzero(np.diff(batch.offsets) == 1)
    assert len(ones), "expected at least one degree-1 droplet at this count"
    dist = RobustSoliton(len(segments))
    for i in ones:
        _, (index,) = droplet_plan(int(seeds[i]), len(segments), dist)
        assert bytes(payloads[i]) == bytes(segments[index])


def test_encoding_is_deterministic_and_distinct():
    segments, _ = fragment(random.Random(1).randbytes(100), 10)
    a = encode_droplets(segments, 40, rng_seed=1984).frames
    b = encode_droplets(segments, 40, rng_seed=1984).frames
    assert np.array_equal(a, b)
    assert len(set(split_frames(a)[0].tolist())) == len(a)
    assert not np.array_equal(a, encode_droplets(segments, 40, rng_seed=1985).frames)


def test_stored_degree_matches_plan():
    segments, _ = fragment(random.Random(2).randbytes(64 * 4), 4)
    dist = RobustSoliton(len(segments))
    batch = encode_droplets(segments, 120, rng_seed=8)
    stored = zip(split_frames(batch.frames)[0].tolist(), np.diff(batch.offsets).tolist())
    for i, (seed, stored_degree) in enumerate(stored):
        degree, indices = droplet_plan(seed, len(segments), dist)
        assert stored_degree == degree == len(indices)
        assert batch.indices[batch.offsets[i] : batch.offsets[i + 1]].tolist() == indices


def test_screened_encoding_respects_screen():
    segments, _ = fragment(random.Random(3).randbytes(512), 32)
    screen = OligoScreen(max_homopolymer=4, gc_min=0.25, gc_max=0.75)
    batch = encode_droplets(segments, 50, rng_seed=77, screen=screen)
    oligos = oligo_strings(batch.codes)
    assert len(oligos) == 50
    assert all(screen.accepts(o) for o in oligos)
    assert oligos == [bytes_to_dna(frame.tobytes()) for frame in batch.frames]  # the screened code rows spell the frames


# --- decoding ----------------------------------------------------------------------

def test_roundtrip_k32():
    data = random.Random(0).randbytes(32 * 32 - 5)
    segments, length = fragment(data, 32)
    seeds, payloads, _ = split_frames(encode_droplets(segments, 55, rng_seed=7).frames)
    assert decode(seeds, payloads, 32, length) == data


def test_decode_single_degree_one_droplet():
    segments, length = fragment(b"hello world!", 12)
    dist = RobustSoliton(1)
    seed = find_seed_covering(1, [0], dist)
    droplet = make_droplet(seed, bytes(segments[0]))
    assert decode_droplets([droplet], 1, length) == b"hello world!"


def test_decode_two_segments_via_one_peel():
    segments, length = fragment(b"ABCDEFGH", 4)
    dist = RobustSoliton(2)
    seed0 = find_seed_covering(2, [0], dist)
    seed01 = find_seed_covering(2, [0, 1], dist)
    xor_payload = bytes(a ^ b for a, b in zip(bytes(segments[0]), bytes(segments[1])))
    droplets = [make_droplet(seed0, bytes(segments[0])), make_droplet(seed01, xor_payload)]
    assert decode_droplets(droplets, 2, length) == b"ABCDEFGH"
    # the pair alone, without any degree-1 member, must stall at zero
    with pytest.raises(DecodeFailed) as info:
        decode_droplets([droplets[1]], 2, length)
    assert info.value.recovered == 0


def test_decode_reports_partial_recovery():
    segments, length = fragment(b"ABCDEFGHIJKL", 4)  # K = 3
    dist = RobustSoliton(3)
    seed = find_seed_covering(3, [0], dist)
    with pytest.raises(DecodeFailed) as info:
        decode_droplets([make_droplet(seed, bytes(segments[0]))], 3, length)
    assert info.value.recovered == 1
    assert info.value.needed == 3


def test_recoverable_segments_predicts_decode():
    data = random.Random(17).randbytes(48 * 8)
    segments, length = fragment(data, 8)
    k = len(segments)
    batch = encode_droplets(segments, 90, rng_seed=6)
    recovered = recoverable_segments(batch.offsets, batch.indices, k)
    seeds, payloads, _ = split_frames(batch.frames)
    if recovered == k:
        assert decode(seeds, payloads, k, length) == data
    else:
        with pytest.raises(DecodeFailed) as info:
            decode(seeds, payloads, k, length)
        assert info.value.recovered == recovered
    # a droplet set with no degree-1 member recovers nothing
    dist = RobustSoliton(2)
    seed01 = find_seed_covering(2, [0, 1], dist)
    assert recoverable_segments(*plan_droplets([seed01], 2), 2) == 0


class FewSeeds(Xorshift64Star):
    """The master stream with its candidate seeds (the top 32 bits) folded onto 0..39, so they repeat."""

    def next_u64(self):
        return (super().next_u64() % 40) << 32

    def next_u64s(self, count):
        return (super().next_u64s(count) % np.uint64(40)) << np.uint64(32)


class EvenSeeds:
    """A screen passing the candidates whose seed is even."""

    def accepts_codes(self, codes):
        return codes_to_bytes(codes)[:, 3] % 2 == 0


def first_seeds(rng_seed: int, draws: int) -> list[int]:
    """The distinct seeds of the folded stream's first ``draws`` values, in order of first appearance."""
    rng, seen = FewSeeds(rng_seed), []
    for _ in range(draws):
        seed = rng.next_u64() >> 32
        if seed not in seen:
            seen.append(seed)
    return seen


@pytest.mark.parametrize("screen", [None, EvenSeeds()])
def test_candidate_seeds_are_the_streams_first_distinct_seeds(monkeypatch, screen):
    monkeypatch.setattr(fountain, "Xorshift64Star", FewSeeds)
    segments, _ = fragment(random.Random(4).randbytes(64), 8)
    batch = encode_droplets(segments, 15, rng_seed=9, screen=screen)
    expected = [s for s in first_seeds(9, 2000) if screen is None or s % 2 == 0][:15]
    assert split_frames(batch.frames)[0].tolist() == expected


def test_starvation_counts_every_draw_the_seen_skip_took(monkeypatch):
    # 20 even seeds exist, so 25 droplets exhaust the budget of 200 * 25 + 1000 draws.
    monkeypatch.setattr(fountain, "Xorshift64Star", FewSeeds)
    segments, _ = fragment(random.Random(4).randbytes(64), 8)
    with pytest.raises(ScreenStarvation, match=r"^screen accepted 20 of 25 droplets in 6001 attempts$"):
        encode_droplets(segments, 25, rng_seed=9, screen=EvenSeeds())


def test_screen_starvation_is_reported():
    # one segment of zero bytes: every candidate oligo carries a huge A-run
    segments, _ = fragment(b"\x00" * 8, 8)
    with pytest.raises(ScreenStarvation):
        encode_droplets(segments, 3, rng_seed=1, screen=OligoScreen(max_homopolymer=4))


def test_randomized_roundtrips():
    # small K needs generous relative overhead; 2.5x keeps every seeded
    # draw comfortably above the peeling threshold
    rng = random.Random(42)
    for _ in range(10):
        size = rng.randrange(1, 700)
        seg = rng.choice([4, 8, 16])
        data = rng.randbytes(size)
        segments, length = fragment(data, seg)
        k = len(segments)
        batch = encode_droplets(segments, max(k + 8, int(k * 2.5)), rng_seed=rng.randrange(2**32))
        seeds, payloads, _ = split_frames(batch.frames)
        assert decode(seeds, payloads, k, length) == data


# --- oligo framing --------------------------------------------------------------------

def test_oligo_frame_layout_and_crc_oracle():
    droplet = make_droplet(0, b"\x00\x00\x00\x00")
    oligo = droplet_to_oligo(droplet)
    assert len(oligo) == 48  # 4 * (8 + 4)
    assert oligo.startswith("AAAA" * 4)  # zero seed
    expected_crc = oracle_crc32(b"\x00" * 8)
    assert oligo == bytes_to_dna(b"\x00" * 8 + struct.pack(">I", expected_crc))


@pytest.mark.parametrize("width", [5, 8, 9, 12, 23, 40])
def test_frame_crcs_match_zlib(width):
    frames = np.frombuffer(random.Random(width).randbytes(50 * width), dtype=np.uint8).reshape(50, width)
    assert frame_crcs(frames).tolist() == [zlib.crc32(row[:-4].tobytes()) for row in frames]


def test_oligo_roundtrip_including_degree():
    segments, _ = fragment(random.Random(9).randbytes(96), 8)
    k = len(segments)
    dist = RobustSoliton(k)
    batch = encode_droplets(segments, 30, rng_seed=21)
    for droplet, degree in zip(batch_droplets(batch), np.diff(batch.offsets).tolist()):
        back = oligo_to_droplet(droplet_to_oligo(droplet), 8)
        assert back == droplet
        assert droplet_plan(back.seed, k, dist)[0] == degree


def test_oligo_file_roundtrip(tmp_path):
    # A bead's oligo file holds one framed droplet a line; read back, they decode.
    data = b"persist me please"
    segments, length = fragment(data, 8)
    batch = encode_droplets(segments, 9, rng_seed=31)
    path = save_bead(tmp_path, Bead("disk-bead", batch.codes), CodecParams(len(segments), 8, length))
    oligos = oligo_strings(batch.codes)
    assert path.read_text().splitlines() == [f"#K={len(segments)} SEG=8 LEN={length}", *oligos]
    back = [oligo_to_droplet(oligo, 8) for oligo in load_bead(tmp_path, "disk-bead").oligos]
    assert back == batch_droplets(batch)
    assert decode_droplets(back, len(segments), length) == data


def test_oligo_substitution_detected():
    droplet = make_droplet(77, bytes(range(16)))
    oligo = droplet_to_oligo(droplet)
    for pos in (0, 5, 30, len(oligo) - 1):
        for base in "ACGT":
            if base == oligo[pos]:
                continue
            corrupted = oligo[:pos] + base + oligo[pos + 1 :]
            with pytest.raises(ChecksumMismatch):
                oligo_to_droplet(corrupted, 16)


def test_oligo_length_errors():
    droplet = make_droplet(1, b"abcd")
    oligo = droplet_to_oligo(droplet)
    with pytest.raises(LengthError):
        oligo_to_droplet(oligo[:-4], 4)
    with pytest.raises(LengthError):
        oligo_to_droplet(oligo, 5)


# --- screening -------------------------------------------------------------------------

def test_screen_examples():
    assert OligoScreen(3, 0.0, 1.0).accepts("ACGT")
    assert not OligoScreen(3, 0.0, 1.0).accepts("AAAA")
    assert not OligoScreen(3, 0.4, 0.6).accepts("GGCC")  # GC fraction 1.0
    assert OligoScreen(3, 0.0, 1.0).accepts("AAAGGG")
    assert not OligoScreen(3, 0.0, 1.0).accepts("AAAAG")
    assert OligoScreen(3, 0.4, 0.6).accepts("")


def test_screen_gc_window_boundaries():
    assert OligoScreen(4, 0.5, 0.5).accepts("ACGT")  # exactly half GC
    assert not OligoScreen(4, 0.0, 0.5).accepts("ACGG")
    assert OligoScreen(4, 0.75, 1.0).accepts("ACGG")
