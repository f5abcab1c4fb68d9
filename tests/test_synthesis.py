"""Synthesis/sequencing channel: determinism, noise semantics, consensus."""

import hashlib
import math
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnavault import synthesis
from dnavault.dna_codec import bytes_to_dna, oligo_codes, oligo_strings
from dnavault.errors import EmptyBead
from dnavault.fountain import encode_droplets, fragment
from dnavault.ledger import CodecParams
from dnavault.rng import Xorshift64Star, derive_seed, substream
from dnavault.synthesis import (
    Bead,
    ErrorModel,
    ReadSet,
    consensus_reads,
    gap_table,
    load_bead,
    save_bead,
    sequence_bead,
    synthesize,
)

BASES = "ACGT"


def make_oligos(count=12, segment_size=8, seed=0):
    data = random.Random(seed).randbytes(count * segment_size)
    segments, length = fragment(data, segment_size)
    return oligo_strings(encode_droplets(segments, count, rng_seed=seed).codes)


def synth(oligos, model, bead_id):
    return synthesize(oligo_codes(oligos), model, bead_id)


def read_strings(read_set):
    return oligo_strings(read_set.reads)


def consensus(read_set, segment_size):
    """The consensus frames rendered as oligo strings."""
    return [bytes_to_dna(frame.tobytes()) for frame in consensus_reads([read_set], segment_size)]


def scalar_corrupt(oligo: str, stream_seed: int, rate: float, skip_dropout_draw: bool) -> str:
    """Reference implementation of the documented per-stream noise semantics (gap by gap)."""
    rng = Xorshift64Star(stream_seed)
    if skip_dropout_draw:
        rng.next_u64()
    if rate <= 0:
        return oligo
    table = [math.floor((1 - Fraction(rate)) ** g * 2**64) for g in range(1, len(oligo) + 1)]
    out, at = list(oligo), 0
    while True:
        u = rng.next_u64()
        at += sum(t > u for t in table)  # the gap to the next hit
        if at >= len(oligo):
            return "".join(out)
        out[at] = BASES[(BASES.index(out[at]) + 1 + ((rng.next_u64() >> 32) % 3)) % 4]
        at += 1


# --- synthesize -----------------------------------------------------------------

def test_zero_error_synthesis_is_identity():
    oligos = make_oligos()
    bead = synth(oligos, ErrorModel(), "b0")
    assert bead.oligos == oligos
    assert bead.bead_id == "b0"


def test_full_dropout_empties_the_bead():
    oligos = make_oligos()
    bead = synth(oligos, ErrorModel(oligo_dropout_rate=1.0), "b1")
    assert bead.oligos == []


def test_full_substitution_changes_every_base():
    oligos = make_oligos(count=5)
    bead = synth(oligos, ErrorModel(substitution_rate=1.0), "b2")
    for original, stored in zip(oligos, bead.oligos):
        assert all(a != b for a, b in zip(original, stored))


def test_synthesis_matches_scalar_reference():
    oligos = make_oligos(count=7)
    model = ErrorModel(substitution_rate=0.25, rng_seed=123)
    bead = synth(oligos, model, "ref-bead")
    base = derive_seed("synthesize", model.rng_seed, "ref-bead")
    expected = [
        scalar_corrupt(o, substream(base, i), model.substitution_rate, skip_dropout_draw=True)
        for i, o in enumerate(oligos)
    ]
    assert bead.oligos == expected


def test_synthesis_dropout_matches_scalar_reference():
    oligos = make_oligos(count=40)
    model = ErrorModel(oligo_dropout_rate=0.3, rng_seed=9)
    bead = synth(oligos, model, "drop-bead")
    base = derive_seed("synthesize", model.rng_seed, "drop-bead")
    threshold = int(0.3 * (1 << 64))
    expected = [
        o for i, o in enumerate(oligos) if not Xorshift64Star(substream(base, i)).next_u64() < threshold
    ]
    assert bead.oligos == expected
    assert 0 < len(bead.oligos) < len(oligos)


def test_synthesis_is_deterministic():
    oligos = make_oligos(count=20)
    model = ErrorModel(0.05, 0.1, rng_seed=77)
    a = synth(oligos, model, "same")
    b = synth(oligos, model, "same")
    assert a.oligos == b.oligos
    c = synth(oligos, model, "other")
    assert a.oligos != c.oligos  # bead identity is part of the seed


def test_synthesis_rejects_ragged_oligos():
    with pytest.raises(ValueError):
        synth(["ACGT", "ACG"], ErrorModel(), "bad")  # oligo_codes refuses to build the matrix


def test_error_model_validates_rates():
    with pytest.raises(ValueError):
        ErrorModel(substitution_rate=1.5)
    with pytest.raises(ValueError):
        ErrorModel(oligo_dropout_rate=-0.1)


# --- the gap channel ----------------------------------------------------------------

# The sha256 of gap_table(0.001, 160) as little-endian uint64: every interpreter and CPU must build the same table.
GAP_TABLE_0_001_160 = "c13bf97e6ed4b18e459c3396ac5373d33dfe598fb35eec4d104a235d2f550e95"


def test_gap_table_is_exact_and_pinned():
    for rate, length in [(0.001, 160), (0.02, 40), (0.3, 17), (1e-30, 5), (1.0, 9)]:
        expected = [math.floor((1 - Fraction(rate)) ** g * 2**64) for g in range(1, length + 1)]
        assert gap_table(rate, length).tolist() == expected
    assert gap_table(1.0, 9).tolist() == [0] * 9  # every base hits
    assert hashlib.sha256(gap_table(0.001, 160).astype("<u8").tobytes()).hexdigest() == GAP_TABLE_0_001_160


# Upper 1e-6 tail of chi-square with 2 and 159 degrees of freedom.
CHI2_LIMIT = {2: 27.63, 159: 258.58}


def chi_square(observed, expected):
    return float(((observed - expected) ** 2 / expected).sum())


@pytest.mark.parametrize("rate, streams", [(0.001, 200_000), (0.02, 10_000), (0.3, 800)])
def test_substitutions_are_binomial_uniform_in_position_and_shift(rate, streams):
    length = 160
    codes = np.zeros((streams, length), dtype=np.uint8)
    stored = synthesize(codes, ErrorModel(substitution_rate=rate, rng_seed=2024), f"stat-{rate}").codes
    rows, positions = np.nonzero(stored)
    trials = streams * length
    assert abs(len(rows) - trials * rate) < 4 * math.sqrt(trials * rate * (1 - rate))
    assert chi_square(np.bincount(positions, minlength=length), len(rows) / length) < CHI2_LIMIT[159]
    shifts = np.bincount(stored[rows, positions], minlength=4)
    assert shifts[0] == 0 and chi_square(shifts[1:], len(rows) / 3) < CHI2_LIMIT[2]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    count=st.integers(1, 8),
    dropout=st.sampled_from([0.0, 0.3, 1.0]),
    coverage=st.integers(1, 4),
)
def test_rate_zero_is_the_identity_and_draws_nothing_for_substitutions(seed, count, dropout, coverage):
    oligos = make_oligos(count=count, seed=seed)
    codes = oligo_codes(oligos)
    model = ErrorModel(0.0, dropout, rng_seed=seed % 7)
    seeded, steps = [], []

    def counted(name, log):
        real = getattr(synthesis, name)

        def count_streams(states):
            log.append(len(states))
            return real(states)

        return patch.object(synthesis, name, count_streams)

    with counted("seed_states", seeded), counted("step_states", steps):
        bead = synthesize(codes, model, f"zero-{seed}")
        assert steps == ([count] if dropout > 0 else [])  # the dropout draw alone, and only when it can drop
        assert seeded == steps
        assert bead.oligos == [o for o in oligos if o in bead.oligos]  # kept oligos keep their bases and order
        if dropout == 0:
            assert bead.oligos == oligos
        if dropout == 1:
            assert bead.oligos == []
        if not bead.oligos:
            return
        seeded.clear()
        steps.clear()
        reads = sequence_bead(bead, coverage, model)
        assert (seeded, steps) == ([], [])  # no per-read stream is seeded or stepped
    assert read_strings(reads) == bead.oligos and reads.counts.tolist() == [coverage] * len(bead.oligos)


# --- sequencing -----------------------------------------------------------------

def test_sequencing_zero_error_repeats_contents():
    oligos = make_oligos(count=6)
    bead = synth(oligos, ErrorModel(), "s0")
    reads = sequence_bead(bead, 3, ErrorModel())
    assert read_strings(reads) == oligos  # each stored oligo once, standing for its reads, in bead order
    assert reads.counts.tolist() == [3] * 6
    single = sequence_bead(bead, 1, ErrorModel())
    assert read_strings(single) == oligos  # coverage 1, round-major => bead order
    assert single.counts.tolist() == [1] * 6


def reference_reads(bead, coverage, model):
    """Every read one by one, round-major, by the scalar reference of the noise semantics."""
    base = derive_seed("sequence", model.rng_seed, bead.bead_id)
    return [
        scalar_corrupt(oligo, substream(substream(base, i), j), model.substitution_rate, skip_dropout_draw=False)
        for j in range(coverage)
        for i, oligo in enumerate(bead.oligos)
    ]


def reference_rows(bead, coverage, model):
    """Rows in order of first read, with counts: a stored oligo for its clean reads, and each read with a hit."""
    rows, counts, row_of = [], [], {}
    n = len(bead.oligos)
    for r, read in enumerate(reference_reads(bead, coverage, model)):
        oligo = r % n
        if read == bead.oligos[oligo]:  # a substitution always changes the base, so a hit read differs
            if oligo in row_of:
                counts[row_of[oligo]] += 1
                continue
            row_of[oligo] = len(rows)
        rows.append(read)
        counts.append(1)
    return rows, counts


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    count=st.integers(1, 8),
    segment_size=st.sampled_from([1, 2, 8]),
    rate=st.sampled_from([0.0, 0.001, 0.05]),
    dropout=st.sampled_from([0.0, 0.3]),
    coverage=st.integers(1, 5),
    repeats=st.integers(0, 2),
)
def test_sequenced_rows_expanded_by_counts_are_the_reads(seed, count, segment_size, rate, dropout, coverage, repeats):
    oligos = make_oligos(count=count, segment_size=segment_size, seed=seed)
    rnd = random.Random(seed)
    for _ in range(repeats):  # a bead may hold equal molecules
        oligos.insert(rnd.randrange(len(oligos) + 1), rnd.choice(oligos))
    model = ErrorModel(rate, dropout, rng_seed=seed % 7)
    bead = synth(oligos, model, f"prop-{seed}")
    if not len(bead.codes):
        return
    lower = []
    for cov in range(1, coverage + 1):
        reads = sequence_bead(bead, cov, model)
        rows, counts = read_strings(reads), reads.counts.tolist()
        expanded = [row for row, c in zip(rows, counts) for _ in range(c)]
        assert sorted(expanded) == sorted(reference_reads(bead, cov, model))
        assert (rows, counts) == reference_rows(bead, cov, model)
        assert rows[: len(lower)] == lower  # a lower coverage's rows are a prefix
        lower = rows


def test_lower_coverage_reads_are_a_prefix():
    oligos = make_oligos(count=10)
    model = ErrorModel(substitution_rate=0.02, rng_seed=5)
    bead = synth(oligos, model, "prefix")
    low = sequence_bead(bead, 2, model)
    high = sequence_bead(bead, 5, model)
    assert read_strings(high)[: len(low.reads)] == read_strings(low)


def test_sequencing_matches_scalar_reference():
    oligos = make_oligos(count=4)
    model = ErrorModel(substitution_rate=0.3, rng_seed=31)
    bead = synth(oligos, ErrorModel(), "seq-ref")
    reads = sequence_bead(bead, 2, model)
    base = derive_seed("sequence", model.rng_seed, "seq-ref")
    for j in range(2):
        for i, oligo in enumerate(bead.oligos):
            expected = scalar_corrupt(
                oligo, substream(substream(base, i), j), model.substitution_rate, skip_dropout_draw=False
            )
            assert read_strings(reads)[j * len(bead.oligos) + i] == expected


def test_sequencing_empty_bead_raises():
    with pytest.raises(EmptyBead):
        sequence_bead(Bead("empty", oligo_codes([])), 3, ErrorModel())
    oligos = make_oligos()
    bead = synth(oligos, ErrorModel(), "cov")
    with pytest.raises(ValueError):
        sequence_bead(bead, 0, ErrorModel())


# --- consensus --------------------------------------------------------------------

def corrupt_base(oligo: str, pos: int) -> str:
    replacement = BASES[(BASES.index(oligo[pos]) + 1) % 4]
    return oligo[:pos] + replacement + oligo[pos + 1 :]


def test_consensus_of_identical_reads():
    oligos = make_oligos(count=1)
    reads = ReadSet(oligo_codes([oligos[0]] * 3), np.ones(3, dtype=np.int64))
    assert consensus(reads, 8) == [oligos[0]]


def test_consensus_discards_crc_failing_read():
    oligos = make_oligos(count=1)
    clean = oligos[0]
    corrupted = corrupt_base(clean, 20)  # payload base; CRC now fails
    assert consensus(ReadSet(oligo_codes([clean, clean, corrupted]), np.ones(3, dtype=np.int64)), 8) == [clean]


def test_consensus_votes_when_no_read_is_valid():
    oligos = make_oligos(count=1)
    clean = oligos[0]
    # three reads, each corrupted at a different position: every read fails
    # CRC but the per-position majority recovers the original
    reads = [corrupt_base(clean, p) for p in (17, 21, 25)]
    assert consensus(ReadSet(oligo_codes(reads), np.ones(3, dtype=np.int64)), 8) == [clean]


def test_consensus_drops_unrecoverable_groups():
    oligos = make_oligos(count=1)
    hopeless = corrupt_base(oligos[0], 30)
    assert consensus(ReadSet(oligo_codes([hopeless] * 3), np.ones(3, dtype=np.int64)), 8) == []


def test_consensus_end_to_end_recovers_all_oligos():
    oligos = make_oligos(count=30, segment_size=8, seed=3)
    model = ErrorModel(substitution_rate=0.01, rng_seed=12)
    bead = synth(oligos, ErrorModel(), "e2e")
    reads = sequence_bead(bead, 5, model)
    assert sorted(consensus(reads, 8)) == sorted(oligos)


def test_higher_coverage_recovers_superset():
    oligos = make_oligos(count=40, segment_size=8, seed=8)
    model = ErrorModel(substitution_rate=0.05, rng_seed=4)
    bead = synth(oligos, ErrorModel(), "mono")
    low = set(consensus(sequence_bead(bead, 1, model), 8))
    high = set(consensus(sequence_bead(bead, 5, model), 8))
    assert low <= high


def test_consensus_ignores_foreign_framing():
    # The reads of one bead form one matrix, so a foreign length is the whole bead's.
    oligos = make_oligos(count=2)
    foreign = synth(["ACGT" * 3] * 2, ErrorModel(), "foreign")
    assert consensus_reads([sequence_bead(foreign, 3, ErrorModel())], 8).shape == (0, 16)
    assert consensus(sequence_bead(synth(oligos, ErrorModel(), "framed"), 3, ErrorModel()), 8) == oligos


# --- persistence -------------------------------------------------------------------

CODEC = CodecParams(4, 8, 32)  # what make_oligos(count=4) encodes


def test_bead_save_load_roundtrip(tmp_path):
    segments, length = fragment(b"persist me please", 8)
    batch = encode_droplets(segments, 9, rng_seed=31)
    oligos = oligo_strings(batch.codes)
    path = save_bead(tmp_path, Bead("disk-bead", batch.codes), CodecParams(len(segments), 8, length))
    assert path == tmp_path / "disk-bead" / "oligos.txt"
    assert path.read_text().splitlines() == [f"#K={len(segments)} SEG=8 LEN={length}", *oligos]
    back = load_bead(tmp_path, "disk-bead")
    assert (back.bead_id, back.oligos) == ("disk-bead", oligos)


@pytest.mark.parametrize(
    "header, message",
    [
        pytest.param(b"K=4 SEG=8 LEN=32", "missing oligo file header", id="no-hash"),
        pytest.param(b"#K=1 SEG", "malformed oligo file header", id="field-without-equals"),
        pytest.param(b"#K=4 SEG=eight LEN=32", "malformed oligo file header", id="non-integer"),
        pytest.param(b"#K=4 SEG=8", "malformed oligo file header", id="missing-key"),
        pytest.param(b"#K=4 SEG=8 LEN=3\xff", "malformed oligo file header", id="non-ascii"),
    ],
)
def test_damaged_header_fails_at_load_naming_the_file(tmp_path, header, message):
    path = save_bead(tmp_path, synth(make_oligos(count=4), ErrorModel(), "torn"), CODEC)
    path.write_bytes(header + b"\n" + path.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(ValueError, match=f"oligos.txt: {message}"):
        load_bead(tmp_path, "torn")


@pytest.mark.parametrize(
    "damage",
    [
        lambda body: body.replace(b"\n", b"\n\n", 1),  # a blank line
        lambda body: body[:5] + body[6:],  # one line a base short
        lambda body: body[:-1],  # no newline after the last line
    ],
)
def test_ragged_oligo_file_fails_at_load_naming_the_file(tmp_path, damage):
    oligos = make_oligos(count=4)
    save_bead(tmp_path / "beads", synth(oligos, ErrorModel(), "ragged"), CODEC)
    path = tmp_path / "beads" / "ragged" / "oligos.txt"
    header, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + damage(body))
    with pytest.raises(ValueError, match="oligos.txt: oligo lines are blank or of unequal length"):
        load_bead(tmp_path / "beads", "ragged")


def test_an_emptied_bead_saves_and_loads_as_an_empty_matrix(tmp_path):
    oligos = make_oligos(count=4)
    save_bead(tmp_path / "beads", synth(oligos, ErrorModel(oligo_dropout_rate=1.0), "gone"), CODEC)
    assert (tmp_path / "beads" / "gone" / "oligos.txt").read_text().count("\n") == 1
    assert load_bead(tmp_path / "beads", "gone").codes.shape[0] == 0
