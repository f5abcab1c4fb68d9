"""Matrix consensus against the read-by-read reference it replaces."""

import random
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dnavault.dna_codec import bytes_to_dna, dna_to_bytes, oligo_codes, oligo_strings
from dnavault.fountain import encode_droplets, fragment
from dnavault.synthesis import ErrorModel, ReadSet, consensus_reads, sequence_bead, synthesize

BASES = "ACGT"
SEGMENT = 8


def matrix_consensus(reads: list[str], segment_size: int) -> list[str]:
    """``consensus_reads`` on equal-length reads given as strings, its frames rendered back as oligos."""
    frames = consensus_reads(ReadSet(oligo_codes(reads), np.ones(len(reads), dtype=np.int64)), segment_size)
    return [bytes_to_dna(frame.tobytes()) for frame in frames]


def reference_consensus(reads: list[str], segment_size: int) -> list[str]:
    """Group by the 16 seed bases in first-seen order; valid reads win, else a
    per-position vote whose ties go to the alphabetically first base; keep
    what passes the CRC."""

    def crc_ok(seq):
        raw = dna_to_bytes(seq)
        return zlib.crc32(raw[:-4]) == int.from_bytes(raw[-4:], "big")

    def majority(pool):
        out = []
        for pos in range(len(pool[0])):
            counts = {}
            for read in pool:
                counts[read[pos]] = counts.get(read[pos], 0) + 1
            best = max(counts.values())
            out.append(min(ch for ch, c in counts.items() if c == best))
        return "".join(out)

    frame_len = 4 * (8 + segment_size)
    groups = {}
    for read in reads:
        if len(read) == frame_len:
            groups.setdefault(read[:16], []).append(read)
    consensus = []
    for members in groups.values():
        valid = [r for r in members if crc_ok(r)]
        pool = valid if valid else members
        candidate = pool[0] if len(set(pool)) == 1 else majority(pool)
        if crc_ok(candidate):
            consensus.append(candidate)
    return consensus


def oligos(count, seed, data_seed=None):
    data = random.Random(seed if data_seed is None else data_seed).randbytes(count * SEGMENT)
    segments, _ = fragment(data, SEGMENT)
    return oligo_strings(encode_droplets(segments, count, rng_seed=seed).codes)


def mutate(read, positions, rnd):
    chars = list(read)
    for p in positions:
        chars[p] = BASES[(BASES.index(chars[p]) + rnd.randrange(1, 4)) % 4]
    return "".join(chars)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    count=st.integers(1, 6),
    coverage=st.integers(1, 4),
    rate=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
    foreign=st.integers(0, 3),
    clash=st.booleans(),
)
def test_matrix_consensus_matches_reference(seed, count, coverage, rate, foreign, clash):
    rnd = random.Random(seed)
    designed = oligos(count, seed % 97)
    if clash:  # other content under the same droplet seeds: groups holding two distinct valid reads
        designed += oligos(count, seed % 97, data_seed=seed)
    reads = []
    for _ in range(coverage):
        for oligo in designed:
            # Errors mostly off the seed field keep groups together; some hit it and split them.
            hits = [p for p in range(len(oligo)) if rnd.random() < rate]
            reads.append(mutate(oligo, hits, rnd))
    for _ in range(foreign):  # reads of no designed molecule; one matrix holds only the frame length
        reads.insert(rnd.randrange(len(reads) + 1), "".join(rnd.choice(BASES) for _ in range(4 * (8 + SEGMENT))))
    rnd.shuffle(reads)
    assert matrix_consensus(reads, SEGMENT) == reference_consensus(reads, SEGMENT)


def shift(read, pos, up):
    """Replace one base by the next higher (or lower) one in A < C < G < T."""
    i = BASES.index(read[pos])
    return read[:pos] + BASES[min(i + 1, 3) if up else max(i - 1, 0)] + read[pos + 1 :]


def test_consensus_ties_go_to_the_lowest_base():
    (clean,) = oligos(1, 3)
    up = [p for p in range(16, len(clean)) if clean[p] != "T"][:2]
    down = [p for p in range(16, len(clean)) if clean[p] != "A"][:2]
    # Two reads failing their CRC at different columns: each differing column is a 1-1 tie.
    raised = [shift(clean, up[0], True), shift(clean, up[1], True)]
    assert matrix_consensus(raised, SEGMENT) == [clean] == reference_consensus(raised, SEGMENT)
    lowered = [shift(clean, down[0], False), shift(clean, down[1], False)]
    assert matrix_consensus(lowered, SEGMENT) == [] == reference_consensus(lowered, SEGMENT)


def test_consensus_drops_all_invalid_group_and_keeps_valid_one():
    first, second = oligos(2, 5)
    rnd = random.Random(1)
    broken = mutate(first, [25], rnd)  # every read of this molecule carries the same error
    reads = [broken, second, broken, mutate(second, [33], rnd), broken]
    assert matrix_consensus(reads, SEGMENT) == [second] == reference_consensus(reads, SEGMENT)


def expanded(read_set) -> list[str]:
    """The reads a weighted read set stands for, each row repeated by its count."""
    return [row for row, count in zip(oligo_strings(read_set.reads), read_set.counts.tolist()) for _ in range(count)]


def rendered(frames) -> list[str]:
    return [bytes_to_dna(frame.tobytes()) for frame in frames]


def test_each_row_votes_once_per_read_it_stands_for():
    (clean,) = oligos(1, 7)
    rnd = random.Random(2)
    # No clean read: a row with an error at 20 stands for 3 reads, two rows with other errors for 1 each.
    rows = [mutate(clean, [20], rnd), mutate(clean, [30], rnd), mutate(clean, [40], rnd)]
    weighted = ReadSet(oligo_codes(rows), np.array([3, 1, 1]))
    reads = [rows[0]] * 3 + rows[1:]
    assert rendered(consensus_reads(weighted, SEGMENT)) == reference_consensus(reads, SEGMENT) == []
    assert matrix_consensus(rows, SEGMENT) == reference_consensus(rows, SEGMENT) == [clean]  # one vote each


def test_consensus_on_a_sequenced_bead_matches_reference():
    designed = oligos(40, 8)
    bead = synthesize(oligo_codes(designed), ErrorModel(substitution_rate=0.01, rng_seed=2), "ref")
    for coverage in (1, 2, 5):
        read_set = sequence_bead(bead, coverage, ErrorModel(substitution_rate=0.03, rng_seed=9))
        reads = expanded(read_set)
        assert rendered(consensus_reads(read_set, SEGMENT)) == reference_consensus(reads, SEGMENT)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    count=st.integers(1, 5),
    rate=st.sampled_from([0.0, 0.02, 0.1]),
    seed_hits=st.booleans(),
    copies=st.lists(st.integers(1, 4), min_size=1, max_size=40),
)
def test_weighted_consensus_matches_reference_on_expanded_reads(seed, count, rate, seed_hits, copies):
    rnd = random.Random(seed)
    designed = oligos(count, seed % 89)
    rows = []
    for _ in copies:
        oligo = rnd.choice(designed)
        # Errors in the payload and CRC fields keep a read in its group; seed-field errors move it.
        low = 0 if seed_hits else 16
        rows.append(mutate(oligo, [p for p in range(low, len(oligo)) if rnd.random() < rate], rnd))
    if rnd.random() < 0.5:  # a group with no clean read: every read of one molecule carries errors
        broken = rnd.choice(designed)
        rows = [mutate(r, [30], random.Random(0)) if r == broken else r for r in rows]
    rows += rnd.sample(rows, min(len(rows), rnd.randrange(3)))  # duplicate rows, counted on their own
    counts = copies + [rnd.randint(1, 4) for _ in range(len(rows) - len(copies))]
    read_set = ReadSet(oligo_codes(rows), np.array(counts))
    reads = [row for row, c in zip(rows, counts) for _ in range(c)]
    assert rendered(consensus_reads(read_set, SEGMENT)) == reference_consensus(reads, SEGMENT)
    # Without counts every row stands for one read.
    assert matrix_consensus(rows, SEGMENT) == reference_consensus(rows, SEGMENT)


def test_a_voted_pool_can_overrule_its_first_row():
    (clean,) = oligos(1, 11)
    rnd = random.Random(4)
    # No clean read. The first row's error at 20 stands for 1 read against 4 for the clean base there; the
    # later rows' errors at 30 and 40 stand for 2 reads each against 3. Every column goes to the clean base.
    rows = [mutate(clean, [20], rnd), mutate(clean, [30], rnd), mutate(clean, [40], rnd)]
    weighted = ReadSet(oligo_codes(rows), np.array([1, 2, 2]))
    reads = [rows[0]] + [rows[1]] * 2 + [rows[2]] * 2
    assert rendered(consensus_reads(weighted, SEGMENT)) == reference_consensus(reads, SEGMENT) == [clean]
