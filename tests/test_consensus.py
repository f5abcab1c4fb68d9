"""Matrix consensus against the read-by-read reference it replaces."""

import random
import zlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dnavault import contract, synthesis
from dnavault.contract import StorageContract, StoreParams
from dnavault.dna_codec import bytes_to_dna, codes_to_bytes, dna_to_bytes, oligo_codes, oligo_strings
from dnavault.fountain import OLIGO_HEADER_BYTES, encode_droplets, fragment, frame_crcs, split_frames
from dnavault.ledger import Validator
from dnavault.network import Cluster
from dnavault.synthesis import ErrorModel, ReadSet, consensus_reads, sequence_bead, synthesize

BASES = "ACGT"
SEGMENT = 8


def matrix_consensus(reads: list[str], segment_size: int) -> list[str]:
    """``consensus_reads`` on equal-length reads given as strings, its frames rendered back as oligos."""
    frames = consensus_reads([ReadSet(oligo_codes(reads), np.ones(len(reads), dtype=np.int64))], segment_size)
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
    assert rendered(consensus_reads([weighted], SEGMENT)) == reference_consensus(reads, SEGMENT) == []
    assert matrix_consensus(rows, SEGMENT) == reference_consensus(rows, SEGMENT) == [clean]  # one vote each


def test_consensus_on_a_sequenced_bead_matches_reference():
    designed = oligos(40, 8)
    bead = synthesize(oligo_codes(designed), ErrorModel(substitution_rate=0.01, rng_seed=2), "ref")
    for coverage in (1, 2, 5):
        read_set = sequence_bead(bead, coverage, ErrorModel(substitution_rate=0.03, rng_seed=9))
        reads = expanded(read_set)
        assert rendered(consensus_reads([read_set], SEGMENT)) == reference_consensus(reads, SEGMENT)


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
    assert rendered(consensus_reads([read_set], SEGMENT)) == reference_consensus(reads, SEGMENT)
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
    assert rendered(consensus_reads([weighted], SEGMENT)) == reference_consensus(reads, SEGMENT) == [clean]


# --- one pass over many read sets -----------------------------------------------------

def one_set_consensus(read_set: ReadSet, segment_size: int) -> np.ndarray:
    """``consensus_reads`` of one read set, as it was written before it took several: groups keyed by seed alone."""
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


def borrow_seed(read_sets: list[ReadSet], lender: int, borrower: int) -> None:
    """Put before ``read_sets[borrower]``'s rows a copy of its first carrying the seed field of ``read_sets[lender]``'s."""
    taker = read_sets[borrower]
    row = taker.reads[:1].copy()
    row[0, :16] = read_sets[lender].reads[0, :16]  # 16 bases: the 4-byte seed field
    read_sets[borrower] = ReadSet(np.concatenate([row, taker.reads]), np.insert(taker.counts, 0, 2))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    rates=st.lists(st.sampled_from([0.0, 0.005, 0.02]), min_size=4, max_size=4),
    coverage=st.integers(1, 4),
    foreign=st.booleans(),
    borrowed=st.booleans(),
    pass_rows=st.sampled_from([1, 10, 8192]),
)
def test_consensus_over_read_sets_is_the_concatenation_of_one_call_per_set(
    seed, sizes, rates, coverage, foreign, borrowed, pass_rows
):
    rnd = random.Random(seed)
    read_sets = []
    for i, (count, rate) in enumerate(zip(sizes, rates)):
        model = ErrorModel(substitution_rate=rate, rng_seed=seed)
        bead = synthesize(oligo_codes(oligos(count, seed % 97 + i)), model, f"bead-{i}")
        read_sets.append(sequence_bead(bead, coverage, model))
    if borrowed and len(read_sets) > 1:  # a read whose corrupted seed field is a later set's seed
        borrow_seed(read_sets, rnd.randrange(1, len(read_sets)), 0)
    if foreign:  # a set whose reads are not of the frame length
        odd = synthesize(oligo_codes(["ACGT" * 3] * 2), ErrorModel(), "foreign")
        read_sets.insert(rnd.randrange(len(read_sets) + 1), sequence_bead(odd, coverage, ErrorModel()))
    expected = np.concatenate([one_set_consensus(read_set, SEGMENT) for read_set in read_sets])
    with mock.patch.object(synthesis, "_PASS_ROWS", pass_rows):  # 1 and 10 split the sets over several passes
        got = consensus_reads(iter(read_sets), SEGMENT)
    assert got.shape == expected.shape and np.array_equal(got, expected)


def test_a_read_never_pools_with_another_sets_reads():
    # The borrowed read comes first and fails its CRC. Pooled with the reads of the set whose seed it carries, it
    # would bring that group's valid molecule forward to the head of the output; in its own group it yields nothing.
    read_sets = [sequence_bead(synthesize(oligo_codes(oligos(3, seed)), ErrorModel(), str(seed)), 2, ErrorModel())
                 for seed in (1, 2)]
    borrow_seed(read_sets, 1, 0)
    got = rendered(consensus_reads(read_sets, SEGMENT))
    assert got == oligos(3, 1) + oligos(3, 2)
    assert got == rendered(np.concatenate([one_set_consensus(read_set, SEGMENT) for read_set in read_sets]))


def test_a_download_takes_one_consensus_pass(monkeypatch):
    store = StorageContract(Cluster([f"node-{i}" for i in range(10)]), [Validator("v", 1)], StoreParams())
    data = random.Random(2).randbytes(1024)
    receipt = store.upload_file("alice", data)
    assert len(receipt.bead_ids) == 4
    calls = []

    def counted(read_sets, segment_size):
        calls.append(segment_size)
        return consensus_reads(read_sets, segment_size)

    monkeypatch.setattr(contract, "consensus_reads", counted)
    assert store.download_file("alice", receipt.file_hash) == data
    assert calls == [32]
