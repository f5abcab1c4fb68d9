"""Batch droplet planning, the matrix screen and the CSR peel against their scalar references."""

import math
import random
import sys
import threading
from bisect import bisect_left
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnavault import fountain
from dnavault.contract import StorageContract
from dnavault.dna_codec import oligo_codes
from dnavault.fountain import (
    OligoScreen,
    RobustSoliton,
    _holders_by_segment,
    _peel_csr,
    droplet_plan,
    oligo_to_droplet,
    plan_droplets,
    recoverable_segments,
)
from dnavault.ledger import Validator
from dnavault.network import Cluster
from dnavault.rng import _JUMPS, _STAR, MASK64, Xorshift64Star, _fisher_yates, _jump, plan_batch


def scalar_plan(seed: int, cumulative: list[float], population: int) -> list[int]:
    """The documented per-seed plan: one inverse-CDF draw, then sample_distinct."""
    rng = Xorshift64Star(seed)
    count = min(bisect_left(cumulative, rng.random()) + 1, population)
    return rng.sample_distinct(count, population)


def scalar_screen(seq: str, max_homopolymer: int, gc_min: float, gc_max: float) -> bool:
    """The documented screen, one base at a time: no run longer than the cap, GC fraction within bounds."""
    run = 1
    for prev, cur in zip(seq, seq[1:]):
        run = run + 1 if cur == prev else 1
        if run > max_homopolymer:
            return False
    if run > max_homopolymer:
        return False
    gc = (seq.count("G") + seq.count("C")) / len(seq)
    return gc_min <= gc <= gc_max


def rows(offsets, indices) -> list[list[int]]:
    return [indices[offsets[i] : offsets[i + 1]].tolist() for i in range(len(offsets) - 1)]


seeds_st = st.lists(st.integers(0, 2**32 - 1), max_size=96)


@settings(max_examples=60, deadline=None)
@given(seeds=seeds_st, k=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 17, 19, 64, 100, 128, 1000, 1024, 2048, 3000, 4099, 2**15]))
def test_plan_droplets_matches_droplet_plan(seeds, k):
    # Under 16,384 seeds this is one plan_batch call, whose output plan_droplets returns as is.
    dist = RobustSoliton(k)
    offsets, indices = plan_droplets(seeds, k)
    assert indices.dtype == np.int32
    assert rows(offsets, indices) == [droplet_plan(s, k, dist)[1] for s in seeds]


@settings(max_examples=80, deadline=None)
@given(
    seeds=seeds_st,
    population=st.one_of(st.integers(1, 300), st.sampled_from([256, 512, 4096])),
    weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=300),
)
def test_plan_batch_matches_scalar_for_any_degree_law(seeds, population, weights):
    # Arbitrary degree laws reach the dense Fisher-Yates branch (2 * count > population)
    # and its boundary (2 * count == population) far more often than the soliton does.
    cumulative = list(np.cumsum(weights) / sum(weights))
    cumulative[-1] = 1.0
    got = rows(*plan_batch(np.array(seeds, dtype=np.uint64), np.array(cumulative), population))
    assert got == [scalar_plan(s, cumulative, population) for s in seeds]


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=63), count=st.integers(1, 12))
def test_plan_batch_replays_rejected_draws(seeds, count):
    # randbelow rejects draws at or above 2**64 - 2**64 % population: here about one in 128.
    population = 2**57 + 1
    cumulative = [0.0] * (count - 1) + [1.0]
    got = rows(*plan_batch(np.array(seeds, dtype=np.uint64), np.array(cumulative), population))
    assert got == [scalar_plan(s, cumulative, population) for s in seeds]


@pytest.mark.parametrize("k", [100, 2048, 32768])
def test_plan_droplets_matches_over_many_seeds(k):
    # Enough rows that long streams and, at K = 32768, dense rows occur.
    dist = RobustSoliton(k)
    seeds = random.Random(k).sample(range(2**32), 2000)
    assert rows(*plan_droplets(seeds, k)) == [droplet_plan(s, k, dist)[1] for s in seeds]


def test_dense_row_replays_a_rejected_draw():
    # The state that draws 2**64 - 1 next, which randbelow(6) rejects: step back
    # from the state that outputs it, 2**64 - 2 steps being one step back.
    state = np.array([MASK64 * pow(_STAR, -1, 1 << 64) & MASK64], dtype=np.uint64)
    for table in _JUMPS[1:]:
        state = _jump(table, state)
    assert Xorshift64Star.from_state(int(state[0])).next_u64() == MASK64
    got = _fisher_yates(state, np.array([4]), 6)
    assert sorted(got.tolist()) == Xorshift64Star.from_state(int(state[0])).sample_distinct(4, 6)


@settings(max_examples=120, deadline=None)
@given(
    population=st.integers(2, 300),
    cases=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.floats(0.0, 1.0)), min_size=1, max_size=12),
)
def test_dense_rows_match_sample_distinct(population, cases):
    # Counts over half the population, up to all of it: the partial Fisher-Yates branch.
    states = np.array([state or 1 for state, _ in cases], dtype=np.uint64)
    counts = np.array([population // 2 + 1 + int(share * (population - population // 2 - 1)) for _, share in cases])
    got = _fisher_yates(states, counts, population)
    expected = [Xorshift64Star.from_state(int(s)).sample_distinct(int(c), population) for s, c in zip(states, counts)]
    assert got.tolist() == [v for row in expected for v in row]


def test_plans_are_int32(monkeypatch):
    monkeypatch.setattr(fountain, "_CORES", 2)  # so the plan is joined from parts
    seeds = random.Random(32).sample(range(2**32), 3 * fountain._PART)
    assert plan_droplets(seeds, 2048)[1].dtype == np.int32
    segments, _ = fountain.fragment(random.Random(32).randbytes(4096), 32)
    assert fountain.encode_droplets(segments, 300, 7, screen=fountain.DEFAULT_SCREEN).indices.dtype == np.int32


def test_int32_plans_limit_k():
    with pytest.raises(ValueError, match=r"K must stay below 2\*\*31"):
        recoverable_segments(np.zeros(2, dtype=np.int64), np.zeros(1, dtype=np.int32), 2**31)
    with pytest.raises(ValueError, match=r"K must stay below 2\*\*31"):
        fountain.decode(np.zeros(1, dtype=np.uint32), np.zeros((1, 32), dtype=np.uint8), 2**31, 10)


def test_plan_batch_rejects_key_overflow():
    with pytest.raises(ValueError):
        plan_batch(np.arange(4, dtype=np.uint64), np.array([1.0]), 2**62)


# --- split across cores ------------------------------------------------------------

def record_part_sizes(monkeypatch) -> list[int]:
    """The seed counts of the ``plan_batch`` calls ``fountain`` makes from here on, in call order."""
    parts = []

    def counted(part, cumulative, population):
        parts.append(len(part))
        return plan_batch(part, cumulative, population)

    monkeypatch.setattr(fountain, "plan_batch", counted)
    return parts


def test_split_planning_matches_one_batch(monkeypatch):
    # Two usable cores, whatever the runner has, so a batch of three parts splits.
    monkeypatch.setattr(fountain, "_CORES", 2)
    k = 32768
    dist = RobustSoliton(k)
    seeds = np.array(random.Random(18).sample(range(2**32), 20000), dtype=np.uint64)
    parts = record_part_sizes(monkeypatch)
    offsets, indices = plan_droplets(seeds, k)
    assert sorted(parts) == [20000 - 2 * fountain._PART, fountain._PART, fountain._PART]
    whole_offsets, whole_indices = plan_batch(seeds, dist.cdf, k)
    assert np.array_equal(offsets, whole_offsets) and np.array_equal(indices, whole_indices)
    for i in random.Random(1).sample(range(len(seeds)), 200) + [0, fountain._PART - 1, fountain._PART, len(seeds) - 1]:
        assert indices[offsets[i] : offsets[i + 1]].tolist() == droplet_plan(int(seeds[i]), k, dist)[1]


def test_encode_droplets_is_the_same_on_one_and_two_cores(monkeypatch):
    segments, _ = fountain.fragment(random.Random(18).randbytes(320 * 1024), 32)
    count = math.ceil(1.7 * len(segments))  # > 16,384, so the first batch is a full one
    parts = record_part_sizes(monkeypatch)
    batches = {}
    for cores in (1, 2):
        monkeypatch.setattr(fountain, "_CORES", cores)
        parts.clear()
        batches[cores] = fountain.encode_droplets(segments, count, 7, screen=fountain.DEFAULT_SCREEN)
        assert parts[:cores] == ([fountain._ENCODE_BATCH] if cores == 1 else [fountain._PART] * 2)  # the first batch
    for field in ("frames", "codes", "offsets", "indices"):
        assert np.array_equal(getattr(batches[1], field), getattr(batches[2], field)), field


def test_split_runs_each_part_once_and_joins_them_in_order(monkeypatch):
    # More workers than this box has cores, and thread switches as often as the interpreter allows.
    monkeypatch.setattr(fountain, "_CORES", 4)
    fountain._pool.cache_clear()
    seeds = np.arange(40 * fountain._PART + 5, dtype=np.uint64)
    ran, failures = [], []

    def work(part):
        ran.append(int(part[0]))
        return part * 2, part[:1]

    def stress():
        try:
            for _ in range(5):
                ran.clear()
                doubled, firsts = (np.concatenate(column) for column in zip(*fountain._parts(work, seeds)))
                assert np.array_equal(doubled, seeds * 2)
                assert sorted(ran) == firsts.tolist() == list(range(0, len(seeds), fountain._PART))
        except Exception as exc:  # noqa: BLE001 - reported by the test thread below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=stress)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        fountain._pool.cache_clear()
    assert not runner.is_alive(), "the split did not finish"
    assert not failures, failures


# --- matrix screen ----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    seqs=st.lists(st.text(alphabet="ACGT", min_size=1, max_size=40), min_size=1, max_size=8),
    run=st.integers(0, 6),
    bounds=st.tuples(st.sampled_from([0.0, 0.25, 0.3, 0.5]), st.sampled_from([0.5, 0.6, 0.75, 1.0])),
)
def test_matrix_screen_matches_the_scalar_screen(seqs, run, bounds):
    """The matrix screen against the scalar reference (``OligoScreen.accepts`` itself runs the matrix screen)."""
    length = max(len(s) for s in seqs)
    seqs = [(s * length)[:length] for s in seqs]  # one length per matrix; repetition makes long runs
    screen = OligoScreen(run, *bounds)
    expected = [scalar_screen(s, run, *bounds) for s in seqs]
    assert screen.accepts_codes(oligo_codes(seqs)).tolist() == expected


def test_matrix_screen_gc_boundaries_are_inclusive():
    seqs = ["GCAT" * 4, "GGGC" + "ATAT" * 3, "GCGC" * 3 + "ATAA"]  # GC 0.5, 0.25, 0.75
    assert OligoScreen(4, 0.25, 0.75).accepts_codes(oligo_codes(seqs)).tolist() == [True, True, True]
    assert OligoScreen(4, 0.3, 0.7).accepts_codes(oligo_codes(seqs)).tolist() == [True, False, False]


# --- peeling --------------------------------------------------------------------------

def reference_peel(index_sets, values, k):
    """The set-based peeling decoder: one ripple droplet at a time."""
    index_sets = [set(s) for s in index_sets]
    values = None if values is None else list(values)
    by_segment = {i: [] for i in range(k)}
    for slot, indices in enumerate(index_sets):
        for i in indices:
            by_segment[i].append(slot)
    resolved = {}
    ripple = [slot for slot, rem in enumerate(index_sets) if len(rem) == 1]
    while ripple:
        slot = ripple.pop()
        rem = index_sets[slot]
        if len(rem) != 1:
            continue
        index = next(iter(rem))
        rem.clear()
        if index in resolved:
            continue
        value = values[slot] if values is not None else 0
        resolved[index] = value
        for other in by_segment[index]:
            if index in index_sets[other]:
                if values is not None:
                    values[other] ^= value
                index_sets[other].discard(index)
                if len(index_sets[other]) == 1:
                    ripple.append(other)
    return resolved


def csr_peel(index_sets, values, k):
    """``_peel_csr`` on CSR arrays built from index sets: resolved segment -> value (0 without values)."""
    offsets = np.zeros(len(index_sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in index_sets], out=offsets[1:])
    indices = np.array([i for s in index_sets for i in sorted(s)], dtype=np.int64)
    words = None if values is None else np.array(values, dtype=np.uint64).reshape(-1, 1)
    resolved, seg_values = _peel_csr(offsets, indices, words, k)
    return {i: 0 if seg_values is None else int(seg_values[i, 0]) for i in np.flatnonzero(resolved).tolist()}


@st.composite
def droplet_sets(draw):
    k = draw(st.integers(1, 30))
    sets = draw(st.lists(st.sets(st.integers(0, k - 1), max_size=min(k, 5)), max_size=50))
    segment_values = draw(st.lists(st.integers(0, 2**40), min_size=k, max_size=k))
    return k, sets, segment_values


@settings(max_examples=200, deadline=None)
@given(droplet_sets(), st.permutations(range(30)), st.integers(0, 1000))
def test_csr_peel_matches_reference(case, shuffle, spare):
    k, sets, segment_values = case
    values = []
    for s in sets:
        v = 0
        for i in s:
            v ^= segment_values[i]
        values.append(v)
    structural = csr_peel(sets, None, k)
    assert structural.keys() == reference_peel(sets, None, k).keys()
    resolved = csr_peel(sets, list(values), k)
    assert resolved == reference_peel(sets, values, k)
    assert all(resolved[i] == segment_values[i] for i in resolved)
    # Each segment renamed to one that shares its low 16 bits with three others: K > 65,536, and the
    # second radix pass must order what the first left tied.
    wide = [(shuffle[i] % 4) << 16 | shuffle[i] // 4 for i in range(k)]
    wide_sets = [{wide[i] for i in s} for s in sets]
    wide_k = (3 << 16) + 8 + spare
    assert csr_peel(wide_sets, None, wide_k).keys() == {wide[i] for i in resolved}
    assert csr_peel(wide_sets, list(values), wide_k) == {wide[i]: v for i, v in resolved.items()}


@pytest.mark.parametrize("k", [1, 300, 1 << 16, (1 << 16) + 1, (1 << 20) + 3])
def test_holders_by_segment_matches_a_stable_sort(k):
    rnd = np.random.default_rng(k)
    degrees = rnd.integers(0, 6, 400)
    offsets = np.concatenate(([0], degrees.cumsum()))
    indices = rnd.integers(0, k, int(offsets[-1]))
    if k > 1:
        indices[:40] = k - 1 - (indices[:40] & 0xFFFF)  # ties in the low 16 bits over the top segments
    holders, starts = _holders_by_segment(offsets, indices, k)
    order = np.argsort(indices, kind="stable")
    assert holders.tolist() == np.arange(len(degrees)).repeat(degrees)[order].tolist()
    assert starts.tolist() == np.searchsorted(indices[order], np.arange(k + 1)).tolist()


def test_holders_by_segment_rejects_key_overflow():
    with pytest.raises(ValueError):
        _holders_by_segment(np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64), 2**62)


def test_recoverable_segments_matches_reference_on_plans():
    for trial in range(1200):
        rnd = random.Random(trial)
        k = rnd.choice([2, 5, 16, 64, 200])
        dist = RobustSoliton(k)
        seeds = rnd.sample(range(2**32), rnd.randint(k // 2, 2 * k))
        sets = [droplet_plan(s, k, dist)[1] for s in seeds]
        assert recoverable_segments(*plan_droplets(seeds, k), k) == len(reference_peel(sets, None, k))
        if trial % 10 == 0:  # values too
            segment_values = [rnd.getrandbits(64) for _ in range(k)]
            values = [0] * len(sets)
            for slot, s in enumerate(sets):
                for i in s:
                    values[slot] ^= segment_values[i]
            assert csr_peel(sets, values, k) == reference_peel(sets, values, k)


# --- planning counts ------------------------------------------------------------------

def test_upload_plans_each_stored_droplet_at_most_once(monkeypatch):
    planned = Counter()
    original = fountain.plan_batch

    def counted(seeds, cumulative, population):
        planned.update(int(s) for s in seeds)
        return original(seeds, cumulative, population)

    def forbidden(*args, **kwargs):
        raise AssertionError("the upload path derived a plan one seed at a time")

    monkeypatch.setattr(fountain, "plan_batch", counted)
    monkeypatch.setattr(fountain, "droplet_plan", forbidden)
    cluster = Cluster([f"node-{i}" for i in range(10)])
    receipt = StorageContract(cluster, [Validator("v", 1)]).upload_file("alice", random.Random(5).randbytes(65536))
    stored = [
        oligo_to_droplet(o, 32).seed
        for b in receipt.bead_ids
        for o in cluster.retrieve_bead(b, receipt.placement).oligos
    ]
    assert len(stored) >= 3482  # ceil(1.7 * 2048)
    assert all(planned[s] == 1 for s in stored)
    assert max(planned.values()) == 1  # no candidate is planned twice either
