"""Deterministic, platform-independent randomness.

All simulated randomness in this package (droplet degrees, segment picks,
base substitutions, read noise, dropout) flows through one fully specified
generator so that identical seeds reproduce identical byte streams on any
machine:

* stream generator: xorshift64* (shifts 12/25/27, multiplier
  0x2545F4914F6CDD1D), state seeded through the splitmix64 finalizer so
  that nearby integer seeds diverge immediately;
* seed derivation from labels/strings: first 8 bytes (big-endian) of the
  SHA-256 of the '/'-joined parts;
* per-item substreams: ``substream(base, i)`` = splitmix-mix of
  ``base + (i + 1) * GOLDEN``, applied once per index level.

The vectorized helpers mirror the scalar class bit for bit; tests assert
the equivalence. ``plan_batch`` derives many droplet plans at once (one
inverse-CDF degree draw, then ``sample_distinct``), jumping each stream
ahead by table lookups and replaying ``randbelow``'s rejection draws, so
every plan is identical to the one the scalar class yields for the same
seed; a batch of a few hundred entries runs the scalar class itself.
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STAR = 0x2545F4914F6CDD1D


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit scramble."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: object) -> int:
    """Derive a 64-bit seed from arbitrary labels (strings, ints, ...)."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(base: int, index: int) -> int:
    """Seed for the ``index``-th substream of ``base``; bijective in both args."""
    return mix64((base + (index + 1) * GOLDEN) & MASK64)


class Xorshift64Star:
    """Sequential xorshift64* stream; state never reaches zero."""

    def __init__(self, seed: int):
        state = mix64((seed + GOLDEN) & MASK64)
        self._state = state if state != 0 else GOLDEN

    @classmethod
    def from_state(cls, state: int) -> Xorshift64Star:
        """Resume a stream from a raw (non-zero) state, as ``step_states`` leaves it."""
        rng = cls.__new__(cls)
        rng._state = state
        return rng

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s ^= (s << 25) & MASK64
        s ^= s >> 27
        self._state = s
        return (s * _STAR) & MASK64

    def next_u64s(self, count: int) -> np.ndarray:
        """The next ``count`` values of :meth:`next_u64` as a uint64 array, drawn as ``_draw`` draws them."""
        state = np.array([self._state], dtype=np.uint64)
        values = _draw(state, np.array([count])) if count else np.empty(0, dtype=np.uint64)
        self._state = int(state[0])
        return values

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def sample_distinct(self, count: int, population: int) -> list[int]:
        """``count`` distinct integers from [0, population), sorted.

        Rejection sampling for sparse picks, partial Fisher-Yates when the
        sample covers more than half the population. Both branches are
        deterministic for a given stream state.
        """
        if count > population:
            raise ValueError("cannot sample more values than the population holds")
        if count * 2 > population:
            pool = list(range(population))
            for i in range(count):
                j = i + self.randbelow(population - i)
                pool[i], pool[j] = pool[j], pool[i]
            return sorted(pool[:count])
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.randbelow(population))
        return sorted(chosen)


# --- vectorized mirror (numpy uint64, silent wraparound) ---------------------

def seed_states(seeds: np.ndarray) -> np.ndarray:
    """Vectorized equivalent of the Xorshift64Star constructor."""
    z = (seeds.astype(np.uint64) + np.uint64(GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    z[z == 0] = np.uint64(GOLDEN)
    return z


def step_states(states: np.ndarray) -> np.ndarray:
    """Advance every stream one step in place; returns the output values."""
    states ^= states >> np.uint64(12)
    states ^= states << np.uint64(25)
    states ^= states >> np.uint64(27)
    return states * np.uint64(_STAR)


def substream_array(base: np.ndarray | int, indices: np.ndarray) -> np.ndarray:
    """Vectorized ``substream``; ``base`` may be a scalar or a broadcastable array."""
    base_arr = np.asarray(base, dtype=np.uint64)
    z = base_arr + (indices.astype(np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


# --- batch droplet planning -----------------------------------------------------

# The xorshift64* step is linear over GF(2), so 2**p steps are one bit matrix:
# _JUMPS[p][k, b] is where 2**p steps take byte value b in byte lane k (bits
# 8k..8k+7), and a state goes to the XOR of where its eight lanes go.
_JUMPS = [np.arange(256, dtype=np.uint64) << (8 * np.arange(8, dtype=np.uint64))[:, None]]
step_states(_JUMPS[0])


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Where the steps of a ``_JUMPS`` table take each of ``states``."""
    lanes = states.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    out = table[0].take(lanes[:, 0])
    for k in range(1, 8):
        out ^= table[k].take(lanes[:, k])
    return out.reshape(states.shape)


for _ in range(63):  # each table squares the one before
    _JUMPS.append(_jump(_JUMPS[-1], _JUMPS[-1]))

# Streams take their first _LOCKSTEP draws one numpy step per column, cheaper
# than jumps while most streams are short; a power of two, the first jump size.
_LOCKSTEP = 8


def _draw(states: np.ndarray, need: np.ndarray) -> np.ndarray:
    """``need[i] >= 1`` draws from stream ``i``, row-major; ``need`` sorted descending.

    ``states`` is advanced in place. Past the lockstep columns, a stream's
    first ``2**p`` states, jumped ``2**p`` steps, are its next ``2**p``, so
    the cost follows the total drawn, not the length of the longest stream.
    """
    starts = np.cumsum(need) - need
    out = np.empty(int(need.sum()), dtype=np.uint64)  # states, made outputs at the end
    columns = np.arange(min(int(need.max(initial=0)), _LOCKSTEP))
    for t, rows in enumerate(np.searchsorted(-need, -columns, side="left").tolist()):  # streams with need > t
        step_states(states[:rows])
        out[starts[:rows] + t] = states[:rows]
    length, live = _LOCKSTEP, len(need)
    while live := int(np.searchsorted(-need[:live], -length, side="left")):
        copies = np.minimum(need[:live] - length, length)
        src = np.repeat(starts[:live] - (np.cumsum(copies) - copies), copies) + np.arange(int(copies.sum()))
        for block in range(0, len(src), 1 << 13):  # bounds the temporaries; blocks never feed each other
            part = src[block : block + (1 << 13)]
            out[part + length] = _jump(_JUMPS[length.bit_length() - 1], out[part])
        length *= 2
    states[:] = out[starts + need - 1]
    return np.multiply(out, np.uint64(_STAR), out=out)


def _fisher_yates(states: np.ndarray, counts: np.ndarray, population: int) -> np.ndarray:
    """Each row's sample from ``sample_distinct``'s partial Fisher-Yates branch, sorted, the rows concatenated in order.

    Step ``i`` swaps positions ``i`` and ``j = i + randbelow(population - i)``, on draws taken in one batch, and
    keeps what the last earlier step targeting ``j`` left there: what that step's own position held before it, or
    ``j`` itself if no earlier step targeted it. Pointer jumping along those links gives every sample at once. A row
    with a draw ``randbelow`` would reject (odds below ``count * population / 2**64``) replays the scalar class.
    """
    order = np.argsort(-counts, kind="stable")  # _draw takes the longest streams first
    sizes = counts[order]
    row = np.arange(len(sizes)).repeat(sizes)
    steps = np.arange(len(row))
    step = steps - (np.cumsum(sizes) - sizes)[row]  # i within its row
    bound = np.uint64(population) - step.astype(np.uint64)
    draws = _draw(states[order], sizes)
    replay = []
    if draws.max() >= np.uint64((1 << 64) - population):  # only then can randbelow have rejected a draw
        replay = order[np.unique(row[draws > np.uint64(MASK64) - (np.uint64(MASK64) % bound + np.uint64(1)) % bound])]
    target = step + (draws % bound).astype(np.int64)
    bits = (population - 1).bit_length()
    keys = row << bits | target
    by_target = np.argsort(keys, kind="stable")  # steps grouped by row and target, in step order
    keys = keys[by_target]
    same = keys[1:] == keys[:-1]
    previous = np.full(len(row), -1)  # the last earlier step with the same target
    previous[by_target[1:][same]] = by_target[:-1][same]
    query = row << bits | step
    last = np.searchsorted(keys, query, side="right") - 1  # the last step that targeted position i ...
    last -= (last >= 0) & (by_target[last] == steps)  # ... before step i
    link = np.where((last >= 0) & (keys[last] == query), by_target[last], steps)
    while not np.array_equal(jumped := link[link], link):
        link = jumped
    values = np.where(previous < 0, target, step[link[previous]]) | order.repeat(sizes) << bits
    values.sort()  # by input row, then by value
    values &= (1 << bits) - 1
    begin = np.cumsum(counts) - counts
    for r in replay:
        rng = Xorshift64Star.from_state(int(states[r]))
        values[begin[r] : begin[r] + counts[r]] = rng.sample_distinct(int(counts[r]), population)
    return values


# A batch of at most this many plan entries replays the scalar stream: below it the rounds' fixed cost of some 200
# numpy calls outweighs about 1 us an entry in Python. Measured alternating on 2 cores, median of 200 calls: replay
# won up to about 570 entries at K = 32, 500 at K = 64 and 380 at K = 128; at K = 8, 14 seeds took 0.33 and 0.08 ms.
_TINY = 512


def plan_batch(seeds: np.ndarray, cumulative: np.ndarray, population: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch mirror of ``min(bisect_left(cumulative, rng.random()) + 1, population)``
    followed by ``rng.sample_distinct(count, population)``, per ``Xorshift64Star(seed)``.

    Returns CSR arrays ``(offsets, indices)``: row ``i``'s sorted sample is ``indices[offsets[i]:offsets[i + 1]]``,
    int32 while ``population <= 2**31``. Bit-identical to the scalar path, rejection draws of ``randbelow`` included.
    After the degree draw, a batch of at most ``_TINY`` entries replays the scalar class from each row's state.
    Otherwise rows become keys ``row << b | value``, ``b`` the bit length of ``population - 1``. Sparse rows
    (2 * count <= population) sample in lockstep rounds over the rows still short: each draws the values a row
    still needs, drops rejected draws and duplicates and sets aside the rows now complete; as a round draws no more
    values than are missing, no row consumes a draw the scalar loop would not. Dense rows take :func:`_fisher_yates`.
    A stable sort merges the sorted runs into row order. ``len(seeds) * population`` must stay below 2**63.
    """
    n = len(seeds)
    if n * population >= 1 << 63:
        raise ValueError("batch too large: row-major sample keys would overflow 64 bits")
    states = seed_states(np.asarray(seeds, dtype=np.uint64))
    unit = (step_states(states) >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    counts = np.minimum(np.searchsorted(cumulative, unit, side="left") + 1, population)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    index_type = np.int32 if population <= 1 << 31 else np.int64
    if offsets[-1] <= _TINY:
        rows = zip(states.tolist(), counts.tolist())
        values = [v for s, c in rows for v in Xorshift64Star.from_state(s).sample_distinct(c, population)]
        return offsets, np.array(values, dtype=index_type)

    bits = (population - 1).bit_length()
    key_type = np.uint32 if n << bits < 1 << 32 else np.uint64  # keys row << bits | value, and the bound of row n
    row_keys = np.arange(n + 1, dtype=key_type) << key_type(bits)  # the least key of each row, and the bound
    finished = []  # sorted runs of the keys of complete rows
    dense = counts * 2 > population  # sample_distinct's Fisher-Yates branch
    if dense.any():
        rows = np.flatnonzero(dense)
        values = _fisher_yates(states[rows], counts[rows], population).astype(key_type)
        finished.append(values | row_keys[rows].repeat(counts[rows]))
    rejected = (1 << 64) % population  # randbelow rejects the draws at or above 2**64 - rejected
    limit = np.uint64((1 << 64) - rejected) if rejected else None
    rows = np.flatnonzero(~dense)  # ascending, as each round keeps them
    rows_state, need = states[rows], counts[rows]
    pending = np.empty(0, dtype=key_type)  # distinct keys drawn so far by rows still short
    while len(rows):
        order = np.argsort(-need)  # _draw takes the longest streams first
        drawn_state, drawn_need = rows_state[order], need[order]
        keys = _draw(drawn_state, drawn_need)
        rows_state[order] = drawn_state
        ok = None if limit is None else keys < limit
        keys %= np.uint64(population)
        keys = keys.astype(key_type, copy=False)
        keys |= row_keys[rows[order]].repeat(drawn_need)
        keys = np.concatenate([pending, keys if ok is None else keys[ok]])
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]  # distinct; each belongs to one of ``rows``
        have = np.searchsorted(keys, row_keys[rows + 1])  # where each row's keys end ...
        have[1:] -= have[:-1].copy()  # ... less where they start
        complete = have == counts[rows]
        done = complete.repeat(have)
        finished.append(keys[done])
        pending = keys[~done]
        short = ~complete
        rows, rows_state, need = rows[short], rows_state[short], counts[rows[short]] - have[short]
    keys = finished[0] if len(finished) == 1 else np.concatenate(finished)
    keys.sort(kind="stable")  # merges the sorted runs
    keys &= key_type((1 << bits) - 1)
    return offsets, keys.view(keys.dtype.str.replace("u", "i")).astype(index_type, copy=False)
