"""Walkthrough: fountain coding files into DNA oligos.

Shows the robust soliton degree distribution, droplet generation, the
oligo wire framing with its CRC, the synthesis screen, and how decode
success depends on overhead. Run it:

    python demos/02_fountain_codes.py
"""

import math
import random
from collections import Counter

import numpy as np

from dnavault.dna_codec import oligo_strings
from dnavault.errors import DecodeFailed
from dnavault.fountain import (
    DEFAULT_SOLITON_C,
    DEFAULT_SOLITON_DELTA,
    OligoScreen,
    RobustSoliton,
    decode,
    encode_droplets,
    fragment,
    oligo_to_droplet,
    split_frames,
)

K = 64
SEGMENT = 16

print("=" * 70)
print("1. THE DEGREE DISTRIBUTION")
print("=" * 70)
dist = RobustSoliton(K)
print(f"  K={K}, c={DEFAULT_SOLITON_C}, delta={DEFAULT_SOLITON_DELTA} (fixed: no record stores them)")
print("  degree | probability")
for d in range(1, 11):
    bar = "#" * int(dist.probabilities[d - 1] * 120)
    print(f"  {d:6} | {dist.probabilities[d - 1]:.4f} {bar}")
print(f"  mass above degree 10: {sum(dist.probabilities[10:]):.4f}")

print()
print("=" * 70)
print("2. DROPLETS AND THEIR OLIGOS")
print("=" * 70)
data = random.Random(2).randbytes(K * SEGMENT - 7)
segments, length = fragment(data, SEGMENT)
batch = encode_droplets(segments, count=int(K * 1.6), rng_seed=42)
degrees = np.diff(batch.offsets).tolist()
seeds, payloads, _ = split_frames(batch.frames)
print(f"  {len(data)} bytes -> {len(segments)} segments -> {len(degrees)} droplets")
print("  sampled degrees:", dict(sorted(Counter(degrees).items())))
oligo = oligo_strings(batch.codes[:1])[0]
print(f"  droplet 0: seed={seeds[0]}, degree={degrees[0]}")
print(f"  as an oligo ({len(oligo)} bases): {oligo[:48]}...")
back = oligo_to_droplet(oligo, SEGMENT)
print(f"  parses back identically: {back.seed == seeds[0] and back.payload == bytes(payloads[0])}")

print()
print("  one substituted base is always caught by the CRC:")
corrupted = "T" + oligo[1:] if oligo[0] != "T" else "A" + oligo[1:]
try:
    oligo_to_droplet(corrupted, SEGMENT)
except Exception as exc:
    print(f"  -> {type(exc).__name__}: {exc}")

print()
print("=" * 70)
print("3. THE SYNTHESIS SCREEN")
print("=" * 70)
for candidate in ("ACGTACGT", "AAAAACGT", "GGGGCCCC"):
    verdict = OligoScreen(max_homopolymer=4, gc_min=0.25, gc_max=0.75).accepts(candidate)
    print(f"  {candidate} -> {'pass' if verdict else 'reject'}")

print()
print("=" * 70)
print("4. DECODING NEEDS OVERHEAD")
print("=" * 70)
BIG_K = 256
print(f"  overhead | decoded (20 seeded trials at K={BIG_K})")
for overhead in (1.0, 1.1, 1.3, 1.5, 1.7):
    wins = 0
    for seed in range(20):
        trial_data = random.Random(seed).randbytes(BIG_K * SEGMENT)
        segs, ln = fragment(trial_data, SEGMENT)
        drops = encode_droplets(segs, max(BIG_K, math.ceil(BIG_K * overhead)), rng_seed=seed)
        seeds, payloads, _ = split_frames(drops.frames)
        try:
            wins += decode(seeds, payloads, BIG_K, ln) == trial_data
        except DecodeFailed:
            pass
    print(f"  {overhead:8.1f} | {'#' * wins}{'.' * (20 - wins)} {wins}/20")
print()
print("  (the storage pipeline checks peelability at upload time and tops the")
print("   droplet count up when a draw is unlucky, so stalls stay an encoding-")
print("   layer concern, not a stored-file one)")
