"""Walkthrough: the simulated synthesis/sequencing error channel.

Oligos pass through substitution and dropout noise when synthesized into a
bead, then pick up fresh read noise at sequencing time; majority consensus
plus the CRC recovers the survivors. Run it:

    python demos/03_noisy_synthesis.py
"""

import random

from dnavault.dna_codec import bytes_to_dna
from dnavault.fountain import encode_droplets, fragment
from dnavault.synthesis import ErrorModel, consensus_reads, sequence_bead, synthesize

SEGMENT = 16
data = random.Random(1).randbytes(40 * SEGMENT)
segments, _ = fragment(data, SEGMENT)
batch = encode_droplets(segments, 64, rng_seed=5)
designed = batch.codes  # one row of base codes per oligo
oligos = [bytes_to_dna(frame.tobytes()) for frame in batch.frames]

print("=" * 70)
print("1. SYNTHESIS NOISE CORRUPTS THE STORED MOLECULES")
print("=" * 70)
model = ErrorModel(substitution_rate=0.005, oligo_dropout_rate=0.05, rng_seed=7)
bead = synthesize(designed, model, "demo-bead")
survivors = len(bead.oligos)
intact = sum(o in set(oligos) for o in bead.oligos)
print(f"  designed oligos : {len(oligos)}")
print(f"  survived dropout: {survivors}")
print(f"  stored unchanged: {intact} (the rest carry substitutions)")

print()
print("=" * 70)
print("2. SEQUENCING ADDS READ NOISE, CONSENSUS REMOVES IT")
print("=" * 70)
print("  coverage | consensus oligos recovered (of designed)")
for coverage in (1, 3, 5, 10):
    reads = sequence_bead(bead, coverage, model)
    consensus = [bytes_to_dna(frame.tobytes()) for frame in consensus_reads([reads], SEGMENT)]
    recovered = len(set(consensus) & set(oligos))
    print(f"  {coverage:8} | {recovered:3}/{len(oligos)}   ({len(reads.reads)} reads)")

print()
print("  an oligo corrupted at synthesis is gone for good: its reads vote")
print("  for the corrupted version, which cannot pass the CRC. The fountain")
print("  code's overhead is what absorbs those losses.")

print()
print("=" * 70)
print("3. DETERMINISM")
print("=" * 70)
again = synthesize(designed, model, "demo-bead")
other = synthesize(designed, model, "other-bead")
print(f"  same bead id, same seed : identical stored content -> {again.oligos == bead.oligos}")
print(f"  different bead identity : different corruption    -> {other.oligos != bead.oligos}")
