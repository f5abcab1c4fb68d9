"""Live memory of the codec on a 256 KiB file: each stage's ``tracemalloc`` peak above its entry, in a fresh process.

Before plans were int32 and the encoder wrote its result once, these peaks
read 12.2 MiB (``encode_droplets``), 3.6 MiB (``recoverable_segments``) and
10.9 MiB (``decode``) on this file; since then they read 6.5, 2.0 and 4.5 MiB.
Each bound sits at least a fifth below the earlier peak and more than a third
above the present one, so a change that brings back a second copy of the result
or of the plan fails here, while allocator and numpy-version drift does not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BOUNDS_MIB = {"encode_droplets": 9.0, "recoverable_segments": 2.9, "decode": 8.5}

SCRIPT = """
import json, math, random, tracemalloc
from dnavault.fountain import DEFAULT_SCREEN, decode, encode_droplets, fragment, recoverable_segments, split_frames

def peak_mib(call):
    tracemalloc.start()
    entry = tracemalloc.get_traced_memory()[0]
    result = call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return result, (peak - entry) / 2**20

data = random.Random(24).randbytes(256 * 1024)
segments, length = fragment(data, 32)
k = len(segments)
count = math.ceil(1.7 * k)
encode_droplets(segments, count, 1, screen=DEFAULT_SCREEN)  # a first call, untimed
peaks = {}
batch, peaks["encode_droplets"] = peak_mib(lambda: encode_droplets(segments, count, 7, screen=DEFAULT_SCREEN))
recovered, peaks["recoverable_segments"] = peak_mib(lambda: recoverable_segments(batch.offsets, batch.indices, k))
seeds, payloads, _ = split_frames(batch.frames)
decoded, peaks["decode"] = peak_mib(lambda: decode(seeds, payloads, k, length))
assert recovered == k and decoded == data
print(json.dumps(peaks))
"""


def test_codec_peaks_stay_in_proportion_to_the_file():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    peaks = json.loads(proc.stdout.strip().splitlines()[-1])
    over = {stage: round(peak, 2) for stage, peak in peaks.items() if peak > BOUNDS_MIB[stage]}
    assert not over, f"tracemalloc peaks above their bounds {BOUNDS_MIB}: {over}"
