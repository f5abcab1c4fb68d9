"""Check that the benchmark repeats: two interleaved sets of runs of the same code.

Usage::

    python3 perfbench/repeat.py [--workloads a,b] [--runs N]

Run from the repository root. For each workload it runs set A with seeds
1..N and set B with seeds N+1..2N, alternating A and B, each with the
command and ``run_seconds`` of ``BENCHMARK.json``. For every end-to-end
metric it prints each set's median, quartiles and spread (the quartile
distance as a share of the median), and the shift between the medians (B
against A, positive where B is worse). The sets agree when the size of
every shift stays within the metric's bound, so does every spread except
that of ``setup_s``, and every run of a workload attempts and fails the
same number of operations and reports the same size ratios. Set-up runs
only a few times, at the start of each run, so only the median of
``setup_s`` is held to its bound. Exits 1 if the sets do not agree. Raw
values go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

ROOT = Path(__file__).resolve().parent.parent
# Metrics that count stored bytes: every run of a workload must report the same value.
EXACT = ("stored_bases_per_byte", "disk_bytes_per_byte")


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed its oracle:\n{proc.stderr[-2000:]}")
    return result


def compare(spec: dict, workload: str, sets: dict[str, list[dict]]) -> bool:
    runs = [r for rs in sets.values() for r in rs]
    counts = {(r["failed"], r["attempted"]) for r in runs}
    agree = len(counts) == 1
    print(f"\n{workload}: failed/attempted {sorted(counts)}{'' if agree else '  <-- differs'}")
    for name in EXACT:
        values = {r["metrics"][name]["value"] for r in runs}
        if len(values) > 1:
            agree = False
            print(f"{name} differs between runs: {sorted(values)}")
    print(f"{'metric':24s} {'A median':>12s} {'A q1':>12s} {'A q3':>12s} {'A spr':>6s} "
          f"{'B median':>12s} {'B spr':>6s} {'shift':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = spread([r["metrics"][name]["value"] for r in sets["A"]])
        b = spread([r["metrics"][name]["value"] for r in sets["B"]])
        shift = (b[0] - a[0]) / a[0] * (1 if metric["better"] == "lower" else -1)
        ok = abs(shift) <= bound and (name == "setup_s" or max(a[3], b[3]) <= bound)
        agree &= ok
        print(f"{name:24s} {a[0]:12.4f} {a[1]:12.4f} {a[2]:12.4f} {a[3]:6.3f} "
              f"{b[0]:12.4f} {b[3]:6.3f} {shift:+7.3f} {bound:6.2f}{'' if ok else '  <-- outside bound'}")
    return agree


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    raw: dict[str, dict[str, list[dict]]] = {}
    agree = True
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload}")
        sets = raw[workload] = {"A": [], "B": []}
        for i in range(args.runs):
            for label, seed in (("A", 1 + i), ("B", 1 + args.runs + i)):
                start = time.monotonic()
                sets[label].append(run_once(spec, workload, seed))
                print(f"{workload} {label} seed {seed}: {time.monotonic() - start:.1f} s", file=sys.stderr)
        agree &= compare(spec, workload, sets)
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"repeat-{int(time.time())}.json").write_text(json.dumps(raw, indent=1) + "\n")
    print("\nthe two sets agree within the bounds" if agree else "\nthe two sets do NOT agree within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
