"""Run one benchmark workload and print its result as the last line of stdout.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is imported from ``src/``. With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
the layers are wrapped and it carries the per-layer metrics instead. A
human-readable table goes to stderr and the full result to
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "dnavault" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import oracle
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    loop = workloads.Loop(tracer)
    work = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics = workloads.WORKLOADS[args.workload](loop, args.seed, args.seconds, work)
        correct = True
    except oracle.OracleError as exc:
        print(f"perfbench: oracle: {exc}", file=sys.stderr)
        metrics, correct = {}, False
    except Exception:  # noqa: BLE001 - a crash in the program is a failed run, reported as one
        traceback.print_exc()
        metrics, correct = {}, False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    end_to_end = metrics
    if tracer and correct:
        metrics = tracing.layer_metrics(tracer, *loop.rest)

    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "failures": dict(loop.failures), "end_to_end": end_to_end,
              "time_scale": loop.time_scale, "calibration_ms": [c * 1000 for c in loop.calibration],
              "samples": {**{kind: len(v) for kind, v in loop.latency.items()},
                          "setup": len(loop.setup_s), "open": len(loop.open_s)}}
    out = HERE / "out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.4f} {unit}", file=sys.stderr)
    print(f"attempted {loop.attempted}, failed {loop.failed} {dict(loop.failures)}, "
          f"samples {detail['samples']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
