#!/usr/bin/env python3
"""Benchmark of the sstgnn detector; run from the repository root.

    python3 perfbench/run.py --workload train_desk --seed 0 --seconds 15 --trace 0

Workloads: train_desk, eval_m512, eval_m2048 (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. Report lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Exits
0 when the run completed (the checks may still have failed, as the JSON
says), 2 on bad arguments or when the package cannot be imported from
``src/`` of this checkout.
"""

import os
import sys

# Pinned before numpy loads, so the BLAS pool is created at this size.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_desk", "eval_m512", "eval_m2048")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import sstgnn from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sstgnn
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import sstgnn from {src}: {exc}\n")
        sys.exit(2)
    if Path(sstgnn.__file__).resolve().parent.parent != src.resolve():
        sys.stderr.write(f"perfbench: sstgnn imported from {sstgnn.__file__}, "
                         f"not from {src}\n")
        sys.exit(2)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import harness

    env = harness.environment(BLAS_THREADS)
    outcome = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, input_sha256=outcome.input_sha256)
    print("env " + json.dumps(env, sort_keys=True))

    wanted = harness.PER_LAYER if args.trace else harness.END_TO_END
    shown = outcome.per_layer if args.trace else outcome.end_to_end
    units = dict(harness.END_TO_END + harness.PER_LAYER)
    for name, value in sorted(outcome.end_to_end.items()):
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, value, unit in outcome.report:
        if name not in outcome.end_to_end:
            print(f"metric {name} = {value:.6g} {unit}")
    if args.trace:
        for name, value in sorted(outcome.per_layer.items()):
            print(f"layer {name} = {value:.6g} {units[name]}")
    ratio = harness.stats.failed_ratio(outcome.failed, outcome.attempted)
    print(f"metric failed_ratio = {ratio:.6g} "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    for note in outcome.notes:
        print(f"note {note}")
    for name, ok, detail in outcome.checks:
        print(f"check {name} {'PASS' if ok else 'FAIL'}: {detail}")

    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(shown[name]), "unit": unit}
                    for name, unit in wanted if name in shown},
    }
    missing = [name for name, _ in wanted if name not in shown]
    if missing:
        print(f"note metrics not measured: {missing}")
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
