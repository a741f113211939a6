#!/usr/bin/env python3
"""Run one workload over several seeds and print each end-to-end
metric's median and quartile spread (Q3 - Q1 over the median), next to
the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload eval_m512 --seeds 0-9

Runs are made one after another, never in parallel, so they do not
compete for cores. Use it to show the benchmark is steady, and to
compare two commits with identical settings.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, all_correct = {}, True
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            sys.exit(f"seed {seed}: exit {done.returncode}")
        result = json.loads(lines[-1])
        all_correct &= result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        if len(vals) < 2:
            continue
        median, spread = quartile_spread(vals)
        bound = bounds[name]
        print(f"{args.workload} {name}: median {median:.6g} spread {spread:.4f} "
              f"bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'}: "
              f"third {bound / 3:.4f})")
    print(f"{args.workload}: all correct {all_correct}")


if __name__ == "__main__":
    main()
