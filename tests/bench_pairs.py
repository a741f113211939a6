#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, and their verdict.

    python3 tests/bench_pairs.py PARENT CHANGE --workload train_desk --pairs 10 --seed 0

PARENT and CHANGE are two checkouts of the repository. ``--workload``
may be given more than once, or as ``all`` for every workload
``BENCHMARK.json`` of CHANGE lists; each workload gets its pairs and its
own block of rows and verdicts, in the order named. Each pair runs
``perfbench/run.py`` once in each, for the run length ``BENCHMARK.json``
of CHANGE sets, with tracing off; even pairs run the parent first, odd
pairs the change. It prints each run's end-to-end metrics as it ends,
then, per metric the run reports, each side's median and quartiles (two
rows, ``run_minor_faults_per_op`` and ``run_sys_cpu_share``, come from
``getrusage`` around the run and get no verdict), and for every
end-to-end metric of ``BENCHMARK.json`` the pairs each side won and the
verdict. Above the medians one line says whether both sides measured
the same inputs: ``same inputs`` when every run's ``env`` line gave one
``input_sha256``, else each side's hashes, so a pair over different
clips says so. The verdicts:

- ``gain``: the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: neither, and the parent's interquartile range is
  wider than the bound, unless every change run beats every parent run;
- ``within bound``: otherwise.

A ``reference kernel moved`` line follows for each in-process
reference kernel (``train_reference_ms``, ``eval_reference_ms``) whose
median moved by more than the parent's interquartile range, with the
program's own CPU rate on both sides (``train_clip_steps_per_cpu_s``,
``eval_clips_per_cpu_s``): the ref-ms metrics divide by that kernel, so
part of such a verdict is the kernel's. Last come each side's failed
operations and runs whose checks failed. Nothing is written; the
benchmark's files are only read and run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# each in-process reference kernel, and the program's own CPU rate of the
# work whose ref-ms metric it scales
KERNELS = (("train_reference_ms", "train_clip_steps_per_cpu_s"),
           ("eval_reference_ms", "eval_clips_per_cpu_s"))


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run: its report metrics (name -> value),
    its result JSON, the last line of its output, and the
    ``input_sha256`` of its ``env`` line (None if it has none). Two
    rows come from ``getrusage`` of the run's process:
    ``run_minor_faults_per_op``, its minor page faults over the result's
    ``attempted`` operations, and ``run_sys_cpu_share``, its system CPU
    over its total CPU."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    reported, inputs = {}, None
    for line in lines:
        if line.startswith("env "):
            inputs = json.loads(line[len("env "):]).get("input_sha256")
        if line.startswith("metric ") and " = " in line:
            name, _, rest = line[len("metric "):].partition(" = ")
            reported[name] = float(rest.split()[0])
    result = json.loads(lines[-1])
    user, system = (getattr(after, f) - getattr(before, f) for f in ("ru_utime", "ru_stime"))
    reported["run_minor_faults_per_op"] = (
        (after.ru_minflt - before.ru_minflt) / max(1, result["attempted"]))
    reported["run_sys_cpu_share"] = system / (user + system) if user + system else 0.0
    return reported, result, inputs


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """(wins of the change, wins of the parent, verdict) over paired runs."""
    flip = -1.0 if better == "lower" else 1.0    # larger is better below
    parent, change = [flip * v for v in parent], [flip * v for v in change]
    wins = sum(c > p for p, c in zip(parent, change))
    losses = sum(c < p for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if wins >= 0.9 * len(parent) and cm - pm > p3 - p1:
        return wins, losses, "gain"
    if pm - cm > bound * abs(pm):
        return wins, losses, "worse"
    if p3 - p1 > bound * abs(pm) and not min(change) > max(parent):
        return wins, losses, "unresolved"
    return wins, losses, "within bound"


def inputs_line(inputs):
    """``same inputs`` and the hash when every run of both sides reported
    one ``input_sha256``; else each side's distinct hashes, ``none`` for
    a run that reported none. ``inputs`` maps each side to its runs'
    hashes."""
    seen = {side: sorted({h or "none" for h in inputs[side]}) for side in SIDES}
    first, *more = seen["parent"]
    if seen["change"] == seen["parent"] and not more and first != "none":
        return f"  same inputs: input_sha256 {first}"
    return "  inputs: " + "; ".join(f"{side} input_sha256 {', '.join(seen[side])}"
                                    for side in SIDES)


def kernel_moved(runs):
    """One line per reference kernel whose change median lies further
    from the parent median than the parent's interquartile range, with
    both sides' median of the program's own rate. ``runs`` maps each side
    to its runs' reported metrics."""
    lines = []
    for kernel, rate in KERNELS:
        if not all(kernel in r for side in SIDES for r in runs[side]):
            continue
        p1, pm, p3 = quartiles([r[kernel] for r in runs["parent"]])
        cm = statistics.median(r[kernel] for r in runs["change"])
        if abs(cm - pm) <= p3 - p1:
            continue
        own = "; ".join(f"{side} {statistics.median(r[rate] for r in runs[side]):.6g}"
                        for side in SIDES if all(rate in r for r in runs[side]))
        lines.append(f"  reference kernel moved: {kernel} {pm:.6g} -> {cm:.6g} "
                     f"({(cm - pm) / pm:+.1%}), beyond the parent IQR "
                     f"{p3 - p1:.4g}; {rate}: {own}")
    return lines


def workloads(named, bench):
    """The workloads ``--workload`` named, in order, ``all`` standing for
    every workload of ``bench``; ValueError on a name it does not list or
    one named twice."""
    known = [w["name"] for w in bench["workloads"]]
    chosen = [w for name in named for w in (known if name == "all" else [name])]
    unknown = [w for w in chosen if w not in known]
    if unknown or len(set(chosen)) < len(chosen):
        raise ValueError(f"--workload takes distinct workloads of {', '.join(known)} "
                         f"or all; got {', '.join(named)}")
    return chosen


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    try:
        chosen = workloads(args.workload, bench)
    except ValueError as err:
        parser.error(str(err))
    for workload in chosen:
        compare(args, bench, workload)
    return 0


def compare(args, bench, workload):
    """Run ``args.pairs`` pairs of one workload and print its block."""
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    runs = {side: [] for side in SIDES}
    results = {side: [] for side in SIDES}
    inputs = {side: [] for side in SIDES}
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            reported, result, hashed = run_once(checkouts[side], workload, args.seed,
                                                bench["run_seconds"])
            runs[side].append(reported)
            results[side].append(result)
            inputs[side].append(hashed)
            shown = " ".join(f"{name}={reported[name]:.6g}" for name in end_to_end)
            print(f"{workload} pair {pair} {side}: {shown} correct={result['correct']}",
                  flush=True)

    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{bench['run_seconds']} s runs: median [q1, q3]")
    print(inputs_line(inputs))
    names = [n for n in runs["parent"][0] if all(n in r for rs in runs.values()
                                                  for r in rs)]
    for name in names:
        cells = []
        for side in SIDES:
            q1, q2, q3 = quartiles([r[name] for r in runs[side]])
            cells.append(f"{side} {q2:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"  {name}: " + "; ".join(cells))

    print("\nend-to-end verdicts (wins: change / parent)")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        pm, cm = statistics.median(parent), statistics.median(change)
        wins, losses, word = verdict(parent, change, metric["better"], metric["bound"])
        print(f"  {name}: {pm:.6g} -> {cm:.6g} ({(cm - pm) / pm:+.1%}), wins "
              f"{wins}/{losses} of {args.pairs}, parent IQR "
              f"{quartiles(parent)[2] - quartiles(parent)[0]:.4g}, "
              f"bound {metric['bound']:.0%}: {word}")
    for line in kernel_moved(runs):
        print(line)
    for side in SIDES:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        incorrect = sum(not r["correct"] for r in results[side])
        print(f"  {side}: {failed} of {attempted} operations failed, "
              f"{incorrect} of {args.pairs} runs with failed checks")
    print(flush=True)


if __name__ == "__main__":
    sys.exit(main())
