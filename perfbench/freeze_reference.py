#!/usr/bin/env python3
"""Write perfbench/reference.json: the frozen per-clip scores the eval
workloads are checked against.

    python3 perfbench/freeze_reference.py

Scores every clip of each eval workload's pool (every family, clip seeds
0..pool-1) with the workload's fixed parameters, through the same
checkpoint round trip as a benchmark run. Run it only when the scores
are meant to change; a speed change must leave them as they are.
"""

import json
import sys
import tempfile

import run

run.import_program()

import harness  # noqa: E402
from sstgnn import model  # noqa: E402


def main():
    out = {"tolerance": harness.SCORE_TOL}
    scratch = harness.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    for name, spec in harness.EVAL_SPECS.items():
        picks = [(family, s) for family in harness.synth.FAMILIES for s in range(spec.pool)]
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            (clips, params, config), _, _ = harness.eval_setup(spec, picks, workdir)
        scores = {}
        for (family, s), item in zip(picks, clips):
            scores[f"{family}/{s}"] = float(model.score_clips([item.clip], params, config)[0])
            print(f"{name} {family}/{s} {scores[f'{family}/{s}']!r}", file=sys.stderr)
        out[name] = {"patch_size": spec.patch_size, "param_seed": harness.PARAM_SEED,
                     "scores": scores}
    harness.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    scratch.rmdir()


if __name__ == "__main__":
    main()
