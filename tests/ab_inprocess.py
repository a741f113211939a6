#!/usr/bin/env python3
"""In-process A/B of two checkouts' held-out scoring.

    OPENBLAS_NUM_THREADS=1 python3 tests/ab_inprocess.py PARENT CHANGE --patch 8 --rounds 30

PARENT and CHANGE are two checkouts of the repository. Each one's
``src/sstgnn`` is imported into this one process under a package name
of its own (``sstgnn_parent``, ``sstgnn_change``), so both sides share
the interpreter, the heap and the CPU: separate benchmark processes can
drift apart by more than the gain to be measured. The clips are the
seed-0 clip of every family, rendered once by CHANGE's `synth` at its
default geometry. Each side scores the same clips with its own
`model.predict` under the desk preset at ``--patch`` (8 gives M=512
nodes per clip, 4 gives M=2048), from its own
`model.init_params(random_head=True)` at seed 7.

After one untimed pass of each side, each round times one pass of each
side over every clip in CPU time (``time.process_time``), the parent
first in even rounds and the change first in odd ones. It prints each
side's median CPU ms per clip over the rounds with its quartiles, the
rounds each side won (ties count for neither) and the largest absolute
difference between the two sides' scores.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

from bench_pairs import SIDES, quartiles

PARAM_SEED = 7


def load(checkout, name):
    """The package ``checkout``/src/sstgnn, imported afresh as ``name``."""
    root = Path(checkout) / "src" / "sstgnn"
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def compare(parent, change, patch, rounds):
    """Each side's CPU ms per clip, one entry per round, and the largest
    score difference between the sides."""
    packages = {side: load(path, f"sstgnn_{side}")
                for side, path in zip(SIDES, (parent, change))}
    synth = packages["change"].synth
    clips = [synth.generate(synth.SynthSpec(family, seed=0)).clip
             for family in synth.FAMILIES]
    scorers = {}
    for side, package in packages.items():
        config = package.model.preset_config("desk", patch_size=patch)
        params = package.model.init_params(config, seed=PARAM_SEED, random_head=True)
        scorers[side] = (package.model.predict, params, config)

    def score(side):
        predict, params, config = scorers[side]
        t0 = time.process_time()
        scores = [predict(clip, params, config) for clip in clips]
        return (time.process_time() - t0) * 1e3 / len(clips), scores

    scores = {side: score(side)[1] for side in SIDES}
    ms = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            ms[side].append(score(side)[0])
    diff = max(abs(a - b) for a, b in zip(scores["parent"], scores["change"]))
    return ms, diff, len(clips)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--patch", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    for path in (args.parent, args.change):
        if not (path / "src" / "sstgnn" / "__init__.py").is_file():
            parser.error(f"{path} holds no src/sstgnn package")
    ms, diff, count = compare(args.parent, args.change, args.patch, args.rounds)
    print(f"patch {args.patch}, {count} clips, {args.rounds} rounds: "
          f"CPU ms per clip, median [q1, q3]")
    for side in SIDES:
        q1, q2, q3 = quartiles(ms[side])
        print(f"  {side} {q2:.4g} [{q1:.4g}, {q3:.4g}]")
    pm, cm = (statistics.median(ms[side]) for side in SIDES)
    wins = sum(c < p for p, c in zip(ms["parent"], ms["change"]))
    losses = sum(c > p for p, c in zip(ms["parent"], ms["change"]))
    print(f"  change {(cm - pm) / pm:+.1%}, wins change/parent {wins}/{losses} "
          f"of {args.rounds}")
    print(f"  largest score difference {diff:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
