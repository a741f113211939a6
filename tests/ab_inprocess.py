#!/usr/bin/env python3
"""In-process A/B of two checkouts' held-out scoring or training.

    OPENBLAS_NUM_THREADS=1 python3 tests/ab_inprocess.py PARENT CHANGE --patch 8 --rounds 30
    OPENBLAS_NUM_THREADS=1 python3 tests/ab_inprocess.py PARENT CHANGE --train --rounds 10

PARENT and CHANGE are two checkouts of the repository. Each one's
``src/sstgnn`` is imported into this one process under a package name
of its own (``sstgnn_parent``, ``sstgnn_change``), so both sides share
the interpreter, the heap and the CPU: separate benchmark processes can
drift apart by more than the gain to be measured. Each round runs each
side once and times it in CPU time (``time.process_time``), the parent
first in even rounds and the change first in odd ones. It prints each
side's median over the rounds with its quartiles and the rounds each
side won (ties count for neither).

Scoring (``--patch``): the clips are the seed-0 clip of every family,
rendered once by CHANGE's `synth` at its default geometry. Each side
scores them with its own `model.predict` under the desk preset at
``--patch`` (8 gives M=512 nodes per clip, 4 gives M=2048), from its
own `model.init_params(random_head=True)` at seed 7, after one untimed
pass. A round is one pass over every clip, timed in CPU ms per clip; it
prints the largest absolute difference between the two sides' scores.

Training (``--train``): each side's `model.train_clips` runs the desk
preset for 2 epochs over seeds 0-31 of the real and upsample_artifact
families, rendered once by CHANGE's `synth`. A round is one training,
timed in CPU seconds; it prints whether the two sides' first trained
parameters are bit-identical, name by name, and their largest absolute
difference.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from bench_pairs import SIDES, quartiles

PARAM_SEED = 7
# the training A/B: the desk preset for this many epochs over seeds
# 0..TRAIN_CLIPS - 1 of each family
TRAIN_EPOCHS = 2
TRAIN_CLIPS = 32
TRAIN_FAMILIES = ("real", "upsample_artifact")


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


def load_sides(parent, change):
    return {side: load(path, f"sstgnn_{side}")
            for side, path in zip(SIDES, (parent, change))}


def alternate(run, rounds):
    """Each side's ``run(side)`` for every round, the parent first in even
    rounds and the change first in odd ones."""
    out = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            out[side].append(run(side))
    return out


def compare(parent, change, patch, rounds):
    """Each side's CPU ms per clip, one entry per round, and the largest
    score difference between the sides."""
    packages = load_sides(parent, change)
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
    ms = alternate(lambda side: score(side)[0], rounds)
    diff = max(abs(a - b) for a, b in zip(scores["parent"], scores["change"]))
    return ms, diff, len(clips)


def compare_training(parent, change, rounds):
    """Each side's CPU seconds per training, one entry per round, whether
    the sides' trained parameters are bit-identical, and their largest
    absolute difference."""
    packages = load_sides(parent, change)
    synth = packages["change"].synth
    corpus = [synth.generate(synth.SynthSpec(family, seed=seed))
              for family in TRAIN_FAMILIES for seed in range(TRAIN_CLIPS)]
    trained = {}

    def train(side):
        model = packages[side].model
        config = model.preset_config("desk", epochs=TRAIN_EPOCHS)
        t0 = time.process_time()
        params, _ = model.train_clips(corpus, config)
        seconds = time.process_time() - t0
        trained.setdefault(side, {k: t.data for k, t in params.named().items()})
        return seconds

    seconds = alternate(train, rounds)
    parent, change = (trained[side] for side in SIDES)
    identical = all(parent[k].tobytes() == change[k].tobytes() for k in parent)
    diff = max(float(np.abs(parent[k] - change[k]).max()) for k in parent)
    return seconds, identical, diff


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--patch", type=int, help="score clips at this patch size")
    mode.add_argument("--train", action="store_true",
                      help=f"train for {TRAIN_EPOCHS} epochs under the desk preset")
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    for path in (args.parent, args.change):
        if not (path / "src" / "sstgnn" / "__init__.py").is_file():
            parser.error(f"{path} holds no src/sstgnn package")
    if args.train:
        times, identical, diff = compare_training(args.parent, args.change, args.rounds)
        print(f"train: desk preset, {TRAIN_EPOCHS} epochs over {TRAIN_CLIPS} "
              f"{' + '.join(TRAIN_FAMILIES)} clips each, {args.rounds} rounds: "
              f"CPU s per training, median [q1, q3]")
        last = (f"trained parameters bit-identical: {'yes' if identical else 'no'}, "
                f"largest difference {diff:.3g}")
    else:
        times, diff, count = compare(args.parent, args.change, args.patch, args.rounds)
        print(f"patch {args.patch}, {count} clips, {args.rounds} rounds: "
              f"CPU ms per clip, median [q1, q3]")
        last = f"largest score difference {diff:.3g}"
    for side in SIDES:
        q1, q2, q3 = quartiles(times[side])
        print(f"  {side} {q2:.4g} [{q1:.4g}, {q3:.4g}]")
    pm, cm = (statistics.median(times[side]) for side in SIDES)
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    losses = sum(c > p for p, c in zip(times["parent"], times["change"]))
    print(f"  change {(cm - pm) / pm:+.1%}, wins change/parent {wins}/{losses} "
          f"of {args.rounds}")
    print(f"  {last}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
