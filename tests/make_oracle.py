"""Frozen oracle: logits and gradient fingerprints for a fixed clip set.

For 2 clips of each of the 4 families, at the toy (M=8), desk (M=32),
M=128 and M=512 configurations, with and without the differential, it
records the logits of `model.forward`, the path the detector runs, and,
per parameter, the norm of the cross-entropy gradient and its dot
product with a fixed seeded direction. `tests/test_oracle.py` checks the
current code against the stored values, so a change that claims "same
behaviour" is measured against the code that wrote the file.

Regenerate only on purpose (the file is the reference):

    PYTHONPATH=src python tests/make_oracle.py

Given a path, it writes there instead, which makes a bit-identity check
of a refactor one `cmp` of the dumps at the two commits:

    PYTHONPATH=src python tests/make_oracle.py /tmp/after.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from sstgnn import autodiff as ad
from sstgnn import model, synth

ORACLE_PATH = Path(__file__).with_name("oracle.json")
CLIP_SEEDS = (0, 1)
PARAM_SEED = 7

# scale -> (config overrides, clip geometry overrides)
SCALES = {
    "toy": (("toy", {}), {"frames": 2, "height": 4, "width": 4}),
    "desk": (("desk", {}), {}),
    "m128": (("desk", {"patch_size": 16}), {}),
    "m512": (("desk", {"patch_size": 8}), {}),
}


def case_keys():
    for scale in SCALES:
        for differential in (True, False):
            for family in synth.FAMILIES:
                for seed in CLIP_SEEDS:
                    yield scale, differential, family, seed


def direction(name, shape):
    """A fixed unit-variance direction per parameter name."""
    return np.random.default_rng(list(name.encode())).standard_normal(shape)


def compute_case(scale, differential, family, seed):
    (preset, overrides), geometry = SCALES[scale]
    config = model.preset_config(preset, use_differential=differential,
                                 **overrides)
    params = model.init_params(config, seed=PARAM_SEED, random_head=True)
    labeled = synth.generate(synth.SynthSpec(family, seed=seed, **geometry))
    logits, _ = model.forward([labeled.clip], params, config)
    grads = ad.cross_entropy(logits, [labeled.label]).backward()
    norms, dots = {}, {}
    for name, tensor in params.named().items():
        g = grads.get(tensor, np.zeros_like(tensor.data))
        norms[name] = float(np.linalg.norm(g))
        dots[name] = float(np.sum(g * direction(name, g.shape)))
    return {"logits": logits.data[0].tolist(), "grad_norm": norms,
            "grad_dot": dots}


def case_id(scale, differential, family, seed):
    return f"{scale}/{'diff' if differential else 'nodiff'}/{family}/{seed}"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write the frozen oracle.")
    parser.add_argument("out", nargs="?", type=Path, default=ORACLE_PATH,
                        help=f"output path (default {ORACLE_PATH.name} beside "
                             f"this script)")
    out = parser.parse_args(argv).out
    cases = {case_id(*key): compute_case(*key) for key in case_keys()}
    out.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
