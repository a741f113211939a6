"""Command-line entry point.

Subcommands: synth (corpus generation), train, eval (checkpoint over
held-out corpora), filter-image (spectral demo), npr-check (differential
equivalence), gradcheck (end-to-end finite differences). Exit codes:
0 success, 1 check/criterion failure, 2 usage error.

Flags override the --config file, which overrides built-in defaults.
Every run writes its effective configuration and hash into run.json
under --out.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import metrics, model, pgm, spectral, synth
from .differential import theorem1_check
from .rng import stream

_CONFIG_FLAGS = {
    "patch_size": int, "tau_s": float, "tau_t": float, "tile": int,
    "dim": int, "filter_hidden": int, "lr": float, "batch_size": int,
    "epochs": int, "seed": int,
}


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def read_config_file(path):
    """key = value lines; # comments; keys must be TrainConfig fields,
    each value of its field's type and range on its own. A ValueError
    names the file and the line or, when not UTF-8, the byte."""
    kinds = {f.name: type(getattr(model.TrainConfig(), f.name))
             for f in fields(model.TrainConfig)}
    try:
        text = Path(path).read_bytes().decode()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: byte {err.start} is not UTF-8 text") from err
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in kinds:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = kinds[key]
        try:
            out[key] = _BOOLS[value.lower()] if kind is bool else kind(value)
        except (KeyError, ValueError):
            raise ValueError(f"{path}:{lineno}: {key} = {value!r} is not "
                             f"{kind.__name__}") from None
        try:
            model.TrainConfig(**{key: out[key]})
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    return out


def build_train_config(args) -> model.TrainConfig:
    merged = {}
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for name in _CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    for flag, key in (("no_spectral", "use_spectral"),
                      ("no_differential", "use_differential"),
                      ("no_temporal_mlp", "use_temporal_mlp")):
        if getattr(args, flag, False):
            merged[key] = False
    return model.TrainConfig(**merged)


def write_run_record(out_dir, command, config, extra=None):
    record = {"command": command, "config": config.to_dict(),
              "config_hash": model.config_hash(config)}
    if extra:
        record.update(extra)
    path = Path(out_dir) / "run.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


# ---------------------------------------------------------------------------
# subcommands


def clip_seeds(args):
    """The ``--count`` seeds from ``--seed`` on; ValueError below 1."""
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    return range(args.seed, args.seed + args.count)


def cmd_synth(args):
    families = args.families.split(",")
    seeds = clip_seeds(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = synth.write_corpus(
        out, families, seeds, frames=args.frames, height=args.height,
        width=args.width, channels=args.channels, motion=args.motion,
        strength=args.strength)
    record = {"command": "synth", "families": families,
              "seeds": [args.seed, args.seed + args.count],
              "manifest": manifest.name}
    (out / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(families) * args.count} clips and {manifest}")
    return 0


def cmd_train(args):
    config = build_train_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clips = synth.load_manifest(args.manifest)
    params, history = model.train_clips(clips, config,
                                        log=print if args.verbose else None)
    ckpt = out / "checkpoint.sstg"
    model.save_checkpoint(ckpt, params, config)
    model.write_history(out / "history.csv", history)
    write_run_record(out, "train", config,
                     {"manifest": str(args.manifest),
                      "final_loss": history[-1][2], "checkpoint": ckpt.name})
    print(f"config_hash {model.config_hash(config)}; "
          f"final loss {history[-1][2]:.4f}; checkpoint {ckpt}")
    return 0


def cmd_eval(args):
    seeds = clip_seeds(args)
    params, config = model.load_checkpoint(args.checkpoint)
    if (args.channels != config.channels
            or min(args.height, args.width) < config.patch_size):
        raise ValueError(
            f"clips of {args.channels} channel(s) and {args.height}x"
            f"{args.width} pixels do not fit the checkpoint, which takes "
            f"{config.channels} channel(s) and patch size {config.patch_size}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    families = args.families.split(",")
    chash = model.config_hash(config)
    report = metrics.MetricReport()
    all_clips = []
    for fam in families:
        clips = synth.make_corpus(("real", fam), seeds, frames=args.frames,
                                  height=args.height, width=args.width,
                                  channels=args.channels)
        acc, area, _ = metrics.evaluate_model(params, config, clips)
        report.rows.append(metrics.ReportRow(
            args.protocol, "checkpoint", fam, len(clips), acc, area,
            args.seed, chash))
        all_clips.extend(clips)
    report.write_csv(out / "report.csv")
    if args.dump_embeddings:
        metrics.dump_embeddings(out / "embeddings.csv", all_clips, params,
                                config)
    write_run_record(out, "eval", config,
                     {"protocol": args.protocol, "checkpoint": str(args.checkpoint),
                      "families": families, "mean_auc": report.mean_auc()})
    print(report.to_csv_string(), end="")
    return 0


def cmd_filter_image(args):
    image = pgm.read_pgm(args.input)
    preset = spectral.FilterPreset(args.preset)
    filtered, lam, gains = spectral.filter_image_demo(
        image, preset, patch_size=args.patch, tau_s=args.tau_s)
    pgm.write_pgm(args.out, filtered)
    if args.gains_csv:
        with open(args.gains_csv, "w") as fh:
            fh.write("eigenvalue,gain\n")
            for v, g in zip(lam, gains):
                fh.write(f"{v:.10g},{g:.10g}\n")
    print(f"filtered {args.input} with {args.preset} -> {args.out}")
    return 0


def cmd_npr_check(args):
    grid = stream(args.seed, "npr-check").random((args.size, args.size))
    passed, non_anchor, anchor = theorem1_check(grid, args.l0)
    status = "PASS" if passed else "FAIL"
    print(f"max non-anchor deviation {non_anchor:.1e} "
          f"(anchor aggregate differs by up to {anchor:.3g}): {status}")
    return 0 if passed else 1


def cmd_gradcheck(args):
    clip = synth.generate(synth.SynthSpec(
        "real", seed=args.seed, frames=2, height=4, width=4)).clip
    config = model.preset_config("toy")
    params = model.init_params(config, seed=args.seed, random_head=True)
    _, structure = model.forward([clip], params, config)

    def loss():
        x = model.encode_patches(structure.patches, params, config)
        logits = model.forward_with_structure(structure, x, params, config)
        return ad.cross_entropy(logits, [1])

    worst = 0.0
    for name, tensor in params.named().items():
        err = ad.finite_diff_check(loss, {name: tensor})
        worst = max(worst, err)
        print(f"{name:24s} max rel err {err:.3e}")
    status = "PASS" if worst <= ad.FD_TOLERANCE else "FAIL"
    print(f"overall max rel err {worst:.3e}: {status}")
    return 0 if worst <= ad.FD_TOLERANCE else 1


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sstgnn",
        description="spatial-spectral-temporal graph detector for manipulated video")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--families", default=",".join(synth.FAMILIES))
    p.add_argument("--count", type=int, default=8, help="clips per family")
    p.add_argument("--seed", type=int, default=0, help="first clip seed")
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--motion", type=float, default=0.3)
    p.add_argument("--strength", type=float, default=0.5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a detector on a corpus manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key = value config file")
    for name, kind in _CONFIG_FLAGS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=kind,
                       dest=name, default=None)
    p.add_argument("--no-spectral", action="store_true")
    p.add_argument("--no-differential", action="store_true")
    p.add_argument("--no-temporal-mlp", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on held-out corpora")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--protocol", default="one_to_many",
                   choices=["in_domain", "one_to_many", "many_to_many"])
    p.add_argument("--out", required=True)
    p.add_argument("--families", default=",".join(synth.FAKE_FAMILIES))
    p.add_argument("--count", type=int, default=32, help="clips per class")
    p.add_argument("--seed", type=int, default=9000, help="first test seed")
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--dump-embeddings", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("filter-image", help="graph-spectral filter demo")
    p.add_argument("--in", dest="input", required=True, help="8-bit PGM input")
    p.add_argument("--preset", default="low_pass",
                   choices=list(spectral.PRESET_KINDS))
    p.add_argument("--out", required=True, help="PGM output path")
    p.add_argument("--gains-csv", default=None)
    p.add_argument("--patch", type=int, default=1)
    p.add_argument("--tau-s", dest="tau_s", type=float, default=0.6)
    p.set_defaults(func=cmd_filter_image)

    p = sub.add_parser("npr-check", help="pixel-level differential equivalence")
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--l0", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_npr_check)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit, toy scale")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
