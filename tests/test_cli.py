"""CLI surface: subcommands, exit codes, artifacts on disk."""

import argparse
import csv
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sstgnn
from sstgnn import autodiff as ad
from sstgnn import metrics, model, pgm, spectral, synth
from sstgnn.cli import build_parser, build_train_config, main, read_config_file


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_usage_error():
    assert main(["npr-check", "--wat"]) == 2


def test_npr_check_passes(capsys):
    assert main(["npr-check", "--size", "8", "--l0", "2"]) == 0
    out = capsys.readouterr().out
    assert "max non-anchor deviation 0.0e+00" in out
    assert "PASS" in out


@pytest.mark.parametrize("l0", ["0", "-1", "3"])
def test_npr_check_bad_tile_is_usage_error(capsys, l0):
    assert main(["npr-check", "--size", "8", "--l0", l0]) == 2
    assert capsys.readouterr().err == (
        f"error: image dims 8 x 8 must be divisible by the tile size, a "
        f"positive integer, got {l0}\n")


def test_npr_check_empty_grid_is_usage_error(capsys):
    assert main(["npr-check", "--size", "0"]) == 2
    assert capsys.readouterr().err == "error: image dims 0 x 0 hold no pixel\n"


def test_npr_check_impossible_size_is_one_error_line(capsys):
    # a 1e8 x 1e8 grid asks for 71 PiB, which numpy refuses at once
    assert main(["npr-check", "--size", "100000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 71.1 PiB")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags, message", [
    (["--families", "temporal_jitter", "--strength", "inf"],
     "strength must be finite, got inf"),
    (["--families", "temporal_jitter", "--strength", "5"],
     "strength must be at most 4.0, got 5.0"),
    (["--motion", "nan"], "motion must be finite, got nan"),
    (["--height", "0"], "height must be >= 1, got 0"),
    (["--width", "-2"], "width must be >= 1, got -2"),
    (["--channels", "0"], "channels must be >= 1, got 0"),
], ids=["strength-inf", "strength-above-cap", "motion-nan", "height", "width",
        "channels"])
def test_synth_bad_spec_is_usage_error(tmp_path, capsys, flags, message):
    code = main(["synth", "--out", str(tmp_path / "c"), "--count", "1",
                 "--frames", "2", "--height", "8", "--width", "8", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not list((tmp_path / "c").glob("*.vgf"))


@pytest.mark.parametrize("count", ["0", "-1"])
def test_synth_count_below_one_is_usage_error(tmp_path, capsys, count):
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), "--count", count]) == 2
    assert capsys.readouterr().err == f"error: --count must be at least 1, got {count}\n"
    assert not out.exists()


@pytest.mark.parametrize("families", ["real,real", "bogus", "real,,spectral_noise", ""])
def test_synth_bad_families_is_usage_error(tmp_path, capsys, families):
    # checked before anything is written: no directory, no manifest
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), "--families", families, "--count", "1",
                 "--frames", "2", "--height", "8", "--width", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --families takes distinct families of real, ")
    assert err.endswith(f"got {families!r}\n") and err.count("\n") == 1
    assert not out.exists()


def test_synth_writes_corpus_and_manifest(tmp_path):
    out = tmp_path / "corpus"
    code = main(["synth", "--out", str(out), "--families",
                 "real,spectral_noise", "--count", "2", "--seed", "5",
                 "--frames", "2", "--height", "8", "--width", "8"])
    assert code == 0
    clips = synth.load_manifest(out / "manifest.csv")
    assert len(clips) == 4
    assert (out / "run.json").exists()


def test_synth_deterministic(tmp_path):
    args = ["synth", "--families", "real", "--count", "1", "--seed", "3",
            "--frames", "2", "--height", "8", "--width", "8"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "real_3.vgf").read_bytes()
    b = (tmp_path / "b" / "real_3.vgf").read_bytes()
    assert a == b


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    corpus = root / "corpus"
    main(["synth", "--out", str(corpus), "--families", "real,upsample_artifact",
          "--count", "3", "--seed", "0", "--frames", "2", "--height", "8",
          "--width", "8"])
    out = root / "train"
    code = main(["train", "--manifest", str(corpus / "manifest.csv"),
                 "--out", str(out), "--patch-size", "4", "--dim", "8",
                 "--filter-hidden", "4", "--epochs", "2", "--batch-size", "4"])
    assert code == 0
    return out


def test_train_artifacts(trained_run):
    assert (trained_run / "checkpoint.sstg").exists()
    history = (trained_run / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,split,loss,acc"
    assert len(history) == 3
    record = json.loads((trained_run / "run.json").read_text())
    assert record["config"]["dim"] == 8
    assert len(record["config_hash"]) == 16


def test_eval_checkpoint(trained_run, tmp_path):
    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(trained_run / "checkpoint.sstg"),
                 "--protocol", "one_to_many", "--out", str(out),
                 "--families", "upsample_artifact,spectral_noise",
                 "--count", "2", "--seed", "900", "--frames", "2",
                 "--height", "8", "--width", "8",
                 "--dump-embeddings"])
    assert code == 0
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 3
    assert (out / "embeddings.csv").exists()


def test_eval_dumps_each_clip_once(trained_run, tmp_path):
    # the real clips once, then each fake family's, with the rows a direct
    # dump of those clips writes
    checkpoint = trained_run / "checkpoint.sstg"
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(checkpoint), "--out", str(out),
                 "--count", "2", "--seed", "900", "--frames", "2", "--height", "8",
                 "--width", "8", "--dump-embeddings"]) == 0
    clips = synth.make_corpus(synth.FAMILIES, range(900, 902), frames=2, height=8,
                              width=8, channels=1)
    params, config = model.load_checkpoint(checkpoint)
    _, rows = model.score_and_embed([c.clip for c in clips], params, config)
    metrics.dump_embeddings(tmp_path / "want.csv", clips, rows)
    got = (out / "embeddings.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert len(got.splitlines()) == 1 + 2 * len(synth.FAMILIES)


@pytest.mark.parametrize("families", ["real", "upsample_artifact,upsample_artifact",
                                      "bogus", "spectral_noise,real"])
def test_eval_bad_families_is_usage_error(trained_run, tmp_path, capsys, families):
    # only fake families, each once, checked before --out is made
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(trained_run / "checkpoint.sstg"),
                 "--out", str(out), "--families", families, "--count", "1",
                 "--frames", "2", "--height", "8", "--width", "8"]) == 2
    assert capsys.readouterr().err == (
        f"error: --families takes distinct families of "
        f"{', '.join(synth.FAKE_FAMILIES)}; got {families!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-4"])
def test_eval_count_below_one_is_usage_error(trained_run, tmp_path, capsys, count):
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(trained_run / "checkpoint.sstg"),
                 "--out", str(out), "--count", count, "--frames", "2",
                 "--height", "8", "--width", "8"]) == 2
    assert capsys.readouterr().err == f"error: --count must be at least 1, got {count}\n"
    assert not out.exists()


def test_eval_truncated_checkpoint_is_usage_error(trained_run, tmp_path, capsys):
    blob = (trained_run / "checkpoint.sstg").read_bytes()
    cut = tmp_path / "cut.sstg"
    cut.write_bytes(blob[:len(blob) // 2])
    code = main(["eval", "--checkpoint", str(cut), "--out", str(tmp_path / "e"),
                 "--count", "1", "--frames", "2", "--height", "8",
                 "--width", "8"])
    assert code == 2
    assert "truncated" in capsys.readouterr().err


def eval_exit_code(checkpoint, out):
    return main(["eval", "--checkpoint", str(checkpoint), "--out", str(out),
                 "--count", "1", "--frames", "2", "--height", "8",
                 "--width", "8"])


@pytest.mark.parametrize("echo_edit,message", [
    ((b'"dim":8', b'"dim":"8"'), "dim must be int"),
    ((b'"use_spectral":true', b'"use_spectral":1'), "use_spectral must be bool"),
])
def test_eval_mistyped_config_echo_is_usage_error(trained_run, tmp_path, capsys,
                                                  echo_edit, message):
    blob = (trained_run / "checkpoint.sstg").read_bytes()
    start = len(model.CHECKPOINT_MAGIC)
    (length,) = struct.unpack_from("<I", blob, start)
    echo = blob[start + 4:start + 4 + length]
    assert echo_edit[0] in echo
    echo = echo.replace(*echo_edit)
    bad = tmp_path / "bad.sstg"
    bad.write_bytes(blob[:start] + struct.pack("<I", len(echo)) + echo
                    + blob[start + 4 + length:])
    assert eval_exit_code(bad, tmp_path / "e") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    (lambda t: t.pop("head.bias"), r"missing \['head.bias'\]"),
    (lambda t: t.update(extra=ad.parameter(np.zeros(2))),
     r"unexpected \['extra'\]"),
    (lambda t: t.update({"head.bias": ad.parameter(np.zeros(3))}),
     r"head.bias has shape \(3,\)"),
])
def test_eval_checkpoint_tensors_must_fit_config(trained_run, tmp_path, capsys,
                                                 edit, message):
    params, config = model.load_checkpoint(trained_run / "checkpoint.sstg")
    edit(params.tensors)
    bad = tmp_path / "bad.sstg"
    model.save_checkpoint(bad, params, config)
    assert eval_exit_code(bad, tmp_path / "e") == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_eval_non_finite_checkpoint_tensor_is_usage_error(trained_run, tmp_path,
                                                         capsys, value):
    params, config = model.load_checkpoint(trained_run / "checkpoint.sstg")
    params["gat.attention"].data[3] = value
    bad = tmp_path / "bad.sstg"
    model.save_checkpoint(bad, params, config)
    assert eval_exit_code(bad, tmp_path / "e") == 2
    assert "tensor gat.attention holds non-finite values" in capsys.readouterr().err


def test_eval_removed_config_keys_are_usage_error(trained_run, tmp_path, capsys):
    # eps and leaky_slope were config fields; they are module constants now,
    # and the temporal concat always runs
    blob = (trained_run / "checkpoint.sstg").read_bytes()
    start = len(model.CHECKPOINT_MAGIC)
    (length,) = struct.unpack_from("<I", blob, start)
    echo = json.loads(blob[start + 4:start + 4 + length])
    old = json.dumps({**echo, "eps": 1e-4, "leaky_slope": 0.2, "use_temporal_mlp": True},
                     sort_keys=True, separators=(",", ":")).encode()
    bad = tmp_path / "old.sstg"
    bad.write_bytes(blob[:start] + struct.pack("<I", len(old)) + old
                    + blob[start + 4 + length:])
    assert eval_exit_code(bad, tmp_path / "e") == 2
    assert "unknown config keys: ['eps', 'leaky_slope', 'use_temporal_mlp']" in \
        capsys.readouterr().err


@pytest.mark.parametrize("echo", [b"[]", b"1", b"null"])
def test_config_echo_not_an_object_is_usage_error(trained_run, tmp_path, capsys,
                                                  echo):
    # valid JSON, but no config: the loader and the CLI refuse it alike
    blob = (trained_run / "checkpoint.sstg").read_bytes()
    start = len(model.CHECKPOINT_MAGIC)
    (length,) = struct.unpack_from("<I", blob, start)
    bad = tmp_path / "bad.sstg"
    bad.write_bytes(blob[:start] + struct.pack("<I", len(echo)) + echo
                    + blob[start + 4 + length:])
    with pytest.raises(ValueError, match="config must be a JSON object"):
        model.load_checkpoint(bad)
    assert eval_exit_code(bad, tmp_path / "e") == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_eval_config_echo_not_json_names_its_byte(trained_run, tmp_path, capsys):
    blob = (trained_run / "checkpoint.sstg").read_bytes()
    at = len(model.CHECKPOINT_MAGIC) + 4
    assert blob[at:at + 1] == b"{"
    bad = tmp_path / "bad.sstg"
    bad.write_bytes(blob[:at] + b"#" + blob[at + 1:])
    assert eval_exit_code(bad, tmp_path / "e") == 2
    assert capsys.readouterr().err == (f"error: {bad}: config echo at byte {at}: "
                                       f"Expecting value: line 1 column 1 (char 0)\n")


def test_eval_tensor_name_not_utf8_names_its_byte(trained_run, tmp_path, capsys):
    blob = (trained_run / "checkpoint.sstg").read_bytes()
    at = blob.index(b"encoder.weight")    # tensor 0
    bad = tmp_path / "bad.sstg"
    bad.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    assert eval_exit_code(bad, tmp_path / "e") == 2
    assert capsys.readouterr().err == \
        f"error: {bad}: tensor 0 name at byte {at} is not UTF-8\n"


@pytest.mark.parametrize("geometry", [
    ["--channels", "3"], ["--height", "2"], ["--width", "3"]],
    ids=["channels", "height", "width"])
def test_eval_clip_geometry_must_fit_checkpoint(trained_run, tmp_path, capsys,
                                                geometry):
    code = main(["eval", "--checkpoint", str(trained_run / "checkpoint.sstg"),
                 "--out", str(tmp_path / "e"), "--count", "1", "--frames", "2",
                 "--height", "8", "--width", "8"] + geometry)
    assert code == 2
    err = capsys.readouterr().err
    assert "do not fit the checkpoint" in err
    assert "1 channel(s) and patch size 4" in err
    assert f"clips of {3 if geometry[0] == '--channels' else 1} channel(s)" in err
    assert not (tmp_path / "e" / "report.csv").exists()


def test_eval_reports_reproduce_bytes(trained_run, tmp_path):
    args = ["eval", "--checkpoint", str(trained_run / "checkpoint.sstg"),
            "--protocol", "in_domain", "--families", "upsample_artifact",
            "--count", "2", "--seed", "901", "--frames", "2",
            "--height", "8", "--width", "8"]
    main(args + ["--out", str(tmp_path / "e1")])
    main(args + ["--out", str(tmp_path / "e2")])
    assert (tmp_path / "e1" / "report.csv").read_bytes() == \
        (tmp_path / "e2" / "report.csv").read_bytes()


def test_filter_image_all_pass_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = 0.2 + 0.6 * rng.random((10, 10))
    src = tmp_path / "in.pgm"
    pgm.write_pgm(src, img)
    dst = tmp_path / "out.pgm"
    code = main(["filter-image", "--in", str(src), "--preset", "all_pass",
                 "--out", str(dst), "--gains-csv", str(tmp_path / "g.csv")])
    assert code == 0
    # 8-bit quantisation is the only loss for an all-pass filter
    out = pgm.read_pgm(dst)
    np.testing.assert_allclose(out, pgm.read_pgm(src), atol=1 / 255 + 1e-6)
    gains = (tmp_path / "g.csv").read_text().splitlines()
    assert gains[0] == "eigenvalue,gain"
    assert len(gains) == 101


@pytest.mark.parametrize("tau_s", ["nan", "-0.1", "1.5"])
def test_filter_image_tau_s_out_of_range_is_usage_error(tmp_path, capsys, tau_s):
    # a NaN threshold would prune every edge; TrainConfig's rule applies
    img = 0.2 + 0.6 * np.random.default_rng(0).random((4, 4))
    with pytest.raises(ValueError, match=r"tau_s must lie in \[0, 1\]"):
        spectral.filter_image_demo(img, spectral.FilterPreset("all_pass"),
                                   tau_s=float(tau_s))
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    pgm.write_pgm(src, img)
    code = main(["filter-image", "--in", str(src), "--preset", "all_pass",
                 "--out", str(dst), "--tau-s", tau_s])
    assert code == 2
    assert "tau_s must lie in [0, 1]" in capsys.readouterr().err
    assert not dst.exists()


@pytest.mark.parametrize("header, message", [
    (b"P5\n2 2\n0\n", "maxval must be >= 1"),
    (b"P5\n0 2\n255\n", "width and height must be >= 1"),
    (b"P5\n2 0\n255\n", "width and height must be >= 1"),
    (b"P2\nabc 2\n255", "width must be an integer, got 'abc'"),
    (b"P5\n2 2\n25x", "maxval must be an integer"),
], ids=["maxval_0", "width_0", "height_0", "width_not_integer",
        "maxval_not_integer"])
def test_filter_image_bad_pgm_header_is_usage_error(tmp_path, capsys, header,
                                                    message):
    src = tmp_path / "in.pgm"
    src.write_bytes(header + bytes(4))
    code = main(["filter-image", "--in", str(src), "--preset", "all_pass",
                 "--out", str(tmp_path / "out.pgm")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and str(src) in err
    assert not (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("body, message", [
    (b"P2\n2 2\n255\n1 2 300 4\n", "sample 300 outside 0..255"),
    (b"P2\n2 2\n255\n1 -3 2 4\n", "sample -3 outside 0..255"),
    (b"P2\n2 2\n255\n1 2 3 99999999999999999999999\n", "outside 0..255"),
    (b"P2\n2 2\n100\n1 2 101 4\n", "sample 101 outside 0..100"),
    (b"P5\n2 2\n100\n\x01\x02\xc8\x04", "sample 200 outside 0..100"),
    (b"P2\n2 2\n255\n1 2 x 4\n", "P2 samples must be integers"),
    (b"P2\n2 2\n255\n1 2 3\n", "3 samples for a 2x2 image of 4"),
    (b"P5\n2 2\n255\n\x01\x02\x03", "3 samples for a 2x2 image of 4"),
    (b"P5\n2 2\n255", "0 samples for a 2x2 image of 4"),
], ids=["p2_300", "p2_negative", "p2_huge", "p2_above_maxval",
        "p5_above_maxval", "p2_not_integer", "p2_short", "p5_short",
        "p5_no_data"])
def test_filter_image_bad_pgm_samples_are_usage_errors(tmp_path, capsys, body,
                                                       message):
    src = tmp_path / "in.pgm"
    src.write_bytes(body)
    code = main(["filter-image", "--in", str(src), "--preset", "all_pass",
                 "--out", str(tmp_path / "out.pgm")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and str(src) in err
    assert not (tmp_path / "out.pgm").exists()


def test_pgm_samples_read_against_maxval(tmp_path):
    src = tmp_path / "in.pgm"
    src.write_bytes(b"P2\n2 1\n100\n0 100\n")
    np.testing.assert_array_equal(pgm.read_pgm(src), [[0.0, 1.0]])
    src.write_bytes(b"P5\n2 1\n255\n\x00\xff")
    np.testing.assert_array_equal(pgm.read_pgm(src), [[0.0, 1.0]])


@pytest.mark.parametrize("dropped", ["path", "label", "family"])
def test_train_manifest_missing_column_is_usage_error(tmp_path, capsys,
                                                      dropped):
    corpus = tmp_path / "corpus"
    main(["synth", "--out", str(corpus), "--families", "real,spectral_noise",
          "--count", "1", "--seed", "0", "--frames", "2", "--height", "8",
          "--width", "8"])
    manifest = corpus / "manifest.csv"
    rows = [line.split(",") for line in manifest.read_text().splitlines()]
    keep = [k for k, name in enumerate(rows[0]) if name != dropped]
    manifest.write_text("".join(",".join(row[k] for k in keep) + "\n"
                                for row in rows))
    code = main(["train", "--manifest", str(manifest),
                 "--out", str(tmp_path / "train"), "--patch-size", "4",
                 "--epochs", "1"])
    assert code == 2
    assert f"lacks column(s) {dropped}" in capsys.readouterr().err


def test_train_manifest_short_row_is_usage_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    main(["synth", "--out", str(corpus), "--families", "real",
          "--count", "1", "--seed", "0", "--frames", "2", "--height", "8",
          "--width", "8"])
    manifest = corpus / "manifest.csv"
    manifest.write_text("path,label,family,seed\nreal_0.vgf\n")
    code = main(["train", "--manifest", str(manifest),
                 "--out", str(tmp_path / "train"), "--patch-size", "4",
                 "--epochs", "1"])
    assert code == 2
    assert "manifest.csv:2: row lacks label, family" in capsys.readouterr().err


@pytest.mark.parametrize("row, bad_row, error", [
    pytest.param(",1,spectral_noise,", ",2,spectral_noise,",
                 "3: label '2' is not 0 or 1", id="2"),
    pytest.param(",1,spectral_noise,", ",x,spectral_noise,",
                 "3: label 'x' is not 0 or 1", id="x"),
    pytest.param(",0,real,", ",1,real,",
                 "2: label 1 does not fit family 'real' (0 iff real, else 1)",
                 id="real-1"),
])
def test_train_manifest_bad_label_is_usage_error(tmp_path, capsys, row,
                                                 bad_row, error):
    corpus = tmp_path / "corpus"
    main(["synth", "--out", str(corpus), "--families", "real,spectral_noise",
          "--count", "1", "--seed", "0", "--frames", "2", "--height", "8",
          "--width", "8"])
    manifest = corpus / "manifest.csv"
    text = manifest.read_text()
    assert text.count(row) == 1
    manifest.write_text(text.replace(row, bad_row))
    code = main(["train", "--manifest", str(manifest),
                 "--out", str(tmp_path / "train"), "--patch-size", "4",
                 "--epochs", "1"])
    assert code == 2
    assert f"{manifest}:{error}" in capsys.readouterr().err


def test_train_manifest_oversized_field_is_usage_error(tmp_path, capsys):
    # a field over csv's size limit is a usage error naming the line, not
    # a traceback from the csv module
    corpus = tmp_path / "corpus"
    main(["synth", "--out", str(corpus), "--families", "real",
          "--count", "1", "--seed", "0", "--frames", "2", "--height", "8",
          "--width", "8"])
    manifest = corpus / "manifest.csv"
    manifest.write_text(manifest.read_text()
                        + "x" * (csv.field_size_limit() + 1) + ",0,real,0\n")
    code = main(["train", "--manifest", str(manifest),
                 "--out", str(tmp_path / "train"), "--patch-size", "4",
                 "--epochs", "1"])
    assert code == 2
    assert f"{manifest}:3: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.5])
def test_train_bad_clip_pixel_names_file_and_byte(tmp_path, capsys, value):
    corpus = tmp_path / "corpus"
    main(["synth", "--out", str(corpus), "--families", "real,spectral_noise",
          "--count", "1", "--seed", "0", "--frames", "2", "--height", "8",
          "--width", "8"])
    clip = corpus / "real_0.vgf"
    blob = clip.read_bytes()
    at = len(blob) - 1 - 4 * (2 * 8 * 8) + 4 * 5   # pixel 5; a label byte ends it
    clip.write_bytes(blob[:at] + struct.pack("<f", value) + blob[at + 4:])
    code = main(["train", "--manifest", str(corpus / "manifest.csv"),
                 "--out", str(tmp_path / "train"), "--patch-size", "4",
                 "--epochs", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {clip}: pixels must be finite and lie in [0, 1] "
        f"(pixel at byte {at})\n")


def test_train_mixed_clip_shapes_is_usage_error(tmp_path, capsys):
    # a minibatch is one stacked graph, so a training corpus has one shape
    corpus = tmp_path / "corpus"
    for sub, size in (("", "8"), ("big", "16")):
        main(["synth", "--out", str(corpus / sub), "--families",
              "real,spectral_noise", "--count", "1", "--seed", "0",
              "--frames", "2", "--height", size, "--width", size])
    manifest = corpus / "manifest.csv"
    big = (corpus / "big" / "manifest.csv").read_text().splitlines()[1:]
    manifest.write_text(manifest.read_text()
                        + "".join(f"big/{row}\n" for row in big))
    code = main(["train", "--manifest", str(manifest),
                 "--out", str(tmp_path / "train"), "--patch-size", "4",
                 "--epochs", "1"])
    assert code == 2
    assert "clip 2 (real) is (2, 16, 16, 1)" in capsys.readouterr().err


def test_train_channel_mismatch_is_usage_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    main(["synth", "--out", str(corpus), "--families", "real,spectral_noise",
          "--count", "1", "--seed", "0", "--frames", "2", "--height", "8",
          "--width", "8", "--channels", "3"])
    code = main(["train", "--manifest", str(corpus / "manifest.csv"),
                 "--out", str(tmp_path / "train"), "--patch-size", "4",
                 "--epochs", "1"])
    assert code == 2
    assert capsys.readouterr().err == ("error: training clips have 3 channel(s), "
                                       "the config takes 1\n")
    assert not (tmp_path / "train" / "checkpoint.sstg").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_has_no_threads_flag(trained_run, tmp_path, command):
    # training runs one tape per minibatch and eval one clip per forward;
    # neither has a worker pool
    args = {"train": ["--manifest",
                      str(trained_run.parent / "corpus" / "manifest.csv"),
                      "--patch-size", "4", "--epochs", "1"],
            "eval": ["--checkpoint", str(trained_run / "checkpoint.sstg"),
                     "--count", "1", "--frames", "2", "--height", "8",
                     "--width", "8"]}[command]
    assert main([command, "--out", str(tmp_path / "t"), "--threads", "2"]
                + args) == 2


@pytest.mark.parametrize("command, flags", [
    ("synth", ["--frames", "1"]),
    ("synth", ["--height", "0"]),
    ("synth", ["--families", "spectral_noise", "--strength", "nan"]),
    ("synth", ["--families", "real,upsample_artifact", "--height", "7"]),
    ("eval", ["--frames", "1"]),
    ("train", ["--manifest", "missing.csv"]),
], ids=["synth-frames", "synth-height", "synth-strength", "synth-odd-upsample",
        "eval-frames", "train-manifest"])
def test_refused_command_makes_no_out_dir(trained_run, tmp_path, capsys, command, flags):
    base = {"synth": ["--count", "2", "--frames", "2", "--height", "8", "--width", "8"],
            "eval": ["--checkpoint", str(trained_run / "checkpoint.sstg"), "--count", "1",
                     "--frames", "2", "--height", "8", "--width", "8"],
            "train": ["--patch-size", "4", "--epochs", "1"]}[command]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *base, *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def eval_forwards(trained_run, out, monkeypatch, *flags):
    """The clips of each forward (`model._prepare` call) that a 2-seed
    eval with the default families runs, each as a hash of its pixels."""
    forwards = []
    prepare = model._prepare

    def counting_prepare(clips, params, config):
        forwards.append(tuple(hash(clip.pixels.tobytes()) for clip in clips))
        return prepare(clips, params, config)

    monkeypatch.setattr(model, "_prepare", counting_prepare)
    assert main(["eval", "--checkpoint", str(trained_run / "checkpoint.sstg"),
                 "--out", str(out), "--count", "2", "--frames", "2",
                 "--height", "8", "--width", "8", *flags]) == 0
    return forwards


def test_eval_scores_each_clip_once(trained_run, tmp_path, monkeypatch):
    # the real clips are scored once, not once per fake family: one
    # forward of one clip each (scoring takes its score and pooled row
    # from one forward, so `predict` is not the call to count)
    forwards = eval_forwards(trained_run, tmp_path / "e", monkeypatch)
    assert all(len(clips) == 1 for clips in forwards)
    assert len(forwards) == len(set(forwards)) == 2 * len(synth.FAMILIES)


def test_eval_dump_embeddings_runs_one_forward_per_clip(trained_run, tmp_path,
                                                        monkeypatch):
    # the dumped rows come from the scoring forward, not a second one
    forwards = eval_forwards(trained_run, tmp_path / "e", monkeypatch,
                             "--dump-embeddings")
    assert len(forwards) == len(set(forwards)) == 2 * len(synth.FAMILIES)


def subcommand_options():
    """Per subcommand, each option string mapped to its dest."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {command: {option: action.dest for action in sub._actions
                      for option in action.option_strings}
            for command, sub in subparsers.choices.items()}


def test_each_train_config_field_has_one_flag_and_one_config_key(tmp_path):
    options = subcommand_options()["train"]
    for f in fields(model.TrainConfig):
        flags = [option for option, dest in options.items() if dest == f.name]
        assert len(flags) == 1, (f.name, flags)
        # a valid value other than the default
        value = {bool: False, int: f.default + 1, float: f.default / 2}[type(f.default)]
        argv = [flags[0]] if value is False else [flags[0], str(value)]
        args = build_parser().parse_args(["train", "--manifest", "m", "--out", "o", *argv])
        assert build_train_config(args) == model.TrainConfig(**{f.name: value}), f.name
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{f.name} = {value}\n")
        assert read_config_file(cfg) == {f.name: value}, f.name


@pytest.mark.parametrize("command, geometry", [
    ("synth", ("frames", "height", "width", "channels", "motion", "strength")),
    ("eval", ("frames", "height", "width", "channels")),
])
def test_clip_flags_take_synth_spec_defaults(command, geometry):
    options = subcommand_options()[command]
    required = {"synth": [], "eval": ["--checkpoint", "c"]}[command]
    args = build_parser().parse_args([command, "--out", "o", *required])
    spec_fields = {f.name: f.default for f in fields(synth.SynthSpec)
                   if f.name not in ("family", "seed")}
    assert {dest for dest in options.values() if dest in spec_fields} == set(geometry)
    for name in geometry:
        assert [option for option, dest in options.items() if dest == name] == \
            [f"--{name}"]
        assert getattr(args, name) == spec_fields[name]
        assert type(getattr(args, name)) is type(spec_fields[name])


def test_gradcheck_toy(capsys):
    assert main(["gradcheck"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("seed", range(1, 8))
def test_gradcheck_toy_seeds(capsys, seed):
    # seeds 2 and 4 have filter.w1 gradients of 4e-10 to 6e-9, below
    # what the central difference resolves at the 1e-4 tolerance
    assert main(["gradcheck", "--seed", str(seed)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 16\nepochs = 3  # short\nuse_spectral = false\n")
    parsed = read_config_file(cfg)
    assert parsed == {"dim": 16, "epochs": 3, "use_spectral": False}
    bad = tmp_path / "bad.cfg"
    bad.write_text("dims = 16\n")
    with pytest.raises(ValueError, match="unknown config key"):
        read_config_file(bad)


def test_train_removed_config_key_is_usage_error(trained_run, tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("dim = 8\nleaky_slope = 0.2\n")
    code = main(["train", "--manifest",
                 str(trained_run.parent / "corpus" / "manifest.csv"),
                 "--out", str(tmp_path / "t"), "--config", str(cfg)])
    assert code == 2
    assert f"{cfg}:2: unknown config key 'leaky_slope'" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("dim = abc", "dim = 'abc' is not int"),
    ("use_spectral = maybe", "use_spectral = 'maybe' is not bool"),
    ("lr = fast", "lr = 'fast' is not float"),
], ids=["int", "bool", "float"])
def test_train_bad_config_value_names_its_line(trained_run, tmp_path, capsys,
                                               line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"epochs = 1\n{line}\n")
    code = main(["train", "--manifest",
                 str(trained_run.parent / "corpus" / "manifest.csv"),
                 "--out", str(tmp_path / "t"), "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"


@pytest.mark.parametrize("line, message", [
    ("tile = 0", "tile must be positive"),
    ("dim = -1", "dim must be positive"),
    ("tau_s = 1.5", "thresholds must lie in [0, 1]"),
    ("lr = nan", "lr must be finite and positive, got nan"),
], ids=["tile", "dim", "tau_s", "lr"])
def test_train_config_value_out_of_range_names_its_line(trained_run, tmp_path,
                                                        capsys, line, message):
    cfg = tmp_path / "range.cfg"
    cfg.write_text(f"epochs = 1\n{line}\n")
    code = main(["train", "--manifest",
                 str(trained_run.parent / "corpus" / "manifest.csv"),
                 "--out", str(tmp_path / "t"), "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"


def test_train_config_not_utf8_names_its_byte(trained_run, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"dim = 8\n# caf\xe9\n")
    code = main(["train", "--manifest",
                 str(trained_run.parent / "corpus" / "manifest.csv"),
                 "--out", str(tmp_path / "t"), "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}: byte 13 is not UTF-8 text\n"


@pytest.mark.parametrize("lr", ["-1", "0", "nan"])
def test_train_bad_lr_is_usage_error(trained_run, tmp_path, capsys, lr):
    code = main(["train", "--manifest",
                 str(trained_run.parent / "corpus" / "manifest.csv"),
                 "--out", str(tmp_path / "t"), "--patch-size", "4",
                 "--lr", lr])
    assert code == 2
    assert "lr must be finite and positive" in capsys.readouterr().err


def test_train_non_finite_loss_is_one_error_line(trained_run, tmp_path, capsys,
                                                 monkeypatch):
    cross_entropy = ad.cross_entropy

    def nan_loss(logits, labels):
        out = cross_entropy(logits, labels)
        out.data = np.array(np.nan)
        return out

    monkeypatch.setattr(ad, "cross_entropy", nan_loss)
    code = main(["train", "--manifest",
                 str(trained_run.parent / "corpus" / "manifest.csv"),
                 "--out", str(tmp_path / "t"), "--patch-size", "4",
                 "--epochs", "1"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: epoch 0, batch start 0: non-finite loss\n"


def test_flags_override_config_file(tmp_path):
    corpus = tmp_path / "corpus"
    main(["synth", "--out", str(corpus), "--families", "real,spectral_noise",
          "--count", "2", "--seed", "0", "--frames", "2", "--height", "8",
          "--width", "8"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("patch_size = 4\ndim = 8\nfilter_hidden = 4\n"
                   "epochs = 5\nbatch_size = 4\n")
    out = tmp_path / "train"
    code = main(["train", "--manifest", str(corpus / "manifest.csv"),
                 "--out", str(out), "--config", str(cfg), "--epochs", "1"])
    assert code == 0
    record = json.loads((out / "run.json").read_text())
    assert record["config"]["epochs"] == 1      # flag wins
    assert record["config"]["patch_size"] == 4  # file beats default


def test_training_bytes_independent_of_thread_counts(tmp_path):
    """Checkpoints match byte for byte across BLAS thread counts, with
    64-node frames (patch 4: Lanczos) and with 4-node frames (patch 16:
    one stacked eigh)."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--families",
                 "real,upsample_artifact", "--count", "4", "--seed", "40",
                 "--frames", "4", "--height", "32", "--width", "32"]) == 0
    src = Path(sstgnn.__file__).resolve().parent.parent
    for patch_size in ("4", "16"):
        blobs = {}
        for blas in ("1", "2"):
            out = tmp_path / f"patch{patch_size}-blas{blas}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       PYTHONPATH=os.pathsep.join(
                           [str(src), os.environ.get("PYTHONPATH", "")]))
            subprocess.run(
                [sys.executable, "-m", "sstgnn.cli", "train",
                 "--manifest", str(corpus / "manifest.csv"), "--out", str(out),
                 "--patch-size", patch_size, "--epochs", "2", "--batch-size", "4"],
                env=env, check=True, capture_output=True, timeout=300)
            blobs[blas] = (out / "checkpoint.sstg").read_bytes()
        assert blobs["1"] == blobs["2"], patch_size
