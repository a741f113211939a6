"""The in-process A/B tool on two copies of the current package."""

import shutil
import sys
from pathlib import Path

import pytest

import ab_inprocess

SRC = Path(__file__).resolve().parents[1] / "src" / "sstgnn"


def two_copies(tmp_path):
    for side in ("a", "b"):
        shutil.copytree(SRC, tmp_path / side / "src" / "sstgnn",
                        ignore=shutil.ignore_patterns("__pycache__"))


def wins_of(line, rounds):
    wins, losses = map(int, line.split("wins change/parent ")[1]
                       .removesuffix(f" of {rounds}").split("/"))
    return wins + losses


def test_two_copies_of_the_package(tmp_path, capsys):
    two_copies(tmp_path)
    assert ab_inprocess.main([str(tmp_path / "a"), str(tmp_path / "b"),
                              "--patch", "16", "--rounds", "2"]) == 0
    # each copy ran under its own package name, from its own files
    for side, copy in (("parent", "a"), ("change", "b")):
        assert Path(sys.modules[f"sstgnn_{side}.model"].__file__).is_relative_to(
            tmp_path / copy)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "patch 16, 4 clips, 2 rounds: CPU ms per clip, median [q1, q3]"
    assert lines[1].startswith("  parent ") and lines[2].startswith("  change ")
    assert wins_of(lines[3], 2) <= 2
    # the same code scores the same clips bit for bit
    assert lines[4] == "  largest score difference 0"


def test_training_on_two_copies_of_the_package(tmp_path, capsys):
    two_copies(tmp_path)
    assert ab_inprocess.main([str(tmp_path / "a"), str(tmp_path / "b"),
                              "--train", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("train: desk preset, 2 epochs over 32 real + upsample_artifact "
                        "clips each, 1 rounds: CPU s per training, median [q1, q3]")
    assert lines[1].startswith("  parent ") and lines[2].startswith("  change ")
    assert wins_of(lines[3], 1) <= 1
    # the same code trains the same parameters bit for bit
    assert lines[4] == "  trained parameters bit-identical: yes, largest difference 0"


@pytest.mark.parametrize("modes", [[], ["--patch", "8", "--train"]],
                         ids=["neither", "both"])
def test_one_mode_is_required(tmp_path, capsys, modes):
    with pytest.raises(SystemExit) as exit:
        ab_inprocess.main([str(tmp_path), str(tmp_path), "--rounds", "1", *modes])
    assert exit.value.code == 2


def test_a_checkout_without_the_package_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit:
        ab_inprocess.main([str(tmp_path), str(tmp_path), "--patch", "8",
                           "--rounds", "1"])
    assert exit.value.code == 2
    assert "holds no src/sstgnn package" in capsys.readouterr().err
