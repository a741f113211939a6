"""The model against its frozen oracle (see `make_oracle.py`)."""

import json

import numpy as np
import pytest

import make_oracle
from make_oracle import ORACLE_PATH, case_id, case_keys, compute_case

ORACLE = json.loads(ORACLE_PATH.read_text())
TOL = 1e-12


def close(got, ref):
    return abs(got - ref) <= TOL * max(1.0, abs(ref))


def test_oracle_covers_every_case():
    assert sorted(ORACLE) == sorted(case_id(*key) for key in case_keys())


@pytest.mark.parametrize("key", list(case_keys()), ids=lambda k: case_id(*k))
def test_matches_frozen_oracle(key):
    ref = ORACLE[case_id(*key)]
    got = compute_case(*key)
    bad = [f"logit {i}: {g!r} vs {r!r}"
           for i, (g, r) in enumerate(zip(got["logits"], ref["logits"]))
           if not close(g, r)]
    for field in ("grad_norm", "grad_dot"):
        assert got[field].keys() == ref[field].keys()
        bad += [f"{field} {name}: {got[field][name]!r} vs {r!r}"
                for name, r in ref[field].items()
                if not close(got[field][name], r)]
    assert not bad, bad
    assert np.isfinite(got["logits"]).all()


def test_dump_goes_to_a_given_path(tmp_path, monkeypatch):
    key = next(case_keys())
    monkeypatch.setattr(make_oracle, "case_keys", lambda: iter([key]))
    assert make_oracle.main([str(tmp_path / "dump.json")]) == 0
    assert json.loads((tmp_path / "dump.json").read_text()) == {
        case_id(*key): compute_case(*key)}
