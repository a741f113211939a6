"""Metrics and experiment protocols."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import fields

from sstgnn import metrics, model, synth


def brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        assert metrics.auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_perfect_inversion(self):
        assert metrics.auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_three_of_four_concordant(self):
        assert metrics.auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_all_tied_is_half(self):
        assert metrics.auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_all_tied_any_labels(self):
        labels = (np.random.default_rng(3).random(1001) < 0.3).astype(int)
        assert metrics.auc(np.full(1001, 0.25), labels) == 0.5

    def test_large_tied_input_matches_counting_oracle(self):
        # 12 000 scores on 50 levels; the oracle counts, for each positive,
        # the negatives below it and half those level with it
        rng = np.random.default_rng(4)
        scores = rng.integers(0, 50, size=12_000) / 49
        labels = (rng.random(12_000) < 0.4).astype(int)
        neg = np.sort(scores[labels == 0])
        pos = scores[labels == 1]
        below = np.searchsorted(neg, pos, side="left")
        level = np.searchsorted(neg, pos, side="right") - below
        expected = (below.sum() + level.sum() / 2) / (len(pos) * len(neg))
        assert metrics.auc(scores, labels) == expected

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            metrics.auc([0.1, 0.9], [1, 1])

    def test_non_finite_scores_rejected(self):
        # NaNs have no rank; one tie group for all of them would be arbitrary
        with pytest.raises(ValueError, match="finite"):
            metrics.auc([np.nan, 0.2, np.nan], [1, 0, 0])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        scores = np.round(rng.random(n), 1)  # coarse grid provokes ties
        labels = np.zeros(n, dtype=int)
        labels[: n // 2] = 1
        rng.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert metrics.auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(12)
        labels = (rng.random(12) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = metrics.auc(scores, labels)
        assert metrics.auc(np.exp(3 * scores), labels) == pytest.approx(base)

    def test_label_flip_complement(self):
        rng = np.random.default_rng(1)
        scores = rng.random(10)
        labels = np.array([0, 1] * 5)
        assert metrics.auc(scores, labels) + metrics.auc(scores, 1 - labels) \
            == pytest.approx(1.0, abs=1e-12)


class TestAccuracy:
    def test_all_correct(self):
        assert metrics.accuracy([0.1, 0.9], [0, 1]) == 1.0

    def test_tie_convention_inclusive(self):
        # score exactly at the threshold counts as a fake call
        assert metrics.accuracy([0.5, 0.5], [1, 0]) == 0.5

    def test_three_of_four(self):
        assert metrics.accuracy([0.1, 0.6, 0.7, 0.2], [0, 1, 1, 1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            metrics.accuracy([], [])

    @pytest.mark.parametrize("scores, labels", [
        ([0.6, 0.4], [1]),              # would broadcast to 0.5
        ([0.6], [1, 0]),
        ([[0.6, 0.4]], [[1, 0]]),       # not vectors
        (0.6, 1),
    ])
    def test_shape_mismatch_rejected(self, scores, labels):
        with pytest.raises(ValueError, match="equal-length vectors"):
            metrics.accuracy(scores, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        # a NaN compares false against the threshold, so it would count
        # as "real": accuracy([nan], [0]) read 1.0
        with pytest.raises(ValueError, match="accuracy undefined: scores must be finite"):
            metrics.accuracy([bad, 0.9], [0, 1])


@pytest.fixture
def predicted(monkeypatch):
    """Every clip `model.predict` is called on, in call order."""
    clips = []
    predict = model.predict

    def counting_predict(clip, params, config):
        clips.append(clip)
        return predict(clip, params, config)

    monkeypatch.setattr(model, "predict", counting_predict)
    return clips


def tiny_protocol(**kw):
    base = dict(
        train=model.TrainConfig(patch_size=4, dim=8, filter_hidden=4,
                                batch_size=4, epochs=1),
        families=("upsample_artifact",),
        n_train=2, n_test=2, seed=50, frames=2, height=8, width=8)
    base.update(kw)
    return metrics.ProtocolConfig(**base)


class TestProtocols:
    def test_corpus_takes_the_model_channels(self):
        pcfg = tiny_protocol(train=model.TrainConfig(
            patch_size=4, dim=8, filter_hidden=4, batch_size=4, epochs=1,
            channels=3))
        clips = pcfg.corpus(("real",), pcfg.train_seeds())
        assert {c.clip.pixels.shape[-1] for c in clips} == {3}
        params, _ = model.train_clips(
            pcfg.corpus(("real", "upsample_artifact"), pcfg.train_seeds()), pcfg.train)
        assert params["encoder.weight"].data.shape == (4 * 4 * 3, 8)

    def test_untrained_model_gives_exactly_half_auc(self):
        pcfg = tiny_protocol()
        params = model.init_params(pcfg.train)  # zero head: constant scores
        clips = pcfg.corpus(("real", "upsample_artifact"), pcfg.test_seeds())
        _, area, scores = metrics.evaluate_model(params, pcfg.train, clips)
        assert np.all(scores == 0.5)
        assert area == 0.5

    def test_seed_ranges_never_intersect(self):
        pcfg = tiny_protocol()
        assert not set(pcfg.train_seeds()) & set(pcfg.test_seeds())
        with pytest.raises(ValueError, match="overlap"):
            metrics._check_disjoint(range(0, 4), range(3, 6))

    def test_in_domain_row_count(self):
        pcfg = tiny_protocol(families=("upsample_artifact", "spectral_noise"))
        report = metrics.run_protocol("in_domain", pcfg)
        assert len(report.rows) == 2
        assert all(r.train_set == r.test_family for r in report.rows)

    def test_one_to_many_tests_held_out_families(self):
        pcfg = tiny_protocol(
            families=("upsample_artifact", "spectral_noise", "temporal_jitter"))
        report = metrics.run_protocol("one_to_many", pcfg,
                                      train_families=["upsample_artifact"])
        tested = {r.test_family for r in report.rows}
        assert tested == {"spectral_noise", "temporal_jitter"}
        assert all(r.train_set == "upsample_artifact" for r in report.rows)

    def test_many_to_many_complement(self):
        pcfg = tiny_protocol(
            families=("upsample_artifact", "spectral_noise", "temporal_jitter"))
        report = metrics.run_protocol(
            "many_to_many", pcfg,
            train_families=["upsample_artifact", "spectral_noise"])
        assert [r.test_family for r in report.rows] == ["temporal_jitter"]

    @pytest.mark.parametrize("kind", ["one_to_many", "many_to_many"])
    def test_cross_domain_needs_a_held_out_family(self, kind, monkeypatch):
        # refused before any clip is generated or model trained
        monkeypatch.setattr(metrics, "make_corpus", None)
        monkeypatch.setattr(metrics, "train_clips", None)
        with pytest.raises(ValueError, match=f"{kind} needs a nonempty held-out set"):
            metrics.run_protocol(kind, tiny_protocol(),
                                 train_families=["upsample_artifact"])

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="protocol"):
            metrics.run_protocol("leave_one_out", tiny_protocol())

    def test_report_csv_shape(self, tmp_path):
        pcfg = tiny_protocol()
        report = metrics.run_protocol("in_domain", pcfg,
                                      out_csv=tmp_path / "report.csv")
        text = (tmp_path / "report.csv").read_text().splitlines()
        assert text[0] == "protocol,train_set,test_family,n,accuracy,auc,seed,config_hash"
        assert len(text) == 1 + len(report.rows)

    def test_embedding_dump(self, tmp_path):
        pcfg = tiny_protocol()
        params = model.init_params(pcfg.train)
        clips = pcfg.corpus(("real",), range(60, 62)) + \
            pcfg.corpus(("spectral_noise",), range(60, 62))
        _, rows = model.score_and_embed([c.clip for c in clips], params, pcfg.train)
        metrics.dump_embeddings(tmp_path / "emb.csv", clips, rows)
        lines = (tmp_path / "emb.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("family,label,z0")

    def test_clip_geometry_defaults_are_synth_specs(self):
        geometry = ("frames", "height", "width")
        spec = {f.name: f.default for f in fields(synth.SynthSpec)}
        pcfg = {f.name: f.default for f in fields(metrics.ProtocolConfig)}
        assert {name: pcfg[name] for name in geometry} == \
            {name: spec[name] for name in geometry}

    def test_in_domain_generates_each_clip_once(self, monkeypatch):
        # the real train and test clips are shared by the three cells;
        # the report is the one each cell made with clips of its own
        made = Counter()
        generate = synth.generate

        def counting_generate(spec):
            made[spec.family, spec.seed] += 1
            return generate(spec)

        monkeypatch.setattr(synth, "generate", counting_generate)
        pcfg = tiny_protocol(
            families=("upsample_artifact", "spectral_noise", "temporal_jitter"),
            n_test=3)
        report = metrics.run_protocol("in_domain", pcfg)
        seeds = [*pcfg.train_seeds(), *pcfg.test_seeds()]
        assert made == Counter({(f, s): 1 for f in ("real", *pcfg.families)
                                for s in seeds})
        assert report.to_csv_string().splitlines() == [
            "protocol,train_set,test_family,n,accuracy,auc,seed,config_hash",
            "in_domain,upsample_artifact,upsample_artifact,6,0.500000,1.000000,50,"
            "1a02137a5c1b6845",
            "in_domain,spectral_noise,spectral_noise,6,0.833333,1.000000,50,"
            "1a02137a5c1b6845",
            "in_domain,temporal_jitter,temporal_jitter,6,0.500000,0.666667,50,"
            "1a02137a5c1b6845"]

    def test_one_to_many_scores_each_held_out_clip_once(self, predicted):
        # two test families of 3 seeds: 3 real + 2 x 3 fake clips, the
        # real ones scored once rather than once per family
        pcfg = tiny_protocol(
            families=("upsample_artifact", "spectral_noise", "temporal_jitter"),
            n_test=3)
        report = metrics.run_protocol("one_to_many", pcfg,
                                      train_families=["upsample_artifact"])
        pixels = {c.pixels.tobytes() for c in predicted}
        assert len(predicted) == len(pixels) == 9
        assert [r.n for r in report.rows] == [6, 6]


class TestFamilyRows:
    def labeled(self, families, seeds=range(2)):
        return synth.make_corpus(families, seeds, frames=2, height=8, width=8,
                                 channels=1)

    def test_each_family_against_all_real_clips(self):
        clips = self.labeled(("real", "spectral_noise", "upsample_artifact"))
        scores = np.array([0.1, 0.6, 0.7, 0.9, 0.2, 0.3])
        rows = metrics.family_rows(clips, scores, protocol="one_to_many",
                                   train_set="checkpoint", seed=5, config_hash="h")
        assert [r.test_family for r in rows] == ["spectral_noise", "upsample_artifact"]
        for row, fake in zip(rows, ([0.7, 0.9], [0.2, 0.3])):
            cell, labels = [0.1, 0.6, *fake], [0, 0, 1, 1]
            assert row == metrics.ReportRow(
                "one_to_many", "checkpoint", row.test_family, 4,
                metrics.accuracy(cell, labels), metrics.auc(cell, labels), 5, "h")

    def test_families_in_order_of_first_appearance(self):
        clips = self.labeled(("temporal_jitter", "real", "spectral_noise"))
        rows = metrics.family_rows(clips, np.linspace(0.0, 1.0, len(clips)),
                                   protocol="p", train_set="t", seed=0,
                                   config_hash="h")
        assert [r.test_family for r in rows] == ["temporal_jitter", "spectral_noise"]
        assert rows[0].auc == 0.0 and rows[1].auc == 1.0


def test_benchmark_surface(predicted):
    """perfbench calls `metrics.evaluate_model(..., threads=1)`,
    `model.score_clips(..., threads=1)` and `model.train_clips(...,
    threads=1)`, and clocks held-out scoring per `model.predict` call.
    A change that drops a keyword or stops calling `predict` once per
    clip would leave a workload unmeasured. ROADMAP item 1a moves that
    clock to `score_clips` and drops the keywords; it changes this test
    together with the clock."""
    pcfg = tiny_protocol()
    clips = pcfg.corpus(("real", "upsample_artifact"), pcfg.test_seeds())
    params, _ = model.train_clips(clips, pcfg.train, threads=1)
    _, _, scores = metrics.evaluate_model(params, pcfg.train, clips, threads=1)
    assert [id(c) for c in predicted] == [id(item.clip) for item in clips]
    predicted.clear()
    again = model.score_clips(clips, params, pcfg.train, threads=1)
    assert [id(c) for c in predicted] == [id(item.clip) for item in clips]
    assert again.tobytes() == scores.tobytes()
