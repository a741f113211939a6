"""Detector: encoder, forward contract, training loop, checkpoints."""

import json
import math
import struct

import numpy as np
import pytest

from sstgnn import autodiff as ad
from sstgnn import differential, gat, graphs, model, spectral, synth


def toy_clip(seed=0, family="real", frames=2, size=8):
    return synth.generate(synth.SynthSpec(family, seed=seed, frames=frames,
                                          height=size, width=size)).clip


def toy_config(**kw):
    base = dict(patch_size=4, dim=8, filter_hidden=4, batch_size=4, epochs=2,
                seed=0)
    base.update(kw)
    return model.TrainConfig(**base)


def tiny_corpus(n=3, families=("real", "upsample_artifact"), size=8, frames=2):
    clips = []
    for fam in families:
        for s in range(n):
            clips.append(synth.generate(synth.SynthSpec(
                fam, seed=s, frames=frames, height=size, width=size)))
    return clips


class TestEncoder:
    def test_zero_patches_zero_bias_give_zero(self):
        cfg = toy_config()
        params = model.init_params(cfg)
        out = model.encode_patches(np.zeros((2, 4, 16)), params, cfg)
        np.testing.assert_array_equal(out.data, np.zeros((8, 8)))

    def test_identity_like_encoder_passes_pixels_through(self):
        cfg = toy_config(dim=16)
        params = model.init_params(cfg)
        params["encoder.weight"].data[:] = np.eye(16)
        patches = np.random.default_rng(0).random((2, 4, 16))
        out = model.encode_patches(patches, params, cfg)
        # pixels are nonnegative, so the LeakyReLU is the identity here
        np.testing.assert_allclose(out.data, patches.reshape(8, 16), rtol=1e-15)

    def test_matches_affine_oracle(self):
        cfg = toy_config()
        params = model.init_params(cfg)
        params["encoder.bias"].data[:] = 0.1
        patches = np.random.default_rng(1).random((1, 4, 16))
        out = model.encode_patches(patches, params, cfg)
        pre = patches.reshape(4, 16) @ params["encoder.weight"].data + 0.1
        np.testing.assert_allclose(out.data, np.where(pre > 0, pre, 0.2 * pre),
                                   rtol=1e-12)


class TestForward:
    def test_zero_head_uniform_logits(self):
        cfg = toy_config()
        params = model.init_params(cfg)
        logits, _ = model.forward(toy_clip(), params, cfg)
        np.testing.assert_array_equal(logits.data, [[0.0, 0.0]])
        assert model.predict(toy_clip(), params, cfg) == 0.5

    def test_deterministic_for_duplicate_clips(self):
        cfg = toy_config()
        params = model.init_params(cfg, random_head=True)
        a, _ = model.forward(toy_clip(seed=5), params, cfg)
        b, _ = model.forward(toy_clip(seed=5), params, cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_structure_reuse_matches_fresh_forward(self):
        cfg = toy_config()
        params = model.init_params(cfg, random_head=True)
        clip = toy_clip(seed=3)
        logits, structure = model.forward(clip, params, cfg)
        x = model.encode_patches(structure.patches, params, cfg)
        again = model.forward_with_structure(structure, x, params, cfg)
        np.testing.assert_array_equal(logits.data, again.data)

    def test_each_entry_point_encodes_once(self, monkeypatch):
        calls = []
        encode = model.encode_patches

        def counted(*args):
            calls.append(1)
            return encode(*args)

        monkeypatch.setattr(model, "encode_patches", counted)
        cfg = toy_config()
        params = model.init_params(cfg, random_head=True)
        for entry in (model.forward, model.predict, model.clip_embedding):
            calls.clear()
            entry(toy_clip(seed=3), params, cfg)
            assert len(calls) == 1, entry.__name__

    @pytest.mark.parametrize("cfg, clip", [
        (toy_config(), toy_clip(seed=4)),
        (model.TrainConfig(), synth.generate(synth.SynthSpec(
            "spectral_noise", seed=4)).clip),
    ], ids=["toy", "desk"])
    def test_embedding_through_head_equals_logits(self, cfg, clip):
        params = model.init_params(cfg, random_head=True)
        logits, _ = model.forward(clip, params, cfg)
        z = model.clip_embedding(clip, params, cfg)
        assert z.shape == (2 * cfg.dim,)
        head = z[None, :] @ params["head.weight"].data + params["head.bias"].data
        assert head.tobytes() == logits.data.tobytes()

    def test_spectral_toggle_cuts_filter_dependence(self):
        clip = toy_clip(seed=6)
        cfg_off = toy_config(use_spectral=False)
        params = model.init_params(cfg_off, random_head=True)
        base, _ = model.forward(clip, params, cfg_off)
        params["filter.w3"].data[:] += 10.0
        after, _ = model.forward(clip, params, cfg_off)
        np.testing.assert_array_equal(base.data, after.data)

        cfg_on = toy_config()
        on_a, _ = model.forward(clip, params, cfg_on)
        params["filter.w3"].data[:] -= 10.0
        on_b, _ = model.forward(clip, params, cfg_on)
        assert not np.array_equal(on_a.data, on_b.data)

    def test_differential_toggle_empties_inconsistency_graph(self):
        clip = toy_clip(seed=7)
        cfg = toy_config(use_differential=False)
        params = model.init_params(cfg)
        _, structure = model.forward(clip, params, cfg)
        assert structure.negative is None
        support, _ = structure.inconsistency.dense()
        np.testing.assert_array_equal(support, np.eye(8, dtype=bool))
        assert not (structure.graph.temporal < 0).any()

    def test_temporal_mlp_toggle(self):
        clip = toy_clip(seed=8)
        cfg = toy_config(use_temporal_mlp=False)
        params = model.init_params(cfg, random_head=True)
        base, _ = model.forward(clip, params, cfg)
        params["temporal.weight"].data[:] += 5.0
        after, _ = model.forward(clip, params, cfg)
        np.testing.assert_array_equal(base.data, after.data)

    def test_predict_confident_logits(self):
        assert ad.softmax_probs(np.array([[-10.0, 10.0]]))[0, 1] == \
            pytest.approx(1.0, abs=1e-8)

    def test_batch_scoring_matches_per_clip(self):
        cfg = toy_config()
        params = model.init_params(cfg, random_head=True)
        clips = tiny_corpus(n=2)
        batch = model.score_clips(clips, params, cfg, threads=2)
        single = [model.predict(c.clip, params, cfg) for c in clips]
        np.testing.assert_array_equal(batch, single)


class TestTape:
    def test_desk_tape_node_count(self):
        # nodes a backward pass from the loss visits: the root and every
        # ancestor that needs a gradient; no op is recorded per frame
        cfg = model.preset_config("desk")
        params = model.init_params(cfg, random_head=True)
        clip = synth.generate(synth.SynthSpec("real", seed=0)).clip
        logits, _ = model.forward(clip, params, cfg)
        root = ad.cross_entropy(logits, [0])
        seen, stack = {id(root)}, [root]
        while stack:
            for parent in stack.pop().parents:
                if parent.requires_grad and id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert len(seen) == 51


class TestBridges:
    """Characterisation: with the differential on, `add_temporal_negative`
    writes -1 over every bridge slot, so no positive bridge reaches the
    Laplacian or the consistency pass and tau_t has no effect."""

    @staticmethod
    def logits(use_differential):
        clip = toy_clip(seed=2, frames=3, size=16)
        out = []
        for tau_t in (0.0, 0.6, 1.0):
            cfg = toy_config(tau_t=tau_t, use_differential=use_differential)
            params = model.init_params(cfg, random_head=True)
            logits, structure = model.forward(clip, params, cfg)
            out.append((logits.data, structure))
        return out

    def test_differential_on_removes_every_bridge(self):
        runs = self.logits(True)
        for logits, structure in runs:
            assert not (structure.graph.temporal > 0).any()
            np.testing.assert_array_equal(logits, runs[0][0])

    def test_differential_off_keeps_bridges(self):
        runs = self.logits(False)
        assert (runs[0][1].graph.temporal > 0).any()
        assert not np.array_equal(runs[0][0], runs[1][0])
        assert not np.array_equal(runs[0][0], runs[2][0])


class TestFrameLayoutPath:
    def test_model_path_never_densifies(self, monkeypatch):
        # at M=512 with the differential on, building the structure and
        # the forward pass read the graph, the tile pattern and the
        # attention supports only in their frame layouts, and the
        # spectral branch pools without forming the filtered signal
        def dense(*_):
            raise AssertionError("an (M, M) array was built on the model path")

        def filtered(*_):
            raise AssertionError("the filtered (M, d) signal was formed")

        monkeypatch.setattr(spectral, "apply_filter", filtered)

        for owner, name in ((graphs.VideoGraph, "spatial"),
                            (graphs.VideoGraph, "temporal"),
                            (graphs.VideoGraph, "temporal_positive"),
                            (differential.NegativeSpatialAdjacency, "matrix"),
                            (gat.SignedAdjacency, "dense")):
            monkeypatch.setattr(owner, name, property(dense))
        for module in (graphs, gat, differential):
            monkeypatch.setattr(module, "dense_from_layout", dense)
        cfg = model.preset_config("desk", patch_size=8)
        params = model.init_params(cfg, random_head=True)
        clip = synth.generate(synth.SynthSpec("spectral_noise", seed=3)).clip
        pt = graphs.patchify(clip.pixels, cfg.patch_size)
        x = model.encode_patches(pt.vectors, params, cfg)
        structure = model.build_structure(pt, x.data, cfg)
        assert structure.graph.node_count == 512
        assert structure.basis.vectors.shape == (8, 64, 64)
        logits = model.forward_with_structure(structure, x, params, cfg)
        ad.cross_entropy(logits, [1]).backward()


class TestGoldenForward:
    def test_fixed_seed_logits_frozen(self):
        # regression pin: toy clip + seeded params -> these exact logits,
        # frozen from a validated run
        cfg = toy_config()
        params = model.init_params(cfg, seed=123, random_head=True)
        logits, _ = model.forward(toy_clip(seed=42), params, cfg)
        np.testing.assert_allclose(
            logits.data, [[0.2135088795, 0.0047150562]], rtol=1e-7)


class TestTraining:
    def test_zero_lr_keeps_params(self):
        clips = tiny_corpus(n=2)
        cfg = toy_config(lr=0.0, epochs=2)
        params, _ = model.train_clips(clips, cfg)
        fresh = model.init_params(cfg)
        for name, t in params.named().items():
            np.testing.assert_array_equal(t.data, fresh[name].data)

    def test_loss_drops_below_ln2(self):
        clips = tiny_corpus(n=4)
        cfg = toy_config(epochs=6, lr=1e-2)
        # symmetric (zero-head) init: the untrained loss is exactly ln 2
        fresh = model.init_params(cfg)
        logits, _ = model.forward(clips[0].clip, fresh, cfg)
        start = ad.cross_entropy(logits, [clips[0].label]).item()
        assert start == pytest.approx(math.log(2), abs=1e-12)
        _, history = model.train_clips(clips, cfg)
        assert history[-1][2] < math.log(2)

    def test_same_seed_identical_history(self):
        clips = tiny_corpus(n=2)
        cfg = toy_config(epochs=3)
        _, h1 = model.train_clips(clips, cfg)
        _, h2 = model.train_clips(clips, cfg)
        assert h1 == h2

    def test_threads_do_not_change_results(self):
        clips = tiny_corpus(n=2)
        cfg = toy_config(epochs=2, lr=1e-3)
        p1, h1 = model.train_clips(clips, cfg, threads=1)
        p2, h2 = model.train_clips(clips, cfg, threads=3)
        assert h1 == h2
        for name in p1.named():
            np.testing.assert_array_equal(p1[name].data, p2[name].data)

    def test_single_class_rejected(self):
        clips = [c for c in tiny_corpus() if c.label == 0]
        with pytest.raises(ValueError, match="both classes"):
            model.train_clips(clips, toy_config())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = toy_config()
        params = model.init_params(cfg, random_head=True)
        path = tmp_path / "model.sstg"
        model.save_checkpoint(path, params, cfg)
        loaded, cfg2 = model.load_checkpoint(path)
        assert cfg2 == cfg
        for name, t in params.named().items():
            np.testing.assert_array_equal(loaded[name].data, t.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sstg"
        path.write_bytes(b"WRONG000" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            model.load_checkpoint(path)

    def test_every_truncation_and_extension_rejected(self, tmp_path):
        cfg = model.preset_config("toy")
        path = tmp_path / "model.sstg"
        model.save_checkpoint(path, model.init_params(cfg, random_head=True), cfg)
        blob = path.read_bytes()
        bad = tmp_path / "bad.sstg"
        for cut in range(len(blob)):
            bad.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="magic|truncated"):
                model.load_checkpoint(bad)
        bad.write_bytes(blob + b"j")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            model.load_checkpoint(bad)

    def test_unknown_config_echo_rejected(self, tmp_path):
        # an echo carrying a field TrainConfig no longer has (tie_gat)
        cfg = toy_config()
        path = tmp_path / "model.sstg"
        model.save_checkpoint(path, model.init_params(cfg), cfg)
        old = json.dumps(cfg.to_dict(), sort_keys=True,
                         separators=(",", ":")).encode()
        params = path.read_bytes()[len(model.CHECKPOINT_MAGIC) + 4 + len(old):]
        echo = old.replace(b'"tile":', b'"tie_gat":true,"tile":')
        path.write_bytes(model.CHECKPOINT_MAGIC + struct.pack("<I", len(echo))
                         + echo + params)
        with pytest.raises(ValueError, match="unknown config keys.*tie_gat"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("cfg", [toy_config(), model.TrainConfig(),
                                     model.preset_config("parity", channels=3)])
    def test_init_follows_the_shape_table(self, cfg):
        params = model.init_params(cfg, random_head=True)
        assert {k: t.data.shape for k, t in params.named().items()} == \
            model.param_shapes(cfg)
        assert list(params.named()) == list(model.param_shapes(cfg))

    def test_loader_draws_no_random_numbers(self, tmp_path, monkeypatch):
        cfg = toy_config()
        path = tmp_path / "model.sstg"
        model.save_checkpoint(path, model.init_params(cfg), cfg)

        def no_stream(*key):
            raise AssertionError(f"random stream {key} drawn while loading")

        monkeypatch.setattr(model, "stream", no_stream)
        loaded, _ = model.load_checkpoint(path)
        assert list(loaded.named()) == list(model.param_shapes(cfg))

    def test_training_checkpoint_bytes_deterministic(self, tmp_path):
        clips = tiny_corpus(n=2)
        cfg = toy_config(epochs=2)
        blobs = []
        for run in range(2):
            params, _ = model.train_clips(clips, cfg)
            path = tmp_path / f"run{run}.sstg"
            model.save_checkpoint(path, params, cfg)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestBudget:
    def test_desk_default_under_100k(self):
        assert model.init_params(model.TrainConfig()).count() < 100_000

    def test_parity_preset_under_published_size(self):
        cfg = model.preset_config("parity")
        n = model.init_params(cfg).count()
        assert 100_000 < n < 2_050_000


class TestConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="thresholds"):
            model.TrainConfig(tau_s=1.5)

    def test_hash_stability_and_sensitivity(self):
        a = model.TrainConfig()
        b = model.TrainConfig()
        c = model.TrainConfig(dim=32)
        assert model.config_hash(a) == model.config_hash(b)
        assert model.config_hash(a) != model.config_hash(c)

    def test_field_types_checked(self):
        with pytest.raises(ValueError, match="dim must be int"):
            model.TrainConfig.from_dict({"dim": "8"})
        with pytest.raises(ValueError, match="use_spectral must be bool"):
            model.TrainConfig.from_dict({"use_spectral": 1})
        with pytest.raises(ValueError, match="epochs must be int"):
            model.TrainConfig(epochs=True)
        with pytest.raises(ValueError, match="lr must be float"):
            model.TrainConfig(lr="1e-4")
        assert model.TrainConfig(tau_s=1, lr=1).tau_s == 1  # ints are floats

    def test_dict_roundtrip(self):
        cfg = model.TrainConfig(dim=16, use_spectral=False)
        assert model.TrainConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValueError, match="unknown config"):
            model.TrainConfig.from_dict({"dims": 3})
