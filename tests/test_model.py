"""Detector: encoder, forward contract, training loop, checkpoints."""

import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest

from sstgnn import autodiff as ad
from sstgnn import differential, gat, graphs, metrics, model, spectral, synth

from layouts import frame_layout


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

    @pytest.mark.parametrize("patch,channels,dim,digest", [
        (3, 1, 8, "9124be5089867ad1ca5508c8f09bb9a49859d97913dfe309a578afc28a941138"),
        (5, 3, 16, "46234677832210f36ec5ad3520e6fab94b3fd666c6124058e6628e23803125ac"),
        (32, 3, 256, "5473277c99c58d163329433fee6e0c2866611540d57386a1d90a93980744d02c"),
    ])
    def test_init_weight_bytes_pinned(self, patch, channels, dim, digest):
        # odd patches leave a row and column no 2x2 window covers, and
        # C = 3 interleaves channels; the oracle covers neither
        cfg = model.TrainConfig(patch_size=patch, channels=channels, dim=dim)
        weight = model.init_params(cfg)["encoder.weight"].data
        assert hashlib.sha256(weight.tobytes()).hexdigest() == digest


class TestForward:
    def test_zero_head_uniform_logits(self):
        cfg = toy_config()
        params = model.init_params(cfg)
        logits, _ = model.forward([toy_clip()], params, cfg)
        np.testing.assert_array_equal(logits.data, [[0.0, 0.0]])
        assert model.predict(toy_clip(), params, cfg) == 0.5

    def test_deterministic_for_duplicate_clips(self):
        cfg = toy_config()
        params = model.init_params(cfg, random_head=True)
        a, _ = model.forward([toy_clip(seed=5)], params, cfg)
        b, _ = model.forward([toy_clip(seed=5)], params, cfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_structure_reuse_matches_fresh_forward(self):
        cfg = toy_config()
        params = model.init_params(cfg, random_head=True)
        clip = toy_clip(seed=3)
        logits, structure = model.forward([clip], params, cfg)
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
        clip = toy_clip(seed=3)
        for name, entry in (
                ("forward", lambda: model.forward([clip], params, cfg)),
                ("forward of 16", lambda: model.forward([clip] * 16, params, cfg)),
                ("predict", lambda: model.predict(clip, params, cfg)),
                ("clip_embedding", lambda: model.clip_embedding(clip, params, cfg))):
            calls.clear()
            entry()
            assert len(calls) == 1, name

    @pytest.mark.parametrize("cfg, clip", [
        (toy_config(), toy_clip(seed=4)),
        (model.TrainConfig(), synth.generate(synth.SynthSpec(
            "spectral_noise", seed=4)).clip),
    ], ids=["toy", "desk"])
    def test_embedding_through_head_equals_logits(self, cfg, clip):
        params = model.init_params(cfg, random_head=True)
        logits, _ = model.forward([clip], params, cfg)
        z = model.clip_embedding(clip, params, cfg)
        assert z.shape == (2 * cfg.dim,)
        head = z[None, :] @ params["head.weight"].data + params["head.bias"].data
        assert head.tobytes() == logits.data.tobytes()

    def test_spectral_toggle_cuts_filter_dependence(self):
        clip = toy_clip(seed=6)
        cfg_off = toy_config(use_spectral=False)
        params = model.init_params(cfg_off, random_head=True)
        base, _ = model.forward([clip], params, cfg_off)
        params["filter.w3"].data[:] += 10.0
        after, _ = model.forward([clip], params, cfg_off)
        np.testing.assert_array_equal(base.data, after.data)

        cfg_on = toy_config()
        on_a, _ = model.forward([clip], params, cfg_on)
        params["filter.w3"].data[:] -= 10.0
        on_b, _ = model.forward([clip], params, cfg_on)
        assert not np.array_equal(on_a.data, on_b.data)

    def test_differential_toggle_empties_inconsistency_graph(self):
        clip = toy_clip(seed=7)
        cfg = toy_config(use_differential=False)
        params = model.init_params(cfg)
        _, structure = model.forward([clip], params, cfg)
        # the inconsistency pass: every node a block of one, its self-loop
        assert [(lay.sign.shape[1:3], lay.passes)
                for lay in structure.adjacency.layouts] == [((1, 4), (0,)),
                                                            ((4, 1), (1,))]
        support = graphs.dense_from_layout(frame_layout(structure.adjacency)[1] != 0)
        np.testing.assert_array_equal(support, np.eye(8, dtype=bool))
        assert not (structure.graph.temporal < 0).any()

    def test_temporal_mlp_toggle(self):
        clip = toy_clip(seed=8)
        cfg = toy_config(use_temporal_mlp=False)
        params = model.init_params(cfg, random_head=True)
        base, _ = model.forward([clip], params, cfg)
        params["temporal.weight"].data[:] += 5.0
        after, _ = model.forward([clip], params, cfg)
        np.testing.assert_array_equal(base.data, after.data)

    def test_predict_confident_logits(self):
        assert ad.softmax_probs(np.array([[-10.0, 10.0]]))[0, 1] == \
            pytest.approx(1.0, abs=1e-8)

    def test_batch_scoring_matches_per_clip(self):
        cfg = toy_config()
        params = model.init_params(cfg, random_head=True)
        clips = tiny_corpus(n=2)
        batch = model.score_clips(clips, params, cfg)
        single = [model.predict(c.clip, params, cfg) for c in clips]
        np.testing.assert_array_equal(batch, single)


@pytest.fixture(scope="module")
def desk_batch():
    """16 desk clips, four of each family."""
    return [synth.generate(synth.SynthSpec(family, seed=seed))
            for family in synth.FAMILIES for seed in range(4)]


class TestBatch:
    """A minibatch is one graph: its clips stacked along the frame axis."""

    @pytest.mark.parametrize("overrides", [
        {}, {"use_differential": False}, {"use_spectral": False},
        {"use_temporal_mlp": False},
        # some clips keep a positive bridge (one whole-clip block alone),
        # others none (per-frame blocks alone); batched, every clip is
        # one block
        {"use_differential": False, "tau_t": 0.95},
    ], ids=["default", "no-differential", "no-spectral", "no-temporal-mlp",
            "mixed-bases"])
    def test_logits_match_each_clip_alone(self, desk_batch, overrides):
        cfg = model.TrainConfig(**overrides)
        params = model.init_params(cfg, random_head=True)
        clips = [item.clip for item in desk_batch]
        logits, structure = model.forward(clips, params, cfg)
        alone = [model.forward([clip], params, cfg) for clip in clips]
        assert structure.clips == 16 and logits.shape == (16, 2)
        np.testing.assert_allclose(
            logits.data, np.vstack([out.data for out, _ in alone]),
            rtol=0, atol=1e-12)
        if "tau_t" in overrides:
            m, n = structure.graph.node_count // 16, structure.graph.patches_per_frame
            assert {s.basis.vectors.shape[:2] for _, s in alone} == {
                (1, m), (m // n, n)}
            assert structure.basis.vectors.shape[:2] == (16, m)

    def test_twins_cut_between_clips(self, desk_batch):
        cfg = model.TrainConfig()
        params = model.init_params(cfg)
        _, structure = model.forward([item.clip for item in desk_batch],
                                     params, cfg)
        twins = structure.graph.twins
        frames, n = structure.graph.frames // 16, structure.graph.patches_per_frame
        assert twins.shape == (16, frames - 1, n)
        assert (twins == -1).sum() == 16 * (frames - 1) * n
        # each pass's twin columns: (t - 1, i) and (t + 1, i)
        layouts = frame_layout(structure.adjacency)
        assert not layouts[:, frames::frames, :, n].any()
        assert not layouts[:, frames - 1::frames, :, n + 1].any()

    def test_bridges_cut_between_clips(self, desk_batch):
        # differential off, tau_t = 0: a bridge between two clips would
        # clear the threshold, and the graph holds none
        cfg = model.TrainConfig(use_differential=False, tau_t=0.0)
        params = model.init_params(cfg)
        clips = [item.clip for item in desk_batch]
        structure, x = model._prepare(clips, params, cfg)
        graph = structure.graph
        frames, n = graph.frames // 16, graph.patches_per_frame
        last = np.arange(frames - 1, graph.frames - 1, frames)
        emb = x.data.reshape(graph.frames, n, -1)
        _, keep = graphs.temporal_bridge(graph.blocks[last], graph.blocks[last + 1],
                                         emb[last], emb[last + 1], cfg.tau_t)
        assert keep.any() and graph.twins.shape == (16, frames - 1, n)
        assert not frame_layout(structure.adjacency)[0, last + 1, :, n].any()
        alone = [model.forward([clip], params, cfg)[1].graph.twins
                 for clip in clips]
        assert (graph.twins > 0).any()
        np.testing.assert_array_equal(graph.twins, np.concatenate(alone))

    @pytest.mark.parametrize("batch", [1, 16])
    def test_build_structure_once_per_forward(self, desk_batch, monkeypatch,
                                              batch):
        built = []
        build = model.build_structure

        def recorded(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(model, "build_structure", recorded)
        cfg = model.TrainConfig()
        _, structure = model.forward([item.clip for item in desk_batch[:batch]],
                                     model.init_params(cfg), cfg)
        assert len(built) == 1 and structure is built[0]
        assert structure.clips == batch

    def test_gradient_is_mean_of_clip_gradients(self, desk_batch):
        cfg = model.TrainConfig()
        params = model.init_params(cfg, random_head=True)
        labels = [item.label for item in desk_batch]
        logits, _ = model.forward([item.clip for item in desk_batch], params, cfg)
        batch = ad.cross_entropy(logits, labels).backward()
        per_clip = []
        for item in desk_batch:
            logits, _ = model.forward([item.clip], params, cfg)
            per_clip.append(ad.cross_entropy(logits, [item.label]).backward())
        for name, tensor in params.named().items():
            mean = sum(g[tensor] for g in per_clip) / len(per_clip)
            assert np.abs(batch[tensor] - mean).max() <= 1e-12 * np.abs(mean).max(), name

    def test_clips_must_share_one_shape(self):
        cfg = toy_config()
        with pytest.raises(ValueError, match="one shape"):
            model.forward([toy_clip(size=8), toy_clip(size=16)],
                          model.init_params(cfg), cfg)


def desk_tape(clips):
    """The nodes a backward pass from the desk loss visits: the root and
    every ancestor that needs a gradient."""
    cfg = model.preset_config("desk")
    params = model.init_params(cfg, random_head=True)
    logits, _ = model.forward([item.clip for item in clips], params, cfg)
    root = ad.cross_entropy(logits, [item.label for item in clips])
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop().parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def tape_nodes(clips):
    return len(desk_tape(clips))


class TestTape:
    def test_desk_tape_node_count(self, desk_batch):
        # no op is recorded per frame; the fusion map runs on each clip's
        # pooled row, which the pool keeps as a (clips, 1, 2d) stack for
        # the map and one reshape returns to (clips, d)
        assert tape_nodes(desk_batch[:1]) == 52

    def test_tape_size_independent_of_batch(self, desk_batch):
        # nor per clip
        assert tape_nodes(desk_batch) == tape_nodes(desk_batch[:1])


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
            logits, structure = model.forward([clip], params, cfg)
            out.append((logits.data, structure))
        return out

    def test_differential_on_removes_every_bridge(self):
        runs = self.logits(True)
        for logits, structure in runs:
            assert not (structure.graph.temporal > 0).any()
            np.testing.assert_array_equal(logits, runs[0][0])

    @pytest.mark.parametrize("use_differential", [True, False])
    def test_bridges_scored_only_without_differential(self, monkeypatch,
                                                      use_differential):
        scored = []
        bridge = graphs.temporal_bridge

        def recorded(*args):
            scored.append(args)
            return bridge(*args)

        monkeypatch.setattr(graphs, "temporal_bridge", recorded)
        cfg = toy_config(use_differential=use_differential)
        params = model.init_params(cfg)
        model.forward([toy_clip(seed=2, frames=3, size=16)], params, cfg)
        assert bool(scored) == (not use_differential)

    def test_differential_off_keeps_bridges(self):
        runs = self.logits(False)
        assert (runs[0][1].graph.temporal > 0).any()
        assert not np.array_equal(runs[0][0], runs[1][0])
        assert not np.array_equal(runs[0][0], runs[2][0])


class TestFrameLayoutPath:
    def test_model_path_never_densifies(self, monkeypatch):
        # with the differential on (frame blocks) and off (one coupled
        # block per clip), at M=512 (Lanczos on every block) and at desk
        # M=32 (4-node frames, solved by one stacked eigh), building the
        # structure and the forward pass form no (M, M) or (B, M, M)
        # array: the graph, the tile pattern and the attention supports
        # are read only in their frame layouts, a Laplacian is formed
        # only of frame blocks, and the spectral branch pools without
        # forming the filtered signal
        def dense(*_):
            raise AssertionError("an (M, M) array was built on the model path")

        def filtered(*_):
            raise AssertionError("the filtered (M, d) signal was formed")

        solved = []

        def per_frame(fn):
            def wrapper(a):
                solved.append(np.shape(a))
                return fn(a)
            return wrapper

        monkeypatch.setattr(spectral, "apply_filter", filtered)
        for name in ("graph_laplacian", "laplacian_from_adjacency",
                     "eigendecompose"):
            monkeypatch.setattr(spectral, name, per_frame(getattr(spectral, name)))
        for name in ("spatial", "temporal"):
            monkeypatch.setattr(graphs.VideoGraph, name, property(dense))
        # graphs and spectral are the only modules that hold the converter
        assert [module for module in (graphs, differential, gat, model, spectral)
                if hasattr(module, "dense_from_layout")] == [graphs, spectral]
        for module in (graphs, spectral):
            monkeypatch.setattr(module, "dense_from_layout", dense)
        clip = synth.generate(synth.SynthSpec("spectral_noise", seed=3)).clip
        for patch_size, use_differential, blocks in (
                (8, True, 8), (8, False, 1), (32, True, 8), (32, False, 1)):
            cfg = model.preset_config("desk", patch_size=patch_size,
                                      use_differential=use_differential)
            params = model.init_params(cfg, random_head=True)
            pt = graphs.patchify(clip.pixels, cfg.patch_size)
            x = model.encode_patches(pt.vectors, params, cfg)
            solved.clear()
            structure = model.build_structure(pt, x.data, params.filter_mlp, cfg)
            m = structure.graph.node_count
            assert m == 8 * pt.patches_per_frame
            b, n, k = structure.basis.vectors.shape
            assert (b, n) == (blocks, m // blocks) and k <= n
            eigensolve = use_differential and n <= 2 * spectral.CHECK_EVERY
            assert (structure.basis.steps is None) == eigensolve
            assert solved == ([(8, n, n)] if eigensolve else [])
            logits = model.forward_with_structure(structure, x, params, cfg)
            ad.cross_entropy(logits, [1]).backward()

    def test_coupled_batch_stays_per_clip(self, desk_batch, monkeypatch):
        # differential off: bridges couple each clip's frames, so each clip
        # is one Lanczos block of M nodes, but no array spans two clips
        # and none is (M, M)
        calls = []

        def recorded(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        for module in (graphs, spectral):
            monkeypatch.setattr(module, "dense_from_layout",
                                recorded(graphs.dense_from_layout))
        for name in ("graph_laplacian", "laplacian_from_adjacency",
                     "eigendecompose"):
            monkeypatch.setattr(spectral, name, recorded(getattr(spectral, name)))
        cfg = model.TrainConfig(use_differential=False)
        params = model.init_params(cfg, random_head=True)
        logits, structure = model.forward([item.clip for item in desk_batch],
                                          params, cfg)
        ad.cross_entropy(logits, [item.label for item in desk_batch]).backward()
        m = structure.graph.node_count // 16
        b, n, k = structure.basis.vectors.shape
        assert (b, n) == (16, m) and k <= m
        assert structure.basis.steps.shape == (16,)
        assert not calls


class TestGoldenForward:
    def test_fixed_seed_logits_frozen(self):
        # regression pin: toy clip + seeded params -> these exact logits,
        # frozen from a validated run
        cfg = toy_config()
        params = model.init_params(cfg, seed=123, random_head=True)
        logits, _ = model.forward([toy_clip(seed=42)], params, cfg)
        np.testing.assert_allclose(
            logits.data, [[0.2135088795, 0.0047150562]], rtol=1e-7)


# every op a training tape records, by its name in autodiff
TAPE_OPS = ("_getitem", "add", "block_matmul", "concat", "cross_entropy",
            "frame_attention", "leaky_relu", "matmul", "mean", "mul", "reshape")


def adam_snapshot(params, state):
    """The bytes of every parameter and Adam moment, and the step count."""
    return ({name: p.data.tobytes() for name, p in params.items()},
            state.t,
            {name: a.tobytes() for name, a in state.m.items()},
            {name: a.tobytes() for name, a in state.v.items()})


class TestTraining:
    def test_loss_drops_below_ln2(self):
        clips = tiny_corpus(n=4)
        cfg = toy_config(epochs=6, lr=1e-2)
        # symmetric (zero-head) init: the untrained loss is exactly ln 2
        fresh = model.init_params(cfg)
        logits, _ = model.forward([clips[0].clip], fresh, cfg)
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

    def test_one_tape_per_minibatch(self, monkeypatch):
        calls = {"backward": 0, "adam_step": 0}
        backward, adam_step = ad.Tensor.backward, ad.adam_step

        def counted_backward(self):
            calls["backward"] += 1
            return backward(self)

        def counted_adam_step(*args):
            calls["adam_step"] += 1
            return adam_step(*args)

        monkeypatch.setattr(ad.Tensor, "backward", counted_backward)
        monkeypatch.setattr(ad, "adam_step", counted_adam_step)
        # 6 clips in batches of 4: two minibatches per epoch
        model.train_clips(tiny_corpus(n=3), toy_config(epochs=2))
        assert calls == {"backward": 4, "adam_step": 4}

    def test_overflowing_adam_step_changes_nothing(self, monkeypatch):
        # toy preset at lr=1e300: step 2's gradients (about 1e300) are
        # finite, but v overflows; the rejected step must leave every
        # parameter and the Adam state byte for byte as before it
        seen = []
        adam_step = ad.adam_step

        def recorded(params, grads, state):
            seen.append((params, state, adam_snapshot(params, state)))
            return adam_step(params, grads, state)

        monkeypatch.setattr(ad, "adam_step", recorded)
        with pytest.raises(ValueError, match="non-finite"):
            model.train_clips(tiny_corpus(n=3),
                              model.preset_config("toy", lr=1e300))
        params, state, before = seen[-1]
        assert len(seen) == 2 and before[1] == 1
        assert adam_snapshot(params, state) == before

    def test_channel_count_checked_before_the_first_step(self, monkeypatch):
        forwards = []
        monkeypatch.setattr(model, "forward", lambda *args: forwards.append(args))
        corpus = [synth.generate(synth.SynthSpec(fam, seed=0, frames=2, height=8,
                                                 width=8, channels=3))
                  for fam in ("real", "upsample_artifact")]
        with pytest.raises(ValueError, match=re.escape(
                "training clips have 3 channel(s), the config takes 1")):
            model.train_clips(corpus, toy_config())
        assert forwards == []
        with pytest.raises(ValueError, match=re.escape(
                "training clips have 1 channel(s), the config takes 3")):
            model.train_clips(tiny_corpus(), toy_config(channels=3))

    def test_one_threshold_for_training_and_metrics(self, monkeypatch):
        # 1 real and 2 fake clips: every score is >= 0 and < 1.1, so the
        # threshold alone decides both accuracies
        corpus = tiny_corpus(n=2)[1:]
        for threshold, acc in ((0.0, 2 / 3), (1.1, 1 / 3)):
            monkeypatch.setattr(model, "THRESHOLD", threshold)
            _, history = model.train_clips(corpus, toy_config(epochs=1))
            assert history[0][3] == acc
            assert metrics.accuracy([0.2, 0.7, 0.9], [0, 1, 1]) == acc

    def test_history_holds_mean_per_clip_loss(self, monkeypatch):
        steps = []
        cross_entropy = ad.cross_entropy

        def recorded(logits, labels):
            rows = [cross_entropy(ad.constant(logits.data[k:k + 1]),
                                  [labels[k]]).item() for k in range(len(labels))]
            hits = (ad.softmax_probs(logits.data)[:, 1] >= 0.5) == (
                np.asarray(labels) == 1)
            steps.append((rows, hits.tolist()))
            return cross_entropy(logits, labels)

        monkeypatch.setattr(ad, "cross_entropy", recorded)
        _, history = model.train_clips(tiny_corpus(n=3),
                                       toy_config(epochs=3, lr=1e-2))
        for epoch, (_, split, loss, acc) in enumerate(history):
            batches = steps[2 * epoch:2 * epoch + 2]
            rows = [r for losses, _ in batches for r in losses]
            hits = [h for _, batch_hits in batches for h in batch_hits]
            assert split == "train" and len(rows) == 6
            assert loss == pytest.approx(np.mean(rows), rel=1e-12, abs=0)
            assert acc == np.mean(hits)

    def test_desk_tape_records_the_checked_ops(self, desk_batch):
        ops = {node._backward.__qualname__.split(".")[0]
               for node in desk_tape(desk_batch[:1]) if node._backward}
        assert ops == set(TAPE_OPS)

    @pytest.mark.parametrize("op", TAPE_OPS)
    def test_nan_from_any_op_stops_the_step_before_adam(self, op, monkeypatch):
        # from the fourth step (epoch 1, batch start 4) on, every output
        # of ``op`` holds a NaN: the step must fail naming its epoch and
        # batch, with every parameter and Adam moment as the third step
        # left them
        steps = []
        adam_step, original = ad.adam_step, getattr(ad, op)

        def recorded(params, grads, state):
            adam_step(params, grads, state)
            steps.append((params, state, adam_snapshot(params, state)))

        def poisoned(*args, **kwargs):
            out = original(*args, **kwargs)
            if len(steps) == 3:
                out.data = out.data.copy()    # it may view an input
                out.data.flat[0] = np.nan
            return out

        monkeypatch.setattr(ad, "adam_step", recorded)
        monkeypatch.setattr(ad, op, poisoned)
        with pytest.raises(ValueError,
                           match=r"^epoch 1, batch start 4: .*non-finite"):
            model.train_clips(tiny_corpus(n=3), toy_config(epochs=3))
        params, state, after = steps[-1]
        assert len(steps) == 3
        assert adam_snapshot(params, state) == after

    def test_mixed_clip_shapes_rejected(self):
        clips = tiny_corpus(n=2) + tiny_corpus(n=1, size=16)
        with pytest.raises(ValueError, match=r"clip 4 \(real\) is \(2, 16, 16, 1\), "
                                             r"clip 0 \(real\) is \(2, 8, 8, 1\)"):
            model.train_clips(clips, toy_config())

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

    def test_removed_config_keys_rejected(self, tmp_path):
        # a checkpoint written while eps and leaky_slope were settable
        cfg = toy_config()
        path = tmp_path / "model.sstg"
        model.save_checkpoint(path, model.init_params(cfg), cfg)
        echo = json.dumps(cfg.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode()
        params = path.read_bytes()[len(model.CHECKPOINT_MAGIC) + 4 + len(echo):]
        old = json.dumps({**cfg.to_dict(), "eps": 1e-4, "leaky_slope": 0.2},
                         sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(model.CHECKPOINT_MAGIC + struct.pack("<I", len(old))
                         + old + params)
        with pytest.raises(ValueError, match=re.escape(
                "unknown config keys: ['eps', 'leaky_slope']")):
            model.load_checkpoint(path)

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

    def test_tensor_named_twice_rejected(self, tmp_path):
        # one block more than saved, repeating encoder.weight as 5.0s: the
        # later block must not silently replace the earlier one
        cfg = toy_config()
        params = model.init_params(cfg)
        path = tmp_path / "model.sstg"
        model.save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        start = len(model.CHECKPOINT_MAGIC)
        (length,) = struct.unpack_from("<I", blob, start)
        at = start + 4 + length
        (count,) = struct.unpack_from("<I", blob, at)
        name, weight = b"encoder.weight", np.full(params["encoder.weight"].data.shape, 5.0)
        again = (struct.pack("<H", len(name)) + name
                 + struct.pack(f"<B{weight.ndim}I", weight.ndim, *weight.shape)
                 + weight.astype("<f8").tobytes())
        path.write_bytes(blob[:at] + struct.pack("<I", count + 1) + blob[at + 4:]
                         + again)
        with pytest.raises(ValueError, match="tensor encoder.weight appears twice"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("cfg", [toy_config(), model.TrainConfig(),
                                     model.TrainConfig(dim=256, channels=3)])
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
        # d = 256 scales the model toward the published size
        n = model.init_params(model.TrainConfig(dim=256)).count()
        assert 100_000 < n < 2_050_000


class TestConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="thresholds"):
            model.TrainConfig(tau_s=1.5)

    @pytest.mark.parametrize("lr", [0.0, -0.5, math.nan, math.inf])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and positive"):
            model.TrainConfig(lr=lr)

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
