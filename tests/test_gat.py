"""Attention layer semantics over signed adjacency."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sstgnn import autodiff as ad
from sstgnn import differential as diff
from sstgnn import gat, graphs, model, synth

from layouts import (SlotTable, frame_layout, joined_adjacency, joined_attention,
                     loop_negative_spatial_matrix, one_clip, whole_frames)


def lrelu(v, slope=0.2):
    return np.where(v > 0, v, slope * v)


def make_params(d, seed=0, zero_attention=False):
    rng = np.random.default_rng(seed)
    a = np.zeros(2 * d) if zero_attention else rng.normal(size=2 * d)
    return gat.GatParams(ad.parameter(rng.normal(size=(d, d))),
                         ad.parameter(a))


def adjacency(support, sign=None):
    """One frame with no twins, as one pass over one block of the whole
    frame: an (n, n) sign, +1 on the support when not given."""
    sign = np.asarray(support if sign is None else sign, dtype=float)
    return gat.SignedAdjacency(whole_frames(graphs.to_layout(
        sign, np.zeros((1, 0, len(sign))))))


def one_pass(adj, p):
    """Pass p of an adjacency as a one-pass adjacency over its blocks."""
    return gat.SignedAdjacency(tuple(
        lay._replace(sign=lay.sign[:, :, :, [k]], passes=(0,))
        for lay in adj.layouts for k, q in enumerate(lay.passes) if q == p))


def dense_pair(adj):
    """The (M, M) support and sign a one-pass adjacency's slots stand
    for."""
    (layout,) = frame_layout(adj)
    return graphs.dense_from_layout(layout != 0), graphs.dense_from_layout(layout)


def attention_weights(h, attention, adj):
    """The (M, M) signed attention weights `autodiff.frame_attention`
    applies, read through probe columns of h that the scores ignore:
    one-hot column j of the output is row i's weight on node j."""
    m, d = h.shape
    probe = np.hstack([h, np.eye(m)])
    a = np.concatenate([attention[:d], np.zeros(m), attention[d:], np.zeros(m)])
    out = ad.frame_attention(ad.constant(probe), ad.constant(a), adj.layouts).data
    return out[:, d:]


def brute_force(x, support, sign, w, a, slope=0.2):
    h = x @ w
    d = w.shape[0]
    out = np.zeros_like(h)
    for i in range(len(x)):
        nbrs = np.nonzero(support[i])[0]
        e = np.array([lrelu(a[:d] @ h[i] + a[d:] @ h[j], slope) for j in nbrs])
        e -= e.max()
        alpha = np.exp(e) / np.exp(e).sum()
        for al, j in zip(alpha, nbrs):
            out[i] += al * sign[i, j] * h[j]
    return lrelu(out, slope)


class TestGatForward:
    def test_single_node_self_loop(self):
        params = make_params(3, seed=1)
        x = np.random.default_rng(2).normal(size=(1, 3))
        out = gat.gat_forward(ad.constant(x), adjacency([[True]]), params)
        np.testing.assert_allclose(out.data, lrelu(x @ params.weight.data),
                                   rtol=1e-12)

    def test_identical_nodes_split_attention_evenly(self):
        params = make_params(3, seed=3)
        row = np.random.default_rng(4).normal(size=3)
        h = np.vstack([row, row]) @ params.weight.data
        alpha = attention_weights(h, params.attention.data,
                                  adjacency(np.ones((2, 2), dtype=bool)))
        np.testing.assert_allclose(alpha, np.full((2, 2), 0.5), atol=1e-12)

    def test_line_graph_matches_brute_force(self):
        params = make_params(4, seed=5)
        x = np.random.default_rng(6).normal(size=(3, 4))
        support = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
        out = gat.gat_forward(ad.constant(x), adjacency(support), params)
        expected = brute_force(x, support, support.astype(float),
                               params.weight.data, params.attention.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)

    def test_signed_messages_match_brute_force(self):
        params = make_params(4, seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 4))
        support = rng.random((5, 5)) < 0.5
        support[np.arange(5), np.arange(5)] = True
        sign = np.where(support, np.where(rng.random((5, 5)) < 0.4, -1.0, 1.0), 0.0)
        out = gat.gat_forward(ad.constant(x), adjacency(support, sign), params)
        expected = brute_force(x, support, sign, params.weight.data,
                               params.attention.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)

    def test_zero_attention_reduces_to_mean_aggregation(self):
        params = make_params(4, seed=9, zero_attention=True)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 4))
        support = rng.random((4, 4)) < 0.6
        support[np.arange(4), np.arange(4)] = True
        out = gat.gat_forward(ad.constant(x), adjacency(support), params)
        h = x @ params.weight.data
        expected = lrelu(np.vstack([
            h[support[i]].mean(axis=0) for i in range(4)]))
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)

    def test_attention_rows_stochastic_on_support(self):
        params = make_params(5, seed=11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 5))
        support = rng.random((6, 6)) < 0.4
        adj = adjacency(support)
        alpha = attention_weights(x @ params.weight.data,
                                  params.attention.data, adj)
        support, _ = dense_pair(adj)
        np.testing.assert_allclose(alpha.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(alpha[~support] == 0.0)

    def test_permutation_equivariance(self):
        params = make_params(4, seed=13)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(6, 4))
        support = rng.random((6, 6)) < 0.5
        support[np.arange(6), np.arange(6)] = True
        sign = np.where(support, np.where(rng.random((6, 6)) < 0.3, -1.0, 1.0), 0.0)
        perm = rng.permutation(6)
        base = gat.gat_forward(ad.constant(x), adjacency(support, sign), params)
        permuted = gat.gat_forward(
            ad.constant(x[perm]),
            adjacency(support[np.ix_(perm, perm)], sign[np.ix_(perm, perm)]),
            params)
        # summation order inside the row reductions shifts, so agreement
        # is to rounding, not bitwise
        np.testing.assert_allclose(permuted.data, base.data[perm],
                                   rtol=1e-12, atol=1e-14)

    def test_gradients_match_finite_differences(self):
        # x scaled so attention rows straddle the LeakyReLU kink: a pure
        # row shift cancels in the softmax, so without the straddle the
        # self half of `a` would carry no gradient to compare
        params = make_params(3, seed=1)
        x = ad.constant(np.random.default_rng(101).normal(size=(4, 3)) * 2.0)
        support = np.ones((4, 4), dtype=bool)

        def f():
            return ad.mean(gat.gat_forward(x, adjacency(support), params))

        grads = f().backward()
        assert min(np.abs(g).min() for g in grads.values()) > 1e-6
        err = ad.finite_diff_check(
            f, {"w": params.weight, "a": params.attention})
        assert err < 1e-4

    def test_dim_mismatch(self):
        params = make_params(3)
        with pytest.raises(ValueError, match="dim"):
            gat.gat_forward(ad.constant(np.ones((2, 4))),
                            adjacency(np.ones((2, 2), dtype=bool)), params)


def clip_graph(t=2, grid=2, d=4, seed=0, tau=0.3):
    emb = np.random.default_rng(seed).random((t, grid * grid, d))
    return graphs.unified_graph(emb, grid, grid, tau, tau)


class TestPasses:
    def test_consistency_single_frame_equals_plain_gat(self):
        g = clip_graph(t=1)
        params = make_params(4, seed=17)
        x = ad.constant(np.random.default_rng(18).normal(size=(4, 4)))
        out = gat.gat_forward(x, one_pass(gat.build_adjacency(g, None), 0), params)
        direct = gat.gat_forward(x, adjacency(g.spatial > 0), params)
        np.testing.assert_array_equal(out.data, direct.data)

    def test_disconnected_node_keeps_self_message(self):
        g = replace(clip_graph(t=1), blocks=np.zeros((1, 4, 4)))
        params = make_params(4, seed=19)
        x = np.random.default_rng(20).normal(size=(4, 4))
        adj = one_pass(gat.build_adjacency(g, None), 0)
        out = gat.gat_forward(ad.constant(x), adj, params)
        np.testing.assert_allclose(out.data, lrelu(x @ params.weight.data),
                                   rtol=1e-12)

    def test_inconsistency_degenerate_graph_is_pointwise(self):
        # tile 1 and one frame: the differential adjacency is the identity
        g = clip_graph(t=1)
        params = make_params(4, seed=21)
        x = np.random.default_rng(22).normal(size=(4, 4))
        adj = one_pass(gat.build_adjacency(g, 1), 1)
        out = gat.gat_forward(ad.constant(x), adj, params)
        np.testing.assert_allclose(out.data, lrelu(x @ params.weight.data),
                                   rtol=1e-12)

    def test_constant_tile_non_anchor_messages_cancel(self):
        g = clip_graph(t=1, grid=2)
        params = make_params(4, seed=23)
        row = np.random.default_rng(24).normal(size=4)
        x = ad.constant(np.tile(row, (4, 1)))
        adj = one_pass(gat.build_adjacency(g, 2), 1)
        out = gat.gat_forward(x, adj, params)
        # non-anchor nodes see {self +1, anchor -1} with equal attention
        np.testing.assert_allclose(out.data[1:], np.zeros((3, 4)), atol=1e-12)
        h = row @ params.weight.data
        np.testing.assert_allclose(out.data[0], lrelu(-0.5 * h), rtol=1e-10)

    def test_inconsistency_matches_signed_oracle(self):
        g = clip_graph(t=2, grid=2, seed=25)
        g = diff.add_temporal_negative(g)
        params = make_params(4, seed=26)
        x = np.random.default_rng(27).normal(size=(8, 4))
        adj = one_pass(gat.build_adjacency(g, 2), 1)
        out = gat.gat_forward(ad.constant(x), adj, params)
        support, sign = dense_pair(adj)
        expected = brute_force(x, support, sign, params.weight.data,
                               params.attention.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)


class TestFusion:
    def test_first_half_projection(self):
        rng = np.random.default_rng(28)
        hc, hic = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        w = np.vstack([np.eye(3), np.zeros((3, 3))])
        out = gat.spatial_fuse(ad.constant(np.hstack([hc, hic])),
                               ad.constant(w), ad.constant(np.zeros(3)), one_clip(5))
        np.testing.assert_allclose(out.data[0], hc.mean(axis=0), rtol=1e-12)

    def test_equal_passes_cancel_under_difference(self):
        h = np.random.default_rng(29).normal(size=(5, 3))
        w = np.vstack([np.eye(3), -np.eye(3)])
        out = gat.spatial_fuse(ad.constant(np.hstack([h, h])),
                               ad.constant(w), ad.constant(np.zeros(3)), one_clip(5))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-14)

    def test_matches_concat_affine_mean_oracle(self):
        rng = np.random.default_rng(30)
        hc, hic = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        w, b = rng.normal(size=(6, 3)), rng.normal(size=3)
        out = gat.spatial_fuse(ad.constant(np.hstack([hc, hic])),
                               ad.constant(w), ad.constant(b), one_clip(4))
        expected = (np.hstack([hc, hic]) @ w + b).mean(axis=0)
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)

    def test_one_row_per_clip(self):
        rng = np.random.default_rng(31)
        h = rng.normal(size=(12, 6))
        w, b = ad.constant(rng.normal(size=(6, 3))), ad.constant(rng.normal(size=3))
        out = gat.spatial_fuse(ad.constant(h), w, b, three_clips())
        alone = [gat.spatial_fuse(ad.constant(h[4 * k:4 * k + 4]), w, b, one_clip(4))
                 for k in range(3)]
        np.testing.assert_array_equal(out.data, np.vstack([a.data for a in alone]))

    def test_rows_must_split_into_the_clips(self):
        # the 6 rows of one 3-frame clip pooled against a 3-clip graph
        h = ad.constant(np.ones((6, 6)))
        w, b = ad.constant(np.ones((6, 3))), ad.constant(np.zeros(3))
        with pytest.raises(ValueError, match="6 node rows do not split into "
                                             "the graph's 3 clips of 4 nodes"):
            gat.spatial_fuse(h, w, b, three_clips())
        # the graph's count holds: 3 clips of 2 nodes
        graph = graphs.VideoGraph(2, 1, np.zeros((3, 2, 2)), np.zeros((3, 0, 2)))
        assert gat.spatial_fuse(h, w, b, graph).shape == (3, 3)


    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_pooling_first_is_map_then_pool(self, seed, clips, frames):
        rng = np.random.default_rng(seed)
        n, d = 4, 3
        graph = graphs.VideoGraph(2, 2, np.zeros((clips * frames, n, n)),
                                  np.zeros((clips, frames - 1, n)))
        h = ad.parameter(rng.normal(size=(clips * frames * n, 2 * d)))
        w = ad.parameter(rng.normal(size=(2 * d, d)))
        b = ad.parameter(rng.normal(size=d))
        probe = rng.normal(size=(clips, d))
        out = gat.spatial_fuse(h, w, b, graph)
        fused = ad.add(ad.matmul(h, w), b)
        reference = ad.mean(ad.reshape(fused, (clips, -1, d)), axis=1)
        np.testing.assert_allclose(out.data, reference.data, rtol=1e-12, atol=1e-12)
        grads = ad.mean(ad.mul(out, probe)).backward()
        expected = ad.mean(ad.mul(reference, probe)).backward()
        for leaf in (h, w, b):
            np.testing.assert_allclose(grads[leaf], expected[leaf],
                                       rtol=1e-12, atol=1e-12)


    def test_map_runs_on_one_row_per_clip(self, monkeypatch):
        shapes, matmul = [], ad.matmul

        def recorded(a, b):
            shapes.append(a.shape)
            return matmul(a, b)

        monkeypatch.setattr(ad, "matmul", recorded)
        rng = np.random.default_rng(32)
        gat.spatial_fuse(ad.constant(rng.normal(size=(12, 6))),
                         ad.constant(rng.normal(size=(6, 3))),
                         ad.constant(np.zeros(3)), three_clips())
        assert shapes == [(3, 1, 6)]


def three_clips():
    """A graph of 3 one-frame clips of 4 nodes."""
    return graphs.VideoGraph(2, 2, np.zeros((3, 4, 4)), np.zeros((3, 0, 4)))


def masked_softmax(scores, support):
    """Row softmax over the supported entries of an (M, M) score Tensor,
    zero elsewhere: the op the dense composition used."""
    mask = np.asarray(support, dtype=bool)
    neg = np.where(mask, scores.data, -np.inf)
    expd = np.where(mask, np.exp(neg - neg.max(axis=-1, keepdims=True)), 0.0)
    soft = expd / expd.sum(axis=-1, keepdims=True)
    out = ad.Tensor(soft, requires_grad=scores.requires_grad, parents=(scores,))

    def _backward(g, acc):
        dot = (g * soft).sum(axis=-1, keepdims=True)
        ad._accum(acc, scores, soft * (g - dot))

    out._backward = _backward
    return out


def dense_gat(x, support, sign, params):
    """The dense M x M composition the fused op replaced: scores over all
    node pairs, masked softmax, signs, one (M, M) @ (M, d) product."""
    d = params.weight.data.shape[0]
    h = ad.matmul(x, params.weight)
    a_self = ad.reshape(params.attention[:d], (d, 1))
    a_peer = ad.reshape(params.attention[d:], (d, 1))
    scores = ad.add(ad.matmul(h, a_self),
                    ad.reshape(ad.matmul(h, a_peer), (1, -1)))
    scores = ad.leaky_relu(scores)
    alpha = masked_softmax(scores, support)
    signed = ad.mul(alpha, ad.constant(sign))
    return ad.leaky_relu(ad.matmul(signed, h))


def old_dense_adjacency(graph, tile):
    """(M, M) consistency and inconsistency support/sign, built the way
    they were before the frame layout; ``tile`` None leaves out the
    spatial differential."""
    def loops(support, sign):
        support, sign = support.copy(), sign.copy()
        diag = np.arange(support.shape[0])
        missing = ~support[diag, diag]
        support[diag[missing], diag[missing]] = True
        sign[diag[missing], diag[missing]] = 1.0
        return support, sign

    support = (graph.spatial > 0) | (graph.temporal > 0)
    consistency = loops(support, support.astype(float))
    combined = np.where(graph.temporal < 0, graph.temporal, 0.0)
    if tile is not None:
        combined = combined + loop_negative_spatial_matrix(
            graph.frames, graph.grid_h, graph.grid_w, tile)[0]
    return consistency, loops(combined != 0, np.sign(combined))


def clip_structure(patch, use_differential, seed=0, family="real"):
    cfg = model.preset_config("desk", patch_size=patch,
                              use_differential=use_differential)
    params = model.init_params(cfg, random_head=True)
    clip = synth.generate(synth.SynthSpec(family=family, seed=seed)).clip
    pt = graphs.patchify(clip.pixels, cfg.patch_size)
    emb = model.encode_patches(pt.vectors, params, cfg)
    return model.build_structure(pt, emb.data, params.filter_mlp, cfg), params, cfg


def bridged_layout(seed=31):
    """T=3 one-pass adjacency with positive bridges, then some twins and
    some in-frame edges flipped to -1: every kind of cell carries a
    sign."""
    g = graphs.unified_graph(
        np.random.default_rng(seed).random((3, 4, 4)), 2, 2, 0.3, 0.1)
    (layout,) = one_pass(gat.build_adjacency(g, None), 0).layouts
    sign, n = layout.sign.copy(), 4
    support = sign != 0
    assert support[1:, ..., n].any() and support[:-1, ..., n + 1].any()
    flip = np.random.default_rng(seed + 1).random(sign.shape) < 0.4
    sign[flip] *= -1
    twins = sign[..., n:][support[..., n:]]
    assert (twins > 0).any() and (twins < 0).any()
    return gat.SignedAdjacency((layout._replace(sign=sign),))


class TestFrameLayoutAttention:
    def test_gradients_match_finite_differences(self):
        adj = bridged_layout()
        params = make_params(4, seed=33)
        x = ad.parameter(np.random.default_rng(34).normal(size=(12, 4)) * 2.0)

        def f():
            return ad.mean(gat.gat_forward(x, adj, params))

        grads = f().backward()
        assert min(np.abs(grads[t]).min()
                   for t in (x, params.weight, params.attention)) > 1e-6
        err = ad.finite_diff_check(
            f, {"x": x, "w": params.weight, "a": params.attention})
        assert err < 1e-4

    def test_bridged_layout_matches_brute_force(self):
        adj = bridged_layout()
        params = make_params(4, seed=35)
        x = np.random.default_rng(36).normal(size=(12, 4))
        out = gat.gat_forward(ad.constant(x), adj, params)
        support, sign = dense_pair(adj)
        expected = brute_force(x, support, sign, params.weight.data,
                               params.attention.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("patch", [16, 8])
    @pytest.mark.parametrize("use_differential", [True, False])
    def test_agrees_with_dense_composition(self, patch, use_differential):
        structure, params, cfg = clip_structure(patch, use_differential)
        x = ad.parameter(model.encode_patches(structure.patches, params,
                                              cfg).data)
        m, d = x.data.shape
        assert m == 8 * (64 // patch) ** 2
        probe = ad.constant(np.random.default_rng(patch).normal(size=(m, d)))
        for adj in (one_pass(structure.adjacency, p) for p in (0, 1)):
            runs = []
            for run in (lambda: gat.gat_forward(x, adj, params.gat),
                        lambda: dense_gat(x, *dense_pair(adj), params.gat)):
                out = run()
                # a summed probe keeps the gradients O(1) or larger, so
                # the absolute bound below is a tight one
                loss = ad.mul(ad.mean(ad.mul(out, probe)), float(m * d))
                grads = loss.backward()
                runs.append([out.data] + [grads[t] for t in (
                    x, params["gat.weight"], params["gat.attention"])])
            for fused, dense in zip(*runs):
                np.testing.assert_allclose(fused, dense, rtol=0, atol=1e-12)

    def test_one_tape_node_for_attention(self):
        (layout,) = bridged_layout().layouts
        both = gat.SignedAdjacency((ad.BlockLayout(
            None, np.concatenate([layout.sign, layout.sign], axis=3), (0, 1)),))
        params = make_params(4, seed=37)
        out = gat.gat_forward(ad.parameter(np.ones((12, 4))), both, params)
        assert out.shape == (12, 8)
        nodes = ad._toposort(ad.mean(out))
        # mean, leaky_relu, frame_attention, matmul and the three leaves:
        # both passes share one of each
        assert len(nodes) == 7


class TestSignedAdjacencyLayout:
    @pytest.mark.parametrize("use_differential", [True, False])
    def test_dense_gives_back_the_old_matrices(self, use_differential):
        structure, _, cfg = clip_structure(16, use_differential, family="temporal_jitter")
        old = old_dense_adjacency(structure.graph,
                                  cfg.tile if use_differential else None)
        for p, (support, sign) in enumerate(old):
            dense_support, dense_sign = dense_pair(one_pass(structure.adjacency, p))
            assert dense_support.dtype == support.dtype
            assert dense_support.tobytes() == support.tobytes()
            assert dense_sign.tobytes() == sign.tobytes()

    def test_two_dimensional_pair_is_one_frame(self):
        support = np.array([[1, 1], [0, 1]], dtype=bool)
        adj = adjacency(support)
        (layout,) = adj.layouts
        assert layout.order is None and layout.sign.shape == (1, 1, 2, 1, 4)
        dense_support, dense_sign = dense_pair(adj)
        np.testing.assert_array_equal(dense_support, support)
        np.testing.assert_array_equal(dense_sign, support.astype(float))

    def test_construction_adds_missing_self_loops(self):
        support = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=bool)
        sign = graphs.to_layout(np.where(support, -1.0, 0.0), np.zeros((1, 0, 3)))
        adj = gat.SignedAdjacency((ad.BlockLayout(None, sign[:, None, :, None]),))
        dense_support, dense_sign = dense_pair(adj)
        np.testing.assert_array_equal(dense_support, support | np.eye(3, dtype=bool))
        # the absent loops of nodes 0 and 2 come back +1; node 1's -1 stays
        np.testing.assert_array_equal(dense_sign.diagonal(), [1.0, -1.0, 1.0])
        assert dense_sign[0, 1] == dense_sign[1, 0] == -1.0
        # the caller's array is left as it was
        assert sign[0, 0, 0] == 0.0 and sign[0, 1, 1] == -1.0

    def test_twin_beyond_the_clip_rejected(self):
        sign = np.zeros((2, 1, 2, 2, 4))
        sign[0, 0, 0, 1, 2] = 1.0   # frame 0 has no previous frame
        with pytest.raises(ValueError, match="twin"):
            gat.SignedAdjacency((ad.BlockLayout(None, sign, (0, 1)),))
        sign[0, 0, 0, 1, 2], sign[1, 0, 1, 0, 3] = 0.0, -1.0   # nor frame 1 a next one
        with pytest.raises(ValueError, match="twin"):
            gat.SignedAdjacency((ad.BlockLayout(None, sign, (0, 1)),))

    def test_layout_shape_checked(self):
        for sign in (np.ones((2, 2, 2)), np.ones((4, 4)), np.ones((2, 1, 2, 1, 3)),
                     np.full((2, 1, 2, 1, 4), 0.5), np.full((2, 1, 2, 1, 4), 2.0)):
            with pytest.raises(ValueError, match="block layout"):
                gat.SignedAdjacency((ad.BlockLayout(None, sign),))
        order = np.array([0, 2])    # a block of nodes 0 and 2 of a 3-node frame
        with pytest.raises(ValueError, match="block layout"):
            gat.SignedAdjacency((ad.BlockLayout(order, np.ones((2, 1, 3, 1, 5))),))
        # each pass holds every node of a frame once
        whole = ad.BlockLayout(None, np.ones((2, 1, 3, 1, 5)) * [1, 1, 1, 0, 0])
        for part in ((ad.BlockLayout(order, np.ones((2, 2, 1, 1, 3)) * [1, 0, 0],
                                     (1,)),),
                     (ad.BlockLayout(np.array([0, 1, 1]),
                                     np.ones((2, 3, 1, 1, 3)) * [1, 0, 0], (1,)),)):
            with pytest.raises(ValueError, match="must hold every node of a frame once"):
                gat.SignedAdjacency((whole, *part))

    # a graph holds only frame blocks and twins, so such entries cannot
    # reach the adjacency builder: a graph given (M, M) arrays in place
    # of the layout raises
    def test_cross_frame_spatial_entry_raises(self):
        g = clip_graph(t=2, grid=2)
        spatial = g.spatial.copy()
        spatial[0, 5] = spatial[5, 0] = 0.9   # frame 0 node 0 to frame 1 node 1
        with pytest.raises(ValueError, match="do not fit"):
            replace(g, blocks=spatial)

    def test_off_twin_temporal_entry_raises(self):
        g = diff.add_temporal_negative(clip_graph(t=3, grid=2))
        temporal = g.temporal.copy()
        temporal[0, 8] = temporal[8, 0] = -1.0   # frame 0 to frame 2
        with pytest.raises(ValueError, match="do not fit"):
            replace(g, twins=temporal)


def batch_graph(rng, grid_h, grid_w, clips, frames, differential, tile):
    """A graph of ``clips`` clips of ``frames`` frames over random
    embeddings, bridged at tau_t 0.1 so the differential off keeps
    positive twins, and its tile (None when off)."""
    emb = rng.random((clips * frames, grid_h * grid_w, 3))
    g = graphs.unified_graph(emb, grid_h, grid_w, 0.3, 0.1, clips)
    if not differential:
        return g, None
    return diff.add_temporal_negative(g), tile


def block_and_dense(seed, grid_h, grid_w, tile, clips, frames, differential,
                    d=3):
    """Per pass: the output and h, attention gradients of its columns of
    the block-layout call, and of the dense one-pass call over its
    expanded frame layout."""
    rng = np.random.default_rng(seed)
    g, tile = batch_graph(rng, grid_h, grid_w, clips, frames, differential, tile)
    adj = gat.build_adjacency(g, tile)
    m = g.node_count
    h = ad.parameter(rng.normal(size=(m, d)) * 2.0)
    a = ad.parameter(rng.normal(size=2 * d))
    probe = ad.constant(rng.normal(size=(m, d)))

    def run(out):
        grads = ad.mul(ad.mean(ad.mul(out, probe)), float(m * d)).backward()
        return out.data, grads[h], grads[a]

    blocks = ad.frame_attention(h, a, adj.layouts)
    return adj, [(run(blocks[:, p * d:(p + 1) * d]),
                  run(ad.frame_attention(h, a, whole_frames(layout))))
                 for p, layout in enumerate(frame_layout(adj))]


def assert_close_each(got, want):
    for g, w in zip(got, want):
        scale = max(1.0, np.abs(w).max())
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * scale)


class TestGatheredPass:
    """Both passes in one call over their block layouts, each against the
    dense one-pass call over the (T, N, N + 2) layout it stands for, and
    both against the joined slot-table reference. The inconsistency pass
    reads only its tile blocks and the blocks of one node; row sums run
    over other cells, so agreement is to rounding."""

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 5),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    @example(0, 3, 5, 2, 3, 2, True)    # tiles do not divide the grid
    @example(1, 3, 5, 2, 1, 3, False)   # the differential off
    @example(2, 2, 2, 3, 2, 2, True)    # no complete tile
    def test_matches_dense_pass(self, seed, grid_h, grid_w, tile, clips, frames,
                                differential):
        adj, passes = block_and_dense(
            seed, grid_h, grid_w, tile, clips, frames, differential)
        n = grid_h * grid_w
        tiles = (grid_h // tile) * (grid_w // tile) if differential else 0
        k = tile * tile
        # the inconsistency pass: a block per tile, one per node outside
        shapes = sorted((lay.sign.shape[1:3], lay.passes) for lay in adj.layouts)
        inconsistency = sorted(shape for shape, owned in shapes if 1 in owned)
        expected = [(g, b) for g, b in ((n - tiles * k, 1), (tiles, k)) if g]
        assert inconsistency == sorted(expected)
        assert ((1, n), (0,)) in shapes or ((1, n), (0, 1)) in shapes
        for blocks, dense in passes:
            assert_close_each(blocks, dense)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    @example(0, 5, 3, 2, 2, 2, True)    # no tile divides the grid
    @example(1, 2, 3, 4, 3, 2, True)    # the tile larger than the grid
    @example(2, 3, 3, 2, 1, 3, False)   # the differential off: blocks of one
    @example(3, 2, 2, 2, 3, 3, True)    # the desk shape: both passes stacked
    def test_matches_joined_reference(self, seed, grid_h, grid_w, tile, clips, frames,
                                      differential):
        # the joined slot-table op the block layouts replaced, over the
        # same graph: values and h, attention gradients within 1e-12
        rng = np.random.default_rng(seed)
        g, tile = batch_graph(rng, grid_h, grid_w, clips, frames, differential, tile)
        adj = gat.build_adjacency(g, tile)
        m = g.node_count
        h = ad.parameter(rng.normal(size=(m, 3)) * 2.0)
        a = ad.parameter(rng.normal(size=6))
        probe = ad.constant(rng.normal(size=(m, 6)))
        runs = []
        for out in (ad.frame_attention(h, a, adj.layouts),
                    joined_attention(h, a, *joined_adjacency(g, tile))):
            grads = ad.mul(ad.mean(ad.mul(out, probe)), float(m * 6)).backward()
            runs.append((out.data, grads[h], grads[a]))
        assert_close_each(*runs)
        if grid_h == grid_w == tile == 2 and differential:
            (layout,) = adj.layouts
            assert layout.order is None and layout.passes == (0, 1)

    def test_boundary_twins_are_empty(self):
        adj, _ = block_and_dense(3, 3, 5, 2, clips=3, frames=2, differential=True)
        consistency, inconsistency = frame_layout(adj)
        # twin columns: frame 0 of each clip has no previous frame, frame
        # 1 no next one; every other twin is -1, so none is a consistency
        # edge
        n = 15
        np.testing.assert_array_equal(inconsistency[0::2, :, n], 0.0)
        np.testing.assert_array_equal(inconsistency[1::2, :, n + 1], 0.0)
        np.testing.assert_array_equal(inconsistency[1::2, :, n], -1.0)
        np.testing.assert_array_equal(inconsistency[0::2, :, n + 1], -1.0)
        assert not consistency[:, :, n:].any()

    def test_backward_fd(self):
        rng = np.random.default_rng(41)
        g, tile = batch_graph(rng, 3, 5, clips=2, frames=2, differential=True, tile=2)
        adj = gat.build_adjacency(g, tile)
        h = ad.parameter(rng.normal(size=(g.node_count, 3)) * 2.0)
        a = ad.parameter(rng.normal(size=6))
        w = ad.constant(rng.normal(size=(6, 1)))

        def f():
            out = ad.frame_attention(h, a, adj.layouts)
            return ad.mean(ad.matmul(out, w))

        grads = f().backward()
        assert min(np.abs(grads[t]).min() for t in (h, a)) > 1e-6
        # central differences over 60 nodes resolve these gradients to
        # about 1e-6; the dense property above pins them to 1e-12
        assert ad.finite_diff_check(f, {"h": h, "a": a}) < 1e-5

    def test_passes_are_independent(self):
        # the dense and the tile pass in one call: each pass's columns
        # are those it gives alone, byte for byte
        rng = np.random.default_rng(43)
        g, tile = batch_graph(rng, 3, 5, clips=2, frames=3, differential=True, tile=2)
        adj = gat.build_adjacency(g, tile)
        h = ad.constant(rng.normal(size=(g.node_count, 4)))
        a = ad.constant(rng.normal(size=8))
        both = ad.frame_attention(h, a, adj.layouts)
        alone = [ad.frame_attention(h, a, j.layouts)
                 for j in (one_pass(adj, 0), one_pass(adj, 1))]
        assert both.data.tobytes() == np.hstack([o.data for o in alone]).tobytes()

    def test_index_must_fit_the_table(self):
        h, a = ad.constant(np.ones((8, 2))), ad.constant(np.ones(4))
        (layout,) = whole_frames(np.ones((2, 4, 6)))
        sign = layout.sign
        for bad in (layout._replace(sign=sign[..., 1:]),    # no next twin
                    layout._replace(sign=sign[:, :, :3]),   # 3 of the 4 nodes
                    layout._replace(sign=sign[:1]),         # 1 of the 2 frames
                    layout._replace(order=np.arange(3)),    # 3 ids for 4 rows
                    layout._replace(passes=(0, 1))):        # 2 passes for 1 sign
            with pytest.raises(ValueError, match="do not fit"):
                ad.frame_attention(h, a, [bad])
        # the reference's slot table checks its own columns
        table = SlotTable(np.tile(np.arange(6), (4, 1)))
        index, starts = table.index, table.starts
        for bad_index, bad_starts in (
                (index[:, :5], starts),             # no next twin
                (index.astype(float), starts),
                (index, (1,)),                      # a slot before the first pass
                (np.tile(index, 2), (0, 3)),        # a pass of 3 node slots, no twins
                (np.roll(index, 1, axis=1), starts)):    # the twins not last
            with pytest.raises(ValueError, match="slot table"):
                SlotTable(bad_index, bad_starts)

    @pytest.mark.parametrize("patch", [16, 8])
    @pytest.mark.parametrize("use_differential", [True, False])
    def test_support_count_matches_the_layout(self, patch, use_differential):
        # the blocks hold every supported entry of the frame layouts, in
        # fewer cells
        structure, _, _ = clip_structure(patch, use_differential)
        layouts = frame_layout(structure.adjacency)
        signs = [lay.sign for lay in structure.adjacency.layouts]
        assert sum(np.count_nonzero(s) for s in signs) == np.count_nonzero(layouts)
        assert sum(s.size for s in signs) < layouts.size


class TestSlotTableChecks:
    """The reference's slot table, and the self-loops `SignedAdjacency`
    adds to the builder's block layouts."""

    def table(self):
        """A differential clip graph of 2 frames of a 2 x 2 grid, and the
        reference's sign and column table over it."""
        g = diff.add_temporal_negative(clip_graph(t=2, grid=2))
        sign, table = joined_adjacency(g, 2)
        return g, sign, table, np.array(table.index)

    def test_builder_table_accepted(self):
        _, sign, table, index = self.table()
        assert table.starts == (0, 6)
        again = SlotTable(index, table.starts)
        np.testing.assert_array_equal(again.index, table.index)
        np.testing.assert_array_equal(again.scatter, table.scatter)

    def test_shape_and_dtype_checked(self):
        _, sign, table, index = self.table()
        for bad in (index[:, :9], index.astype(float), index[:3]):
            with pytest.raises(ValueError, match="slot table"):
                SlotTable(bad, table.starts)

    def test_rows_must_hold_distinct_columns_and_their_node(self):
        _, sign, table, index = self.table()
        repeated, foreign = index.copy(), index.copy()
        repeated[1, 7] = repeated[1, 6]    # the tile pass's row 1 reads node 1 twice
        foreign[2, 6] = 3                  # row 2 reads node 3 in place of itself
        for bad in (repeated, foreign):
            with pytest.raises(ValueError, match="distinct"):
                SlotTable(bad, table.starts)

    def test_missing_loop_added_in_slot_zero(self):
        # the diagonal of each pass's blocks: at desk size both passes
        # are one stacked block of the frame
        g = self.table()[0]
        (layout,) = gat.build_adjacency(g, 2).layouts
        rows = np.arange(4)
        sign = layout.sign.copy()
        sign[:, :, rows, :, rows] = 0.0
        (again,) = gat.SignedAdjacency((layout._replace(sign=sign),)).layouts
        np.testing.assert_array_equal(again.sign[:, :, rows, :, rows], 1.0)
        # every other cell keeps its sign, and the caller's array is left
        # as it was
        assert (sign[:, :, rows, :, rows] == 0.0).all()
        again.sign[:, :, rows, :, rows] = 0.0
        np.testing.assert_array_equal(again.sign, sign)

    def test_caller_index_is_copied(self):
        # the reference's table keeps read-only copies: a later write to
        # the caller's array changes nothing that joined_attention reads
        _, sign, table, index = self.table()
        again = SlotTable(index, table.starts)
        rng = np.random.default_rng(45)
        h, a = ad.constant(rng.normal(size=(8, 3))), ad.constant(rng.normal(size=6))
        before = joined_attention(h, a, sign, again).data
        index[:, [0, 1]] = index[:, [1, 0]]    # still a valid table
        SlotTable(index, table.starts)
        assert again.index.tobytes() == table.index.tobytes()
        assert joined_attention(h, a, sign, again).data.tobytes() == before.tobytes()
        for part in (again.index, again.segment, again.scatter, again.peer,
                     again.loops):
            assert not part.flags.writeable
