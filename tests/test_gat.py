"""Attention layer semantics over signed adjacency."""

from dataclasses import replace

import numpy as np
import pytest

from sstgnn import autodiff as ad
from sstgnn import differential as diff
from sstgnn import gat, graphs, model, synth


def lrelu(v, slope=0.2):
    return np.where(v > 0, v, slope * v)


def make_params(d, seed=0, zero_attention=False):
    rng = np.random.default_rng(seed)
    a = np.zeros(2 * d) if zero_attention else rng.normal(size=2 * d)
    return gat.GatParams(ad.parameter(rng.normal(size=(d, d))),
                         ad.parameter(a))


def adjacency(support, sign=None):
    """One frame with no twins: an (n, n) sign, +1 on the support when
    not given."""
    sign = np.asarray(support if sign is None else sign, dtype=float)
    return gat.SignedAdjacency(graphs.to_layout(sign, np.zeros((1, 0, len(sign)))))


def dense_pair(adj):
    """The (M, M) support and sign an adjacency's layout stands for."""
    return graphs.dense_from_layout(adj.support), graphs.dense_from_layout(adj.sign)


def attention_weights(h, attention, adj):
    """The (M, M) signed attention weights `autodiff.frame_attention`
    applies, read through probe columns of h that the scores ignore:
    one-hot column j of the output is row i's weight on node j."""
    m, d = h.shape
    probe = np.hstack([h, np.eye(m)])
    a = np.concatenate([attention[:d], np.zeros(m), attention[d:], np.zeros(m)])
    out = ad.frame_attention(ad.constant(probe), ad.constant(a), [adj.sign]).data
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
        out = gat.gat_forward(ad.constant(x), [adjacency([[True]])], params)
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
        out = gat.gat_forward(ad.constant(x), [adjacency(support)], params)
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
        out = gat.gat_forward(ad.constant(x), [adjacency(support, sign)], params)
        expected = brute_force(x, support, sign, params.weight.data,
                               params.attention.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)

    def test_zero_attention_reduces_to_mean_aggregation(self):
        params = make_params(4, seed=9, zero_attention=True)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 4))
        support = rng.random((4, 4)) < 0.6
        support[np.arange(4), np.arange(4)] = True
        out = gat.gat_forward(ad.constant(x), [adjacency(support)], params)
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
        base = gat.gat_forward(ad.constant(x), [adjacency(support, sign)], params)
        permuted = gat.gat_forward(
            ad.constant(x[perm]),
            [adjacency(support[np.ix_(perm, perm)], sign[np.ix_(perm, perm)])],
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
            return ad.mean(gat.gat_forward(x, [adjacency(support)], params))

        grads = f().backward()
        assert min(np.abs(g).min() for g in grads.values()) > 1e-6
        err = ad.finite_diff_check(
            f, {"w": params.weight, "a": params.attention})
        assert err < 1e-4

    def test_dim_mismatch(self):
        params = make_params(3)
        with pytest.raises(ValueError, match="dim"):
            gat.gat_forward(ad.constant(np.ones((2, 4))),
                            [adjacency(np.ones((2, 2), dtype=bool))], params)


def clip_graph(t=2, grid=2, d=4, seed=0, tau=0.3):
    emb = np.random.default_rng(seed).random((t, grid * grid, d))
    return graphs.unified_graph(emb, grid, grid, tau, tau)


class TestPasses:
    def test_consistency_single_frame_equals_plain_gat(self):
        g = clip_graph(t=1)
        params = make_params(4, seed=17)
        x = ad.constant(np.random.default_rng(18).normal(size=(4, 4)))
        out = gat.gat_forward(x, [gat.consistency_adjacency(g)], params)
        direct = gat.gat_forward(x, [adjacency(g.spatial > 0)], params)
        np.testing.assert_array_equal(out.data, direct.data)

    def test_disconnected_node_keeps_self_message(self):
        g = replace(clip_graph(t=1), blocks=np.zeros((1, 4, 4)))
        params = make_params(4, seed=19)
        x = np.random.default_rng(20).normal(size=(4, 4))
        out = gat.gat_forward(ad.constant(x), [gat.consistency_adjacency(g)],
                              params)
        np.testing.assert_allclose(out.data, lrelu(x @ params.weight.data),
                                   rtol=1e-12)

    def test_inconsistency_degenerate_graph_is_pointwise(self):
        # tile 1 and one frame: the differential adjacency is the identity
        g = clip_graph(t=1)
        neg = diff.build_spatial_negative(g, 1)
        params = make_params(4, seed=21)
        x = np.random.default_rng(22).normal(size=(4, 4))
        out = gat.gat_forward(ad.constant(x),
                              [gat.inconsistency_adjacency(g, neg)], params)
        np.testing.assert_allclose(out.data, lrelu(x @ params.weight.data),
                                   rtol=1e-12)

    def test_constant_tile_non_anchor_messages_cancel(self):
        g = clip_graph(t=1, grid=2)
        neg = diff.build_spatial_negative(g, 2)
        params = make_params(4, seed=23)
        row = np.random.default_rng(24).normal(size=4)
        x = ad.constant(np.tile(row, (4, 1)))
        out = gat.gat_forward(x, [gat.inconsistency_adjacency(g, neg)], params)
        # non-anchor nodes see {self +1, anchor -1} with equal attention
        np.testing.assert_allclose(out.data[1:], np.zeros((3, 4)), atol=1e-12)
        h = row @ params.weight.data
        np.testing.assert_allclose(out.data[0], lrelu(-0.5 * h), rtol=1e-10)

    def test_inconsistency_matches_signed_oracle(self):
        g = clip_graph(t=2, grid=2, seed=25)
        g = diff.add_temporal_negative(g)
        neg = diff.build_spatial_negative(g, 2)
        params = make_params(4, seed=26)
        x = np.random.default_rng(27).normal(size=(8, 4))
        adj = gat.inconsistency_adjacency(g, neg)
        out = gat.gat_forward(ad.constant(x), [adj], params)
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
                               ad.constant(w), ad.constant(np.zeros(3)))
        np.testing.assert_allclose(out.data[0], hc.mean(axis=0), rtol=1e-12)

    def test_equal_passes_cancel_under_difference(self):
        h = np.random.default_rng(29).normal(size=(5, 3))
        w = np.vstack([np.eye(3), -np.eye(3)])
        out = gat.spatial_fuse(ad.constant(np.hstack([h, h])),
                               ad.constant(w), ad.constant(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-14)

    def test_matches_concat_affine_mean_oracle(self):
        rng = np.random.default_rng(30)
        hc, hic = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        w, b = rng.normal(size=(6, 3)), rng.normal(size=3)
        out = gat.spatial_fuse(ad.constant(np.hstack([hc, hic])),
                               ad.constant(w), ad.constant(b))
        expected = (np.hstack([hc, hic]) @ w + b).mean(axis=0)
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)

    def test_one_row_per_clip(self):
        rng = np.random.default_rng(31)
        h = rng.normal(size=(12, 6))
        w, b = ad.constant(rng.normal(size=(6, 3))), ad.constant(rng.normal(size=3))
        out = gat.spatial_fuse(ad.constant(h), w, b, clips=3)
        alone = [gat.spatial_fuse(ad.constant(h[4 * k:4 * k + 4]), w, b)
                 for k in range(3)]
        np.testing.assert_array_equal(out.data, np.vstack([a.data for a in alone]))


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


def old_dense_adjacency(graph, neg):
    """(M, M) consistency and inconsistency support/sign, built the way
    they were before the frame layout."""
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
    if neg is not None:
        combined = combined + graphs.dense_from_layout(graphs.to_layout(
            neg.block, np.zeros(graph.twins.shape)))
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
    """T=3 layout with positive bridges, then some twins and some
    in-frame edges flipped to -1: every kind of cell carries a sign."""
    g = graphs.unified_graph(
        np.random.default_rng(seed).random((3, 4, 4)), 2, 2, 0.3, 0.1)
    adj = gat.consistency_adjacency(g)
    n = adj.support.shape[1]
    assert adj.support[1:, :, n].any() and adj.support[:-1, :, n + 1].any()
    sign = adj.sign.copy()
    flip = np.random.default_rng(seed + 1).random(sign.shape) < 0.4
    sign[flip] *= -1.0
    twins = sign[:, :, n:][adj.support[:, :, n:]]
    assert (twins > 0).any() and (twins < 0).any()
    return gat.SignedAdjacency(sign)


class TestFrameLayoutAttention:
    def test_gradients_match_finite_differences(self):
        adj = bridged_layout()
        params = make_params(4, seed=33)
        x = ad.parameter(np.random.default_rng(34).normal(size=(12, 4)) * 2.0)

        def f():
            return ad.mean(gat.gat_forward(x, [adj], params))

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
        out = gat.gat_forward(ad.constant(x), [adj], params)
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
        for adj in (structure.consistency, structure.inconsistency):
            runs = []
            for run in (lambda: gat.gat_forward(x, [adj], params.gat),
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
        adj = bridged_layout()
        params = make_params(4, seed=37)
        out = gat.gat_forward(ad.parameter(np.ones((12, 4))), [adj, adj],
                              params)
        assert out.shape == (12, 8)
        nodes = ad._toposort(ad.mean(out))
        # mean, leaky_relu, frame_attention, matmul and the three leaves:
        # both passes share one of each
        assert len(nodes) == 7


class TestSignedAdjacencyLayout:
    @pytest.mark.parametrize("use_differential", [True, False])
    def test_dense_gives_back_the_old_matrices(self, use_differential):
        structure, _, _ = clip_structure(16, use_differential, family="temporal_jitter")
        old = old_dense_adjacency(structure.graph, structure.negative)
        for adj, (support, sign) in zip(
                (structure.consistency, structure.inconsistency), old):
            dense_support, dense_sign = dense_pair(adj)
            assert dense_support.dtype == support.dtype
            assert dense_support.tobytes() == support.tobytes()
            assert dense_sign.tobytes() == sign.tobytes()

    def test_two_dimensional_pair_is_one_frame(self):
        support = np.array([[1, 1], [0, 1]], dtype=bool)
        adj = adjacency(support)
        assert adj.support.shape == (1, 2, 4)
        dense_support, dense_sign = dense_pair(adj)
        np.testing.assert_array_equal(dense_support, support)
        np.testing.assert_array_equal(dense_sign, support.astype(float))

    def test_construction_adds_missing_self_loops(self):
        support = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=bool)
        sign = graphs.to_layout(np.where(support, -1.0, 0.0), np.zeros((1, 0, 3)))
        adj = gat.SignedAdjacency(sign)
        np.testing.assert_array_equal(adj.support, adj.sign != 0)
        dense_support, dense_sign = dense_pair(adj)
        np.testing.assert_array_equal(dense_support, support | np.eye(3, dtype=bool))
        # the absent loops of nodes 0 and 2 come back +1; node 1's -1 stays
        np.testing.assert_array_equal(dense_sign.diagonal(), [1.0, -1.0, 1.0])
        assert dense_sign[0, 1] == dense_sign[1, 0] == -1.0
        # the caller's array is left as it was
        assert sign[0, 0, 0] == 0.0 and sign[0, 1, 1] == -1.0

    def test_twin_beyond_the_clip_rejected(self):
        sign = np.zeros((2, 2, 4))
        sign[0, 0, 2] = 1.0   # frame 0 has no previous frame
        with pytest.raises(ValueError, match="twin"):
            gat.SignedAdjacency(sign)
        sign[0, 0, 2], sign[1, 1, 3] = 0.0, -1.0   # nor frame 1 a next one
        with pytest.raises(ValueError, match="twin"):
            gat.SignedAdjacency(sign)

    def test_layout_shape_checked(self):
        with pytest.raises(ValueError, match="frame layout"):
            gat.SignedAdjacency(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="frame layout"):
            gat.SignedAdjacency(np.ones((4, 4)))

    # a graph holds only frame blocks and twins, so such entries cannot
    # reach the adjacency builders: a graph given (M, M) arrays in place
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
