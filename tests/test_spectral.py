"""Spectral engine: Laplacian, eigenbasis, Lanczos basis, gains, filters, demo."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from layouts import one_clip
from make_oracle import CLIP_SEEDS, PARAM_SEED, SCALES

from sstgnn import autodiff as ad
from sstgnn import differential, graphs, model, spectral, synth
from sstgnn.spectral import FilterPreset


def random_video_graph(seed, t=2, grid=2, d=6, tau=0.3):
    emb = np.random.default_rng(seed).random((t, grid * grid, d))
    return graphs.unified_graph(emb, grid, grid, tau, tau)


def dense_filter(x, basis, gains):
    """Reference for `pool_spectral`: U diag(gains) U^T x as an autodiff
    composition of two constant block products, forming the filtered
    (M, d) signal."""
    n = basis.vectors.shape[-1]
    blocks = basis.vectors.reshape(-1, n, n)
    coeffs = ad.block_matmul(blocks.swapaxes(1, 2), x)
    scaled = ad.mul(ad.reshape(gains, (-1, 1)), coeffs)
    return ad.block_matmul(blocks, scaled)


def dense_pool(x, basis, gains, graph):
    """The node mean of `dense_filter` over the graph's one clip."""
    assert graph.clips == 1
    return ad.mean(dense_filter(x, basis, gains), axis=0, keepdims=True)


def mlp_values(rng, h):
    shapes = {"w1": (1, h), "b1": (h,), "w2": (h, h), "b2": (h,),
              "w3": (h, 1), "b3": (1,)}
    return {k: rng.normal(size=s) for k, s in shapes.items()}


class TestLaplacian:
    def test_two_node_single_edge(self):
        lap = spectral.laplacian_from_adjacency([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
        lam = np.linalg.eigvalsh(lap)
        np.testing.assert_allclose(lam, [0.0, 2.0], atol=1e-10)

    def test_three_node_path(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        lam = spectral.eigendecompose(
            spectral.laplacian_from_adjacency(a)).eigenvalues
        np.testing.assert_allclose(lam, [0.0, 1.0, 2.0], atol=1e-10)

    def test_isolated_node_gets_unit_diagonal(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        lap = spectral.laplacian_from_adjacency(a)
        assert lap[2, 2] == 1.0
        assert np.all(lap[2, :2] == 0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            spectral.laplacian_from_adjacency([[0.0, -0.5], [-0.5, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        stack = np.ones((2, 3, 3))
        stack[1, 0, 2] = stack[1, 2, 0] = bad
        for weights in (stack[1], stack):
            with pytest.raises(ValueError, match="must be finite and nonnegative"):
                spectral.laplacian_from_adjacency(weights)

    def test_graph_scope_selection(self):
        # the clip Laplacian spans the intra-frame edges and the positive
        # temporal bridges, never the negative differential entries
        g = differential.add_temporal_negative(random_video_graph(0))
        stack = spectral.graph_laplacian(g)
        assert stack.shape == (2, 4, 4)
        # a frame's degrees sum the same entries as the dense row sums
        # less the zeros of the other frames, grouped differently by
        # numpy's pairwise summation: equal to rounding, not bitwise
        np.testing.assert_allclose(
            block_diagonal_of(stack),
            spectral.laplacian_from_adjacency(g.spatial + np.maximum(g.temporal, 0)),
            rtol=0, atol=1e-15)
        # positive bridges couple the frames: the dense formula itself
        g = random_video_graph(0)
        assert (g.twins > 0).any()
        np.testing.assert_array_equal(
            spectral.graph_laplacian(g),
            spectral.laplacian_from_adjacency(g.spatial + np.maximum(g.temporal, 0)))

    def test_stack_is_per_block_formula(self):
        g = differential.add_temporal_negative(random_video_graph(1, t=3))
        stack = spectral.graph_laplacian(g)
        for k in range(3):
            np.testing.assert_array_equal(
                stack[k], spectral.laplacian_from_adjacency(g.blocks[k]))


class TestEigendecompose:
    def test_identity(self):
        basis = spectral.eigendecompose(np.eye(4))
        np.testing.assert_allclose(basis.eigenvalues, np.ones(4))
        np.testing.assert_allclose(basis.vectors, np.eye(4))

    def test_diagonal(self):
        basis = spectral.eigendecompose(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(basis.eigenvalues, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(basis.vectors, np.eye(3))

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(10, 10))
        lap = (a + a.T) / 2
        basis = spectral.eigendecompose(lap)
        rebuilt = basis.vectors @ np.diag(basis.eigenvalues) @ basis.vectors.T
        assert np.abs(rebuilt - lap).max() <= 1e-10
        assert np.abs(basis.vectors.T @ basis.vectors - np.eye(10)).max() <= 1e-8

    def test_sign_convention_deterministic(self):
        lap = spectral.laplacian_from_adjacency(
            np.ones((3, 3)) - np.eye(3))
        basis = spectral.eigendecompose(lap)
        for k in range(3):
            col = basis.vectors[:, k]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            spectral.eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def block_diagonal_of(stack):
    """The (M, M) matrix whose diagonal blocks are ``stack``."""
    frames, n, _ = stack.shape
    return graphs.dense_from_layout(
        graphs.to_layout(stack, np.zeros((1, frames - 1, n))))


def block_diagonal(sizes, seed=0):
    rng = np.random.default_rng(seed)
    m = sum(sizes)
    out = np.zeros((m, m))
    start = 0
    for n in sizes:
        a = rng.normal(size=(n, n))
        out[start:start + n, start:start + n] = (a + a.T) / 2
        start += n
    return out


@functools.lru_cache(maxsize=None)
def clip_graph(patch_size, family, seed, use_differential=True):
    """The nonnegative-part graph of a real 8x64x64 clip, as the model
    builds it."""
    config = model.TrainConfig(patch_size=patch_size, seed=7,
                               use_spectral=False,
                               use_differential=use_differential)
    clip = synth.generate(synth.SynthSpec(family, seed=seed)).clip
    pt = graphs.patchify(clip.pixels, config.patch_size)
    params = model.init_params(config)
    emb = model.encode_patches(pt.vectors, params, config)
    return model.build_structure(pt, emb.data, params.filter_mlp, config).graph


def clip_laplacian(patch_size, family, seed, use_differential=True):
    """Laplacian of a real 8x64x64 clip graph. With the differential on,
    every bridge slot holds -1, so it is the stack of frame Laplacians;
    with it off, positive bridges make it one (M, M) matrix."""
    return spectral.graph_laplacian(
        clip_graph(patch_size, family, seed, use_differential))


def bridged_graph(twins, t=3, grid=2):
    """A clip graph whose twin vector is ``twins`` (one frame pair per
    row); the frames' own edges come from random embeddings."""
    g = random_video_graph(5, t=t, grid=grid)
    return replace(g, twins=np.asarray(twins, dtype=float)[None])


class TestDiagonalBlocks:
    """The diagonal blocks `graph_laplacian` hands to the eigensolve:
    the frames while no positive bridge joins them, else one block."""

    def test_clip_laplacian_splits_per_frame(self):
        lap = clip_laplacian(16, "real", 0)
        assert lap.shape == (8, 16, 16)
        basis = spectral.eigendecompose(lap)
        assert basis.vectors.shape == (8, 16, 16)

    def test_full_matrix_is_one_block(self):
        g = bridged_graph(np.full((2, 4), 1.5))
        lap = spectral.graph_laplacian(g)
        assert lap.shape == (12, 12)
        np.testing.assert_array_equal(lap, spectral.laplacian_from_adjacency(
            g.spatial + np.maximum(g.temporal, 0)))

    @pytest.mark.parametrize("entry", [(0, 0), (1, 3)])
    def test_single_corner_coupling_is_one_block(self, entry):
        twins = -np.ones((2, 4))
        twins[entry] = 1e-3
        g = bridged_graph(twins)
        lap = spectral.graph_laplacian(g)
        assert lap.shape == (12, 12)
        u = entry[0] * 4 + entry[1]
        assert lap[u, u + 4] < 0 and lap[u + 4, u] < 0
        np.testing.assert_array_equal(lap, spectral.laplacian_from_adjacency(
            g.spatial + np.maximum(g.temporal, 0)))


class TestSymmetryCheck:
    def test_matches_allclose_element_for_element(self):
        rng = np.random.default_rng(11)
        m = 300  # three tiles a side, the last one partial
        base = rng.normal(size=(m, m))
        base = (base + base.T) / 2
        # perturbations straddling atol + rtol * |b|, in one orientation
        for delta in (0.0, 5e-11, 2e-10, 1e-6, 1e-5, 1e-4, np.nan, np.inf):
            for _ in range(3):
                mat = base.copy()
                i, j = rng.integers(0, m, size=2)
                mat[i, j] += delta
                expected = np.allclose(mat, mat.T, atol=1e-10)
                try:
                    spectral._check_symmetric(mat)
                    got = True
                except ValueError as err:
                    assert "symmetric" in str(err)
                    got = False
                assert got == expected, (delta, i, j)

    @pytest.mark.parametrize("i,j", [(5, 200), (200, 5)])
    def test_relative_tolerance_read_in_both_orientations(self, i, j):
        # |x - y| exceeds atol + rtol * |y| but not atol + rtol * |x|:
        # allclose(lap, lap.T) fails at [i, j] alone, wherever it lies
        mat = np.eye(300)
        mat[j, i] = 1.0
        mat[i, j] = 1.0 + 1e-5 + 1.5e-10
        assert not np.allclose(mat, mat.T, atol=1e-10)
        with pytest.raises(ValueError, match="symmetric"):
            spectral._check_symmetric(mat)

    def test_asymmetry_outside_the_blocks_rejected(self):
        lap = block_diagonal([16] * 8)
        lap[0, -1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            spectral.eigendecompose(lap)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            spectral.eigendecompose(np.zeros((2, 3)))


class TestBlockSolve:
    def test_stack_contract_per_block(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 12, 12))
        stack = (a + a.swapaxes(1, 2)) / 2
        stack[2] = np.eye(12)   # a repeated eigenvalue
        basis = spectral.eigendecompose(stack)
        lam, vec = basis.eigenvalues, basis.vectors
        assert lam.shape == (5, 12) and vec.shape == (5, 12, 12)
        assert basis.size == 60
        assert np.all(np.diff(lam, axis=1) >= 0)
        for k in range(5):
            assert np.abs(vec[k].T @ vec[k] - np.eye(12)).max() <= 1e-12
            assert np.abs(vec[k] @ np.diag(lam[k]) @ vec[k].T
                          - stack[k]).max() <= 1e-12
            for col in vec[k].T:
                assert col[np.abs(col) > 1e-12][0] > 0
            # one stacked eigh solves each block as a solve of its own would
            alone = spectral.eigendecompose(stack[k])
            np.testing.assert_array_equal(lam[k], alone.eigenvalues)
            np.testing.assert_array_equal(vec[k], alone.vectors)

    def test_asymmetric_block_rejected(self):
        stack = np.stack([np.eye(4)] * 3)
        stack[1, 0, 3] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            spectral.eigendecompose(stack)
        with pytest.raises(ValueError, match="square"):
            spectral.eigendecompose(np.zeros((2, 3, 4)))

    def test_unconverged_solve_is_runtime_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("no convergence")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(RuntimeError, match="did not converge"):
            spectral.eigendecompose(np.stack([np.eye(3)] * 2))

    def test_contract_on_unequal_blocks(self):
        lap = block_diagonal([20, 7, 20, 1, 30], seed=3)
        basis = spectral.eigendecompose(lap)
        lam, vec = basis.eigenvalues, basis.vectors
        assert np.all(np.diff(lam) >= 0)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(lap), atol=1e-12)
        assert np.abs(vec.T @ vec - np.eye(78)).max() <= 1e-12
        assert np.abs(vec @ np.diag(lam) @ vec.T - lap).max() <= 1e-12
        for k in range(78):
            col = vec[:, k]
            assert col[np.abs(col) > 1e-12][0] > 0

    @pytest.mark.parametrize("patch_size,family,seed", [
        (16, "real", 0), (16, "temporal_jitter", 1),
        (8, "upsample_artifact", 0), (8, "spectral_noise", 1)])
    def test_matches_whole_solve_on_clip_laplacians(self, patch_size, family,
                                                    seed):
        stack = clip_laplacian(patch_size, family, seed)
        m = stack.shape[0] * stack.shape[1]
        assert stack.shape == (8, m // 8, m // 8)
        blocks = spectral.eigendecompose(stack)
        whole = spectral.eigendecompose(block_diagonal_of(stack))
        order = np.argsort(blocks.eigenvalues.ravel(), kind="stable")
        assert np.abs(blocks.eigenvalues.ravel()[order]
                      - whole.eigenvalues).max() <= 1e-12

        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(1, 4))
        mlp_init = mlp_values(rng, 4)
        x_value = rng.normal(size=(m, 4))

        def run(basis):
            x = ad.parameter(x_value.copy())
            mlp = {k: ad.parameter(v.copy()) for k, v in mlp_init.items()}
            gains = ad.parameter(
                spectral.FilterMlp(**mlp).gains(basis.eigenvalues).data)
            out = spectral.pool_spectral(x, basis, gains, one_clip(m))
            grads = ad.mean(ad.mul(out, ad.constant(weights))).backward()
            through_mlp = spectral.pool_spectral(
                x_value, basis, spectral.FilterMlp(**mlp).gains(basis.eigenvalues),
                one_clip(m))
            mlp_grads = ad.mean(ad.mul(through_mlp, ad.constant(weights))).backward()
            return (out.data, grads[x], grads[gains],
                    {k: mlp_grads[t] for k, t in mlp.items()})

        out_b, gx_b, gg_b, gm_b = run(blocks)
        out_w, gx_w, gg_w, gm_w = run(whole)
        assert np.abs(out_b - out_w).max() <= 1e-12
        assert np.abs(gx_b - gx_w).max() <= 1e-12
        for k in mlp_init:
            assert np.abs(gm_b[k] - gm_w[k]).max() <= 1e-12, k
        # a single gain's gradient depends on the basis chosen inside a
        # repeated eigenvalue (each frame has its own zero mode), and the
        # whole-matrix solve mixes nearly equal eigenvalues of different
        # frames (an error of about 1e-16 over their gap); summed over
        # each cluster of eigenvalues closer than 1e-6 it does not
        cluster = np.concatenate(
            ([0], np.cumsum(np.diff(whole.eigenvalues) > 1e-6)))
        np.testing.assert_allclose(np.bincount(cluster, gg_b[order, 0]),
                                   np.bincount(cluster, gg_w[:, 0]),
                                   rtol=0, atol=1e-12)


class TestFilterGains:
    def test_all_pass(self):
        g = FilterPreset("all_pass").gains([0.0, 0.5, 2.0])
        np.testing.assert_array_equal(g, [1.0, 1.0, 1.0])

    def test_low_pass_closed_interval(self):
        g = FilterPreset("low_pass").gains([0.0, spectral.LOW_EDGE, 2.0])
        np.testing.assert_array_equal(g, [1.0, 1.0, 0.0])

    def test_bands_partition_unity(self):
        lam = np.linspace(0, 2, 41)
        total = sum(FilterPreset(k).gains(lam)
                    for k in ("low_pass", "band_pass", "high_pass"))
        np.testing.assert_array_equal(total, np.ones_like(lam))
        np.testing.assert_array_equal(FilterPreset("comb").gains(lam),
                                      np.ones_like(lam))

    def test_band_reject_complement(self):
        lam = np.linspace(0, 2, 17)
        np.testing.assert_array_equal(
            FilterPreset("band_reject").gains(lam),
            1.0 - FilterPreset("band_pass").gains(lam))

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            FilterPreset("notch")

    def test_zero_weight_mlp_constant_gain(self):
        h = 4
        mlp = spectral.FilterMlp(
            ad.constant(np.zeros((1, h))), ad.constant(np.full(h, 0.3)),
            ad.constant(np.zeros((h, h))), ad.constant(np.full(h, -0.2)),
            ad.constant(np.zeros((h, 1))), ad.constant(np.array([0.7])))
        gains = mlp.gains(np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(gains.data, np.full((3, 1), 0.7), rtol=1e-15)

    def test_mlp_matches_scalar_forward_oracle(self):
        rng = np.random.default_rng(2)
        h = 3
        ws = [rng.normal(size=s) for s in ((1, h), (h,), (h, h), (h,), (h, 1), (1,))]
        mlp = spectral.FilterMlp(*(ad.constant(w) for w in ws))
        lam = np.array([0.1, 0.9, 1.7])
        gains = mlp.gains(lam)

        def lrelu(v):
            return np.where(v > 0, v, 0.2 * v)

        for k, v in enumerate(lam):
            h1 = lrelu(v * ws[0][0] + ws[1])
            h2 = lrelu(h1 @ ws[2] + ws[3])
            expected = h2 @ ws[4][:, 0] + ws[5][0]
            assert gains.data[k, 0] == pytest.approx(expected, rel=1e-12)


class TestApplyFilter:
    def setup_method(self):
        g = random_video_graph(3)
        self.lap = spectral.graph_laplacian(g)
        self.basis = spectral.eigendecompose(self.lap)
        self.x = np.random.default_rng(4).normal(size=(8, 5))

    def test_identity_filter(self):
        out = spectral.apply_filter(self.x, self.basis, np.ones(8))
        np.testing.assert_allclose(out, self.x, atol=1e-10)

    def test_zero_filter(self):
        out = spectral.apply_filter(self.x, self.basis, np.zeros(8))
        np.testing.assert_allclose(out, np.zeros((8, 5)), atol=1e-15)

    def test_bottom_eigenvector_projector(self):
        gains = (self.basis.eigenvalues ==
                 self.basis.eigenvalues.min()).astype(float)
        assert gains.sum() == 1.0
        out = spectral.apply_filter(self.x, self.basis, gains)
        u0 = self.basis.vectors[:, [0]]
        np.testing.assert_allclose(out, u0 @ (u0.T @ self.x), atol=1e-12)

    def test_parseval(self):
        coeffs = self.basis.vectors.T @ self.x
        assert np.linalg.norm(coeffs) == pytest.approx(
            np.linalg.norm(self.x), rel=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=self.x.shape)
        gains = rng.random(8)
        lhs = spectral.apply_filter(2.0 * self.x + 3.0 * y, self.basis, gains)
        rhs = (2.0 * spectral.apply_filter(self.x, self.basis, gains)
               + 3.0 * spectral.apply_filter(y, self.basis, gains))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_low_pass_never_raises_dirichlet_energy(self):
        gains = FilterPreset("low_pass").gains(self.basis.eigenvalues)
        out = spectral.apply_filter(self.x, self.basis, gains)
        before = spectral.dirichlet_energy(self.x, self.lap)
        after = spectral.dirichlet_energy(out, self.lap)
        assert np.all(after <= before + 1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            spectral.apply_filter(np.ones((3, 2)), self.basis, np.ones(8))

    def test_stacked_basis_filters_each_frame(self):
        stack = clip_laplacian(16, "real", 0)
        basis = spectral.eigendecompose(stack)
        rng = np.random.default_rng(6)
        x, gains = rng.normal(size=(basis.size, 3)), rng.random(basis.size)
        out = spectral.apply_filter(x, basis, gains)
        n = stack.shape[1]
        for t in range(stack.shape[0]):
            u, rows = basis.vectors[t], slice(t * n, (t + 1) * n)
            np.testing.assert_allclose(
                out[rows], u @ (gains[rows, None] * (u.T @ x[rows])),
                rtol=0, atol=1e-12)


class TestPool:
    """`pool_spectral` against the mean of the filtered signal."""

    def setup_method(self):
        self.graph = random_video_graph(3)
        self.basis = spectral.eigendecompose(spectral.graph_laplacian(self.graph))
        self.x = np.random.default_rng(4).normal(size=(8, 5))

    def test_single_node(self):
        basis = spectral.SpectralBasis(np.zeros(1), np.ones((1, 1)))
        out = spectral.pool_spectral(np.array([[1.0, 2.0, 3.0]]), basis,
                                     np.array([[0.5]]), one_clip(1))
        np.testing.assert_array_equal(out.data, [[0.5, 1.0, 1.5]])

    def test_opposite_rows_cancel(self):
        basis = spectral.eigendecompose(
            spectral.laplacian_from_adjacency([[0.0, 1.0], [1.0, 0.0]]))
        r = np.array([1.0, -2.0, 0.5])
        out = spectral.pool_spectral(np.vstack([r, -r]), basis, np.ones((2, 1)),
                                     one_clip(2))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-15)

    def test_matches_column_mean(self):
        # all-pass: the pooled row is the plain node mean
        out = spectral.pool_spectral(self.x, self.basis, np.ones((8, 1)), self.graph)
        np.testing.assert_allclose(out.data[0], self.x.mean(axis=0),
                                   rtol=0, atol=1e-15)

    def test_zero_gains_give_zero(self):
        out = spectral.pool_spectral(self.x, self.basis, np.zeros((8, 1)), self.graph)
        np.testing.assert_array_equal(out.data, np.zeros((1, 5)))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_equals_mean_of_filtered_signal(self, stacked):
        basis, graph = self.basis, self.graph
        if stacked:
            graph = clip_graph(16, "real", 0)
            basis = spectral.eigendecompose(spectral.graph_laplacian(graph))
        rng = np.random.default_rng(5)
        x, gains = rng.normal(size=(basis.size, 5)), rng.random((basis.size, 1))
        out = spectral.pool_spectral(x, basis, gains, graph)
        np.testing.assert_allclose(
            out.data[0], spectral.apply_filter(x, basis, gains).mean(axis=0),
            rtol=0, atol=1e-15)

    def test_one_row_per_clip(self):
        # two clips: their frame bases stacked, one pooled row each
        pair = [clip_graph(16, family, 0) for family in ("real", "upsample_artifact")]
        a, b = (spectral.eigendecompose(spectral.graph_laplacian(g)) for g in pair)
        basis = spectral.SpectralBasis(np.vstack([a.eigenvalues, b.eigenvalues]),
                                       np.vstack([a.vectors, b.vectors]))
        both = graphs.VideoGraph(pair[0].grid_h, pair[0].grid_w,
                                 np.concatenate([g.blocks for g in pair]),
                                 np.concatenate([g.twins for g in pair]))
        rng = np.random.default_rng(6)
        x, gains = rng.normal(size=(basis.size, 5)), rng.random((basis.size, 1))
        out = spectral.pool_spectral(x, basis, gains, both)
        m = a.size
        alone = [spectral.pool_spectral(x[:m], a, gains[:m], pair[0]),
                 spectral.pool_spectral(x[m:], b, gains[m:], pair[1])]
        np.testing.assert_allclose(out.data, np.vstack([r.data for r in alone]),
                                   rtol=0, atol=1e-15)

    def test_clip_count_comes_from_the_graph(self):
        # 8 basis nodes pooled against 4 one-frame clips of 4 nodes, or 3
        # clips of 1 node
        for grid, clips in ((2, 4), (1, 3)):
            graph = graphs.VideoGraph(grid, grid, np.zeros((clips, grid**2, grid**2)),
                                      np.zeros((clips, 0, grid**2)))
            with pytest.raises(ValueError, match=f"8 basis nodes do not split into "
                                                 f"the graph's {clips} clips"):
                spectral.pool_spectral(self.x, self.basis, np.ones((8, 1)), graph)
        graph = graphs.VideoGraph(1, 1, np.zeros((8, 1, 1)), np.zeros((4, 1, 1)))
        assert spectral.pool_spectral(self.x, self.basis, np.ones((8, 1)),
                                      graph).shape == (4, self.x.shape[1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            spectral.pool_spectral(np.ones((3, 2)), self.basis, np.ones((8, 1)),
                                   self.graph)
        with pytest.raises(ValueError, match="column"):
            spectral.pool_spectral(self.x, self.basis, np.ones((7, 1)), self.graph)

    def test_gain_vector_rejected(self):
        # a (K,) vector would broadcast against the (K, 1) coefficients
        # into a (K, K) product without an error
        init = mlp_values(np.random.default_rng(8), 3)
        mlp = spectral.FilterMlp(**{k: ad.constant(v) for k, v in init.items()})
        flat = ad.reshape(mlp.gains(self.basis.eigenvalues), (-1,))
        for gains in (np.ones(8), flat):
            with pytest.raises(ValueError, match=r"gains \(8,\) must be a"):
                spectral.pool_spectral(self.x, self.basis, gains, self.graph)

    def test_gradient_through_gains(self):
        rng = np.random.default_rng(6)
        mlp_params = {k: ad.parameter(v) for k, v in mlp_values(rng, 3).items()}
        mlp = spectral.FilterMlp(**mlp_params)
        x = ad.parameter(self.x.copy())
        weights = ad.constant(rng.normal(size=(1, 5)))

        def f(pool):
            gains = mlp.gains(self.basis.eigenvalues)
            return ad.mean(ad.mul(pool(x, self.basis, gains, self.graph), weights))

        assert ad.finite_diff_check(lambda: f(spectral.pool_spectral),
                                    {**mlp_params, "x": x}) < 1e-4
        got = f(spectral.pool_spectral).backward()
        ref = f(dense_pool).backward()
        for t in [x, *mlp_params.values()]:
            np.testing.assert_allclose(got[t], ref[t], rtol=0, atol=1e-15)

    def test_eigenvector_gauge_invariance(self):
        # column sign flips are valid alternative eigensolver outputs and
        # must not leak into the pooled row or its gradients
        signs = np.where(np.random.default_rng(7).random(8) < 0.5, -1.0, 1.0)
        flipped = spectral.SpectralBasis(self.basis.eigenvalues,
                                         self.basis.vectors * signs)
        x = ad.parameter(self.x.copy())
        gains = np.linspace(0.0, 1.0, 8)[:, None]
        a = ad.mean(spectral.pool_spectral(x, self.basis, gains, self.graph))
        b = ad.mean(spectral.pool_spectral(x, flipped, gains, self.graph))
        ref = ad.mean(dense_pool(x, self.basis, gains, self.graph))
        np.testing.assert_allclose(b.data, a.data, rtol=1e-12)
        np.testing.assert_allclose(a.data, ref.data, rtol=1e-12)
        np.testing.assert_allclose(b.backward()[x], a.backward()[x],
                                   rtol=1e-12)
        np.testing.assert_allclose(a.backward()[x], ref.backward()[x],
                                   rtol=1e-12)


@functools.lru_cache(maxsize=None)
def clip_basis(patch_size, use_differential):
    """Eigenbasis of a real clip: a (T, N, N) stack of frame bases with
    the differential on, one whole (M, M) basis with it off."""
    return spectral.eigendecompose(
        clip_laplacian(patch_size, "upsample_artifact", 2, use_differential))


class TestPooledMatchesDenseFilter:
    """On real clip bases, `pool_spectral` equals the mean of the dense
    autodiff filter `dense_filter` within 1e-12, in value and in the
    gradients of the signal and of every gain-MLP parameter."""

    @pytest.mark.parametrize("use_differential", [True, False],
                             ids=["stacked", "whole"])
    @pytest.mark.parametrize("patch_size", [16, 8], ids=["m128", "m512"])
    def test_value_and_gradients(self, patch_size, use_differential):
        basis = clip_basis(patch_size, use_differential)
        m = (64 // patch_size) ** 2 * 8
        assert basis.size == m
        assert basis.vectors.ndim == (3 if use_differential else 2)
        rng = np.random.default_rng(patch_size)
        init = mlp_values(rng, 4)
        x_value = rng.normal(size=(m, 6))
        weights = ad.constant(rng.normal(size=(1, 6)))

        def run(pool):
            x = ad.parameter(x_value.copy())
            mlp = {k: ad.parameter(v.copy()) for k, v in init.items()}
            gains = spectral.FilterMlp(**mlp).gains(basis.eigenvalues)
            out = pool(x, basis, gains, one_clip(m))
            grads = ad.mean(ad.mul(out, weights)).backward()
            return out.data, grads[x], {k: grads[t] for k, t in mlp.items()}

        def close(got, ref):
            return np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

        out, gx, gm = run(spectral.pool_spectral)
        ref_out, ref_gx, ref_gm = run(dense_pool)
        assert close(out, ref_out)
        assert close(gx, ref_gx)
        for k in init:
            assert close(gm[k], ref_gm[k]), k

    @pytest.mark.parametrize("use_differential", [True, False],
                             ids=["stacked", "whole"])
    def test_finite_differences(self, use_differential):
        basis = clip_basis(16, use_differential)
        rng = np.random.default_rng(9)
        params = {k: ad.parameter(v) for k, v in mlp_values(rng, 3).items()}
        params["x"] = ad.parameter(rng.normal(size=(basis.size, 2)))
        weights = ad.constant(rng.normal(size=(1, 2)))
        mlp = spectral.FilterMlp(*(params[k] for k in
                                   ("w1", "b1", "w2", "b2", "w3", "b3")))

        def f():
            gains = mlp.gains(basis.eigenvalues)
            out = spectral.pool_spectral(params["x"], basis, gains,
                                         one_clip(basis.size))
            return ad.mean(ad.mul(out, weights))

        assert ad.finite_diff_check(f, params) < 1e-4


# ---------------------------------------------------------------------------
# Lanczos from the all-ones vector: the model path's basis


def numpy_gains(mlp):
    """The plain gain values the stop rule reads, as the model passes them."""
    return lambda lam: mlp.gains(lam).data


def block_graph(rng, coupled, clips, frames, grid, isolated=0.2):
    """``clips`` clips of ``frames`` grid x grid frames: random nonnegative
    symmetric frame blocks, and twins that are positive bridges (some 0)
    when ``coupled``, else -1 or 0 like the differential's. A share
    ``isolated`` of node positions has no edge at all."""
    n, t = grid * grid, clips * frames
    blocks = rng.random((t, n, n)) * (rng.random((t, n, n)) < 0.5)
    blocks = (blocks + blocks.swapaxes(1, 2)) / 2
    cut = rng.random(n) < isolated
    blocks[:, cut] = 0.0
    blocks[:, :, cut] = 0.0
    keep = rng.random((t - 1, n)) < 0.7
    twins = rng.random((t - 1, n)) * keep if coupled else -1.0 * keep
    twins[:, cut] = 0.0
    # drop the rows that would join two clips
    twins = np.delete(twins, np.arange(frames - 1, t - 1, frames), axis=0)
    return graphs.VideoGraph(grid, grid, blocks, twins.reshape(clips, frames - 1, n))


def eigh_basis(graph):
    return spectral.eigendecompose(spectral.graph_laplacian(graph))


def pool_per_clip(x, basis, gains, graph):
    """The `dense_filter` reference pooled per clip: each clip's node
    mean of U diag(gains) U^T x."""
    clips = graph.clips
    m = basis.nodes // clips
    select = np.repeat(np.eye(clips), m, axis=1) / m
    return ad.matmul(ad.constant(select), dense_filter(x, basis, gains))


def pooled_with_grads(pool, basis, mlp, encoder, patches, weights, graph):
    """Pooled rows of an encoded signal x = patches @ encoder and the
    gradients of a fixed projection of them."""
    x = ad.matmul(ad.constant(patches), encoder)
    out = pool(x, basis, spectral.FilterMlp(**mlp).gains(basis.eigenvalues),
               graph)
    grads = ad.mean(ad.mul(out, ad.constant(weights))).backward()
    return [out.data, grads[encoder], *(grads[t] for t in mlp.values())]


def assert_matches_eigh(graph, mlp_init, seed=0, d=3):
    """Lanczos pooled rows and encoder and filter-MLP gradients equal the
    eigh reference within 1e-12 x max(1, |ref|), entry by entry."""
    rng = np.random.default_rng(seed)
    patches = rng.normal(size=(graph.node_count, 4))
    encoder_init = rng.normal(size=(4, d))
    weights = rng.normal(size=(graph.clips, d))

    def run(basis_of, pool):
        mlp = {k: ad.parameter(np.array(v, dtype=float))
               for k, v in mlp_init.items()}
        encoder = ad.parameter(encoder_init.copy())
        basis = basis_of(mlp)
        return pooled_with_grads(pool, basis, mlp, encoder, patches, weights,
                                 graph)

    got = run(lambda mlp: spectral.lanczos_basis(
        graph, numpy_gains(spectral.FilterMlp(**mlp))),
        spectral.pool_spectral)
    ref = run(lambda _: eigh_basis(graph), pool_per_clip)
    for name, a, b in zip(["pooled", "encoder", *mlp_init], got, ref):
        err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
        assert err.max() <= 1e-12, (name, err.max())


class TestLanczosMatchesEigh:
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(1, 4),
           st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_random_blocks(self, seed, coupled, blocks, grid):
        # B <= 4 blocks of n <= 64 nodes: frames when uncoupled, else
        # clips of F >= 2 frames with F * grid^2 <= 64
        rng = np.random.default_rng(seed)
        if coupled:
            grid = min(grid, 5)
            frames = int(rng.integers(2, 64 // grid ** 2 + 1))
            clips = blocks
        else:
            clips = int(rng.choice([c for c in (1, 2, 4) if blocks % c == 0]))
            frames = blocks // clips
        graph = block_graph(rng, coupled, clips, frames, grid)
        assert_matches_eigh(graph, mlp_values(rng, int(rng.integers(1, 9))),
                            seed)

    @pytest.mark.parametrize("patch_size,family,use_differential", [
        *((8, family, diff) for family in synth.FAMILIES
          for diff in (True, False)),
        (4, "spectral_noise", True)])
    def test_trained_gains(self, trained_detector, patch_size, family,
                           use_differential):
        # the A5 detector's gains, which training may have roughened, on
        # M=512 clip graphs and on the M=2048 frames that need the most
        # steps
        _, params, _, _ = trained_detector
        mlp = {k.split(".")[1]: params[k].data for k in params.named()
               if k.startswith("filter.")}
        graph = clip_graph(patch_size, family, 1, use_differential)
        assert_matches_eigh(graph, mlp)


class TestLanczosInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_non_finite_weight_rejected(self, bad, coupled):
        g = random_video_graph(2, t=3)
        if not coupled:
            g = differential.add_temporal_negative(g)
        assert (g.twins > 0).any() == coupled
        blocks = g.blocks.copy()
        blocks[1, 0, 1] = blocks[1, 1, 0] = bad
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            spectral.lanczos_basis(replace(g, blocks=blocks), np.ones_like)

    def test_infinite_bridge_rejected(self):
        g = random_video_graph(2, t=3)
        twins = g.twins.copy()
        twins[0, 1, 2] = np.inf
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            spectral.lanczos_basis(replace(g, twins=twins), np.ones_like)


class TestLanczosBreakdown:
    """Blocks whose all-ones vector is an eigenvector of L stop after one
    step with the exact pooled rows; padded columns weigh nothing."""

    @staticmethod
    def frames_graph(blocks):
        t, n, _ = blocks.shape
        grid = int(np.sqrt(n))
        return graphs.VideoGraph(grid, grid, blocks, -np.ones((1, t - 1, n)))

    @staticmethod
    def regular_frame(n):
        """A ring with self loops: every degree 2, so L 1 = 0."""
        frame = np.eye(n)
        ring = np.arange(n)
        frame[ring, (ring + 1) % n] = frame[(ring + 1) % n, ring] = 0.5
        return frame

    def one_step(self, graph, value):
        rng = np.random.default_rng(1)
        mlp = spectral.FilterMlp(**{k: ad.constant(v) for k, v in
                                    mlp_values(rng, 4).items()})
        basis = spectral.lanczos_basis(graph, numpy_gains(mlp))
        x = rng.normal(size=(graph.node_count, 3))
        got = spectral.pool_spectral(x, basis, mlp.gains(basis.eigenvalues),
                                     graph).data
        # L 1 = value * 1 on every block: w = g(value) 1 / M
        exact = mlp.gains(np.array([value])).data[0, 0] * x.mean(axis=0)
        np.testing.assert_allclose(got[0], exact, rtol=1e-15, atol=1e-15)
        return basis

    def test_isolated_nodes(self):
        # no edge at all: L = I on every frame
        basis = self.one_step(self.frames_graph(np.zeros((3, 4, 4))), 1.0)
        np.testing.assert_array_equal(basis.steps, [1, 1, 1])
        assert basis.breakdowns.all()
        np.testing.assert_allclose(basis.eigenvalues, np.ones((3, 1)), rtol=1e-15)

    def test_regular_frames(self):
        basis = self.one_step(self.frames_graph(
            np.stack([self.regular_frame(9)] * 2)), 0.0)
        np.testing.assert_array_equal(basis.steps, [1, 1])
        assert basis.breakdowns.all()
        assert np.abs(basis.eigenvalues).max() <= 1e-15

    def test_repeated_jitter_frames(self):
        # temporal_jitter seed 0 repeats a frame its brightness jump
        # clipped to black: zero patches, so every node of both is isolated
        clip = synth.generate(synth.SynthSpec("temporal_jitter", seed=0)).clip
        repeated = [t for t in range(1, 8)
                    if np.array_equal(clip.pixels[t], clip.pixels[t - 1])]
        assert repeated == [2]
        basis = spectral.lanczos_basis(clip_graph(8, "temporal_jitter", 0),
                                       lambda lam: np.ones(np.shape(lam)))
        for t in (1, 2):
            assert basis.steps[t] == 1 and basis.breakdowns[t]
            assert basis.eigenvalues[t, 0] == pytest.approx(1.0, abs=1e-15)
        assert (basis.steps[[0, *range(3, 8)]] > 1).all()

    def test_padded_columns_weigh_nothing(self):
        # blocks that stop at k = 1 sit beside blocks run to k = n, so
        # their columns 1.. are padding: moving the padded values (and
        # with them the padded gains) leaves the pooled row and every
        # gradient bit for bit the same
        rng = np.random.default_rng(2)
        random = rng.random((2, 9, 9))
        blocks = np.stack([np.zeros((9, 9)), self.regular_frame(9),
                           *(random + random.swapaxes(1, 2))])
        graph = self.frames_graph(blocks)
        mlp_init = mlp_values(rng, 4)
        mlp = spectral.FilterMlp(**{k: ad.constant(v) for k, v in mlp_init.items()})
        basis = spectral.lanczos_basis(graph, numpy_gains(mlp))
        np.testing.assert_array_equal(basis.steps, [1, 1, 9, 9])
        np.testing.assert_array_equal(basis.breakdowns, [True, True, False, False])
        assert basis.vectors.shape == (4, 9, 9)
        pad = np.arange(9) >= basis.steps[:, None]
        assert not basis.vectors.swapaxes(1, 2)[pad].any()
        assert not basis.eigenvalues[pad].any()
        moved = spectral.SpectralBasis(np.where(pad, rng.random(pad.shape), 0.0)
                                       + np.where(pad, 0.0, basis.eigenvalues),
                                       basis.vectors)
        x_value, weights = rng.normal(size=(36, 3)), rng.normal(size=(1, 3))
        results = []
        for b in (basis, moved):
            params = {k: ad.parameter(v.copy()) for k, v in mlp_init.items()}
            x = ad.parameter(x_value.copy())
            out = spectral.pool_spectral(
                x, b, spectral.FilterMlp(**params).gains(b.eigenvalues), graph)
            grads = ad.mean(ad.mul(out, ad.constant(weights))).backward()
            results.append([out.data, grads[x], *(grads[params[k]] for k in mlp_init)])
        for a, b in zip(*results):
            assert a.tobytes() == b.tobytes()


class TestLanczosTrace:
    # k per block, '*' where the block broke down, for the oracle's clips
    # (seeds 0 and 1) at init parameters
    PINNED = {
        "desk/diff/real": ("4 4 4 4 4 4 4 4", "4 4 4 4 3* 4 4 4"),
        "desk/diff/upsample_artifact": ("4 4 4 4 4 4 4 4", "4 4 4 4 4 4 4 4"),
        "desk/diff/temporal_jitter": ("4 1* 1* 4 4 4 4 4", "4 4 1* 1* 3* 4 4 4"),
        "desk/diff/spectral_noise": ("4 4 4 4 4 4 4 4", "4 4 4 4 4 4 4 4"),
        "desk/nodiff/real": ("32", "32"),
        "desk/nodiff/upsample_artifact": ("32", "32"),
        "desk/nodiff/temporal_jitter": ("25*", "29*"),
        "desk/nodiff/spectral_noise": ("32", "32"),
        "m512/diff/real": ("24 24 24 24 24 24 24 24", "24 24 24 24 24 24 24 24"),
        "m512/diff/upsample_artifact": ("16 16 16 16 16 16 16 16",
                                        "16 16 16 16 16 16 16 16"),
        "m512/diff/temporal_jitter": ("24 1* 1* 24 24 24 24 24",
                                      "24 24 1* 1* 24 24 24 24"),
        "m512/diff/spectral_noise": ("16 16 16 16 16 16 16 16",
                                     "16 16 16 16 16 16 16 16"),
        "m512/nodiff/real": ("48", "48"),
        "m512/nodiff/upsample_artifact": ("40", "32"),
        "m512/nodiff/temporal_jitter": ("48", "48"),
        "m512/nodiff/spectral_noise": ("32", "32"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_steps_and_breakdowns_pinned(self, case):
        scale, differential, family = case.split("/")
        (preset, overrides), geometry = SCALES[scale]
        config = model.preset_config(
            preset, use_differential=differential == "diff", **overrides)
        params = model.init_params(config, seed=PARAM_SEED, random_head=True)
        for seed, pinned in zip(CLIP_SEEDS, self.PINNED[case]):
            clip = synth.generate(synth.SynthSpec(family, seed=seed, **geometry))
            _, structure = model.forward([clip.clip], params, config)
            basis = structure.basis
            assert isinstance(basis.steps, np.ndarray)
            assert isinstance(basis.breakdowns, np.ndarray)
            got = " ".join(f"{k}{'*' if broke else ''}"
                           for k, broke in zip(basis.steps, basis.breakdowns))
            assert got == pinned, seed
            assert basis.vectors.shape[-1] == basis.steps.max()


class TestImageDemo:
    def setup_method(self):
        rng = np.random.default_rng(8)
        base = rng.random((12, 12))
        self.image = 0.25 + 0.5 * base  # keep away from the clip bounds

    def test_all_pass_reconstructs(self):
        out, _, _ = spectral.filter_image_demo(self.image, FilterPreset("all_pass"))
        np.testing.assert_allclose(out, self.image, atol=1e-6)

    def test_low_pass_smooths(self):
        out, lam, gains = spectral.filter_image_demo(
            self.image, FilterPreset("low_pass"))
        pt = graphs.patchify(self.image[None, :, :, None], 1)
        adj = graphs.intra_frame_adjacency(
            graphs.row_normalize(pt.vectors[0]), 0.6)
        lap = spectral.laplacian_from_adjacency(adj)
        before = spectral.dirichlet_energy(self.image.reshape(-1, 1), lap)
        after = spectral.dirichlet_energy(out.reshape(-1, 1), lap)
        assert np.all(after <= before + 1e-9)

    def test_comb_equals_all_pass(self):
        a, _, _ = spectral.filter_image_demo(self.image, FilterPreset("comb"))
        b, _, _ = spectral.filter_image_demo(self.image, FilterPreset("all_pass"))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            spectral.filter_image_demo(np.zeros((80, 80)), FilterPreset("all_pass"))
