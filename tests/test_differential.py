"""Negative differential edges: tile blocks, Theorem 1, temporal side."""

from dataclasses import replace

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstgnn import autodiff as ad
from sstgnn import differential as diff
from sstgnn import graphs
from sstgnn.synth import SynthSpec, generate

from layouts import loop_negative_spatial_matrix, tile_slots


def small_graph(t=2, grid=4, seed=0, d=5):
    emb = np.random.default_rng(seed).random((t, grid * grid, d))
    return graphs.unified_graph(emb, grid, grid, 0.3, 0.3)


class TestNprReference:
    def test_definition_on_one_tile(self):
        out = diff.npr_reference([[5.0, 7.0], [6.0, 9.0]], 2)
        np.testing.assert_array_equal(out, [[0.0, 2.0], [1.0, 4.0]])

    def test_constant_image_zero(self):
        out = diff.npr_reference(np.full((6, 6), 3.7), 2)
        np.testing.assert_array_equal(out, np.zeros((6, 6)))

    def test_matches_elementwise_subtraction(self):
        rng = np.random.default_rng(1)
        img = rng.random((4, 4))
        out = diff.npr_reference(img, 2)
        for i in range(4):
            for j in range(4):
                assert out[i, j] == img[i, j] - img[2 * (i // 2), 2 * (j // 2)]

    def test_bad_tile(self):
        with pytest.raises(ValueError, match="tile"):
            diff.npr_reference(np.ones((4, 4)), 0)

    def test_center_crop(self):
        img = np.random.default_rng(2).random((5, 5))
        out = diff.npr_reference(img, 2)
        assert out.shape == (4, 4)


class TestSpatialNegative:
    def test_hand_built_tile_block(self):
        # 2x2 grid, one frame, tile 2: nodes a(anchor), b, c, d
        mat, anchors = loop_negative_spatial_matrix(1, 2, 2, 2)
        np.testing.assert_array_equal(mat, [
            [1, -1, -1, -1],
            [-1, 1, 0, 0],
            [-1, 0, 1, 0],
            [-1, 0, 0, 1],
        ])
        np.testing.assert_array_equal(anchors, [0])
        # the same block, as the attention reads it: one tile, anchor first
        np.testing.assert_array_equal(diff.tile_ids(2, 2, 2), [[0, 1, 2, 3]])
        np.testing.assert_array_equal(diff.tile_pattern(4), mat)
        np.testing.assert_array_equal(diff.tile_pattern(1), [[1.0]])

    def test_tile1_is_identity(self):
        # every node is a tile of its own, its block a +1 self edge, so
        # one propagation gives each pixel back
        np.testing.assert_array_equal(diff.tile_ids(4, 4, 1), np.arange(16)[:, None])
        np.testing.assert_array_equal(loop_negative_spatial_matrix(1, 4, 4, 1)[0],
                                      np.eye(16))
        img = np.random.default_rng(1).random((4, 4))
        assert diff.theorem1_check(img, 1) == (True, 0.0, img.max())

    @pytest.mark.parametrize("grid_h, grid_w, tile", [
        (2, 2, 2), (3, 5, 2), (4, 4, 2), (6, 6, 3), (1, 4, 2), (2, 2, 3), (3, 3, 1)])
    def test_slot_rows_start_on_themselves_and_are_distinct(self, grid_h, grid_w,
                                                            tile):
        # the reference attention's slots: built apart from the loop
        # reference's (N, N) block, and equal to it
        index, sign = tile_slots(grid_h, grid_w, tile)
        n = grid_h * grid_w
        k = tile * tile if (grid_h // tile) * (grid_w // tile) else 1
        assert sign.shape == (n, k) and index.shape == (n, k + 2)
        np.testing.assert_array_equal(index[:, 0], np.arange(n))
        assert all(len(set(row)) == len(row) for row in index.tolist())
        # the node columns come first, the twins' two layout columns last
        assert (index[:, :k] < n).all()
        np.testing.assert_array_equal(index[:, k:], [[n, n + 1]] * n)
        # the slots hold every nonzero of the block, each once
        mat, anchors = loop_negative_spatial_matrix(1, grid_h, grid_w, tile)
        assert np.count_nonzero(sign) == np.count_nonzero(mat)
        np.testing.assert_array_equal(mat[np.arange(n)[:, None], index[:, :k]], sign)
        # an anchor row is +1 then -1 over its tile mates
        for a in anchors:
            np.testing.assert_array_equal(sign[a], [1.0] + [-1.0] * (tile * tile - 1))
        # built per call: a write to one call's tables reaches no other
        expected = index.copy()
        index[:] = 0
        np.testing.assert_array_equal(tile_slots(grid_h, grid_w, tile)[0], expected)

    def test_partial_tiles_skipped(self):
        # only the top-left 2x2 tile is complete on a 3x3 grid
        np.testing.assert_array_equal(diff.tile_ids(3, 3, 2), [[0, 1, 3, 4]])
        # a tile larger than the grid: no tile, and no (tile², tile²)
        # id array built for it
        assert diff.tile_ids(3, 3, 10 ** 4).size == 0

    def test_row_sums(self):
        # a ones image propagates to the row sums: 1 - (tile² - 1) at
        # each anchor, 0 elsewhere, where the pixel NPR is 0 throughout
        assert diff.theorem1_check(np.ones((8, 8)), 2) == (True, 0.0, 2.0)
        assert diff.theorem1_check(np.ones((6, 9)), 3) == (True, 0.0, 7.0)


class TestEquivalence:
    def test_random_grid_exact(self):
        img = np.random.default_rng(5).random((8, 8))
        passed, non_anchor, anchor = diff.theorem1_check(img, 2)
        assert passed and non_anchor == 0.0
        assert anchor > 0.0  # aggregation conventions differ at anchors

    def test_constant_image_both_zero_off_anchor(self):
        passed, non_anchor, _ = diff.theorem1_check(np.full((8, 8), 0.25), 2)
        assert passed and non_anchor == 0.0

    def test_upsampled_frame_zero_both_ways(self):
        clip = generate(SynthSpec("upsample_artifact", seed=6, height=8,
                                  width=8)).clip
        frame = clip.pixels[0, :, :, 0].astype(np.float64)
        passed, non_anchor, _ = diff.theorem1_check(frame, 2)
        assert passed
        assert np.abs(diff.npr_reference(frame, 2)).max() == 0.0

    @given(st.integers(1, 5), st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(
        lambda tiles: tiles[0] != tiles[1]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rectangular_grids_any_tile(self, tile, tiles, seed):
        h, w = tiles[0] * tile, tiles[1] * tile
        img = np.random.default_rng(seed).normal(size=(h, w))
        passed, non_anchor, anchor = diff.theorem1_check(img, tile)
        assert passed and non_anchor == 0.0
        # the pixel NPR is 0 at an anchor, so the anchor deviation is the
        # largest |x_anchor - sum of its tile mates|
        rows = [img[i, j] - (img[i:i + tile, j:j + tile].sum() - img[i, j])
                for i in range(0, h, tile) for j in range(0, w, tile)]
        assert abs(anchor - max(map(abs, rows))) < 1e-12

    def test_peak_memory_is_the_grid_not_its_square(self):
        # the check reads the tile blocks: a 64 x 64 grid (32 KB) must not
        # build the (4096, 4096) tile matrix (128 MB)
        img = np.random.default_rng(15).random((64, 64))
        tracemalloc.start()
        try:
            passed, _, _ = diff.theorem1_check(img, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed and peak < 4 * 2 ** 20


class TestTemporalConcat:
    def make(self, t=2, n=4, d=3, seed=7):
        g = small_graph(t=t, grid=2, d=d, seed=seed)
        x = ad.parameter(np.random.default_rng(seed + 1).random((t * n, d)))
        return g, x

    def test_first_half_projection_recovers_input(self):
        g, x = self.make()
        w = np.vstack([np.eye(3), np.zeros((3, 3))])
        out = diff.temporal_concat(x, g, ad.constant(w), ad.constant(np.zeros(3)))
        np.testing.assert_allclose(out.data, x.data, rtol=1e-15)

    def test_static_clip_difference_projection_is_zero(self):
        g = small_graph(t=3, grid=2)
        frame = np.random.default_rng(8).random((4, 3))
        x = ad.constant(np.tile(frame, (3, 1)))
        w = np.vstack([np.eye(3), -np.eye(3)])
        out = diff.temporal_concat(x, g, ad.constant(w), ad.constant(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((12, 3)), atol=1e-15)

    def test_matches_concat_affine_oracle(self):
        g, x = self.make()
        rng = np.random.default_rng(9)
        w, b = rng.normal(size=(6, 3)), rng.normal(size=3)
        out = diff.temporal_concat(x, g, ad.constant(w), ad.constant(b))
        for t in range(2):
            nxt = min(t + 1, 1)
            for v in range(4):
                pair = np.concatenate([x.data[4 * t + v], x.data[4 * nxt + v]])
                np.testing.assert_allclose(out.data[4 * t + v], pair @ w + b,
                                           rtol=1e-12)

    def test_last_frame_self_concatenates(self):
        w = np.vstack([np.zeros((3, 3)), np.eye(3)])  # read the second half
        for t in (2, 1):
            g, x = self.make(t=t)
            out = diff.temporal_concat(x, g, ad.constant(w),
                                       ad.constant(np.zeros(3)))
            np.testing.assert_allclose(out.data[-4:], x.data[-4:], rtol=1e-15)

    def test_locality_under_future_frame_permutation(self):
        # node t sees only frames t and t+1
        g = small_graph(t=4, grid=2)
        base = np.random.default_rng(10).random((16, 3))
        swapped = base.copy()
        swapped[[12, 13, 14, 15]] = base[[13, 12, 15, 14]]  # shuffle frame 3
        rng = np.random.default_rng(11)
        w, b = ad.constant(rng.normal(size=(6, 3))), ad.constant(rng.normal(size=3))
        out_a = diff.temporal_concat(ad.constant(base), g, w, b)
        out_b = diff.temporal_concat(ad.constant(swapped), g, w, b)
        np.testing.assert_array_equal(out_a.data[:8], out_b.data[:8])

    def test_batched_clips_shift_within_each_clip(self):
        # three clips stacked on the frame axis: each clip's last frame
        # pairs with itself, never with the next clip's first frame
        g = small_graph(t=3, grid=2)
        emb = np.random.default_rng(14).random((9, 4, 5))
        batch = graphs.unified_graph(emb, 2, 2, 0.3, 0.3, clips=3)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3 * 12, 3))
        w, b = ad.constant(rng.normal(size=(6, 3))), ad.constant(rng.normal(size=3))
        out = diff.temporal_concat(ad.constant(x), batch, w, b)
        alone = [diff.temporal_concat(ad.constant(x[12 * k:12 * (k + 1)]), g, w, b)
                 for k in range(3)]
        np.testing.assert_array_equal(out.data, np.vstack([a.data for a in alone]))

    def test_gradients_flow(self):
        g, x = self.make()
        w = ad.parameter(np.random.default_rng(12).normal(size=(6, 3)))
        b = ad.parameter(np.zeros(3))

        def f():
            return ad.mean(diff.temporal_concat(x, g, w, b))

        assert ad.finite_diff_check(f, {"w": w, "b": b, "x": x}) < 1e-8


class TestAddTemporalNegative:
    def test_count_matches_pairs(self):
        g = small_graph(t=2, grid=2)
        g2 = diff.add_temporal_negative(g)
        assert (g2.temporal == -1).sum() == 2 * 4  # N*(T-1) plus mirrors
        np.testing.assert_array_equal(g2.spatial, g.spatial)

    def test_single_frame_unchanged(self):
        g = small_graph(t=1, grid=2)
        g2 = diff.add_temporal_negative(g)
        np.testing.assert_array_equal(g2.temporal, g.temporal)

    def test_overwrites_positive_edge(self):
        g = small_graph(t=2, grid=2, seed=13)
        pos = g.twins.copy()
        pos[0, 0, 0] = 1.8
        g = replace(g, twins=pos)
        assert g.temporal[0, 4] == 1.8 and g.temporal[4, 0] == 1.8
        g2 = diff.add_temporal_negative(g)
        assert g2.temporal[0, 4] == -1.0 and g2.temporal[4, 0] == -1.0

    def test_original_graph_untouched(self):
        g = small_graph(t=2, grid=2)
        before = g.temporal.copy()
        diff.add_temporal_negative(g)
        np.testing.assert_array_equal(g.temporal, before)


def loop_temporal_negative(graph):
    """Per-node loop reference for `add_temporal_negative`."""
    temporal = graph.temporal.copy()
    n = graph.patches_per_frame
    for t in range(graph.frames - 1):
        for v in range(n):
            u1, u2 = t * n + v, (t + 1) * n + v
            temporal[u1, u2] = temporal[u2, u1] = -1.0
    return temporal


class TestMatchesLoopReference:
    """T=3 frames on a 5x4 grid with tile 2: the last tile row is partial."""

    def test_spatial_matrix_bit_identical(self):
        for tile in (1, 2, 3, 5):
            # each tile's `tile_pattern` block, scattered at its
            # `tile_ids` in every frame, is the clip's (M, M) tile matrix
            ids = diff.tile_ids(5, 4, tile)
            ids = (np.arange(3)[:, None, None] * 20 + ids).reshape(-1, ids.shape[1])
            mat = np.zeros((60, 60))
            mat[ids[:, :, None], ids[:, None, :]] = diff.tile_pattern(ids.shape[1])
            ref_mat, ref_anchors = loop_negative_spatial_matrix(3, 5, 4, tile)
            assert mat.tobytes() == ref_mat.tobytes()
            assert ids.dtype == ref_anchors.dtype
            np.testing.assert_array_equal(ids[:, 0], ref_anchors)

    def test_temporal_negative_bit_identical(self):
        emb = np.random.default_rng(3).random((3, 20, 5))
        g = graphs.unified_graph(emb, 5, 4, 0.3, 0.3)
        assert (g.temporal > 0).any()  # some bridges to overwrite
        out = diff.add_temporal_negative(g).temporal
        assert out.tobytes() == loop_temporal_negative(g).tobytes()
