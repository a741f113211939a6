"""Negative differential edges: tile blocks, aggregation, temporal side."""

from dataclasses import replace

import numpy as np
import pytest

from sstgnn import autodiff as ad
from sstgnn import differential as diff
from sstgnn import graphs
from sstgnn.synth import SynthSpec, generate


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
        mat, anchors = diff.negative_spatial_matrix(2, 2, 2)
        np.testing.assert_array_equal(mat, [
            [1, -1, -1, -1],
            [-1, 1, 0, 0],
            [-1, 0, 1, 0],
            [-1, 0, 0, 1],
        ])
        np.testing.assert_array_equal(anchors, [0])

    def test_tile1_is_identity(self):
        g = small_graph()
        neg = diff.build_spatial_negative(g, 1)
        np.testing.assert_array_equal(neg.block, np.eye(g.patches_per_frame))
        x = np.random.default_rng(1).random((g.node_count, 3))
        np.testing.assert_array_equal(diff.sgc_aggregate(x, neg), x)

    def test_no_cross_frame_coupling(self):
        g = small_graph(t=2, grid=4)
        neg = diff.build_spatial_negative(g, 2)
        n = g.patches_per_frame
        x = np.zeros((g.node_count, 2))
        x[:n] = np.random.default_rng(2).random((n, 2))
        out = diff.sgc_aggregate(x, neg)
        # frame 0's features reach no node of frame 1, and back
        assert np.all(out[n:] == 0.0)
        np.testing.assert_array_equal(out[:n], diff.sgc_aggregate(
            x[:n], diff.NegativeSpatialAdjacency(2, neg.block, neg.anchors)))

    @pytest.mark.parametrize("grid_h, grid_w, tile", [
        (2, 2, 2), (3, 5, 2), (4, 4, 2), (6, 6, 3), (1, 4, 2), (2, 2, 3), (3, 3, 1)])
    def test_slot_rows_start_on_themselves_and_are_distinct(self, grid_h, grid_w,
                                                            tile):
        index, sign = diff.tile_slots(grid_h, grid_w, tile)
        n = grid_h * grid_w
        k = tile * tile if (grid_h // tile) * (grid_w // tile) else 1
        assert sign.shape == (n, k) and index.shape == (n, k + 2)
        np.testing.assert_array_equal(index[:, 0], np.arange(n))
        assert all(len(set(row)) == len(row) for row in index.tolist())
        # the node columns come first, the twins' two layout columns last
        assert (index[:, :k] < n).all()
        np.testing.assert_array_equal(index[:, k:], [[n, n + 1]] * n)
        # the slots hold every nonzero of the block, each once
        mat, anchors = diff.negative_spatial_matrix(grid_h, grid_w, tile)
        assert np.count_nonzero(sign) == np.count_nonzero(mat)
        np.testing.assert_array_equal(mat[np.arange(n)[:, None], index[:, :k]], sign)
        # an anchor row is +1 then -1 over its tile mates
        for a in anchors:
            np.testing.assert_array_equal(sign[a], [1.0] + [-1.0] * (tile * tile - 1))
        # built per call, as only `gat.slot_columns` caches: a write to
        # one call's tables reaches no other
        expected = index.copy()
        index[:] = 0
        np.testing.assert_array_equal(diff.tile_slots(grid_h, grid_w, tile)[0], expected)

    def test_partial_tiles_skipped(self):
        mat, anchors = diff.negative_spatial_matrix(3, 3, 2)
        # only the top-left 2x2 tile is complete on a 3x3 grid
        assert len(anchors) == 1
        covered = np.nonzero(mat.any(axis=1))[0]
        np.testing.assert_array_equal(covered, [0, 1, 3, 4])

    def test_row_sums(self):
        g = small_graph(grid=4)
        neg = diff.build_spatial_negative(g, 2)
        sums = diff.sgc_aggregate(np.ones(g.node_count), neg)
        anchor = np.tile(neg.anchor_mask, g.frames)
        assert np.all(sums[anchor] == 1 - (2 * 2 - 1))
        assert np.all(sums[~anchor] == 0)


class TestSgcAggregate:
    def test_non_anchor_is_difference_from_anchor(self):
        g = small_graph(t=1, grid=2)
        neg = diff.build_spatial_negative(g, 2)
        x = np.random.default_rng(3).random((4, 3))
        out = diff.sgc_aggregate(x, neg)
        for u in (1, 2, 3):
            np.testing.assert_allclose(out[u], x[u] - x[0], rtol=1e-15)

    def test_anchor_subtracts_tile_mates(self):
        g = small_graph(t=1, grid=2)
        neg = diff.build_spatial_negative(g, 2)
        x = np.random.default_rng(4).random((4, 3))
        out = diff.sgc_aggregate(x, neg)
        np.testing.assert_allclose(out[0], x[0] - x[1] - x[2] - x[3], rtol=1e-14)

    def test_constant_tile_features_cancel(self):
        g = small_graph(t=1, grid=2)
        neg = diff.build_spatial_negative(g, 2)
        out = diff.sgc_aggregate(np.tile([2.0, -1.0], (4, 1)), neg)
        np.testing.assert_array_equal(out[1:], np.zeros((3, 2)))


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


def loop_negative_spatial_matrix(frames, grid_h, grid_w, tile):
    """Per-tile loop reference for the (M, M) tile matrix of ``frames``
    frames: `negative_spatial_matrix` at one frame, the block per frame
    beyond."""
    m = frames * grid_h * grid_w
    mat = np.zeros((m, m))
    anchors = []
    for t in range(frames):
        for ti in range(grid_h // tile):
            for tj in range(grid_w // tile):
                ids = [(t * grid_h + ti * tile + a) * grid_w + tj * tile + b
                       for a in range(tile) for b in range(tile)]
                mat[ids[0], ids] = -1.0
                mat[ids, ids[0]] = -1.0
                mat[ids, ids] = 1.0
                anchors.append(ids[0])
    return mat, np.array(anchors, dtype=np.intp)


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
        g = graphs.VideoGraph(5, 4, np.zeros((3, 20, 20)), np.zeros((1, 2, 20)))
        for tile in (1, 2, 3, 5):
            mat, anchors = diff.negative_spatial_matrix(5, 4, tile)
            ref_mat, ref_anchors = loop_negative_spatial_matrix(1, 5, 4, tile)
            assert mat.tobytes() == ref_mat.tobytes()
            assert anchors.dtype == ref_anchors.dtype
            np.testing.assert_array_equal(anchors, ref_anchors)
            # the block in every frame is the clip's (M, M) tile matrix
            neg = diff.build_spatial_negative(g, tile)
            clip_mat, clip_anchors = loop_negative_spatial_matrix(3, 5, 4, tile)
            np.testing.assert_array_equal(diff.sgc_aggregate(np.eye(60), neg),
                                          clip_mat)
            np.testing.assert_array_equal(
                np.nonzero(np.tile(neg.anchor_mask, g.frames))[0], clip_anchors)

    def test_temporal_negative_bit_identical(self):
        emb = np.random.default_rng(3).random((3, 20, 5))
        g = graphs.unified_graph(emb, 5, 4, 0.3, 0.3)
        assert (g.temporal > 0).any()  # some bridges to overwrite
        out = diff.add_temporal_negative(g).temporal
        assert out.tobytes() == loop_temporal_negative(g).tobytes()
