"""Graph construction: patchify, normalization, adjacency, assembly."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstgnn import differential, graphs, model
from sstgnn.synth import SynthSpec, generate

from layouts import (dense_from_layout, frame_layout, loop_negative_spatial_matrix,
                     to_layout)


def random_pixels(seed, t=2, h=8, w=8, c=1):
    return np.random.default_rng(seed).random((t, h, w, c))


class TestPatchify:
    def test_64x64_patch32_gives_2x2_grid(self):
        pt = graphs.patchify(np.zeros((2, 64, 64, 1)), 32)
        assert (pt.grid_h, pt.grid_w) == (2, 2)
        assert pt.patches_per_frame == 4
        assert pt.vectors.shape == (2, 4, 32 * 32)

    def test_patch1_one_pixel_nodes(self):
        pix = random_pixels(0, t=2, h=4, w=4)
        pt = graphs.patchify(pix, 1)
        assert pt.patches_per_frame == 16
        np.testing.assert_array_equal(pt.vectors[0, :, 0], pix[0, :, :, 0].ravel())

    def test_center_crop_non_divisible(self):
        pix = np.zeros((2, 65, 64, 1))
        pix[:, -1] = 1.0  # single leftover row drops from the far edge
        pt = graphs.patchify(pix, 32)
        assert pt.patches_per_frame == 4
        assert pt.vectors.max() == 0.0

    def test_center_crop_is_centered(self):
        pix = np.zeros((2, 68, 64, 1))
        pix[:, :2] = 1.0
        pix[:, -2:] = 1.0  # two rows off each side
        pt = graphs.patchify(pix, 32)
        assert pt.vectors.max() == 0.0

    def test_patch_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            graphs.patchify(np.zeros((2, 8, 8, 1)), 9)

    def test_unpatchify_inverts(self):
        pix = random_pixels(1, t=3, h=9, w=12)
        pt = graphs.patchify(pix, 3)
        np.testing.assert_array_equal(graphs.unpatchify(pt), pix)

    def test_unpatchify_inverts_cropped(self):
        pix = random_pixels(2, t=2, h=10, w=10)
        pt = graphs.patchify(pix, 4)
        np.testing.assert_array_equal(graphs.unpatchify(pt), pix[:, 1:9, 1:9])

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 3), st.integers(0, 3), st.integers(0, 3),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=40, deadline=None)
    def test_stacked_clips_are_each_clip_stacked(self, seed, clips, patch,
                                                 channels, extra_h, extra_w, dtype):
        # H and W leave a remainder of up to patch - 1 pixels to the crop
        extra_h, extra_w = extra_h % patch, extra_w % patch
        rng = np.random.default_rng(seed)
        shape = (2, 2 * patch + extra_h, 3 * patch + extra_w, channels)
        pixels = [rng.random(shape).astype(dtype) for _ in range(clips)]
        stacked = graphs.patchify(pixels, patch)
        alone = [graphs.patchify(pix, patch) for pix in pixels]
        assert stacked.vectors.dtype == np.float64
        assert stacked.vectors.tobytes() == np.concatenate(
            [pt.vectors for pt in alone]).tobytes()
        assert (stacked.grid_h, stacked.grid_w, stacked.channels) == (2, 3, channels)
        # each clip alone: the float64 crop cut by reshape and transpose
        for pix, pt in zip(pixels, alone):
            top, left = extra_h // 2, extra_w // 2
            crop = np.asarray(pix, dtype=np.float64)[
                :, top:top + 2 * patch, left:left + 3 * patch]
            tiles = crop.reshape(2, 2, patch, 3, patch, channels)
            expected = tiles.transpose(0, 1, 3, 2, 4, 5).reshape(2, 6, -1)
            assert pt.vectors.tobytes() == expected.tobytes()

    def test_clips_of_two_shapes_rejected(self):
        with pytest.raises(ValueError, match="one shape"):
            graphs.patchify([random_pixels(3), random_pixels(4, h=9)], 4)


class TestRowNormalize:
    def test_three_four_row(self):
        out = graphs.row_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.599988, 0.799984]], atol=1e-6)

    def test_zero_row_stays_zero(self):
        out = graphs.row_normalize(np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_unit_row_shrinks_by_eps(self):
        out = graphs.row_normalize(np.array([[1.0, 0.0]]))
        assert np.linalg.norm(out) == pytest.approx(1 / 1.0001, rel=1e-12)


class TestIntraFrameAdjacency:
    def test_identical_rows_kept_at_default_tau(self):
        x = graphs.row_normalize(np.tile([1.0, 2.0, 2.0], (2, 1)))
        a = graphs.intra_frame_adjacency(x, 0.6)
        assert a[0, 1] == pytest.approx(0.9998, abs=1e-3)
        assert a[0, 1] == a[1, 0]

    def test_orthogonal_rows_pruned(self):
        x = graphs.row_normalize(np.array([[1.0, 0.0], [0.0, 1.0]]))
        a = graphs.intra_frame_adjacency(x, 0.6)
        assert a[0, 1] == 0.0 and a[1, 0] == 0.0

    def test_negative_similarity_pruned_even_at_tau_zero(self):
        x = graphs.row_normalize(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        a = graphs.intra_frame_adjacency(x, 0.0)
        assert a[0, 1] == 0.0

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(3, 5))
        xn = graphs.row_normalize(raw)
        a = graphs.intra_frame_adjacency(xn.copy(), 0.2)
        for i in range(3):
            for j in range(3):
                cos = float(xn[i] @ xn[j])
                if i != j and (cos < 0.2 or cos <= 0):
                    cos = 0.0
                assert a[i, j] == pytest.approx(cos, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 0.9), st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_raising_tau_only_removes_edges(self, seed, tau, delta):
        x = graphs.row_normalize(np.random.default_rng(seed).normal(size=(5, 4)))
        low = graphs.intra_frame_adjacency(x.copy(), tau)
        high = graphs.intra_frame_adjacency(x.copy(), min(tau + delta, 1.0))
        assert np.all((high != 0) <= (low != 0))


class TestTemporalBridge:
    def test_identical_frames_connect(self):
        emb = np.random.default_rng(4).normal(size=(4, 6))
        xn = graphs.row_normalize(emb)
        a = graphs.intra_frame_adjacency(xn, 0.0)
        scores, keep = graphs.temporal_bridge(a, a, emb, emb, 0.6)
        assert np.all(keep)
        np.testing.assert_allclose(scores, 2.0, atol=1e-3)

    def test_orthogonal_everything_pruned(self):
        a1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        a2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        x1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        x2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        scores, keep = graphs.temporal_bridge(a1, a2, x1, x2, 0.6)
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)
        assert not keep.any()

    def test_matches_cosine_oracle(self):
        rng = np.random.default_rng(5)
        emb = rng.normal(size=(2, 4, 3))
        xn = graphs.row_normalize(emb)
        adjs = [graphs.intra_frame_adjacency(xn[t], 0.3) for t in range(2)]
        scores, keep = graphs.temporal_bridge(adjs[0], adjs[1], emb[0], emb[1], 0.5)
        eps = 1e-4
        for v in range(4):
            def cos(u, w):
                return u @ w / ((np.linalg.norm(u) + eps) * (np.linalg.norm(w) + eps))
            expected = cos(adjs[0][v], adjs[1][v]) + cos(emb[0][v], emb[1][v])
            assert scores[v] == pytest.approx(expected, rel=1e-12)
            assert keep[v] == (expected / 2 >= 0.5)

    def test_mismatched_frames(self):
        with pytest.raises(ValueError, match="node count"):
            graphs.temporal_bridge(np.eye(3), np.eye(4), np.ones((3, 2)),
                                   np.ones((4, 2)), 0.5)


class TestAssemble:
    def build(self, seed=0, t=3, h=8, w=8, tau_s=0.4, tau_t=0.4):
        clip = generate(SynthSpec("real", seed=seed, frames=max(t, 2),
                                  height=h, width=w)).clip
        pt = graphs.patchify(clip.pixels[:t], 4)
        emb = pt.vectors
        return graphs.unified_graph(emb, pt.grid_h, pt.grid_w, tau_s, tau_t)

    def test_single_frame_no_temporal(self):
        emb = np.random.default_rng(6).random((1, 4, 5))
        g = graphs.unified_graph(emb, 2, 2, 0.3, 0.3)
        assert g.temporal.max() == 0.0 and g.temporal.min() == 0.0
        assert g.node_count == 4

    def test_two_frame_block_structure(self):
        emb = np.random.default_rng(7).random((2, 4, 5))
        g = graphs.unified_graph(emb, 2, 2, 0.3, 0.3)
        assert g.spatial.shape == (8, 8)
        assert np.all(g.spatial[:4, 4:] == 0.0)
        assert np.all(g.spatial[4:, :4] == 0.0)

    def test_spatial_symmetric_nonnegative_thresholded(self):
        g = self.build(seed=2)
        np.testing.assert_array_equal(g.spatial, g.spatial.T)
        assert g.spatial.min() >= 0.0
        off = g.spatial[~np.eye(g.node_count, dtype=bool)]
        assert np.all((off == 0) | (off >= 0.4))

    def test_temporal_support_only_consecutive_same_coordinate(self):
        g = self.build(seed=3)
        n = g.patches_per_frame
        us, vs = np.nonzero(g.temporal)
        for u, v in zip(us, vs):
            (tu, pu), (tv, pv) = divmod(u, n), divmod(v, n)
            assert abs(tu - tv) == 1 and pu == pv

    def test_stacked_clips_share_no_bridge(self):
        # tau_t = 0 keeps every bridge, so a bridge between the clips
        # would not be 0 by chance
        emb = np.random.default_rng(8).random((2, 3, 4, 5))
        alone = [graphs.unified_graph(e, 2, 2, 0.3, 0.0) for e in emb]
        g = graphs.unified_graph(emb.reshape(6, 4, 5), 2, 2, 0.3, 0.0, clips=2)
        assert g.clips == 2 and g.frames == 6 and alone[0].twins.all()
        np.testing.assert_array_equal(g.blocks, np.concatenate(
            [a.blocks for a in alone]))
        assert g.twins.shape == (2, 2, 4)
        np.testing.assert_array_equal(g.twins, np.concatenate(
            [a.twins for a in alone]))

    def test_clip_count_must_fit_the_frames(self):
        emb = np.zeros((4, 4, 5))
        for clips in (0, 3):
            with pytest.raises(ValueError, match=f"do not split into {clips} clips"):
                graphs.unified_graph(emb, 2, 2, 0.3, 0.3, clips=clips)

    @pytest.mark.parametrize("twins", [(4, 1, 4), (3, 4), (1, 3, 5), (0, 3, 4)])
    def test_twins_must_fit_the_blocks(self, twins):
        with pytest.raises(ValueError, match="do not fit"):
            graphs.VideoGraph(2, 2, np.zeros((4, 4, 4)), np.zeros(twins))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_twin_rejected(self, bad):
        g = self.build(seed=5, t=3)
        twins = g.twins.copy()
        twins[0, 1, 2] = bad
        with pytest.raises(ValueError, match="twin edge weights must be finite"):
            graphs.VideoGraph(g.grid_h, g.grid_w, g.blocks, twins)

    def test_dump_edges(self, tmp_path):
        g = self.build(seed=4, t=2)
        path = tmp_path / "edges.txt"
        graphs.dump_edges(path, g)
        lines = path.read_text().splitlines()
        kinds = {line.split()[-1] for line in lines}
        assert kinds <= {"spatial", "temporal", "neg_spatial", "neg_temporal"}
        assert "spatial" in kinds


def reference_dump_edges(path, graph, tile=None):
    """The pair-by-pair loop `dump_edges` replaced, kept as its oracle:
    it reads the (M, M) matrices, the loop-built tile matrix for the
    negative spatial edges."""
    spatial, temporal = graph.spatial, graph.temporal
    tiles = None if tile is None else loop_negative_spatial_matrix(
        graph.frames, graph.grid_h, graph.grid_w, tile)[0]
    with open(path, "w") as fh:
        m = graph.node_count
        for u in range(m):
            for v in range(u, m):
                w = spatial[u, v]
                if w != 0:
                    fh.write(f"{u} {v} {w:.6g} spatial\n")
                tw = temporal[u, v]
                if tw > 0:
                    fh.write(f"{u} {v} {tw:.6g} temporal\n")
                elif tw < 0:
                    fh.write(f"{u} {v} {tw:.6g} neg_temporal\n")
                if tiles is not None and u != v:
                    nw = tiles[u, v]
                    if nw != 0:
                        fh.write(f"{u} {v} {nw:.6g} neg_spatial\n")


def clip_graph(seed, t=3, size=16, patch=2, tau=0.3):
    clip = generate(SynthSpec("real", seed=seed, frames=t, height=size,
                              width=size)).clip
    pt = graphs.patchify(clip.pixels, patch)
    return graphs.unified_graph(pt.vectors, pt.grid_h, pt.grid_w, tau, tau)


class TestDumpEdges:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_bytes_as_loop_without_differential(self, tmp_path, seed):
        g = clip_graph(seed)
        assert (g.temporal > 0).any()
        graphs.dump_edges(tmp_path / "new.txt", g)
        reference_dump_edges(tmp_path / "ref.txt", g)
        assert (tmp_path / "new.txt").read_bytes() == \
            (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("tile", [1, 2, 3])
    def test_same_bytes_as_loop_with_differential(self, tmp_path, tile):
        g = differential.add_temporal_negative(clip_graph(2))
        graphs.dump_edges(tmp_path / "new.txt", g, tile=tile)
        reference_dump_edges(tmp_path / "ref.txt", g, tile)
        new = (tmp_path / "new.txt").read_bytes()
        assert new == (tmp_path / "ref.txt").read_bytes()
        kinds = {line.split()[-1] for line in new.decode().splitlines()}
        # a tile of one node has no off-diagonal entry
        assert kinds == {"spatial", "neg_temporal"} | (
            {"neg_spatial"} if tile > 1 else set())

    def test_batch_graph_repeats_the_tile_block_per_frame(self, tmp_path):
        # two stacked clips: the tile block of every frame of both clips,
        # and no twin line between the clips
        clips = [differential.add_temporal_negative(clip_graph(s))
                 for s in (4, 5)]
        g = graphs.VideoGraph(8, 8, np.concatenate([c.blocks for c in clips]),
                              np.concatenate([c.twins for c in clips]))
        graphs.dump_edges(tmp_path / "new.txt", g, tile=2)
        reference_dump_edges(tmp_path / "ref.txt", g, 2)
        new = (tmp_path / "new.txt").read_text()
        assert new == (tmp_path / "ref.txt").read_text()
        kinds = [line.split()[-1] for line in new.splitlines()]
        # 16 tiles of 4 nodes, 3 pairs above the diagonal each, 6 frames
        assert kinds.count("neg_spatial") == 6 * 16 * 3
        assert kinds.count("neg_temporal") == 2 * 2 * 64

    def test_empty_graph_writes_nothing(self, tmp_path):
        g = graphs.VideoGraph(2, 2, np.zeros((2, 4, 4)), np.zeros((1, 1, 4)))
        graphs.dump_edges(tmp_path / "e.txt", g)
        assert (tmp_path / "e.txt").read_bytes() == b""


# sha256 of the `dump_edges` bytes and of the consistency and
# inconsistency sign layouts of batch graphs of 1-3 clips (4 frames of
# 4 x 4 patches each; tau_t = 0.95 keeps some bridges), with bridges
# (differential off) and with the differential. Taken from the code
# that still stored one (T - 1, N) twin array across the whole batch.
BATCH_DIGESTS = {
    "bridges/1": (
        "6b4a75383a7ad4f96cabb400929fe01b29ab75005fedfdf7a8581fc6f84c2b81",
        "e58f3c557762b920f84a41dc98eab1df71ad3a345b01e670522d726aeace2380",
        "5a6221ab484c723b9f7bb03fb4e88366c21d92e292ab987731a402229be02716"),
    "bridges/2": (
        "46c669968e5cbec3165da9aa0e58b70e0878ecafe1f2b5cf83dd00c933831d81",
        "eb3f06c50735b83a66bb31e0db8fc3c848918f4ad2d9bf872f807f798965d428",
        "d540bcefc755ff50c045a49201b69fa6f6053aff8756a90d7c075e20801b31a6"),
    "bridges/3": (
        "34160c004e016d68b4331ae7f2801e917f41f4058cb3637187e7ac8cba285a51",
        "5b8f376b42037289f284c029ae4512b071b5a9b8a0ef0680f13dbd9b1e48bfa7",
        "efb8c8acd8871e72acc4d40e68748f7ad16d09df60b044278e2a27c6716925e0"),
    "diff/1": (
        "e9092d29c540ee9297e70d64b61d5d66a3f483af0e5c2c593743ab19e935955e",
        "fd816c50971eb68abf12d7df019bd6916edc0671a69257d41f5598bcd379dfbd",
        "98490da0f59ee175279077c27b989670a72d4c46c0e7c891701f2133f2baa718"),
    "diff/2": (
        "ddc1a0a12b3bdbc240d4556cf190cb6a724fc562e9599ccd99aaed93250265f5",
        "a7ae5619afdd90011e4bd810a4e45bbd3942998d80da7b42951bc0c3a0d0caae",
        "c7b97e22e903e9af94548498a3d47255b34e211da31562deee2a7ca9517850ab"),
    "diff/3": (
        "55435ad7108e62ea5de362ae966791bd49b8a3838ac7f3b3db979e875e88599d",
        "31dac016d0b4fadcae5c80c71f977a7377c0c6c0fdc4b3ef6eb2522dc2c01806",
        "3a3c655526b2ed359562037e6f760a4de6f364f3bb8a168c872090c4f1abd8af"),
}
BATCH_FAMILIES = ("real", "upsample_artifact", "spectral_noise")


@pytest.mark.parametrize("key", sorted(BATCH_DIGESTS))
def test_batch_graph_bytes_pinned(tmp_path, key):
    kind, clips = key.split("/")
    cfg = model.preset_config("desk", patch_size=16, dim=8, filter_hidden=4,
                              tau_t=0.95, use_differential=kind == "diff")
    params = model.init_params(cfg, seed=3)
    batch = [generate(SynthSpec(BATCH_FAMILIES[k], seed=k, frames=4)).clip
             for k in range(int(clips))]
    _, structure = model.forward(batch, params, cfg)
    pairs = int(clips) * 3 * 16
    twins = structure.graph.twins
    if kind == "diff":
        assert (twins == -1).sum() == pairs
    else:   # some bridges kept, some not
        assert 0 < (twins > 0).sum() < pairs
    graphs.dump_edges(tmp_path / "edges.txt", structure.graph,
                      tile=cfg.tile if kind == "diff" else None)
    consistency, inconsistency = frame_layout(structure.adjacency)
    got = tuple(hashlib.sha256(blob).hexdigest() for blob in (
        (tmp_path / "edges.txt").read_bytes(), consistency.tobytes(),
        inconsistency.tobytes()))
    assert got == BATCH_DIGESTS[key]


class TestFrameLayout:
    """`VideoGraph.spatial` and `.temporal` against the test-side frame
    layout reference, `dense_from_layout(to_layout(...))`: same bytes."""

    def test_cells_hold_block_and_twins(self):
        t, n = 3, 2
        m = t * n
        rng = np.random.default_rng(0)
        blocks, twins = rng.random((t, n, n)), rng.random((t - 1, n))
        graph = graphs.VideoGraph(n, 1, blocks, twins[None])
        spatial, temporal = graph.spatial, graph.temporal
        layout = to_layout(blocks, twins[None])
        assert layout.shape == (t, n, n + 2)
        np.testing.assert_array_equal(spatial + temporal, dense_from_layout(layout))
        for f in range(t):
            np.testing.assert_array_equal(layout[f, :, :n], blocks[f])
            for i in range(n):
                u = f * n + i
                np.testing.assert_array_equal(spatial[u, f * n:(f + 1) * n],
                                              blocks[f, i])
                assert layout[f, i, n] == (twins[f - 1, i] if f else 0.0)
                assert layout[f, i, n + 1] == (twins[f, i] if f < t - 1
                                               else 0.0)
                if f:
                    assert temporal[u, u - n] == twins[f - 1, i]
                if f < t - 1:
                    assert temporal[u, u + n] == twins[f, i]
        # nothing lands off the frame blocks and the twin diagonals
        assert spatial.shape == temporal.shape == (m, m)
        assert np.count_nonzero(spatial) == blocks.size
        assert np.count_nonzero(temporal) == 2 * twins.size

    def test_one_frame_is_the_matrix_plus_empty_twins(self):
        a = np.random.default_rng(0).random((5, 5))
        layout = to_layout(a, np.zeros((1, 0, 5)))
        assert layout.shape == (1, 5, 7)
        np.testing.assert_array_equal(layout[0, :, :5], a)
        assert not layout[0, :, 5:].any()
        np.testing.assert_array_equal(dense_from_layout(layout), a)
        graph = graphs.VideoGraph(5, 1, a[None], np.zeros((1, 0, 5)))
        assert graph.spatial.tobytes() == a.tobytes()
        assert graph.temporal.tobytes() == np.zeros((5, 5)).tobytes()

    def test_each_clip_writes_its_twins_into_its_own_frames(self):
        # two clips of two frames: no twin cell joins frames 1 and 2
        n = 3
        twins = np.random.default_rng(1).random((2, 1, n)) + 1.0
        layout = to_layout(np.zeros((n, n)), twins)
        assert layout.shape == (4, n, n + 2)
        for clip in range(2):
            first, second = layout[2 * clip], layout[2 * clip + 1]
            np.testing.assert_array_equal(first[:, n + 1], twins[clip, 0])
            np.testing.assert_array_equal(second[:, n], twins[clip, 0])
            assert not first[:, n].any() and not second[:, n + 1].any()
        dense = graphs.VideoGraph(n, 1, np.zeros((4, n, n)), twins).temporal
        assert dense.tobytes() == dense_from_layout(layout).tobytes()
        assert not dense[n:2 * n, 2 * n:].any() and not dense[2 * n:, :2 * n].any()

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_dense_views_match_the_reference_bytes(self, seed, clips, frames, grid_h,
                                                   grid_w):
        # cosine blocks with pruned -0.0 cells, bridges and -1 twins
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(clips * frames, grid_h * grid_w, 3))
        graph = graphs.unified_graph(emb, grid_h, grid_w, 0.3, 0.5, clips)
        if rng.random() < 0.5:
            graph = differential.add_temporal_negative(graph)
        n = graph.patches_per_frame
        spatial = dense_from_layout(to_layout(graph.blocks, np.zeros(graph.twins.shape)))
        temporal = dense_from_layout(to_layout(np.zeros((n, n)), graph.twins))
        for got, want in ((graph.spatial, spatial), (graph.temporal, temporal)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
