"""Unified spatiotemporal graph construction.

Frames are center-cropped and cut into non-overlapping patches; each
patch is one node. Intra-frame edges carry the cosine similarity of
(epsilon-normalized) node embeddings, pruned below tau_s. Consecutive
frames are bridged at matching coordinates when the sum of structural
(adjacency-row) and feature similarity clears tau_t. The assembled
VideoGraph is immutable and keeps the frame layout: per-frame blocks and
one twin edge per node and frame pair; the differential module later
writes its negative edges into the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

EPS_NORM = 1e-4


@dataclass(frozen=True)
class PatchTensor:
    """Raw patch vectors: (T, N, patch*patch*C), row-major tiles."""

    vectors: np.ndarray
    grid_h: int
    grid_w: int
    patch_size: int
    channels: int

    @property
    def frames(self):
        return self.vectors.shape[0]

    @property
    def patches_per_frame(self):
        return self.grid_h * self.grid_w


@dataclass(frozen=True)
class VideoGraph:
    """The clip graph in its frame layout.

    ``blocks`` holds each frame's intra-frame adjacency. ``twins[t, v]``
    is the temporal edge between node v of frame t and node v of frame
    t + 1: a positive bridge similarity, or -1 once the temporal
    differential is applied (negatives overwrite coincident positives),
    or 0. No edge of the clip graph lies elsewhere; the (M, M)
    ``spatial`` and ``temporal`` matrices are built on demand.
    """

    frames: int
    grid_h: int
    grid_w: int
    blocks: np.ndarray     # (T, N, N)
    twins: np.ndarray      # (T - 1, N)

    def __post_init__(self):
        t, n = self.frames, self.patches_per_frame
        if self.blocks.shape != (t, n, n) or self.twins.shape != (t - 1, n):
            raise ValueError(f"blocks {self.blocks.shape} and twins "
                             f"{self.twins.shape} do not fit {t} frames of "
                             f"{n} nodes")

    @property
    def patches_per_frame(self):
        return self.grid_h * self.grid_w

    @property
    def node_count(self):
        return self.frames * self.patches_per_frame

    def node_index(self, t, i, j):
        if not (0 <= t < self.frames and 0 <= i < self.grid_h and 0 <= j < self.grid_w):
            raise IndexError(f"node ({t},{i},{j}) out of range")
        return (t * self.grid_h + i) * self.grid_w + j

    def node_coords(self, k):
        n = self.patches_per_frame
        t, p = divmod(int(k), n)
        if not 0 <= t < self.frames:
            raise IndexError(f"node {k} out of range")
        return t, p // self.grid_w, p % self.grid_w

    @property
    def spatial(self):
        """(M, M) block-diagonal intra-frame adjacency."""
        return dense_from_layout(to_layout(self.blocks, np.zeros(self.twins.shape)))

    @property
    def temporal(self):
        """(M, M) temporal edges: the twins on the +-N diagonals."""
        return dense_from_layout(to_layout(np.zeros(self.blocks.shape[1:]),
                                          self.twins))

    @property
    def temporal_positive(self):
        temporal = self.temporal
        return np.where(temporal > 0, temporal, 0.0)

    def with_twins(self, twins):
        return replace(self, twins=twins)


def patchify(pixels, patch_size) -> PatchTensor:
    """Cut (T, H, W, C) pixels into patch vectors; center-crop remainders."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 4:
        raise ValueError("expected (T, H, W, C) pixels")
    t, h, w, c = pixels.shape
    if patch_size < 1:
        raise ValueError("patch size must be >= 1")
    if patch_size > min(h, w):
        raise ValueError(f"patch size {patch_size} exceeds frame {h}x{w}")
    gh, gw = h // patch_size, w // patch_size
    top, left = (h - gh * patch_size) // 2, (w - gw * patch_size) // 2
    crop = pixels[:, top:top + gh * patch_size, left:left + gw * patch_size]
    tiles = crop.reshape(t, gh, patch_size, gw, patch_size, c)
    tiles = tiles.transpose(0, 1, 3, 2, 4, 5)
    vectors = tiles.reshape(t, gh * gw, patch_size * patch_size * c)
    return PatchTensor(vectors, gh, gw, patch_size, c)


def unpatchify(pt: PatchTensor) -> np.ndarray:
    """Inverse of patchify over the cropped region."""
    t = pt.frames
    l, c = pt.patch_size, pt.channels
    tiles = pt.vectors.reshape(t, pt.grid_h, pt.grid_w, l, l, c)
    tiles = tiles.transpose(0, 1, 3, 2, 4, 5)
    return tiles.reshape(t, pt.grid_h * l, pt.grid_w * l, c)


def row_normalize(x, eps=EPS_NORM):
    """Divide each row by (its L2 norm + eps); zero rows stay zero."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / (norms + eps)


def intra_frame_adjacency(x_norm, tau_s):
    """Cosine-weighted frame adjacency, off-diagonal pruned below tau_s.

    ``x_norm`` is (N, d) or a (T, N, d) stack of frames. The diagonal
    keeps its self-similarity value; negative similarities are pruned
    too so spatial weights are never negative.
    """
    a = x_norm @ x_norm.swapaxes(-1, -2)
    a = (a + a.swapaxes(-1, -2)) / 2
    off = ~np.eye(a.shape[-1], dtype=bool)
    a[off & ((a < tau_s) | (a <= 0))] = 0.0
    return a


def _row_cosines(u, v, eps):
    return (np.einsum("...i,...i->...", u, v)
            / ((np.linalg.norm(u, axis=-1) + eps)
               * (np.linalg.norm(v, axis=-1) + eps)))


def temporal_bridge(a_t, a_next, x_t, x_next, tau_t, eps=EPS_NORM):
    """Per-coordinate bridge scores between consecutive frames.

    Row v of each input belongs to node v; leading axes (a stack of
    frame pairs) carry through. Returns (scores, keep): scores are
    structural (adjacency-row) + feature cosine similarity; an edge is
    kept when the per-term average scores/2 >= tau_t.
    """
    shape = a_t.shape[:-1]
    if a_next.shape[:-1] != shape or x_t.shape[:-1] != shape \
            or x_next.shape[:-1] != shape:
        raise ValueError("frames must share the same node count")
    scores = _row_cosines(a_t, a_next, eps) + _row_cosines(x_t, x_next, eps)
    return scores, scores / 2 >= tau_t


def unified_graph(embeddings, grid_h, grid_w, tau_s, tau_t, eps=EPS_NORM) -> VideoGraph:
    """Full pipeline from per-frame embeddings (T, N, d) to a VideoGraph."""
    emb = np.asarray(embeddings, dtype=np.float64)
    adjs = intra_frame_adjacency(row_normalize(emb, eps), tau_s)
    scores, keep = temporal_bridge(adjs[:-1], adjs[1:], emb[:-1], emb[1:],
                                   tau_t, eps)
    return VideoGraph(len(adjs), grid_h, grid_w, adjs, np.where(keep, scores, 0.0))


def to_layout(blocks, twins):
    """The (T, N, N + 2) frame layout of per-frame blocks and twin edges.

    ``blocks`` is (T, N, N), or one (N, N) block shared by every frame;
    ``twins`` is (T - 1, N), the edge between node v of frames t and
    t + 1, written into both of its rows.
    """
    frames, n = twins.shape[0] + 1, twins.shape[1]
    layout = np.zeros((frames, n, n + 2), dtype=np.result_type(blocks, twins))
    layout[:, :, :n] = blocks
    layout[1:, :, n] = twins
    layout[:-1, :, n + 1] = twins
    return layout


def frame_layout(matrix, frames):
    """Read an (M, M) clip matrix into the (T, N, N + 2) frame layout.

    Row (t, i) holds frame t's own block in its first N columns, then
    the entry to its twin in frame t - 1 and the entry to its twin in
    frame t + 1 (zero where the frame does not exist). Every edge of the
    clip graph fits: spatial edges stay inside a frame and temporal ones
    join node v of frame t to node v of frame t +- 1. Any other nonzero
    entry raises ValueError, so no edge is dropped silently.
    """
    matrix = np.asarray(matrix)
    m = matrix.shape[0]
    if matrix.shape != (m, m) or frames < 1 or m % frames:
        raise ValueError(f"cannot split a {matrix.shape} matrix into "
                         f"{frames} frames")
    n = m // frames
    t = np.arange(frames)
    layout = np.zeros((frames, n, n + 2), dtype=matrix.dtype)
    layout[:, :, :n] = matrix.reshape(frames, n, frames, n)[t, :, t, :]
    layout[1:, :, n] = matrix.diagonal(-n).reshape(frames - 1, n)
    layout[:-1, :, n + 1] = matrix.diagonal(n).reshape(frames - 1, n)
    if np.count_nonzero(layout != 0) != np.count_nonzero(matrix != 0):
        rest = matrix != 0
        rest[dense_from_layout(layout) != 0] = False
        u, v = np.argwhere(rest)[0]
        raise ValueError(f"entry ({u}, {v}) joins frames {u // n} and "
                         f"{v // n} off the twin diagonal; the frame "
                         f"layout cannot hold it")
    return layout


def dense_from_layout(layout):
    """The (M, M) matrix a (T, N, N + 2) frame layout stands for."""
    frames, n, _ = layout.shape
    m = frames * n
    dense = np.zeros((m, m), dtype=layout.dtype)
    t = np.arange(frames)
    dense.reshape(frames, n, frames, n)[t, :, t, :] = layout[:, :, :n]
    rows = np.arange(n, m)
    dense[rows, rows - n] = layout[1:, :, n].reshape(-1)
    dense[rows - n, rows] = layout[:-1, :, n + 1].reshape(-1)
    return dense


_EDGE_KINDS = ("spatial", "temporal", "neg_temporal", "neg_spatial")


def dump_edges(path, graph: VideoGraph, negative_spatial=None):
    """Write the edge list as `u v w kind` lines for inspection.

    One line per nonzero entry with u <= v (u < v for neg_spatial), in
    (u, v) order and, within a pair, in the order of ``_EDGE_KINDS``.
    """
    spatial, temporal = graph.spatial, graph.temporal
    entries = [(spatial, spatial != 0, 0), (temporal, temporal > 0, 0),
               (temporal, temporal < 0, 0)]
    if negative_spatial is not None:
        entries.append((negative_spatial, negative_spatial != 0, 1))
    us, vs, kinds, weights = [], [], [], []
    for kind, (source, mask, offset) in enumerate(entries):
        u, v = np.nonzero(mask)
        keep = v - u >= offset
        u, v = u[keep], v[keep]
        us.append(u)
        vs.append(v)
        kinds.append(np.full(u.size, kind))
        weights.append(source[u, v])
    u, v, kind, w = (np.concatenate(a) for a in (us, vs, kinds, weights))
    order = np.lexsort((kind, v, u))
    with open(path, "w") as fh:
        fh.writelines(f"{a} {b} {c:.6g} {_EDGE_KINDS[k]}\n" for a, b, c, k in zip(
            u[order].tolist(), v[order].tolist(), w[order].tolist(),
            kind[order].tolist()))
