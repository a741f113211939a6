"""Unified spatiotemporal graph construction.

Frames are center-cropped and cut into non-overlapping patches; each
patch is one node. Intra-frame edges carry the cosine similarity of
(epsilon-normalized) node embeddings, pruned below tau_s. Consecutive
frames are bridged at matching coordinates when the sum of structural
(adjacency-row) and feature similarity clears tau_t. The assembled
VideoGraph is immutable and keeps the frame layout: per-frame blocks and
one twin edge per node and frame pair; the differential module later
writes its -1 temporal edges into the twins and holds its tile pattern
as one block for every frame. A minibatch of equal clips is one graph
of their stacked frames (a disjoint union): no twin edge joins the last
frame of one clip to the first of the next.

The frame layout is the only graph format: `to_layout` packs blocks
and twins into the (T, N, N + 2) rows attention and the Lanczos matvec
read, and `dump_edges` writes straight from it. `dense_from_layout` and
the (M, M) `VideoGraph.spatial`/`.temporal` it builds remain only for
the benchmark's graph counts and the dense Laplacian reference.
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
    ``spatial`` and ``temporal`` matrices are built on demand, off the
    model path.

    ``clips`` equal clips may share the graph, stacked along the frame
    axis; the twin rows at their boundaries (``clip_boundaries``) are 0.
    """

    frames: int
    grid_h: int
    grid_w: int
    blocks: np.ndarray     # (T, N, N)
    twins: np.ndarray      # (T - 1, N)
    clips: int = 1

    def __post_init__(self):
        t, n = self.frames, self.patches_per_frame
        if self.blocks.shape != (t, n, n) or self.twins.shape != (t - 1, n):
            raise ValueError(f"blocks {self.blocks.shape} and twins "
                             f"{self.twins.shape} do not fit {t} frames of "
                             f"{n} nodes")
        if self.clips < 1 or t % self.clips:
            raise ValueError(f"{t} frames do not split into {self.clips} clips")
        if self.twins[self.clip_boundaries].any():
            raise ValueError("a twin edge joins two clips")

    @property
    def patches_per_frame(self):
        return self.grid_h * self.grid_w

    @property
    def node_count(self):
        return self.frames * self.patches_per_frame

    @property
    def clip_boundaries(self):
        return clip_boundaries(self.frames, self.clips)

    @property
    def spatial(self):
        """(M, M) block-diagonal intra-frame adjacency."""
        return dense_from_layout(to_layout(self.blocks, np.zeros(self.twins.shape)))

    @property
    def temporal(self):
        """(M, M) temporal edges: the twins on the +-N diagonals."""
        return dense_from_layout(to_layout(np.zeros(self.blocks.shape[1:]),
                                          self.twins))

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
    keep = (a >= tau_s) & (a > 0)
    keep |= np.eye(a.shape[-1], dtype=bool)
    a *= keep
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


def clip_boundaries(frames, clips):
    """The rows of a (frames - 1, N) twin array that would join the last
    frame of one of ``clips`` equal clips to the first of the next; an
    empty slice for one clip."""
    per_clip = frames // clips
    return slice(per_clip - 1, None, per_clip)


def unified_graph(embeddings, grid_h, grid_w, tau_s, tau_t, eps=EPS_NORM,
                  clips=1, bridges=True) -> VideoGraph:
    """Full pipeline from per-frame embeddings (T, N, d) to a VideoGraph;
    ``clips`` equal clips stacked along T get no bridge between them.
    ``bridges=False`` scores none and leaves every twin 0, for a caller
    that overwrites them all (the temporal differential)."""
    emb = np.asarray(embeddings, dtype=np.float64)
    adjs = intra_frame_adjacency(row_normalize(emb, eps), tau_s)
    twins = np.zeros((len(emb) - 1, emb.shape[1]))
    if bridges:
        scores, keep = temporal_bridge(adjs[:-1], adjs[1:], emb[:-1], emb[1:],
                                       tau_t, eps)
        twins = np.where(keep, scores, 0.0)
        twins[clip_boundaries(len(adjs), clips)] = 0.0
    return VideoGraph(len(adjs), grid_h, grid_w, adjs, twins, clips)


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


def dump_edges(path, graph: VideoGraph, negative=None):
    """Write the edge list as `u v w kind` lines for inspection.

    One line per edge of the clip graph, read from its frame layout: the
    upper triangle of each frame block, each nonzero twin (temporal when
    positive, else neg_temporal) and, given a `NegativeSpatialAdjacency`,
    the strict upper triangle of its tile ``block`` in every frame. Lines
    run in (u, v) order and, within a pair, in the order of
    ``_EDGE_KINDS``.
    """
    n = graph.patches_per_frame
    t, i, j = np.nonzero(np.triu(graph.blocks))
    edges = [(t * n + i, t * n + j, graph.blocks[t, i, j], 0)]
    t, v = np.nonzero(graph.twins)
    w = graph.twins[t, v]
    edges.append((t * n + v, (t + 1) * n + v, w, np.where(w > 0, 1, 2)))
    if negative is not None:
        i, j = np.nonzero(np.triu(negative.block, 1))
        base = np.arange(graph.frames)[:, None] * n
        edges.append(((base + i).ravel(), (base + j).ravel(),
                      np.tile(negative.block[i, j], graph.frames), 3))
    u, v, w = (np.concatenate([e[k] for e in edges]) for k in range(3))
    kind = np.concatenate([np.broadcast_to(e[3], e[0].shape) for e in edges])
    order = np.lexsort((kind, v, u))
    with open(path, "w") as fh:
        fh.writelines(f"{a} {b} {c:.6g} {_EDGE_KINDS[k]}\n" for a, b, c, k in zip(
            u[order].tolist(), v[order].tolist(), w[order].tolist(),
            kind[order].tolist()))
