"""Unified spatiotemporal graph construction.

Frames are center-cropped and cut into non-overlapping patches; each
patch is one node. Intra-frame edges carry the cosine similarity of
(epsilon-normalized) node embeddings, pruned below tau_s. Consecutive
frames are bridged at matching coordinates when the sum of structural
(adjacency-row) and feature similarity clears tau_t. The assembled
VideoGraph is immutable and keeps the frame layout: per-frame blocks and
one twin edge per node and frame pair; the differential module later
writes its -1 temporal edges into the twins, and its tile pattern is
read per tile of `tile_ids`, never stored in the graph. A minibatch of
B equal clips of F frames is one graph of their T = B F stacked frames
(a disjoint union): its twins are held per clip, as (B, F - 1, N), so
no twin row joins the last frame of one clip to the first of the next.

The frame layout is the only graph format: `gat.build_adjacency` writes
attention's block layouts from the blocks and twins, and the Lanczos
matvec and `dump_edges` read them as they are. The (M, M)
`VideoGraph.spatial`/`.temporal` are written from them on demand, for
the benchmark's graph counts and the dense Laplacian reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .differential import tile_ids

# added to every L2 norm a cosine similarity divides by: zero rows stay 0
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
    """The graph of B equal clips of F frames in its frame layout.

    ``blocks`` holds the intra-frame adjacency of each of the T = B F
    frames, clip after clip. ``twins[b, f, v]`` is the temporal edge
    between node v of frame f of clip b and node v of its frame f + 1: a
    positive bridge similarity, or -1 once the temporal differential is
    applied (negatives overwrite coincident positives), or 0. No edge of
    the graph lies elsewhere, so none joins two clips; the (M, M)
    ``spatial`` and ``temporal`` matrices are built on demand, off the
    model path.
    """

    grid_h: int
    grid_w: int
    blocks: np.ndarray     # (B F, N, N)
    twins: np.ndarray      # (B, F - 1, N)

    def __post_init__(self):
        n = self.patches_per_frame
        clips, pairs = self.twins.shape[:2] if self.twins.ndim == 3 else (0, 0)
        if (clips < 1 or self.twins.shape[2] != n
                or self.blocks.shape != (clips * (pairs + 1), n, n)):
            raise ValueError(f"blocks {self.blocks.shape} and twins {self.twins.shape}"
                             f" do not fit clips of {n}-node frames")
        # a NaN twin would read as no edge to the Laplacian (twins > 0)
        # and as an edge to attention (sign != 0)
        if not np.isfinite(self.twins).all():
            raise ValueError("twin edge weights must be finite and nonnegative "
                             "bridges or negative differential edges")

    @property
    def frames(self):
        return len(self.blocks)

    @property
    def clips(self):
        return len(self.twins)

    @property
    def patches_per_frame(self):
        return self.grid_h * self.grid_w

    @property
    def node_count(self):
        return self.frames * self.patches_per_frame

    @property
    def spatial(self):
        """(M, M) intra-frame adjacency: the frame blocks on its diagonal."""
        t = np.arange(self.frames)
        dense = np.zeros((self.frames, self.patches_per_frame) * 2)
        dense[t, :, t] = self.blocks
        return dense.reshape(self.node_count, self.node_count)

    @property
    def temporal(self):
        """(M, M) temporal edges: each twin at its node pair, both ways."""
        n = self.patches_per_frame
        dense = np.zeros((self.node_count, self.node_count))
        # the nodes of each clip's frames but its last; node u's twin is u + n
        u = np.arange(self.node_count).reshape(self.clips, -1, n)[:, :-1]
        dense[u, u + n] = dense[u + n, u] = self.twins
        return dense


def patchify(pixels, patch_size) -> PatchTensor:
    """Cut (T, H, W, C) pixels, or a list of B clips of that one shape,
    into one (B T, N, patch*patch*C) float64 array of patch vectors, clip
    after clip; center-crop remainders.

    Each clip is converted and tiled by one copy into its own frames of
    the array, so a clip's patches have the same bytes in a list as
    alone, and no per-clip array is concatenated.
    """
    clips = [np.asarray(clip) for clip in
             (pixels if isinstance(pixels, (list, tuple)) else [pixels])]
    if not clips:
        raise ValueError("no clips to patchify")
    shape = clips[0].shape
    if any(clip.shape != shape for clip in clips):
        raise ValueError(f"clips of one forward must share one shape: "
                         f"{sorted({clip.shape for clip in clips})}")
    if len(shape) != 4:
        raise ValueError("expected (T, H, W, C) pixels")
    t, h, w, c = shape
    if patch_size < 1:
        raise ValueError("patch size must be >= 1")
    if patch_size > min(h, w):
        raise ValueError(f"patch size {patch_size} exceeds frame {h}x{w}")
    gh, gw = h // patch_size, w // patch_size
    top, left = (h - gh * patch_size) // 2, (w - gw * patch_size) // 2
    vectors = np.empty((len(clips) * t, gh * gw, patch_size * patch_size * c))
    # clip k's frames as (T, gh, gw, patch, patch, C) tiles
    tiles = vectors.reshape(len(clips), t, gh, gw, patch_size, patch_size, c)
    for k, clip in enumerate(clips):
        crop = clip[:, top:top + gh * patch_size, left:left + gw * patch_size]
        tiles[k] = crop.reshape(t, gh, patch_size, gw, patch_size, c).transpose(
            0, 1, 3, 2, 4, 5)
    return PatchTensor(vectors, gh, gw, patch_size, c)


def unpatchify(pt: PatchTensor) -> np.ndarray:
    """Inverse of patchify over the cropped region."""
    t = pt.frames
    l, c = pt.patch_size, pt.channels
    tiles = pt.vectors.reshape(t, pt.grid_h, pt.grid_w, l, l, c)
    tiles = tiles.transpose(0, 1, 3, 2, 4, 5)
    return tiles.reshape(t, pt.grid_h * l, pt.grid_w * l, c)


def row_normalize(x):
    """Divide each row by (its L2 norm + EPS_NORM); zero rows stay zero."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / (norms + EPS_NORM)


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


def _row_cosines(u, v):
    return (np.einsum("...i,...i->...", u, v)
            / ((np.linalg.norm(u, axis=-1) + EPS_NORM)
               * (np.linalg.norm(v, axis=-1) + EPS_NORM)))


def temporal_bridge(a_t, a_next, x_t, x_next, tau_t):
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
    scores = _row_cosines(a_t, a_next) + _row_cosines(x_t, x_next)
    return scores, scores / 2 >= tau_t


def unified_graph(embeddings, grid_h, grid_w, tau_s, tau_t, clips=1,
                  bridges=True) -> VideoGraph:
    """Full pipeline from the per-frame embeddings (T, N, d) of ``clips``
    equal clips stacked along T to a VideoGraph, bridged within each
    clip. ``bridges=False`` scores no bridge and leaves every twin 0, for
    a caller that overwrites them all (the temporal differential)."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if clips < 1 or len(emb) % clips:
        raise ValueError(f"{len(emb)} frames do not split into {clips} clips")
    adjs = intra_frame_adjacency(row_normalize(emb), tau_s)
    twins = np.zeros((clips, len(emb) // clips - 1, emb.shape[1]))
    if bridges:
        a, x = (v.reshape(clips, -1, *v.shape[1:]) for v in (adjs, emb))
        scores, keep = temporal_bridge(a[:, :-1], a[:, 1:], x[:, :-1], x[:, 1:], tau_t)
        twins = np.where(keep, scores, 0.0)
    return VideoGraph(grid_h, grid_w, adjs, twins)


_EDGE_KINDS = ("spatial", "temporal", "neg_temporal", "neg_spatial")


def dump_edges(path, graph: VideoGraph, tile=None):
    """Write the edge list as `u v w kind` lines for inspection.

    One line per edge of the clip graph, read from its frame layout: the
    upper triangle of each frame block, each nonzero twin (temporal when
    positive, else neg_temporal) and, given the differential's ``tile``
    size, a -1 neg_spatial edge from each complete tile's anchor to each
    of its tile mates (`tile_ids`) in every frame. Lines run in (u, v)
    order and, within a pair, in the order of ``_EDGE_KINDS``.
    """
    n = graph.patches_per_frame
    t, i, j = np.nonzero(np.triu(graph.blocks))
    edges = [(t * n + i, t * n + j, graph.blocks[t, i, j], 0)]
    c, f, v = np.nonzero(graph.twins)
    w = graph.twins[c, f, v]
    t = c * (graph.twins.shape[1] + 1) + f
    edges.append((t * n + v, (t + 1) * n + v, w, np.where(w > 0, 1, 2)))
    if tile is not None:
        ids = (np.arange(graph.frames)[:, None, None] * n + tile_ids(
            graph.grid_h, graph.grid_w, tile)).reshape(-1, tile * tile)
        mates = ids[:, 1:].ravel()
        edges.append((ids[:, 0].repeat(tile * tile - 1), mates, np.full(mates.shape, -1.0), 3))
    u, v, w = (np.concatenate([e[k] for e in edges]) for k in range(3))
    kind = np.concatenate([np.broadcast_to(e[3], e[0].shape) for e in edges])
    order = np.lexsort((kind, v, u))
    with open(path, "w") as fh:
        fh.writelines(f"{a} {b} {c:.6g} {_EDGE_KINDS[k]}\n" for a, b, c, k in zip(
            u[order].tolist(), v[order].tolist(), w[order].tolist(),
            kind[order].tolist()))
