"""Spatial and temporal differentials as negative edges.

The spatial differential generalizes per-tile anchor subtraction (NPR)
to graph nodes: within every l0 x l0 tile of the patch grid, the anchor
(top-left) node gets -1 edges to the rest of the tile and every node a
+1 self edge. That pattern is one (N, N) block, the same in every
frame; the model path reads it only as tile² slots per node
(`tile_slots`). The dense block (`build_spatial_negative`) is the
reference form: one linear propagation over it reproduces the
pixel-level NPR exactly on non-anchor nodes, which `theorem1_check`
verifies. The temporal
differential concatenates each node with its next-frame twin through an
affine map and adds -1 edges between the pair, overwriting any positive
bridge edge at the same slot. Both stay inside one clip of a batch
graph: the tile block acts per frame, and twins are held per clip.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .graphs import VideoGraph


@dataclass(frozen=True)
class NegativeSpatialAdjacency:
    """Per-tile +-1 blocks: one (N, N) ``block``, the same in every
    frame; zero outside complete tiles."""

    tile: int
    block: np.ndarray     # (N, N) entries in {-1, 0, 1}
    anchors: np.ndarray   # node indices of the tile anchors in one frame

    @property
    def anchor_mask(self):
        """One frame's (N,) mask of its tile anchors."""
        mask = np.zeros(self.block.shape[0], dtype=bool)
        mask[self.anchors] = True
        return mask


def npr_reference(grid, tile) -> np.ndarray:
    """Brute-force per-tile anchor subtraction on a 2-D grid.

    Each tile x tile block is replaced by differences from its top-left
    element; dims not divisible by ``tile`` are center-cropped first.
    """
    if tile < 1:
        raise ValueError("tile size must be >= 1")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("expected a 2-D grid")
    h, w = grid.shape
    gh, gw = h // tile, w // tile
    if gh < 1 or gw < 1:
        raise ValueError("grid smaller than one tile")
    top, left = (h - gh * tile) // 2, (w - gw * tile) // 2
    crop = grid[top:top + gh * tile, left:left + gw * tile]
    blocks = crop.reshape(gh, tile, gw, tile)
    anchors = blocks[:, :1, :, :1]
    return (blocks - anchors).reshape(gh * tile, gw * tile)


def tile_ids(grid_h, grid_w, tile):
    """The (tiles, tile²) node ids of one frame's complete tiles: one row
    per tile in (tile row, tile column) order, the tile's nodes
    row-major, so the anchor comes first. Trailing partial tiles are
    skipped."""
    if tile < 1:
        raise ValueError("tile size must be >= 1")
    ti, tj, a, b = np.ix_(np.arange(grid_h // tile), np.arange(grid_w // tile),
                          np.arange(tile), np.arange(tile))
    return ((ti * tile + a) * grid_w + tj * tile + b).reshape(-1, tile * tile)


def tile_slots(grid_h, grid_w, tile):
    """One frame's tile block as the inconsistency pass's slots in the
    attention's column table (`gat.slot_columns`), k = tile² (1 when no
    tile is complete): ``sign`` (N, k) holds row i's block entries at the
    frame columns ``index[i, :k]``, and ``index`` (N, k + 2) ends on the
    twins' columns N and N + 1. A row's columns are distinct, its own
    first.

    A tile node's row lists its tile, from itself on in cyclic order.
    The anchor's signs are +1 on itself and -1 on its tile mates; a
    mate's are +1 on itself, -1 on the anchor and 0 on the other mates.
    A node outside every complete tile has an all-zero row over itself
    and the next k - 1 columns (mod N).
    """
    n = grid_h * grid_w
    ids = tile_ids(grid_h, grid_w, tile)
    k = ids.shape[1] if len(ids) else 1
    index = np.empty((n, k + 2), dtype=int)
    index[:, :k] = (np.arange(n)[:, None] + np.arange(k)) % n
    index[:, k:] = n, n + 1
    sign = np.zeros((n, k))
    if len(ids):
        # row a of the rotation starts on tile position a
        rotate = (np.arange(k)[:, None] + np.arange(k)) % k
        pattern = np.eye(k)
        pattern[0, 1:] = pattern[1:, 0] = -1.0
        index[ids, :k] = ids[:, rotate]
        sign[ids] = pattern[np.arange(k)[:, None], rotate]
    return index, sign


def negative_spatial_matrix(grid_h, grid_w, tile):
    """One frame's (N, N) tile-block matrix, `tile_slots` scattered into
    their columns, and its anchors."""
    index, sign = tile_slots(grid_h, grid_w, tile)
    n = len(index)
    mat = np.zeros((n, n))
    mat[np.arange(n)[:, None], index[:, :-2]] = sign
    return mat, tile_ids(grid_h, grid_w, tile)[:, 0]


def build_spatial_negative(graph: VideoGraph, tile) -> NegativeSpatialAdjacency:
    return NegativeSpatialAdjacency(
        tile, *negative_spatial_matrix(graph.grid_h, graph.grid_w, tile))


def sgc_aggregate(x, neg: NegativeSpatialAdjacency) -> np.ndarray:
    """Single linear propagation X' = A_ns X (no attention, no
    activation), applied as the tile block to each N-row frame of x."""
    x = np.asarray(x, dtype=np.float64)
    frames = x.reshape(-1, len(neg.block), x[0].size)
    return (neg.block @ frames).reshape(x.shape)


def theorem1_check(image, tile):
    """Compare graph-side aggregation against pixel NPR at one pixel/node.

    Builds the tile matrix for a single frame whose nodes are the pixels
    themselves, propagates once, and measures deviation from the
    reference. Non-anchor positions must agree exactly; the anchor rows
    aggregate to (anchor - sum of tile mates) and are reported apart.

    Returns (passed, max_nonanchor_deviation, max_anchor_deviation).
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if tile < 1 or h % tile or w % tile:
        raise ValueError(f"image dims {h} x {w} must be divisible by the tile "
                         f"size, a positive integer, got {tile}")
    neg = NegativeSpatialAdjacency(tile, *negative_spatial_matrix(h, w, tile))
    propagated = sgc_aggregate(image.reshape(-1, 1), neg).reshape(h, w)
    reference = npr_reference(image, tile)
    dev = np.abs(propagated - reference)
    anchor = neg.anchor_mask.reshape(h, w)
    non_anchor_dev = float(dev[~anchor].max()) if (~anchor).any() else 0.0
    anchor_dev = float(dev[anchor].max()) if anchor.any() else 0.0
    return non_anchor_dev == 0.0, non_anchor_dev, anchor_dev


def temporal_concat(x, graph: VideoGraph, weight, bias):
    """Affine map over [x_t ; x_{t+1}] per node; last frame self-pairs.

    ``x`` is an (M, d) Tensor over the graph's clips stacked along the
    frame axis; output has the same shape. Only frames t and t+1 of
    one clip feed node t: the next-frame half is each clip shifted up
    one frame, with that clip's own last frame repeated.
    """
    n, d = graph.patches_per_frame, x.shape[1]
    frames = ad.reshape(x, (graph.clips, -1, n * d))
    nxt = ad.concat([frames[:, 1:], frames[:, -1:]], axis=1)
    nxt = ad.reshape(nxt, x.shape)
    return ad.add(ad.matmul(ad.concat([x, nxt], axis=1), weight), bias)


def add_temporal_negative(graph: VideoGraph) -> VideoGraph:
    """Set the twin edge of every coordinate pair inside a clip to -1.

    Overwrites coincident positive bridge edges; spatial entries are
    untouched. Returns a new graph.
    """
    return replace(graph, twins=np.full(graph.twins.shape, -1.0))
