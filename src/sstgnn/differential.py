"""Spatial and temporal differentials as negative edges.

The spatial differential generalizes per-tile anchor subtraction (NPR)
to graph nodes: within every l0 x l0 tile of the patch grid, the anchor
(top-left) node gets -1 edges to the rest of the tile and every node a
+1 self edge. One linear propagation over that matrix reproduces the
pixel-level NPR exactly on non-anchor nodes, which `theorem1_check`
verifies. The temporal differential concatenates each node with its
next-frame twin through an affine map and adds -1 edges between the
pair, overwriting any positive bridge edge at the same slot. Both stay
inside one clip when a minibatch's clips share one frame-stacked graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graphs import VideoGraph, dense_from_layout, to_layout


@dataclass(frozen=True)
class NegativeSpatialAdjacency:
    """Per-tile +-1 blocks, the same in every frame; zero outside
    complete tiles. ``matrix`` is the (M, M) form, built on demand."""

    tile: int
    block: np.ndarray     # (N, N) entries in {-1, 0, 1}
    anchors: np.ndarray   # node indices of the tile anchors in one frame
    frames: int = 1

    @property
    def matrix(self):
        n = self.block.shape[0]
        return dense_from_layout(to_layout(
            self.block, np.zeros((self.frames - 1, n))))

    @property
    def anchor_mask(self):
        mask = np.zeros(self.block.shape[0], dtype=bool)
        mask[self.anchors] = True
        return np.tile(mask, self.frames)


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


def negative_spatial_matrix(frames, grid_h, grid_w, tile):
    """The raw (M, M) tile-block matrix; trailing partial tiles skipped.

    Assignment order inside each block: zero, anchor row = -1, anchor
    column = -1, then diagonal = 1 (last, so the anchor diagonal is 1).
    """
    m = frames * grid_h * grid_w
    t, ti, tj, a, b = np.ix_(np.arange(frames), np.arange(grid_h // tile),
                             np.arange(grid_w // tile), np.arange(tile),
                             np.arange(tile))
    # one row per tile in (frame, tile row, tile column) order; the
    # tile's nodes row-major, the anchor first
    ids = ((t * grid_h + ti * tile + a) * grid_w + tj * tile + b).reshape(
        -1, tile * tile)
    anchors = ids[:, 0]
    mat = np.zeros((m, m))
    mat[anchors[:, None], ids] = -1.0
    mat[ids, anchors[:, None]] = -1.0
    mat[ids, ids] = 1.0
    return mat, anchors


def build_spatial_negative(graph: VideoGraph, tile) -> NegativeSpatialAdjacency:
    if tile < 1:
        raise ValueError("tile size must be >= 1")
    block, anchors = negative_spatial_matrix(1, graph.grid_h, graph.grid_w,
                                             tile)
    return NegativeSpatialAdjacency(tile, block, anchors, graph.frames)


def sgc_aggregate(x, neg: NegativeSpatialAdjacency) -> np.ndarray:
    """Single linear propagation X' = A_ns X (no attention, no activation)."""
    x = np.asarray(x, dtype=np.float64)
    return neg.matrix @ x


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
    if h % tile or w % tile:
        raise ValueError("image dims must be divisible by the tile size")
    neg = NegativeSpatialAdjacency(
        tile, *negative_spatial_matrix(1, h, w, tile))
    propagated = sgc_aggregate(image.reshape(-1, 1), neg).reshape(h, w)
    reference = npr_reference(image, tile)
    dev = np.abs(propagated - reference)
    anchor = neg.anchor_mask.reshape(h, w)
    non_anchor_dev = float(dev[~anchor].max()) if (~anchor).any() else 0.0
    anchor_dev = float(dev[anchor].max()) if anchor.any() else 0.0
    return non_anchor_dev == 0.0, non_anchor_dev, anchor_dev


def temporal_concat(x, graph: VideoGraph, weight, bias, clips=1):
    """Affine map over [x_t ; x_{t+1}] per node; last frame self-pairs.

    ``x`` is an (M, d) Tensor over ``clips`` equal clips stacked along
    the frame axis; output has the same shape. Only frames t and t+1 of
    one clip feed node t: the next-frame half is each clip shifted up
    one frame, with that clip's own last frame repeated.
    """
    n, d = graph.patches_per_frame, x.shape[1]
    frames = ad.reshape(x, (clips, -1, n * d))
    nxt = ad.concat([frames[:, 1:], frames[:, -1:]], axis=1)
    nxt = ad.reshape(nxt, x.shape)
    return ad.add(ad.matmul(ad.concat([x, nxt], axis=1), weight), bias)


def add_temporal_negative(graph: VideoGraph) -> VideoGraph:
    """Set the twin edge of every coordinate pair inside a clip to -1.

    Overwrites coincident positive bridge edges; spatial entries and the
    rows between two clips of a batch graph are untouched. Returns a new
    graph.
    """
    twins = np.full(graph.twins.shape, -1.0)
    twins[graph.clip_boundaries] = 0.0
    return graph.with_twins(twins)
