"""Spatial and temporal differentials as negative edges.

The spatial differential generalizes per-tile anchor subtraction (NPR)
to graph nodes: within every l0 x l0 tile of the patch grid, the anchor
(top-left) node gets -1 edges to the rest of the tile and every node a
+1 self edge. Its one form is the (tile², tile²) `tile_pattern` block
over each row of `tile_ids`, the same in every frame, as the attention
reads it; one linear propagation through those blocks reproduces the
pixel-level NPR exactly on non-anchor nodes (`theorem1_check`). The
temporal differential concatenates each node with its next-frame twin
through an affine map and adds -1 edges between the pair, overwriting
any positive bridge edge at the same slot. Both stay inside one clip of
a batch graph: the tile blocks act per frame, twins are held per clip.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad

if TYPE_CHECKING:
    from .graphs import VideoGraph


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


def tile_pattern(k):
    """The (k, k) block of one tile of k nodes, anchor first: +1 on the
    diagonal, -1 between the anchor and each tile mate."""
    pattern = np.eye(k)
    pattern[0, 1:] = pattern[1:, 0] = -1.0
    return pattern


def theorem1_check(image, tile):
    """Compare graph-side aggregation against pixel NPR at one pixel/node.

    Gathers each tile's pixels (one node each) by `tile_ids`, propagates
    them once through `tile_pattern`, scatters them back and measures the
    deviation from the reference. Non-anchor positions must agree exactly;
    the anchor rows aggregate to (anchor - sum of tile mates), reported apart.

    Returns (passed, max_nonanchor_deviation, max_anchor_deviation).
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if not image.size:
        raise ValueError(f"image dims {h} x {w} hold no pixel")
    if tile < 1 or h % tile or w % tile:
        raise ValueError(f"image dims {h} x {w} must be divisible by the tile "
                         f"size, a positive integer, got {tile}")
    ids = tile_ids(h, w, tile)
    propagated = np.empty(h * w)
    propagated[ids] = image.reshape(-1)[ids] @ tile_pattern(ids.shape[1])
    dev = np.abs(propagated - npr_reference(image, tile).reshape(-1))
    non_anchor_dev = float(dev[ids[:, 1:]].max(initial=0.0))
    anchor_dev = float(dev[ids[:, 0]].max())
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
