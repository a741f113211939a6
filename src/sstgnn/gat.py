"""Graph attention over signed adjacency: consistency and inconsistency.

One single-head GAT layer, shared by both passes and run as one fused
op: h = Wx is computed once, then each pass scores its own edges, masks
them to its support, takes the softmax and aggregates. The softmax is
undefined over negative weights, so attention runs on the support (the
nonzero signs) and each message is multiplied by the edge sign. The
consistency pass uses the positive spatial + temporal edges (+1 signs);
the inconsistency pass uses the tile blocks and the -1 temporal entries.
Every node has a +1 self-loop in both passes, so no softmax row is
empty. The layer returns both passes' rows side by side, [h_c || h_ic],
which `spatial_fuse` pools per clip and maps without a concat.

Each pass runs over dense blocks of its own support, never a dense
M x M mask: a block of b nodes of one frame holds each row's signs
against the block's nodes and the row's twins in frames t - 1 and
t + 1, a (b, b + 2) array per frame (`autodiff.BlockLayout`). The
consistency pass is one block of a frame's N nodes in their own order;
the inconsistency pass is one block per complete tile, in the
tile-major order of `differential.tile_ids`, plus a block of one node
(its self-loop and twins) for each node outside every complete tile,
or every node with the differential off. Passes of one block shape and
one order run stacked in one batched matmul. `build_adjacency` returns
the passes as a tuple of int8 block layouts, which
`autodiff.frame_attention` checks on every call.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .differential import tile_ids, tile_pattern
from .graphs import VideoGraph


@functools.lru_cache(maxsize=16)
def _inconsistency_blocks(grid_h, grid_w, tile):
    """The inconsistency pass's blocks of one frame, as (order, (b, b)
    `tile_pattern`): the complete tiles of ``tile`` in tile-major order,
    b = tile², then the nodes outside every complete tile, b = 1; every
    node alone when ``tile`` is None (the differential off). An order
    that is the frame's own is None; the arrays are cached read-only."""
    n = grid_h * grid_w
    ids = tile_ids(grid_h, grid_w, tile) if tile else np.empty((0, 1), dtype=int)
    blocks = []
    for order, b in ((ids.ravel(), ids.shape[1]), (np.setdiff1d(np.arange(n), ids), 1)):
        if len(order):
            pattern = tile_pattern(b).astype(np.int8)
            order.flags.writeable = pattern.flags.writeable = False
            blocks.append((None if np.array_equal(order, np.arange(n)) else order, pattern))
    return tuple(blocks)


def build_adjacency(graph: VideoGraph, tile) -> tuple:
    """Both passes over ``graph`` as a tuple of int8 `autodiff.BlockLayout`s:
    the consistency pass's positive frame edges and twins, one block of
    the frame, then the inconsistency pass's blocks of ``tile`` (None:
    the differential off, every node alone) and -1 twins, each pass with
    a +1 self-loop on every node. When both are one block of the frame,
    they are stacked."""
    n, frames, (clips, pairs, _) = graph.patches_per_frame, graph.frames, graph.twins.shape
    consistency = np.zeros((frames, 1, n, 1, n + 2), dtype=np.int8)
    np.greater(graph.blocks, 0, out=consistency[:, 0, :, 0, :n])
    consistency[:, 0, np.arange(n), 0, np.arange(n)] = 1
    passes = [(None, consistency, graph.twins > 0, 0)]
    for order, pattern in _inconsistency_blocks(graph.grid_h, graph.grid_w, tile):
        b = len(pattern)
        sign = np.zeros((frames, (n if order is None else len(order)) // b, b, 1, b + 2),
                        dtype=np.int8)
        sign[..., 0, :b] = pattern
        passes.append((order, sign, -(graph.twins < 0).astype(np.int8), 1))
    layouts = []
    for order, sign, twins, p in passes:
        _, groups, b, _, _ = sign.shape
        # a twin edge in both of its rows: frame f + 1's previous twin
        # and frame f's next one
        per_clip = sign.reshape(clips, pairs + 1, groups, b, b + 2)
        per_clip[:, 1:, ..., b] = per_clip[:, :-1, ..., b + 1] = (
            twins if order is None else twins[..., order]).reshape(clips, pairs, groups, b)
        layouts.append(ad.BlockLayout(order, sign, (p,)))
    if len(layouts) == 2 and layouts[1].order is None and layouts[1].sign.shape[1] == 1:
        layouts = [ad.BlockLayout(None, np.concatenate([lay.sign for lay in layouts],
                                                       axis=3), (0, 1))]
    return tuple(layouts)


def gat_forward(x, layouts, weight, attention):
    """Signed single-head attention layer over `build_adjacency`'s ``layouts``.

    h = xW, with ``weight`` the (d, d) shared map, is computed once for
    every pass (`autodiff.frame_attention`); each pass scores its own
    edges, e_ij = LeakyReLU(a . [h_i || h_j]) with ``attention`` the
    (2d,) vector a, and takes the masked softmax over its own support
    (sign != 0), node i aggregates sum_j alpha_ij s_ij h_j, and the
    result passes through LeakyReLU. Returns (M, P d): row i holds the
    passes' outputs side by side. Every softmax row has support: each
    node has its self-loop.
    """
    x = ad.as_tensor(x)
    d = weight.data.shape[0]
    if x.data.shape[1] != d:
        raise ValueError(f"feature dim {x.data.shape[1]} != layer dim {d}")
    h = ad.matmul(x, weight)
    return ad.leaky_relu(ad.frame_attention(h, attention, layouts))


def spatial_fuse(h, weight, bias, graph: VideoGraph):
    """Mean-pool the fused rows [h_c || h_ic] of each of the graph's equal
    clips, then affine-map each clip's pooled row to d: one (clips, d)
    row per clip. The map is affine, so this is map-then-pool up to
    rounding; each clip's row is its own (1, 2d) x (2d, d) product, so a
    batch gives each clip the bits it gets alone."""
    clips = graph.clips
    if h.shape[0] != graph.node_count:
        raise ValueError(f"{h.shape[0]} node rows do not split into the graph's "
                         f"{clips} clips of {graph.node_count // clips} nodes")
    pooled = ad.mean(ad.reshape(h, (clips, -1, h.shape[1])), axis=1, keepdims=True)
    fused = ad.add(ad.matmul(pooled, weight), bias)
    return ad.reshape(fused, (clips, fused.shape[2]))
