"""Graph attention over signed adjacency: consistency and inconsistency.

One single-head GAT layer, shared by both passes and run as one fused
op: h = Wx is computed once, then each pass scores its own edge slots,
masks them to its support, takes the softmax and aggregates. The
softmax is undefined over negative weights, so attention runs on the
support (the nonzero signs) and each message is multiplied by the edge
sign. The consistency pass uses the positive spatial + temporal edges
(+1 signs); the inconsistency pass uses the tile blocks and the -1
temporal entries. `SignedAdjacency` adds any missing self-loop (+1), so
no softmax row is empty. The layer returns both passes' rows side by
side, [h_c || h_ic], which `spatial_fuse` pools per clip and maps
without a concat.

Both passes are one slot table, never a dense M x M mask: each slot of
node (t, i) names a column of the (T, N, N + 2) frame layout
(`graphs.to_layout`), a node of frame t or a twin in frame t - 1 or
t + 1. The consistency pass, mostly supported, reads every column; the
inconsistency pass reads its tile and the twins. The column table is
one `autodiff.SlotTable`, checked once and cached per grid and tile
(`slot_columns`); a forward writes only the signs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .differential import tile_slots
from .graphs import VideoGraph


@dataclass
class GatParams:
    weight: ad.Tensor   # (d, d) shared linear map
    attention: ad.Tensor  # (2d,) concatenation attention vector


@dataclass(frozen=True)
class SignedAdjacency:
    """A {-1, 0, +1} sign per edge slot of P passes, one (T, N, ΣK)
    array over the `autodiff.SlotTable` that `autodiff.frame_attention`
    reads it by; a pass's support is where its sign is nonzero. Every
    node gets a self-loop in every pass: a missing one is added with sign
    +1, an existing one keeps its sign."""

    sign: np.ndarray
    table: ad.SlotTable

    def __post_init__(self):
        sign, table = np.asarray(self.sign, dtype=float), self.table
        if sign.ndim != 3 or sign.shape[1:] != table.index.shape:
            raise ValueError(f"sign {sign.shape} is not a (T, N, ΣK) slot "
                             f"table of the (N, ΣK) index {table.index.shape}")
        ends = np.array([*table.starts[1:], sign.shape[2]])
        if sign[0, :, ends - 2].any() or sign[-1, :, ends - 1].any():
            raise ValueError("twin entry beyond the first or last frame")
        rows = np.arange(sign.shape[1])[:, None]
        missing = sign[:, rows, table.loops] == 0
        if missing.any():
            sign = sign.copy()
            sign[:, rows, table.loops] += missing   # an absent loop's sign is 0
        object.__setattr__(self, "sign", sign)

    @property
    def support(self):
        return self.sign != 0


@functools.lru_cache(maxsize=16)
def slot_columns(grid_h, grid_w, tile):
    """Both passes' `autodiff.SlotTable` and the inconsistency pass's
    (N, k) node signs: the `differential.tile_slots` with +1 in an empty
    self slot; those of tile 1, the self slot alone, when ``tile`` is
    None (the differential off). Cached per grid and tile, the signs
    read-only."""
    n = grid_h * grid_w
    own, sign = tile_slots(grid_h, grid_w, 1 if tile is None else tile)
    sign[:, 0] += sign[:, 0] == 0
    sign.flags.writeable = False
    index = np.hstack([np.tile(np.arange(n + 2), (n, 1)), own])
    return ad.SlotTable(index, (0, n + 2)), sign


def build_adjacency(graph: VideoGraph, tile) -> SignedAdjacency:
    """Both passes over ``graph`` in one sign table: the consistency
    pass's positive frame edges and twins, then the inconsistency pass's
    slots of ``tile`` (None: the differential off, the self slot alone)
    and -1 twins, with the +1 self-loops `SignedAdjacency` would add."""
    n, (clips, pairs, _) = graph.patches_per_frame, graph.twins.shape
    table, tile_sign = slot_columns(graph.grid_h, graph.grid_w, tile)
    sign = np.zeros((graph.frames, n, table.index.shape[1]))
    np.greater(graph.blocks, 0, out=sign[:, :, :n])
    sign[:, np.arange(n), np.arange(n)] = 1.0
    sign[:, :, n + 2:-2] = tile_sign
    # a twin edge in both of its rows: frame f + 1's previous twin slot
    # and frame f's next one
    per_clip = sign.reshape(clips, pairs + 1, n, -1)
    per_clip[:, 1:, :, n] = per_clip[:, :-1, :, n + 1] = graph.twins > 0
    negative = np.where(graph.twins < 0, -1.0, 0.0)
    per_clip[:, 1:, :, -2] = per_clip[:, :-1, :, -1] = negative
    return SignedAdjacency(sign, table)


def gat_forward(x, adjacency: SignedAdjacency, params: GatParams):
    """Signed single-head attention layer, one pass per segment of the
    adjacency's slot table.

    h = xW is computed once for every pass (`autodiff.frame_attention`);
    each pass scores its own slots, e_ij = LeakyReLU(a . [h_i || h_j]),
    and takes the masked softmax over its own support (sign != 0), node
    i aggregates sum_j alpha_ij s_ij h_j, and the result passes through
    LeakyReLU. Returns (M, P d): row i holds the passes' outputs side by
    side. Every softmax row has support: each node has its self-loop.
    """
    x = ad.as_tensor(x)
    d = params.weight.data.shape[0]
    if x.data.shape[1] != d:
        raise ValueError(f"feature dim {x.data.shape[1]} != layer dim {d}")
    h = ad.matmul(x, params.weight)
    return ad.leaky_relu(ad.frame_attention(h, params.attention, adjacency.sign,
                                            adjacency.table))


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
