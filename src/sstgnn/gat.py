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
side, [h_c || h_ic], which `spatial_fuse` maps without a concat.

An adjacency is a (T, N, K) slot table: node (t, i) attends over K - 2
nodes of frame t and its twins in frames t - 1 and t + 1, never over a
dense M x M mask. The consistency pass, mostly supported, is the dense
frame layout (see `graphs.to_layout`), whose K - 2 = N slots are frame
t's nodes. The inconsistency pass reads only its tile: one
(N, tile² + 2) table of frame-layout columns shared by every frame, so
K = tile² + 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .differential import NegativeSpatialAdjacency, tile_slots
from .graphs import VideoGraph, to_layout


@dataclass
class GatParams:
    weight: ad.Tensor   # (d, d) shared linear map
    attention: ad.Tensor  # (2d,) concatenation attention vector


@dataclass(frozen=True)
class SignedAdjacency:
    """A {-1, 0, +1} sign per edge slot, held as a (T, N, K) table; the
    edge support is where the sign is nonzero. Slot k of row (t, i)
    stands for column ``index[i, k]`` of row (t, i) of the (T, N, N + 2)
    frame layout, one (N, K) table shared by every frame: node
    ``index[i, k]`` of frame t for k < K - 2, then the twins in frames
    t - 1 and t + 1 (columns N and N + 1). A row's columns must be
    distinct and start on node i itself (`differential.tile_slots`
    checks its tables once, when it builds them). ``index`` None is the
    frame layout itself, K = N + 2. Every node gets a self-loop: a
    missing one is added with sign +1, an existing one keeps its sign.
    """

    sign: np.ndarray
    index: np.ndarray | None = None

    def __post_init__(self):
        sign = np.asarray(self.sign, dtype=float)
        index = None if self.index is None else np.asarray(self.index)
        if index is None:
            if sign.ndim != 3 or sign.shape[2] != sign.shape[1] + 2:
                raise ValueError(f"sign {sign.shape} is not a (T, N, N + 2) "
                                 f"frame layout")
        elif (sign.ndim != 3 or sign.shape[2] < 3 or index.dtype.kind not in "iu"
                or index.shape != sign.shape[1:]):
            raise ValueError(f"sign {sign.shape} is not a (T, N, K) slot table "
                             f"of the (N, K) integer index, {index.dtype} "
                             f"{index.shape}")
        rows = np.arange(sign.shape[1])
        loop = rows if index is None else 0    # the self slot of each row
        if sign[0, :, -2].any() or sign[-1, :, -1].any():
            raise ValueError("twin entry beyond the first or last frame")
        missing = sign[:, rows, loop] == 0
        if missing.any():
            sign = sign.copy()
            sign[:, rows, loop] += missing   # an absent loop's sign is 0
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "index", index)

    @property
    def support(self):
        return self.sign != 0


def consistency_adjacency(graph: VideoGraph) -> SignedAdjacency:
    return SignedAdjacency(to_layout(graph.blocks > 0, graph.twins > 0))


def inconsistency_adjacency(graph: VideoGraph,
                            neg: NegativeSpatialAdjacency | None) -> SignedAdjacency:
    """The tile block's slots (only the self slot when the differential
    is off) and the -1 twins."""
    n = graph.patches_per_frame
    if neg is None:    # the self slot, then the twins' columns
        index = np.column_stack((np.arange(n), np.full((n, 2), (n, n + 1))))
        sign = np.zeros((n, 1))
    else:
        index, sign = tile_slots(graph.grid_h, graph.grid_w, neg.tile)
    return SignedAdjacency(to_layout(sign, np.minimum(np.sign(graph.twins), 0.0)),
                           index)


def gat_forward(x, adjacencies, params: GatParams):
    """Signed single-head attention layer, one pass per adjacency.

    h = xW is computed once for every pass (`autodiff.frame_attention`);
    each pass scores its own slots, e_ij = LeakyReLU(a . [h_i || h_j]),
    and takes the masked softmax over its own support (sign != 0), node
    i aggregates sum_j alpha_ij s_ij h_j, and the result passes through
    LeakyReLU. Returns (M, P d): row i holds the P passes' outputs side
    by side, in the order of ``adjacencies``. `SignedAdjacency` holds
    every self-loop, so every softmax row has support.
    """
    x = ad.as_tensor(x)
    d = params.weight.data.shape[0]
    if x.data.shape[1] != d:
        raise ValueError(f"feature dim {x.data.shape[1]} != layer dim {d}")
    h = ad.matmul(x, params.weight)
    return ad.leaky_relu(ad.frame_attention(
        h, params.attention, [adj.sign for adj in adjacencies],
        [adj.index for adj in adjacencies]))


def spatial_fuse(h, weight, bias, graph: VideoGraph):
    """Affine-map each node's fused row [h_c || h_ic] to d and mean-pool
    the nodes of each of the graph's equal clips: one (clips, d) row per
    clip."""
    clips = graph.clips
    if h.shape[0] != graph.node_count:
        raise ValueError(f"{h.shape[0]} node rows do not split into the graph's "
                         f"{clips} clips of {graph.node_count // clips} nodes")
    fused = ad.add(ad.matmul(h, weight), bias)
    return ad.mean(ad.reshape(fused, (clips, -1, fused.shape[1])), axis=1)
