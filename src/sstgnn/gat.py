"""Graph attention over signed adjacency: consistency and inconsistency.

One single-head GAT layer, shared by both passes and run as one fused
op: h = Wx and the concatenation attention scores are computed once,
then each pass masks them to its edge support, takes the softmax and
aggregates. The softmax is undefined over negative weights, so attention
runs on the support (the nonzero signs) and each message is multiplied
by the edge sign. The consistency pass uses the positive spatial +
temporal edges (+1 signs); the inconsistency pass uses the tile blocks
and the -1 temporal entries. `SignedAdjacency` adds any missing
self-loop (+1), so no softmax row is empty. The layer returns both
passes' rows side by side, [h_c || h_ic], which `spatial_fuse` maps
without a concat.

Each adjacency is one signed (T, N, N + 2) frame layout (see
`graphs.to_layout`), built straight from the graph's frame blocks, twin
edges and tile block: node (t, i) attends over frame t's nodes and its
twins in frames t - 1 and t + 1, never over a dense M x M mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .differential import NegativeSpatialAdjacency
from .graphs import VideoGraph, to_layout


@dataclass
class GatParams:
    weight: ad.Tensor   # (d, d) shared linear map
    attention: ad.Tensor  # (2d,) concatenation attention vector


@dataclass(frozen=True)
class SignedAdjacency:
    """A {-1, 0, +1} sign per edge, held as one (T, N, N + 2) frame
    layout; the edge support is where the sign is nonzero. Every node
    gets a self-loop: a missing one is added with sign +1, an existing
    one keeps its sign.
    """

    sign: np.ndarray

    def __post_init__(self):
        sign = np.asarray(self.sign, dtype=float)
        if sign.ndim != 3 or sign.shape[2] != sign.shape[1] + 2:
            raise ValueError(f"sign {sign.shape} is not a (T, N, N + 2) "
                             f"frame layout")
        n = sign.shape[1]
        if sign[0, :, n].any() or sign[-1, :, n + 1].any():
            raise ValueError("twin entry beyond the first or last frame")
        diag = np.arange(n)
        missing = sign[:, diag, diag] == 0
        if missing.any():
            sign = sign.copy()
            sign[:, diag, diag] += missing   # an absent loop's sign is 0
        object.__setattr__(self, "sign", sign)

    @property
    def support(self):
        return self.sign != 0


def consistency_adjacency(graph: VideoGraph) -> SignedAdjacency:
    return SignedAdjacency(to_layout(graph.blocks > 0, graph.twins > 0))


def inconsistency_adjacency(graph: VideoGraph,
                            neg: NegativeSpatialAdjacency | None) -> SignedAdjacency:
    block = np.zeros(graph.blocks.shape[1:]) if neg is None else neg.block
    return SignedAdjacency(to_layout(np.sign(block),
                                     np.minimum(np.sign(graph.twins), 0.0)))


def gat_forward(x, adjacencies, params: GatParams):
    """Signed single-head attention layer, one pass per adjacency.

    h = xW and the scores e_ij = LeakyReLU(a . [h_i || h_j]) are
    computed once for every pass (`autodiff.frame_attention`); each
    pass takes the masked softmax over its own support (sign != 0), node
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
        h, params.attention, [adj.sign for adj in adjacencies]))


def spatial_fuse(h, weight, bias, clips=1):
    """Affine-map each node's fused row [h_c || h_ic] to d and mean-pool
    the nodes of each of ``clips`` equal clips: one (clips, d) row per
    clip."""
    fused = ad.add(ad.matmul(h, weight), bias)
    return ad.mean(ad.reshape(fused, (clips, -1, fused.shape[1])), axis=1)
