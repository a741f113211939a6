"""Graph attention over signed adjacency: consistency and inconsistency.

One single-head GAT layer, shared by both passes and run as one fused
op: h = Wx and the concatenation attention scores are computed once,
then each pass masks them to its edge support, takes the softmax and
aggregates. The softmax is undefined over negative weights, so attention
runs on the magnitude support and each message is multiplied by the edge
sign. The consistency pass uses the positive spatial + temporal edges
(+1 signs); the inconsistency pass uses the tile blocks and the -1
temporal entries. `SignedAdjacency` adds any missing self-loop (+1), so
no softmax row is empty. The layer returns both passes' rows side by
side, [h_c || h_ic], which `spatial_fuse` maps without a concat.

Adjacency is held in the clip's frame layout (see `graphs.to_layout`),
built straight from the graph's frame blocks and twin edges: node (t, i)
attends over frame t's nodes and its twins in frames t - 1 and t + 1,
never over a dense M x M mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .differential import NegativeSpatialAdjacency
from .graphs import VideoGraph, dense_from_layout, frame_layout, to_layout


@dataclass
class GatParams:
    weight: ad.Tensor   # (d, d) shared linear map
    attention: ad.Tensor  # (2d,) concatenation attention vector


@dataclass(frozen=True)
class SignedAdjacency:
    """Boolean edge support plus a {-1, 0, +1} sign per supported edge.

    Both are (T, N, N + 2) frame layouts. A 2-D (M, M) pair is taken as
    one frame with no twins. Every node gets a self-loop: a missing one
    is added with sign +1, an existing one keeps its sign.
    """

    support: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=bool)
        sign = np.asarray(self.sign, dtype=float)
        if support.ndim == 2 and support.shape[0] == support.shape[1]:
            support, sign = frame_layout(support, 1), frame_layout(sign, 1)
        if (support.ndim != 3 or support.shape[2] != support.shape[1] + 2
                or sign.shape != support.shape):
            raise ValueError(f"support {support.shape} and sign {sign.shape} "
                             f"must share one (T, N, N + 2) frame layout")
        if ((sign != 0) != support).any():
            raise ValueError("sign must be nonzero exactly on the support")
        n = support.shape[1]
        if support[0, :, n].any() or support[-1, :, n + 1].any():
            raise ValueError("twin entry beyond the first or last frame")
        diag = np.arange(n)
        missing = ~support[:, diag, diag]
        if missing.any():
            support, sign = support.copy(), sign.copy()
            support[:, diag, diag] = True
            sign[:, diag, diag] += missing   # an absent loop's sign is 0
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "sign", sign)

    def dense(self):
        """The (M, M) support and sign this layout stands for."""
        return dense_from_layout(self.support), dense_from_layout(self.sign)


def consistency_adjacency(graph: VideoGraph) -> SignedAdjacency:
    support = to_layout(graph.blocks > 0, graph.twins > 0)
    return SignedAdjacency(support, support.astype(float))


def inconsistency_adjacency(graph: VideoGraph,
                            neg: NegativeSpatialAdjacency | None) -> SignedAdjacency:
    block = np.zeros(graph.blocks.shape[1:]) if neg is None else neg.block
    sign = to_layout(np.sign(block), np.minimum(np.sign(graph.twins), 0.0))
    return SignedAdjacency(sign != 0, sign)


def gat_forward(x, adjacencies, params: GatParams, slope=0.2):
    """Signed single-head attention layer, one pass per adjacency.

    h = xW and the scores e_ij = LeakyReLU(a . [h_i || h_j]) are
    computed once for every pass (`autodiff.frame_attention`); each
    pass takes the masked softmax over its own magnitude support, node
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
        h, params.attention, [adj.support for adj in adjacencies],
        [adj.sign for adj in adjacencies], slope), slope)


def spatial_fuse(h, weight, bias, clips=1):
    """Affine-map each node's fused row [h_c || h_ic] to d and mean-pool
    the nodes of each of ``clips`` equal clips: one (clips, d) row per
    clip."""
    fused = ad.add(ad.matmul(h, weight), bias)
    return ad.mean(ad.reshape(fused, (clips, -1, fused.shape[1])), axis=1)
