"""Graph attention over signed adjacency: consistency and inconsistency.

One single-head GAT layer, shared by both passes: h = Wx, concatenation
attention scores masked to the edge support, softmax, then aggregation.
The softmax is undefined over negative weights, so attention runs on the
magnitude support and each message is multiplied by the edge sign. The
consistency pass uses the positive spatial + temporal edges (+1 signs);
the inconsistency pass uses the tile blocks and the -1 temporal entries.
Self-loops (+1) are always added so no softmax row is empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .differential import NegativeSpatialAdjacency
from .graphs import VideoGraph


@dataclass
class GatParams:
    weight: ad.Tensor   # (d, d) shared linear map
    attention: ad.Tensor  # (2d,) concatenation attention vector


@dataclass(frozen=True)
class SignedAdjacency:
    """Boolean edge support plus a {-1, 0, +1} sign per supported edge."""

    support: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        if ((self.sign != 0) != self.support).any():
            raise ValueError("sign must be nonzero exactly on the support")

    def with_self_loops(self):
        support = self.support.copy()
        sign = self.sign.copy()
        diag = np.arange(support.shape[0])
        missing = ~support[diag, diag]
        support[diag[missing], diag[missing]] = True
        sign[diag[missing], diag[missing]] = 1.0
        return SignedAdjacency(support, sign)


def consistency_adjacency(graph: VideoGraph) -> SignedAdjacency:
    support = (graph.spatial > 0) | (graph.temporal > 0)
    return SignedAdjacency(support, support.astype(float)).with_self_loops()


def inconsistency_adjacency(graph: VideoGraph,
                            neg: NegativeSpatialAdjacency | None) -> SignedAdjacency:
    combined = np.where(graph.temporal < 0, graph.temporal, 0.0)
    if neg is not None:
        combined = combined + neg.matrix
    return SignedAdjacency(combined != 0, np.sign(combined)).with_self_loops()


def gat_forward(x, adj: SignedAdjacency, params: GatParams, slope=0.2):
    """Signed single-head attention layer.

    e_ij = LeakyReLU(a . [h_i || h_j]) over the magnitude support; alpha
    is the masked softmax; node i aggregates sum_j alpha_ij s_ij h_j and
    passes through LeakyReLU. Missing self-loops are added (+1) so every
    softmax row has support.
    """
    adj = adj.with_self_loops()
    x = ad.as_tensor(x)
    d = params.weight.data.shape[0]
    if x.data.shape[1] != d:
        raise ValueError(f"feature dim {x.data.shape[1]} != layer dim {d}")
    h = ad.matmul(x, params.weight)
    a_self = ad.reshape(params.attention[:d], (d, 1))
    a_peer = ad.reshape(params.attention[d:], (d, 1))
    scores = ad.add(ad.matmul(h, a_self),
                    ad.reshape(ad.matmul(h, a_peer), (1, -1)))
    scores = ad.leaky_relu(scores, slope)
    alpha = ad.masked_softmax(scores, adj.support)
    signed = ad.mul(alpha, ad.constant(adj.sign))
    return ad.leaky_relu(ad.matmul(signed, h), slope)


def spatial_fuse(h_c, h_ic, weight, bias):
    """Concat both passes per node, affine-map to d, mean-pool the nodes."""
    fused = ad.add(ad.matmul(ad.concat([h_c, h_ic], axis=1), weight), bias)
    return ad.mean(fused, axis=0, keepdims=True)
