"""Graph-spectral filtering: Laplacian, eigenbasis, learnable gains.

The symmetrized normalized Laplacian of the nonnegative clip graph is
eigendecomposed per frame when no positive bridge joins the frames (the
default: the temporal differential turns every bridge into a -1 edge),
as one stacked eigh over the (T, N, N) frame Laplacians, and otherwise
per clip, as one stacked eigh over the (B, M, M) clip Laplacians of a
minibatch. A small
scalar-to-scalar MLP maps each eigenvalue to a gain g, which keeps the
learned filter independent of graph size. The detector only mean-pools
the filtered signal U diag(g) U^T X, so `pool_spectral` computes each
clip's pooled row as w^T X with w = U (g * U^T 1) / M, one diagonal
block of U at a time, and never forms the filtered signal; the
eigenbasis is a constant to backpropagation. `apply_filter` forms the
signal in numpy, with fixed preset gains for the image demo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .graphs import (VideoGraph, dense_from_layout, intra_frame_adjacency, patchify,
                     row_normalize, to_layout, unpatchify)

PRESET_KINDS = ("all_pass", "low_pass", "high_pass", "band_pass", "band_reject", "comb")
DEFAULT_EIGEN_CAP = 4096


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenvalues and orthonormal eigenvector columns, per diagonal block.

    Shapes follow the solved matrix, as in ``np.linalg.eigh``: (M,) and
    (M, M) for one whole matrix, (B, n) and (B, n, n) for a stack of B
    diagonal blocks: the frames of a graph, or its clips when bridges
    couple their frames. Eigenvalues ascend within each block.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def size(self):
        return self.eigenvalues.size


@dataclass(frozen=True)
class FilterPreset:
    """Fixed gain profile with band edges on the [0, 2] eigenvalue axis.

    low_pass passes lambda <= low_edge, high_pass lambda > high_edge,
    band_pass the half-open interval between them; the three bands
    partition the axis, so `comb` (their sum) equals all_pass.
    """

    kind: str
    low_edge: float = 0.7
    high_edge: float = 1.3

    def __post_init__(self):
        if self.kind not in PRESET_KINDS:
            raise ValueError(f"unknown preset {self.kind!r}")

    def gains(self, lam):
        lam = np.asarray(lam, dtype=np.float64)
        low = (lam <= self.low_edge).astype(float)
        band = ((lam > self.low_edge) & (lam <= self.high_edge)).astype(float)
        high = (lam > self.high_edge).astype(float)
        return {"all_pass": np.ones_like(lam), "low_pass": low,
                "high_pass": high, "band_pass": band,
                "band_reject": 1.0 - band, "comb": low + band + high}[self.kind]


@dataclass
class FilterMlp:
    """Scalar -> scalar gain network: K eigenvalues to a (K, 1) gain column."""

    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor
    w3: ad.Tensor
    b3: ad.Tensor

    def gains(self, lam, slope=0.2):
        col = ad.constant(np.asarray(lam, dtype=np.float64).reshape(-1, 1))
        h = ad.leaky_relu(ad.add(ad.matmul(col, self.w1), self.b1), slope)
        h = ad.leaky_relu(ad.add(ad.matmul(h, self.w2), self.b2), slope)
        return ad.add(ad.matmul(h, self.w3), self.b3)


def laplacian_from_adjacency(weights) -> np.ndarray:
    """Normalized Laplacian I - D^{-1/2} W D^{-1/2} of a symmetric W.

    ``weights`` is one (M, M) matrix or a (B, n, n) stack of diagonal
    blocks, each taken on its own. W is scaled by the outer product of
    D^{-1/2} with itself, w_ij * (s_i * s_j), so a symmetric W gives an
    exactly symmetric Laplacian. Isolated nodes (zero degree) get a
    diagonal entry of exactly 1. Raises on negative weights: callers
    select the nonnegative part.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim not in (2, 3) or w.shape[-1] != w.shape[-2]:
        raise ValueError("adjacency must be square")
    if (w < 0).any():
        raise ValueError("adjacency for the Laplacian must be nonnegative")
    deg = w.sum(axis=-1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    lap = inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    lap *= w
    return np.subtract(np.eye(w.shape[-1]), lap, out=lap)


def graph_laplacian(graph: VideoGraph):
    """Laplacian of the nonnegative clip graph: intra-frame edges plus
    the positive temporal bridges.

    Without a positive bridge the frames are its diagonal blocks, and it
    is returned as the (T, N, N) stack of frame Laplacians. Any positive
    bridge couples the frames, but never two clips: the clips are then
    its diagonal blocks, each read from its own frame layout, and it is
    returned as the (B, M, M) stack of clip Laplacians, or the one
    (M, M) matrix of a single clip.
    """
    if not (graph.twins > 0).any():
        return laplacian_from_adjacency(graph.blocks)
    n = graph.patches_per_frame
    blocks = graph.blocks.reshape(graph.clips, -1, n, n)
    # pad one row so each clip owns T rows, the last its boundary row
    bridges = np.where(graph.twins > 0, graph.twins, 0.0)
    bridges = np.concatenate([bridges, np.zeros((1, n))])
    bridges = bridges.reshape(graph.clips, -1, n)[:, :-1]
    laps = laplacian_from_adjacency(np.stack([
        dense_from_layout(to_layout(b, t)) for b, t in zip(blocks, bridges)]))
    return laps if graph.clips > 1 else laps[0]


def _check_symmetric(lap):
    """``np.allclose(lap, lap.T, atol=1e-10)``, per block of a stack; an
    exactly symmetric input passes after one comparison."""
    if lap.ndim not in (2, 3) or lap.shape[-1] != lap.shape[-2]:
        raise ValueError("laplacian must be square")
    mirror = lap.swapaxes(-1, -2)
    if not ((lap == mirror).all() or np.allclose(lap, mirror, atol=1e-10)):
        raise ValueError("laplacian must be symmetric")


def _fix_signs(vec):
    """In place, over the last two axes: negate each column whose first
    component above 1e-12 in magnitude is negative. (A unit column always
    has one; x * -1.0 is exactly -x, and x * 1.0 is x.)"""
    first = np.argmax(np.abs(vec) > 1e-12, axis=-2)[..., None, :]
    lead = np.take_along_axis(vec, first, axis=-2)
    vec *= np.where(lead < 0, -1.0, 1.0)
    return vec


def eigendecompose(lap) -> SpectralBasis:
    """Symmetric eigensolve with a deterministic sign convention.

    ``lap`` is one (M, M) matrix, solved whole, or a (B, n, n) stack of
    diagonal blocks (the frames of a clip), solved with one stacked
    eigh. Eigenvalues ascend within each block; each eigenvector's first
    component above 1e-12 in magnitude is made positive.
    """
    lap = np.asarray(lap, dtype=np.float64)
    _check_symmetric(lap)
    try:
        lam, vec = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(f"eigendecomposition did not converge: {err}") from err
    return SpectralBasis(lam, _fix_signs(vec))


def apply_filter(x, basis: SpectralBasis, gains) -> np.ndarray:
    """U diag(gains) U^T x in plain numpy, one diagonal block of U at a
    time; a whole (M, M) basis is one block. ``gains`` follow the
    flattened eigenvalues, ``x`` (M, d) the node order."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != basis.size:
        raise ValueError("signal row count must match the basis size")
    n = basis.vectors.shape[-1]
    blocks = basis.vectors.reshape(-1, n, n)
    coeffs = blocks.swapaxes(1, 2) @ x.reshape(-1, n, x.shape[1])
    scaled = np.asarray(gains, dtype=np.float64).reshape(-1, n, 1) * coeffs
    return (blocks @ scaled).reshape(x.shape)


def pool_spectral(x, basis: SpectralBasis, gains, clips=1):
    """(1/M) 1^T U diag(gains) U^T x, the node mean of the filtered
    signal of each of ``clips`` equal clips of M nodes, as the (clips, d)
    rows w^T x with w = U (gains * U^T 1) / M per diagonal block of U.
    ``gains`` is a column over the flattened eigenvalues, ``x`` in node
    order; the basis is constant to autodiff."""
    if np.shape(gains) != (basis.size, 1):
        raise ValueError(f"gains {np.shape(gains)} must be a ({basis.size}, 1) column")
    n, m = basis.vectors.shape[-1], basis.size // clips
    blocks = basis.vectors.reshape(-1, n, n)
    ones_coeffs = blocks.sum(axis=1).reshape(-1, 1) / m
    w = ad.block_matmul(blocks, ad.mul(gains, ones_coeffs))
    # row k of the selector keeps clip k's nodes, so w^T x pools per clip
    select = np.repeat(np.eye(clips), m, axis=1)
    return ad.matmul(ad.mul(ad.reshape(w, (1, -1)), select), x)


def dirichlet_energy(x, lap):
    """Per-column smoothness x^T L x (lower = smoother on the graph)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return np.einsum("id,ij,jd->d", x, lap, x)


def filter_image_demo(image, preset: FilterPreset, patch_size=1, tau_s=0.6,
                      eps=1e-4, cap=DEFAULT_EIGEN_CAP):
    """Filter a single grayscale image through its own patch graph.

    Nodes are patches (pixels when patch_size is 1); the raw intensities
    of each patch position form the graph signals. Returns the filtered
    image over the cropped region, plus (eigenvalues, gains).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("expected a single-channel 2-D image")
    pt = patchify(image[None, :, :, None], patch_size)
    nodes = pt.vectors[0]
    if nodes.shape[0] > cap:
        raise ValueError(
            f"{nodes.shape[0]} nodes exceed the dense eigensolve cap ({cap})")
    adj = intra_frame_adjacency(row_normalize(nodes, eps), tau_s)
    basis = eigendecompose(laplacian_from_adjacency(adj))
    gains = preset.gains(basis.eigenvalues)
    filtered = apply_filter(nodes, basis, gains)
    out = unpatchify(replace(pt, vectors=filtered[None]))
    return out[0, :, :, 0], basis.eigenvalues, gains
