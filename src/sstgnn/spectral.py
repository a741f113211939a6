"""Graph-spectral filtering: Laplacian, eigenbasis, learnable gains.

The symmetrized normalized Laplacian of the nonnegative clip graph is
eigendecomposed, per diagonal block when it splits into several (the
frames of a clip whose bridges all carry -1 differential edges); signals
are filtered as U diag(g) U^T X. Gains come either from a fixed preset
(low/high/band/reject/comb/all-pass on the [0, 2] eigenvalue axis) or
from a small scalar-to-scalar MLP applied to each eigenvalue, which
keeps the learned filter independent of graph size. The eigenbasis is
a constant to backpropagation: gradients flow through the gains and the
signal only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .graphs import VideoGraph, intra_frame_adjacency, patchify, row_normalize, unpatchify

PRESET_KINDS = ("all_pass", "low_pass", "high_pass", "band_pass", "band_reject", "comb")
DEFAULT_EIGEN_CAP = 4096


@dataclass(frozen=True)
class SpectralBasis:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def size(self):
        return self.eigenvalues.shape[0]


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
        if self.kind == "all_pass":
            return np.ones_like(lam)
        if self.kind == "low_pass":
            return low
        if self.kind == "high_pass":
            return high
        if self.kind == "band_pass":
            return band
        if self.kind == "band_reject":
            return 1.0 - band
        return low + band + high


@dataclass
class FilterMlp:
    """Scalar -> scalar gain network, evaluated elementwise on eigenvalues."""

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
        out = ad.add(ad.matmul(h, self.w3), self.b3)
        return ad.reshape(out, (-1,))


def laplacian_from_adjacency(weights) -> np.ndarray:
    """Symmetrized normalized Laplacian I - D^{-1/2} W D^{-1/2}.

    Isolated nodes (zero degree) get a diagonal entry of exactly 1.
    Raises on negative weights: callers select the nonnegative part.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("adjacency must be square")
    if (w < 0).any():
        raise ValueError("adjacency for the Laplacian must be nonnegative")
    deg = w.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    lap = np.eye(w.shape[0]) - inv_sqrt[:, None] * w * inv_sqrt[None, :]
    return (lap + lap.T) / 2


def graph_laplacian(graph: VideoGraph):
    """Laplacian of the nonnegative clip graph: intra-frame edges plus
    the positive temporal bridges."""
    return laplacian_from_adjacency(graph.spatial + graph.temporal_positive)


# below this many nodes one whole-matrix eigh beats finding and stacking
# the diagonal blocks: on per-frame clip Laplacians (single-threaded
# OpenBLAS, 2-vCPU VM) the whole solve won at 56 nodes, 225 vs 240 us,
# and lost at 64, 350-520 vs 250-400 us
BLOCK_SOLVE_MIN = 64
_SYMMETRY_TILE = 128


def _check_symmetric(lap):
    """``np.allclose(lap, lap.T, atol=1e-10)``, element for element, one
    pair of mirrored tiles at a time: exactly equal tiles pass at the cost
    of one comparison, others get the allclose test in both orientations.
    Tiles small enough for cache avoid the strided pass over a full
    transposed copy."""
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("laplacian must be square")
    m, step = lap.shape[0], _SYMMETRY_TILE
    for i in range(0, m, step):
        for j in range(i, m, step):
            upper = lap[i:i + step, j:j + step]
            lower = lap[j:j + step, i:i + step].T
            if (upper == lower).all():
                continue
            if not (np.allclose(upper, lower, atol=1e-10)
                    and np.allclose(lower, upper, atol=1e-10)):
                raise ValueError("laplacian must be symmetric")


def diagonal_blocks(mat) -> np.ndarray:
    """Bounds of the finest split of a square matrix into contiguous
    diagonal blocks with no nonzero entry outside them.

    Returns ascending cut indices from 0 to M; block k spans
    ``bounds[k]:bounds[k + 1]``. A cut after row i is allowed when no
    row up to i reaches a column past i, and no later row reaches a
    column up to i.
    """
    nz = np.asarray(mat) != 0
    m = nz.shape[0]
    rows = np.arange(m)
    has = nz.any(axis=1)
    last = np.where(has, m - 1 - np.argmax(nz[:, ::-1], axis=1), rows)
    first = np.where(has, np.argmax(nz, axis=1), rows)
    reach_down = np.maximum.accumulate(np.maximum(last, rows))
    reach_up = np.minimum.accumulate(np.minimum(first, rows)[::-1])[::-1]
    cut = (reach_down[:-1] <= rows[:-1]) & (reach_up[1:] > rows[:-1])
    return np.concatenate(([0], rows[:-1][cut] + 1, [m]))


def _fix_signs(vec):
    """In place, over the last two axes: negate each column whose first
    component above 1e-12 in magnitude is negative. (A unit column always
    has one; x * -1.0 is exactly -x, and x * 1.0 is x.)"""
    first = np.argmax(np.abs(vec) > 1e-12, axis=-2)[..., None, :]
    lead = np.take_along_axis(vec, first, axis=-2)
    vec *= np.where(lead < 0, -1.0, 1.0)
    return vec


def _eigh(mats):
    try:
        return np.linalg.eigh(mats)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(f"eigendecomposition did not converge: {err}") from err


def _solve_whole(lap) -> SpectralBasis:
    """One eigh over the full matrix."""
    lam, vec = _eigh(lap)
    return SpectralBasis(lam, _fix_signs(vec))


def _solve_blocks(lap, bounds) -> SpectralBasis:
    """One stacked eigh per block size; every block's eigenvector columns
    land at the ranks of their eigenvalues in the merged ascending order,
    zero outside the block's rows."""
    m = lap.shape[0]
    sizes = np.diff(bounds)
    groups = []
    for size in np.unique(sizes):
        idx = bounds[:-1][sizes == size, None] + np.arange(size)
        lam, vec = _eigh(lap[idx[:, :, None], idx[:, None, :]])
        groups.append((idx, lam, _fix_signs(vec)))
    lam_all = np.concatenate([lam.ravel() for _, lam, _ in groups])
    order = np.argsort(lam_all, kind="stable")
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)
    vectors = np.zeros((m, m))
    offset = 0
    for idx, lam, vec in groups:
        pos = rank[offset:offset + lam.size].reshape(lam.shape)
        vectors[idx[:, :, None], pos[:, None, :]] = vec
        offset += lam.size
    return SpectralBasis(lam_all[order], vectors)


def eigendecompose(lap) -> SpectralBasis:
    """Symmetric eigensolve with a deterministic sign convention.

    Eigenvalues ascend; each eigenvector's first component above 1e-12
    in magnitude is made positive. From BLOCK_SOLVE_MIN nodes up, a
    matrix that splits into contiguous diagonal blocks (a clip graph
    whose frames share no positive bridge) is solved block by block;
    the basis spans the same eigenspaces as the whole-matrix solve.
    """
    lap = np.asarray(lap, dtype=np.float64)
    _check_symmetric(lap)
    if lap.shape[0] >= BLOCK_SOLVE_MIN:
        bounds = diagonal_blocks(lap)
        if bounds.size > 2:
            return _solve_blocks(lap, bounds)
    return _solve_whole(lap)


def filter_gains(lam, filt, slope=0.2):
    """Evaluate per-eigenvalue gains; returns a Tensor either way."""
    if isinstance(filt, FilterPreset):
        return ad.constant(filt.gains(lam))
    return filt.gains(lam, slope)


def apply_filter(x, basis: SpectralBasis, gains):
    """U diag(gains) U^T x with the basis held constant under autodiff."""
    x = ad.as_tensor(x)
    gains = ad.as_tensor(gains)
    if x.data.shape[0] != basis.size:
        raise ValueError("signal row count must match the basis size")
    coeffs = ad.matmul(ad.constant(basis.vectors.T), x)
    scaled = ad.mul(ad.reshape(gains, (-1, 1)), coeffs)
    return ad.matmul(ad.constant(basis.vectors), scaled)


def pool_spectral(x_spectral):
    """Mean over the node axis, kept as a (1, d) row."""
    return ad.mean(ad.as_tensor(x_spectral), axis=0, keepdims=True)


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
    filtered = basis.vectors @ (gains[:, None] * (basis.vectors.T @ nodes))
    out = unpatchify(replace(pt, vectors=filtered[None]))
    return out[0, :, :, 0], basis.eigenvalues, gains
