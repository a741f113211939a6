"""Graph-spectral filtering: Lanczos Ritz basis, learnable gains.

A small scalar-to-scalar MLP maps each eigenvalue of the normalized
Laplacian L of the nonnegative clip graph to a gain g, which keeps the
learned filter independent of graph size. The detector only mean-pools
the filtered signal g(L) X, so it needs w = g(L) 1 per diagonal block of
L: a frame when no positive bridge joins the frames (the default: the
temporal differential turns every bridge into a -1 edge), else a clip.
`lanczos_basis` runs one batched Lanczos iteration from the all-ones
vector over those blocks, applying L straight from the frame blocks and
the per-clip twins, and returns Ritz pairs from which w follows to
rounding; `pool_spectral` computes each clip's pooled row as w^T X
with w = U (g * U^T 1) / M, one diagonal block of U at a time, and
never forms the filtered signal.
The basis is a constant to backpropagation.

The dense path stays for the identities and the image demo:
`graph_laplacian` forms the blocks of L, `eigendecompose` solves them
with a stacked eigh, and `apply_filter` forms the filtered signal in
numpy, with fixed preset gains for the demo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .graphs import (VideoGraph, dense_from_layout, intra_frame_adjacency, patchify,
                     row_normalize, to_layout, unpatchify)

PRESET_KINDS = ("all_pass", "low_pass", "high_pass", "band_pass", "band_reject", "comb")
LOW_EDGE = 0.7
HIGH_EDGE = 1.3
EIGEN_CAP = 4096


@dataclass(frozen=True)
class SpectralBasis:
    """Eigen- or Ritz values and orthonormal vector columns, per diagonal
    block.

    `eigendecompose` shapes them as ``np.linalg.eigh`` does: (M,) and
    (M, M) for one whole matrix, (B, n) and (B, n, n) for a stack of B
    diagonal blocks, eigenvalues ascending within each block.
    `lanczos_basis` gives (B, k) Ritz values and (B, n, k) Ritz vectors
    for B blocks of n nodes: the frames of a graph, or its clips when
    bridges couple their frames. Block b fills its first ``steps[b]``
    columns (values ascending); the rest are zero vectors with value 0,
    which every pooled row ignores. ``breakdowns[b]`` says that block
    b's run stopped because its Krylov space of 1 was invariant before
    k reached n. Both are None for an eigensolve.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    steps: np.ndarray | None = None
    breakdowns: np.ndarray | None = None

    @property
    def size(self):
        """The number of values (and vector columns)."""
        return self.eigenvalues.size

    @property
    def nodes(self):
        """The number of graph nodes the vectors span."""
        return self.vectors.size // self.vectors.shape[-1]


@dataclass(frozen=True)
class FilterPreset:
    """Fixed gain profile with band edges on the [0, 2] eigenvalue axis.

    low_pass passes lambda <= LOW_EDGE, high_pass lambda > HIGH_EDGE,
    band_pass the half-open interval between them; the three bands
    partition the axis, so `comb` (their sum) equals all_pass.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in PRESET_KINDS:
            raise ValueError(f"unknown preset {self.kind!r}")

    def gains(self, lam):
        lam = np.asarray(lam, dtype=np.float64)
        low = (lam <= LOW_EDGE).astype(float)
        band = ((lam > LOW_EDGE) & (lam <= HIGH_EDGE)).astype(float)
        high = (lam > HIGH_EDGE).astype(float)
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

    def gains(self, lam):
        col = ad.constant(np.asarray(lam, dtype=np.float64).reshape(-1, 1))
        h = ad.leaky_relu(ad.add(ad.matmul(col, self.w1), self.b1))
        h = ad.leaky_relu(ad.add(ad.matmul(h, self.w2), self.b2))
        return ad.add(ad.matmul(h, self.w3), self.b3)


def _inv_sqrt(deg):
    """D^{-1/2} of the degrees ``deg``; 0 for an isolated node."""
    return np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)


def _check_weights(w):
    """Raise unless every weight is finite and >= 0 (a NaN fails both)."""
    if not (w.min(initial=0.0) >= 0 and w.max(initial=0.0) < np.inf):
        raise ValueError("adjacency weights must be finite and nonnegative")


def laplacian_from_adjacency(weights) -> np.ndarray:
    """Normalized Laplacian I - D^{-1/2} W D^{-1/2} of a symmetric W.

    ``weights`` is one (M, M) matrix or a (B, n, n) stack of diagonal
    blocks, each taken on its own. W is scaled by the outer product of
    D^{-1/2} with itself, w_ij * (s_i * s_j), so a symmetric W gives an
    exactly symmetric Laplacian. Isolated nodes (zero degree) get a
    diagonal entry of exactly 1. Raises on a negative or non-finite
    weight: callers select the nonnegative part.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim not in (2, 3) or w.shape[-1] != w.shape[-2]:
        raise ValueError("adjacency must be square")
    _check_weights(w)
    inv_sqrt = _inv_sqrt(w.sum(axis=-1))
    lap = inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    lap *= w
    return np.subtract(np.eye(w.shape[-1]), lap, out=lap)


def graph_laplacian(graph: VideoGraph):
    """Laplacian of the nonnegative clip graph as dense blocks, for
    `eigendecompose` (the model path runs `lanczos_basis` instead).

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
    layout = to_layout(graph.blocks, np.where(graph.twins > 0, graph.twins, 0.0))
    laps = laplacian_from_adjacency(np.stack([
        dense_from_layout(clip) for clip in layout.reshape(graph.clips, -1, n, n + 2)]))
    return laps if graph.clips > 1 else laps[0]


# The Lanczos stop rule, per block. A residual norm below BREAKDOWN
# means the Krylov space of 1 is invariant under L: its Ritz pairs are
# exact. Otherwise, every CHECK_EVERY steps from 2 * CHECK_EVERY on,
# the pooling direction w = g(L) 1 is compared with its value
# CHECK_EVERY steps back, and the block stops once the two agree to
# CONVERGED relative to |w|.
BREAKDOWN = 1e-12
CHECK_EVERY = 8
CONVERGED = 1e-13


def _ritz(alpha, beta):
    """Eigenpairs of the (b, k, k) Lanczos tridiagonals with diagonals
    ``alpha`` (b, k) and off-diagonals ``beta`` (b, k - 1)."""
    b, k = alpha.shape
    tri = np.zeros((b, k, k))
    flat = tri.reshape(b, k * k)
    flat[:, ::k + 1] = alpha
    flat[:, 1::k + 1] = beta    # entries (i, i + 1)
    flat[:, k::k + 1] = beta    # entries (i + 1, i)
    try:
        return np.linalg.eigh(tri)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(f"eigendecomposition did not converge: {err}") from err


def lanczos_basis(graph: VideoGraph, gains) -> SpectralBasis:
    """Ritz pairs of the Laplacian of the nonnegative clip graph
    (intra-frame edges plus the positive bridges), per diagonal block,
    from a Lanczos run started at the all-ones vector.

    The blocks are the frames while no positive bridge joins them, else
    the clips. The run only ever applies L q = q - s * (W (s * q)),
    s = D^{-1/2}, to the (F, N) frames of a block: W is the block's own
    frame adjacencies plus, when its F > 1 frames are coupled, the
    bridges between twins; no Laplacian or (M, M) array is formed. Each
    step is orthogonalized twice against every earlier Lanczos vector.

    ``gains`` maps an array of Ritz values to the filter's gains at them
    (as many entries, any shape); the stop rule reads w = g(L) 1 under
    it. A block stops at the first of: k = n steps, a residual norm below
    ``BREAKDOWN``, or w converged (see ``CONVERGED``). Its k Ritz values
    Θ and Ritz vectors V_k S, S the eigenvectors of the tridiagonal
    T_k = S Θ S^T, form the first k columns of its block; the rest are
    zero padding. Then V_k S g(Θ) S^T V_k^T 1 = |1| V_k S g(Θ) S^T e_1
    approximates g(L) 1 to the stop rule's tolerance, for any gauge of S.
    """
    n_frame = graph.patches_per_frame
    frames = graph.twins.shape[1] + 1 if (graph.twins > 0).any() else 1
    weights = graph.blocks.reshape(-1, frames, n_frame, n_frame)
    _check_weights(weights)
    deg = weights.sum(axis=-1)
    twins = None    # the positive bridges inside each block of F > 1 frames
    if frames > 1:
        twins = np.where(graph.twins > 0, graph.twins, 0.0)
        _check_weights(twins)
        deg[:, 1:] += twins
        deg[:, :-1] += twins
    scale = _inv_sqrt(deg)
    blocks, n = len(weights), frames * n_frame

    def apply(q):
        """L q for the active blocks, q (b, n)."""
        u = scale * q.reshape(scale.shape)
        y = np.matvec(weights, u)
        if twins is not None:
            y[:, 1:] += twins * u[:, :-1]
            y[:, :-1] += twins * u[:, 1:]
        y *= scale
        return q - y.reshape(q.shape)

    # the working set: arrays of the blocks still running, row b of each
    # belonging to block ids[b]
    ids = np.arange(blocks)
    vecs = np.empty((blocks, min(n, 8 * CHECK_EVERY), n))
    vecs[:, 0] = 1.0 / np.sqrt(n)
    alpha, beta = np.zeros((blocks, n)), np.zeros((blocks, n))
    previous = None
    steps = np.zeros(blocks, dtype=np.intp)
    breakdowns = np.zeros(blocks, dtype=bool)
    done = []       # (block ids, Ritz values, Ritz vectors) per stop
    for j in range(n):
        k = j + 1
        z = apply(vecs[:, j])
        krylov = vecs[:, :k]
        h = np.matvec(krylov, z)
        z -= np.vecmat(h, krylov)
        again = np.matvec(krylov, z)
        z -= np.vecmat(again, krylov)
        alpha[:, j] = h[:, j] + again[:, j]
        beta[:, j] = np.sqrt(np.vecdot(z, z))
        ritz = None
        if k == n:
            stop = np.ones(len(ids), dtype=bool)
            broke = ~stop
        else:
            stop = broke = beta[:, j] < BREAKDOWN
            if k % CHECK_EVERY == 0 and not broke.all():
                lam, vec = ritz = _ritz(alpha[:, :k], beta[:, :k - 1])
                # w in the Lanczos basis: S g(Θ) S^T e_1, up to |1| / M
                g = np.reshape(gains(lam), lam.shape)
                w = np.matvec(vec, vec[:, 0] * g)
                if previous is not None:
                    change = w.copy()
                    change[:, :k - CHECK_EVERY] -= previous
                    stop = broke | (np.vecdot(change, change)
                                    <= CONVERGED ** 2 * np.vecdot(w, w))
                previous = w
        if stop.any():
            keep = ~stop
            last = not keep.any()
            # every block stopping at once is the common case: copy nothing
            rows = slice(None) if last else stop
            lam, vec = (ritz[0][rows], ritz[1][rows]) if ritz else _ritz(
                alpha[rows, :k], beta[rows, :k - 1])
            ritz_vectors = np.matmul(krylov[rows].swapaxes(1, 2), vec)
            done.append((ids[rows], lam, ritz_vectors))
            steps[ids[rows]] = k
            breakdowns[ids[rows]] = broke[rows]
            if last:
                break
            ids, z, vecs, alpha, beta, weights, scale = (a[keep] for a in (
                ids, z, vecs, alpha, beta, weights, scale))
            if twins is not None:
                twins = twins[keep]
            if previous is not None:
                previous = previous[keep]
        if k == vecs.shape[1]:
            vecs = np.concatenate(
                [vecs, np.empty((len(ids), min(k, n - k), n))], axis=1)
        np.divide(z, beta[:, j, None], out=vecs[:, k])

    if len(done) == 1:
        return SpectralBasis(done[0][1], done[0][2], steps, breakdowns)
    width = steps.max()
    values, vectors = np.zeros((blocks, width)), np.zeros((blocks, n, width))
    for rows, lam, vec in done:
        values[rows, :lam.shape[1]] = lam
        vectors[rows, :, :lam.shape[1]] = vec
    return SpectralBasis(values, vectors, steps, breakdowns)


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


def pool_spectral(x, basis: SpectralBasis, gains, graph: VideoGraph):
    """(1/M) 1^T U diag(gains) U^T x, the node mean of the filtered
    signal of each of the graph's equal clips of M nodes, as the
    (clips, d) rows w^T x with w = U (gains * U^T 1) / M per diagonal
    block of U. ``gains`` is a column over the flattened values, ``x``
    in node order; the basis is constant to autodiff."""
    if np.shape(gains) != (basis.size, 1):
        raise ValueError(f"gains {np.shape(gains)} must be a ({basis.size}, 1) column")
    clips = graph.clips
    if basis.nodes != graph.node_count:
        raise ValueError(f"{basis.nodes} basis nodes do not split into the graph's "
                         f"{clips} clips of {graph.node_count // clips} nodes")
    n, k = basis.vectors.shape[-2:]
    m = basis.nodes // clips
    blocks = basis.vectors.reshape(-1, n, k)
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


def filter_image_demo(image, preset: FilterPreset, patch_size=1, tau_s=0.6):
    """Filter a single grayscale image through its own patch graph.

    Nodes are patches (pixels when patch_size is 1); the raw intensities
    of each patch position form the graph signals. Returns the filtered
    image over the cropped region, plus (eigenvalues, gains). ``tau_s``
    must lie in [0, 1], as in `model.TrainConfig`.
    """
    if not 0.0 <= tau_s <= 1.0:
        raise ValueError(f"tau_s must lie in [0, 1], got {tau_s!r}")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("expected a single-channel 2-D image")
    pt = patchify(image[None, :, :, None], patch_size)
    nodes = pt.vectors[0]
    if nodes.shape[0] > EIGEN_CAP:
        raise ValueError(
            f"{nodes.shape[0]} nodes exceed the dense eigensolve cap ({EIGEN_CAP})")
    adj = intra_frame_adjacency(row_normalize(nodes), tau_s)
    basis = eigendecompose(laplacian_from_adjacency(adj))
    gains = preset.gains(basis.eigenvalues)
    filtered = apply_filter(nodes, basis, gains)
    out = unpatchify(replace(pt, vectors=filtered[None]))
    return out[0, :, :, 0], basis.eigenvalues, gains
