"""End-to-end detector: encoder, graph assembly, both branches, training.

A forward pass patchifies the clip, encodes the patches once to d-dim
embeddings, builds the clip graph from their detached values, adds the
negative differential edges, and runs two branches on that embedding:
spectral (eigenbasis of the nonnegative graph, learned per-eigenvalue
gains, pooled as one row w^T x without forming the filtered signal) and
spatial (temporal concat, consistency + inconsistency GAT, fusion).
Their pooled outputs concatenate into Z; a head maps Z to 2 logits.

Graph topology and the eigenbasis are recomputed per clip per forward
but excluded from gradients: `build_structure` is a pure function of the
patches, their detached embedding and the config. The finite difference
check holds it constant and re-encodes `structure.patches` in its loss.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import differential, gat, spectral
from .graphs import PatchTensor, VideoGraph, patchify, unified_graph
from .rng import stream
from .synth import FrameSequence, LabeledClip
from .utils import parallel_map

CHECKPOINT_MAGIC = b"SSTG0001"


# accepted Python types per field annotation; bool, an int subclass,
# passes only where the annotation says bool
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}


@dataclass(frozen=True)
class TrainConfig:
    patch_size: int = 32
    tau_s: float = 0.6
    tau_t: float = 0.6
    tile: int = 2
    dim: int = 64
    filter_hidden: int = 16
    channels: int = 1
    lr: float = 1e-4
    batch_size: int = 16
    epochs: int = 30
    seed: int = 0
    eps: float = 1e-4
    leaky_slope: float = 0.2
    use_spectral: bool = True
    use_differential: bool = True
    use_temporal_mlp: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                    f.type != "bool" and isinstance(value, bool)):
                raise ValueError(f"config field {f.name} must be {f.type}, "
                                 f"got {type(value).__name__} {value!r}")
        if not (0.0 <= self.tau_s <= 1.0 and 0.0 <= self.tau_t <= 1.0):
            raise ValueError("thresholds must lie in [0, 1]")
        for name in ("patch_size", "tile", "dim", "batch_size", "epochs",
                     "filter_hidden", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def config_hash(config: TrainConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# "parity" scales d toward the published model size while staying well
# under it; "toy" is the finite-difference check scale.
PRESETS = {
    "desk": {},
    "parity": {"dim": 256},
    "toy": {"patch_size": 2, "dim": 8, "filter_hidden": 4, "batch_size": 2,
            "epochs": 2},
}


def preset_config(name, **overrides) -> TrainConfig:
    base = dict(PRESETS[name])
    base.update(overrides)
    return TrainConfig(**base)


@dataclass
class ModelParams:
    """All trainable tensors, in the fixed order used by checkpoints."""

    tensors: dict

    def named(self):
        return self.tensors

    def __getitem__(self, name) -> ad.Tensor:
        return self.tensors[name]

    def count(self):
        return sum(t.data.size for t in self.tensors.values())

    def copy(self):
        return ModelParams({k: ad.parameter(v.data.copy())
                            for k, v in self.tensors.items()})

    @property
    def filter_mlp(self):
        return spectral.FilterMlp(*(self.tensors[k] for k in (
            "filter.w1", "filter.b1", "filter.w2", "filter.b2",
            "filter.w3", "filter.b3")))

    @property
    def gat(self):
        return gat.GatParams(self.tensors["gat.weight"], self.tensors["gat.attention"])


def _glorot(rng, shape):
    return rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)


# pixel-to-pixel deltas in [0,1] clips sit near 0.05, so unit-norm
# difference kernels would respond two decades below the dense rows;
# this gain standardizes the two feature groups at init
_DIFF_GAIN = 8.0


def _difference_kernel(rng):
    kern = rng.normal(size=(2, 2))
    kern -= kern.mean()
    return _DIFF_GAIN * kern / np.linalg.norm(kern)


def _affine_encoder_init(rng, patch, channels, dim):
    """Dense random projections mixed with random local-difference rows.

    Half the features are dense Gaussians; a quarter are a random 2x2
    zero-sum kernel at one random position; a quarter tile the same kind
    of kernel across every aligned 2x2 window (a random convolutional
    feature written as one affine row). The difference rows read local
    pixel interdependence directly, which a purely dense random init
    buries under global content variance; at the fixed low training rate
    the encoder never digs it out on its own.
    """
    p = patch * patch * channels
    w = rng.normal(0.0, 1.0 / np.sqrt(p), size=(p, dim))
    if patch < 2:
        return w

    def place(col, kern, a, b, ch, scale=1.0):
        for i in range(2):
            for j in range(2):
                col[((a + i) * patch + (b + j)) * channels + ch] += \
                    scale * kern[i, j]

    local = range(dim // 2, dim - dim // 4)
    tiled = range(dim - dim // 4, dim)
    for k in local:
        col = np.zeros(p)
        place(col, _difference_kernel(rng),
              int(rng.integers(0, patch - 1)), int(rng.integers(0, patch - 1)),
              int(rng.integers(0, channels)))
        w[:, k] = col
    n_windows = (patch // 2) ** 2
    for k in tiled:
        col = np.zeros(p)
        kern = _difference_kernel(rng)
        ch = int(rng.integers(0, channels))
        for a in range(0, patch - 1, 2):
            for b in range(0, patch - 1, 2):
                place(col, kern, a, b, ch, scale=1.0 / np.sqrt(n_windows))
        w[:, k] = col
    return w


def param_shapes(config: TrainConfig) -> dict:
    """Name -> shape of every trainable tensor, in checkpoint order."""
    d, h = config.dim, config.filter_hidden
    return {
        "encoder.weight": (config.patch_size ** 2 * config.channels, d),
        "encoder.bias": (d,),
        "temporal.weight": (2 * d, d),
        "temporal.bias": (d,),
        "filter.w1": (1, h),
        "filter.b1": (h,),
        "filter.w2": (h, h),
        "filter.b2": (h,),
        "filter.w3": (h, 1),
        "filter.b3": (1,),
        "gat.weight": (d, d),
        "gat.attention": (2 * d,),
        "fusion.weight": (2 * d, d),
        "fusion.bias": (d,),
        "head.weight": (2 * d, 2),
        "head.bias": (2,),
    }


# filter biases are drawn, not zeroed: the spectrum contains an exact 0
# eigenvalue, and a zero bias would pin the LeakyReLU input there right
# on its kink
_ZERO_INIT = ("encoder.bias", "temporal.bias", "fusion.bias", "head.bias")


def init_params(config: TrainConfig, seed=None, random_head=False) -> ModelParams:
    """Seeded initialisation; the head starts at zero so an untrained
    model emits uniform logits (initial loss is exactly ln 2).

    ``random_head`` draws the head too, which gradient checks need:
    a zero head blocks all upstream gradients, making the comparison
    vacuous.
    """
    seed = config.seed if seed is None else seed

    def init(name, shape):
        if name == "encoder.weight":
            return _affine_encoder_init(stream(seed, "init", name),
                                        config.patch_size, config.channels,
                                        config.dim)
        if name == "filter.b3":
            return np.ones(shape)  # start near all-pass
        if name in _ZERO_INIT or (name == "head.weight" and not random_head):
            return np.zeros(shape)
        return _glorot(stream(seed, "init", name), shape)

    return ModelParams({name: ad.parameter(init(name, shape))
                        for name, shape in param_shapes(config).items()})


# ---------------------------------------------------------------------------
# encoder


def encode_patches(patch_vectors, params: ModelParams, config: TrainConfig):
    """Map raw patch vectors (T, N, p) to an (M, d) embedding Tensor."""
    t, n, p = patch_vectors.shape
    flat = np.asarray(patch_vectors, dtype=np.float64).reshape(t * n, p)
    out = ad.add(ad.matmul(ad.constant(flat), params["encoder.weight"]),
                 params["encoder.bias"])
    return ad.leaky_relu(out, config.leaky_slope)


# ---------------------------------------------------------------------------
# forward


@dataclass
class ClipStructure:
    """Everything a forward pass treats as constant: the raw patches,
    the graph (with differential edges), and the spectral basis."""

    patches: np.ndarray
    graph: VideoGraph
    negative: differential.NegativeSpatialAdjacency | None
    basis: spectral.SpectralBasis | None
    consistency: gat.SignedAdjacency
    inconsistency: gat.SignedAdjacency


def build_structure(pt: PatchTensor, embedding: np.ndarray,
                    config: TrainConfig) -> ClipStructure:
    """The constant part of a forward: patches + their detached embedding."""
    emb = embedding.reshape(pt.frames, pt.patches_per_frame, -1)
    graph = unified_graph(emb, pt.grid_h, pt.grid_w,
                          config.tau_s, config.tau_t, config.eps)
    neg = None
    if config.use_differential:
        neg = differential.build_spatial_negative(graph, config.tile)
        graph = differential.add_temporal_negative(graph)
    basis = None
    if config.use_spectral:
        lap = spectral.graph_laplacian(graph)
        basis = spectral.eigendecompose(lap)
    return ClipStructure(
        patches=pt.vectors,
        graph=graph,
        negative=neg,
        basis=basis,
        consistency=gat.consistency_adjacency(graph),
        inconsistency=gat.inconsistency_adjacency(graph, neg),
    )


def _pooled_features(structure: ClipStructure, x: ad.Tensor,
                     params: ModelParams, config: TrainConfig) -> ad.Tensor:
    """The (1, 2d) pre-head feature row Z = [spatial || spectral]."""
    slope = config.leaky_slope

    if config.use_spectral:
        basis = structure.basis
        z_spectral = spectral.pool_spectral(
            x, basis, params.filter_mlp.gains(basis.eigenvalues, slope))
    else:
        z_spectral = ad.constant(np.zeros((1, config.dim)))

    if config.use_temporal_mlp:
        xp = differential.temporal_concat(x, structure.graph,
                                          params["temporal.weight"],
                                          params["temporal.bias"])
    else:
        xp = x
    h_c = gat.gat_forward(xp, structure.consistency, params.gat, slope)
    h_ic = gat.gat_forward(xp, structure.inconsistency, params.gat, slope)
    z_spatial = gat.spatial_fuse(h_c, h_ic, params["fusion.weight"],
                                 params["fusion.bias"])
    return ad.concat([z_spatial, z_spectral], axis=1)


def forward_with_structure(structure: ClipStructure, x: ad.Tensor,
                           params: ModelParams, config: TrainConfig) -> ad.Tensor:
    """Differentiable path; ``x`` is the embedding of structure.patches."""
    z = _pooled_features(structure, x, params, config)
    return ad.add(ad.matmul(z, params["head.weight"]), params["head.bias"])


def forward(clip: FrameSequence, params: ModelParams, config: TrainConfig):
    """Clip -> (1, 2) logits Tensor; returns the structure for reuse."""
    pt = patchify(clip.pixels, config.patch_size)
    x = encode_patches(pt.vectors, params, config)
    structure = build_structure(pt, x.data, config)
    return forward_with_structure(structure, x, params, config), structure


def clip_embedding(clip, params, config) -> np.ndarray:
    """The pooled pre-head feature vector Z (for external analysis)."""
    pt = patchify(clip.pixels, config.patch_size)
    x = encode_patches(pt.vectors, params, config)
    structure = build_structure(pt, x.data, config)
    return _pooled_features(structure, x, params, config).data[0].copy()


def predict(clip, params, config) -> float:
    """Probability the clip is fake (softmax of the second logit)."""
    logits, _ = forward(clip, params, config)
    return float(ad.softmax_probs(logits.data)[0, 1])


def score_clips(clips, params, config, threads=1):
    def one(item):
        clip = item.clip if isinstance(item, LabeledClip) else item
        return predict(clip, params, config)
    return np.array(parallel_map(one, clips, threads))


# ---------------------------------------------------------------------------
# training


def _clip_loss_and_grads(clip, label, params, config, name_of):
    logits, _ = forward(clip, params, config)
    loss = ad.cross_entropy(logits, [label])
    leaves = loss.backward(write_grad=False)
    grads = {name_of[id(t)]: g for t, g in leaves.items()}
    return float(loss.data), float(ad.softmax_probs(logits.data)[0, 1]), grads


def train_clips(clips, config: TrainConfig, threads=1, log=None):
    """Mini-batch Adam over labeled clips; returns (params, history).

    History rows: (epoch, split, loss, accuracy). Deterministic given
    (seed, config, corpus): shuffling comes from a named stream and
    gradient reduction keeps clip order.
    """
    labels = np.array([c.label for c in clips], dtype=np.intp)
    if len(set(labels.tolist())) < 2:
        raise ValueError("training corpus must contain both classes")
    params = init_params(config)
    name_of = {id(t): n for n, t in params.named().items()}
    state = ad.AdamState(lr=config.lr)
    history = []
    n = len(clips)
    for epoch in range(config.epochs):
        order = stream(config.seed, "train", "shuffle", epoch).permutation(n)
        losses, scores, seen = [], np.empty(n), np.empty(n, dtype=np.intp)
        pos = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            results = parallel_map(
                lambda k: _clip_loss_and_grads(clips[k].clip, int(labels[k]),
                                               params, config, name_of),
                batch, threads)
            grads = {}
            for loss_k, score_k, g in results:
                if not np.isfinite(loss_k):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch}, batch start {start}")
                losses.append(loss_k)
                for name, arr in g.items():
                    if name in grads:
                        grads[name] = grads[name] + arr
                    else:
                        grads[name] = arr
            grads = {k: v / len(batch) for k, v in grads.items()}
            ad.adam_step(params.named(), grads, state)
            for k, (_, score_k, _) in zip(batch, results):
                scores[pos], seen[pos] = score_k, k
                pos += 1
        acc = float(np.mean((scores >= 0.5) == (labels[seen] == 1)))
        mean_loss = float(np.mean(losses))
        history.append((epoch, "train", mean_loss, acc))
        if log:
            log(f"epoch {epoch}: loss {mean_loss:.4f} acc {acc:.3f}")
    return params, history


def write_history(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "loss", "acc"])
        for row in history:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams, config: TrainConfig):
    """Magic, config echo (JSON), then named float64 parameter blocks."""
    blob = json.dumps(config.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params.tensors)))
        for name, tensor in params.tensors.items():
            enc = name.encode()
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", tensor.data.ndim))
            for dim in tensor.data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Inverse of `save_checkpoint`. A truncated or extended file, an
    echoed config with unknown keys or mistyped values, or tensors whose
    names or shapes differ from `param_shapes` of that config raise
    ValueError."""
    blob = Path(path).read_bytes()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {blob[:8]!r}")
    off = len(CHECKPOINT_MAGIC)

    def take(size, what):
        nonlocal off
        if off + size > len(blob):
            raise ValueError(f"{path}: checkpoint truncated in {what} "
                             f"at byte {off}")
        off += size
        return off - size

    def unpack(fmt, what):
        return struct.unpack_from(fmt, blob, take(struct.calcsize(fmt), what))

    (cfg_len,) = unpack("<I", "config length")
    start = take(cfg_len, "config")
    config = TrainConfig.from_dict(json.loads(blob[start:off]))
    (count,) = unpack("<I", "tensor count")
    tensors = {}
    for _ in range(count):
        (name_len,) = unpack("<H", "tensor name length")
        start = take(name_len, "tensor name")
        name = blob[start:off].decode()
        (ndim,) = unpack("<B", f"rank of {name}")
        shape = unpack(f"<{ndim}I", f"shape of {name}")
        size = math.prod(shape)
        start = take(8 * size, f"data of {name}")
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=start)
        tensors[name] = ad.parameter(data.reshape(shape).copy())
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} trailing bytes "
                         f"after the last tensor")
    expected = param_shapes(config)
    missing = [name for name in expected if name not in tensors]
    extra = [name for name in tensors if name not in expected]
    if missing or extra:
        raise ValueError(f"{path}: tensors do not match the config: "
                         f"missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if tensors[name].data.shape != shape:
            raise ValueError(f"{path}: tensor {name} has shape "
                             f"{tensors[name].data.shape}, the config "
                             f"implies {shape}")
    return ModelParams({name: tensors[name] for name in expected}), config
