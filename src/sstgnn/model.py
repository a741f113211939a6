"""End-to-end detector: encoder, graph assembly, both branches, training.

A forward pass takes clips of one shape, stacks their patches along the
frame axis, encodes them once to d-dim embeddings, and builds one graph
of all their frames from the detached values in a single pass, with no
edge between two clips, then adds the negative differential edges. Two
branches run on that embedding: spectral (Lanczos Ritz basis of the
nonnegative graph's Laplacian from the all-ones vector, learned
per-eigenvalue gains, pooled without forming the filtered signal) and
spatial (temporal concat, consistency + inconsistency GAT, fusion). Each
pools per clip; the pooled rows concatenate into Z, and a head maps Z to
2 logits per clip. A training step records one tape.

Graph topology and the Ritz basis are constant to backpropagation:
`build_structure` is a pure function of the clips' patches, their
detached embedding, the filter MLP's current values (they only decide
when each Lanczos run has converged), the config and the clip count.
The finite difference check holds it constant and re-encodes
`structure.patches` in its loss.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import differential, gat, spectral
from .graphs import PatchTensor, VideoGraph, patchify, unified_graph
from .rng import stream
from .synth import LabeledClip

CHECKPOINT_MAGIC = b"SSTG0001"

# a clip is called fake when its fake probability is at least this
THRESHOLD = 0.5


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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        for name in ("patch_size", "tile", "dim", "batch_size", "epochs",
                     "filter_hidden", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got "
                             f"{type(d).__name__} {d!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def config_hash(config: TrainConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# "toy" is the finite-difference check scale.
PRESETS = {
    "desk": {},
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
    w[:, dim // 2:] = 0.0
    # a view of w by pixel row, pixel column, channel and feature
    pixels = w.reshape(patch, patch, channels, dim)
    for k in range(dim // 2, dim - dim // 4):
        kern = _difference_kernel(rng)
        a, b = int(rng.integers(0, patch - 1)), int(rng.integers(0, patch - 1))
        ch = int(rng.integers(0, channels))
        pixels[a:a + 2, b:b + 2, ch, k] = kern
    # the aligned 2x2 windows cover the top-left span x span square
    windows = patch // 2
    span = 2 * windows
    for k in range(dim - dim // 4, dim):
        kern = _difference_kernel(rng)
        ch = int(rng.integers(0, channels))
        pixels[:span, :span, ch, k] = (np.tile(kern, (windows, windows))
                                       * (1.0 / np.sqrt(windows ** 2)))
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
    return ad.leaky_relu(out)


# ---------------------------------------------------------------------------
# forward


@dataclass
class ClipStructure:
    """Everything a forward pass treats as constant, of ``clips`` equal
    clips stacked along the frame axis: the raw patches, the graph (-1
    twins with the differential), the Ritz basis and both passes' signs."""

    patches: np.ndarray
    graph: VideoGraph
    basis: spectral.SpectralBasis | None
    adjacency: gat.SignedAdjacency    # the consistency, then the inconsistency pass

    @property
    def clips(self):
        return self.graph.clips


def build_structure(pt: PatchTensor, embedding: np.ndarray,
                    filter_mlp: spectral.FilterMlp, config: TrainConfig,
                    clips=1) -> ClipStructure:
    """The constant part of a forward over ``clips`` equal clips whose
    frames ``pt`` stacks: patches + their detached embedding. The gains
    of ``filter_mlp``, read as plain values, tell the Lanczos run of each
    block when its pooling direction has converged."""
    if not np.isfinite(embedding).all():
        raise ValueError("the embedding holds non-finite values")
    emb = embedding.reshape(pt.frames, pt.patches_per_frame, -1)
    # the temporal differential overwrites every bridge: score none
    graph = unified_graph(emb, pt.grid_h, pt.grid_w, config.tau_s,
                          config.tau_t, clips, bridges=not config.use_differential)
    if config.use_differential:
        graph = differential.add_temporal_negative(graph)
    basis = None
    if config.use_spectral:
        basis = spectral.lanczos_basis(graph, lambda lam: filter_mlp.gains(lam).data)
    tile = config.tile if config.use_differential else None
    return ClipStructure(patches=pt.vectors, graph=graph, basis=basis,
                         adjacency=gat.build_adjacency(graph, tile))


def _prepare(clips, params: ModelParams, config: TrainConfig):
    """Stack the patches of clips of one shape along the frame axis,
    encode them in one matmul and build their structure in one pass."""
    pts = [patchify(clip.pixels, config.patch_size) for clip in clips]
    if len({pt.vectors.shape for pt in pts}) > 1:
        raise ValueError("clips of one forward must share one shape")
    pt = replace(pts[0], vectors=np.concatenate([p.vectors for p in pts]))
    x = encode_patches(pt.vectors, params, config)
    return build_structure(pt, x.data, params.filter_mlp, config, len(pts)), x


def _pooled_features(structure: ClipStructure, x: ad.Tensor,
                     params: ModelParams, config: TrainConfig) -> ad.Tensor:
    """The (B, 2d) pre-head feature rows Z = [spatial || spectral]."""
    graph = structure.graph

    if config.use_spectral:
        basis = structure.basis
        z_spectral = spectral.pool_spectral(
            x, basis, params.filter_mlp.gains(basis.eigenvalues), graph)
    else:
        z_spectral = ad.constant(np.zeros((graph.clips, config.dim)))

    if config.use_temporal_mlp:
        xp = differential.temporal_concat(x, graph,
                                          params["temporal.weight"],
                                          params["temporal.bias"])
    else:
        xp = x
    h = gat.gat_forward(xp, structure.adjacency, params.gat)
    z_spatial = gat.spatial_fuse(h, params["fusion.weight"],
                                 params["fusion.bias"], graph)
    return ad.concat([z_spatial, z_spectral], axis=1)


def forward_with_structure(structure: ClipStructure, x: ad.Tensor,
                           params: ModelParams, config: TrainConfig) -> ad.Tensor:
    """Differentiable path; ``x`` is the embedding of structure.patches.
    Returns (B, 2) logits, one row per clip."""
    z = _pooled_features(structure, x, params, config)
    return ad.add(ad.matmul(z, params["head.weight"]), params["head.bias"])


def forward(clips, params: ModelParams, config: TrainConfig):
    """Clips of one shape -> (B, 2) logits Tensor; returns the joined
    structure for reuse."""
    structure, x = _prepare(clips, params, config)
    return forward_with_structure(structure, x, params, config), structure


def clip_embedding(clip, params, config) -> np.ndarray:
    """The pooled pre-head feature vector Z (for external analysis)."""
    structure, x = _prepare([clip], params, config)
    return _pooled_features(structure, x, params, config).data[0].copy()


def predict(clip, params, config) -> float:
    """Probability the clip is fake (softmax of the second logit)."""
    logits, _ = forward([clip], params, config)
    return float(ad.softmax_probs(logits.data)[0, 1])


def score_clips(clips, params, config, threads=1):
    """`predict` for each clip or LabeledClip. ``threads`` is unused,
    kept because perfbench passes it."""
    return np.array([predict(item.clip if isinstance(item, LabeledClip)
                             else item, params, config) for item in clips])


# ---------------------------------------------------------------------------
# training


def train_clips(clips, config: TrainConfig, threads=1, log=None):
    """Mini-batch Adam over labeled clips of one shape; returns (params,
    history). A minibatch is one forward, loss, backward and Adam step.

    History rows: (epoch, split, mean per-clip loss, accuracy).
    Deterministic given (seed, config, corpus): shuffling comes from a
    named stream. ``threads`` is unused, kept because perfbench passes it.
    Clips whose channel count differs from the config's are refused
    before the first step. A step that meets a non-finite embedding,
    loss, gradient or update raises ValueError naming its epoch and
    batch, and Adam moves nothing.
    """
    labels = np.array([c.label for c in clips], dtype=np.intp)
    if len(set(labels.tolist())) < 2:
        raise ValueError("training corpus must contain both classes")
    shapes = [item.clip.pixels.shape for item in clips]
    odd = next((k for k, shape in enumerate(shapes) if shape != shapes[0]), 0)
    if odd:
        raise ValueError(f"training clips must share one shape: clip {odd} "
                         f"({clips[odd].family}) is {shapes[odd]}, clip 0 "
                         f"({clips[0].family}) is {shapes[0]}")
    if shapes[0][-1] != config.channels:
        raise ValueError(f"training clips have {shapes[0][-1]} channel(s), the "
                         f"config takes {config.channels}")
    params = init_params(config)
    state = ad.AdamState(lr=config.lr)
    history = []
    n = len(clips)
    for epoch in range(config.epochs):
        order = stream(config.seed, "train", "shuffle", epoch).permutation(n)
        loss_sum, scores = 0.0, np.empty(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            try:
                logits, _ = forward([clips[k].clip for k in batch], params, config)
                loss = ad.cross_entropy(logits, labels[batch])
                if not np.isfinite(loss.data):
                    raise ValueError("non-finite loss")
                ad.adam_step(params.named(), loss.backward(), state)
            except ValueError as err:
                raise ValueError(f"epoch {epoch}, batch start {start}: {err}") from err
            loss_sum += float(loss.data) * len(batch)
            scores[start:start + len(batch)] = ad.softmax_probs(logits.data)[:, 1]
        acc = float(np.mean((scores >= THRESHOLD) == (labels[order] == 1)))
        mean_loss = loss_sum / n
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
    """Inverse of `save_checkpoint`. A truncated or extended file, a
    config echo that is not JSON or has unknown keys or mistyped values,
    a tensor name that is not UTF-8 or named twice, tensors whose names
    or shapes differ from `param_shapes` of that config, or a NaN/Inf in
    a tensor raise ValueError naming the file."""
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
    try:
        config = TrainConfig.from_dict(json.loads(blob[start:off]))
    except ValueError as err:   # a JSON or UTF-8 decoding error among them
        raise ValueError(f"{path}: config echo at byte {start}: {err}") from err
    (count,) = unpack("<I", "tensor count")
    tensors = {}
    for k in range(count):
        (name_len,) = unpack("<H", "tensor name length")
        start = take(name_len, "tensor name")
        try:
            name = blob[start:off].decode()
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: tensor {k} name at byte {start} is not "
                             f"UTF-8") from err
        if name in tensors:
            raise ValueError(f"{path}: tensor {name} appears twice")
        (ndim,) = unpack("<B", f"rank of {name}")
        shape = unpack(f"<{ndim}I", f"shape of {name}")
        size = math.prod(shape)
        start = take(8 * size, f"data of {name}")
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=start)
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: tensor {name} holds non-finite values")
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
