"""Synthetic labeled clips and the VGF1 clip container.

Four clip families stand in for real forgery corpora at desk scale:

* ``real`` — a smoothly translating band-limited texture (a handful of
  low-frequency sinusoids) plus mild per-pixel noise.
* ``upsample_artifact`` — identical content rendered at half resolution
  and nearest-neighbour upsampled 2x, so every 2x2 pixel block is
  constant (the local interdependence the spatial differential targets).
* ``temporal_jitter`` — real content with frame swaps/duplications and
  per-frame brightness jumps.
* ``spectral_noise`` — real content plus a fixed high-frequency
  checkerboard at the given strength.

Generation is a pure function of the spec: every draw comes from a
counter-based stream keyed by (seed, role, frame), so clips are
bit-reproducible.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import stream

FAKE_FAMILIES = ("upsample_artifact", "temporal_jitter", "spectral_noise")
FAMILIES = ("real",) + FAKE_FAMILIES

_MAGIC = b"VGFRAME1"
_HEADER = struct.Struct("<4I")

# texture constants shared by all families (fakes derive from "real")
_N_WAVES = 6
_MAX_CYCLES = 3.0        # highest sinusoid frequency, cycles per image
_NOISE_AMP = 0.06        # +- amplitude of the per-pixel noise
_BASE, _SPAN = 0.5, 0.40  # sinusoid sum mapped to _BASE +- _SPAN


class ClipFormatError(ValueError):
    """Raised for a malformed VGF1 container (bad magic, truncation...)."""


@dataclass(frozen=True)
class FrameSequence:
    """A clip: (T, H, W, C) float32 pixels in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 4:
            raise ValueError("pixels must be (T, H, W, C)")
        if p.shape[0] < 2:
            raise ValueError("a clip needs at least 2 frames")
        if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
            raise ValueError("pixels must be finite and lie in [0, 1]")


@dataclass(frozen=True)
class SynthSpec:
    """Everything that determines one synthetic clip, bit-for-bit."""

    family: str
    seed: int
    frames: int = 8
    height: int = 64
    width: int = 64
    channels: int = 1
    motion: float = 0.3      # translation, pixels per frame
    strength: float = 0.5    # artifact strength for fake families

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.frames < 2:
            raise ValueError("frames must be >= 2")
        if self.family != "real" and not self.strength > 0:
            raise ValueError("fake families require strength > 0")
        if self.family == "upsample_artifact" and (
                self.height % 2 or self.width % 2):
            raise ValueError("upsample_artifact needs even height/width")


@dataclass(frozen=True)
class LabeledClip:
    clip: FrameSequence
    label: int
    family: str

    def __post_init__(self):
        if self.label != int(self.family != "real"):
            raise ValueError(f"label 0 iff family == real, else 1: got "
                             f"{self.label!r} for {self.family}")


def _texture(spec: SynthSpec, height, width, coarse=1):
    """Render the moving base texture on a (possibly half-res) grid.

    ``coarse`` scales pixel coordinates back to the full-resolution frame
    so a half-res render samples the same continuous field.
    """
    rng = stream(spec.seed, "texture")
    fx = rng.uniform(0.4, _MAX_CYCLES, size=(_N_WAVES, spec.channels))
    fy = rng.uniform(0.4, _MAX_CYCLES, size=(_N_WAVES, spec.channels))
    phase = rng.uniform(0, 2 * np.pi, size=(_N_WAVES, spec.channels))
    amp = rng.uniform(0.5, 1.0, size=(_N_WAVES, spec.channels))
    amp /= amp.sum(axis=0, keepdims=True)
    angle = rng.uniform(0, 2 * np.pi)
    vx, vy = spec.motion * np.cos(angle), spec.motion * np.sin(angle)

    t = np.arange(spec.frames)[:, None, None, None]
    y = (np.arange(height) * coarse + 0.5 * coarse)[None, :, None, None]
    x = (np.arange(width) * coarse + 0.5 * coarse)[None, None, :, None]
    u = (x + t * vx) / spec.width
    v = (y + t * vy) / spec.height
    out = np.zeros((spec.frames, height, width, spec.channels))
    for k in range(_N_WAVES):
        arg = 2 * np.pi * (fx[k] * u + fy[k] * v) + phase[k]
        out += amp[k] * np.sin(arg)
    out = _BASE + _SPAN * out

    noise = stream(spec.seed, "noise").uniform(
        -_NOISE_AMP, _NOISE_AMP, size=out.shape)
    return np.clip(out + noise, 0.0, 1.0)


def _upsample(spec: SynthSpec):
    half = _texture(spec, spec.height // 2, spec.width // 2, coarse=2)
    return half.repeat(2, axis=1).repeat(2, axis=2)


def _jitter(spec: SynthSpec):
    pix = _texture(spec, spec.height, spec.width)
    rng = stream(spec.seed, "jitter")
    n_events = max(1, round(spec.strength * spec.frames / 4))
    for _ in range(n_events):
        t = int(rng.integers(0, spec.frames - 1))
        if rng.random() < 0.5:
            pix[[t, t + 1]] = pix[[t + 1, t]]
        else:
            pix[t + 1] = pix[t]
    # jumps land on a contiguous run of frames so the clip keeps enough
    # smooth consecutive pairs to make the jump stand out of the median
    n_jumps = max(1, round(spec.strength * spec.frames / 2))
    n_jumps = min(n_jumps, spec.frames - 2)
    start = int(rng.integers(0, spec.frames - n_jumps + 1))
    for t in range(start, start + n_jumps):
        mag = spec.strength * (2.0 + rng.random())
        sign = 1.0 if rng.random() < 0.5 else -1.0
        pix[t] = np.clip(pix[t] + sign * mag, 0.0, 1.0)
    return pix


def _spectral(spec: SynthSpec):
    # period-8 checkerboard: well above the band-limited content (which
    # tops out near 3 cycles/image) yet coarse enough that its block
    # interiors stay clean
    pix = _texture(spec, spec.height, spec.width)
    yy = np.arange(spec.height)[:, None] // 4
    xx = np.arange(spec.width)[None, :] // 4
    checker = np.where((yy + xx) % 2 == 0, 1.2, -1.2)
    return np.clip(pix + spec.strength * checker[None, :, :, None], 0.0, 1.0)


def generate(spec: SynthSpec) -> LabeledClip:
    """Render one labeled clip; pure function of ``spec``."""
    if spec.family == "real":
        pix = _texture(spec, spec.height, spec.width)
    elif spec.family == "upsample_artifact":
        pix = _upsample(spec)
    elif spec.family == "temporal_jitter":
        pix = _jitter(spec)
    else:
        pix = _spectral(spec)
    clip = FrameSequence(pix.astype(np.float32))
    return LabeledClip(clip, int(spec.family != "real"), spec.family)


# ---------------------------------------------------------------------------
# VGF1 container


def save_clip(path, clip: FrameSequence, label=None):
    """Write the VGF1 container; appends a 1-byte label trailer if given."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(*clip.pixels.shape))
        fh.write(np.ascontiguousarray(clip.pixels, dtype="<f4").tobytes())
        if label is not None:
            fh.write(bytes([int(label)]))


def load_labeled_clip(path):
    """Return (FrameSequence, label-or-None); a ClipFormatError names the
    file, and the byte of the first NaN, Inf or out-of-range pixel."""
    blob = Path(path).read_bytes()
    if blob[:8] != _MAGIC:
        raise ClipFormatError(f"{path}: bad magic {blob[:8]!r}")
    if len(blob) < 8 + _HEADER.size:
        raise ClipFormatError(f"{path}: truncated header")
    t, h, w, c = _HEADER.unpack_from(blob, 8)
    body = 4 * t * h * w * c
    payload = blob[8 + _HEADER.size:]
    if len(payload) < body:
        raise ClipFormatError(f"{path}: truncated pixel data")
    trailer = payload[body:]
    if len(trailer) > 1:
        raise ClipFormatError(f"{path}: {len(trailer)} trailing bytes")
    pixels = np.frombuffer(payload[:body], dtype="<f4").reshape(t, h, w, c)
    try:
        return FrameSequence(pixels.copy()), trailer[0] if trailer else None
    except ValueError as err:
        bad = np.flatnonzero(~((pixels >= 0.0) & (pixels <= 1.0)))
        at = f" (pixel at byte {8 + _HEADER.size + 4 * bad[0]})" if len(bad) else ""
        raise ClipFormatError(f"{path}: {err}{at}") from err


def load_clip(path) -> FrameSequence:
    return load_labeled_clip(path)[0]


# ---------------------------------------------------------------------------
# corpora


def make_corpus(families, seeds, **spec_kw):
    """Generate clips for every (family, seed) pair, in that order."""
    return [generate(SynthSpec(family=f, seed=s, **spec_kw))
            for f in families for s in seeds]


def write_corpus(out_dir, families, seeds, **spec_kw):
    """Render clips to ``out_dir`` and write the manifest CSV.

    Returns the manifest path. Manifest columns: path,label,family,seed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for family in families:
        for seed in seeds:
            labeled = generate(SynthSpec(family=family, seed=seed, **spec_kw))
            name = f"{family}_{seed}.vgf"
            save_clip(out / name, labeled.clip, label=labeled.label)
            rows.append((name, labeled.label, family, seed))
    manifest = out / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "family", "seed"])
        writer.writerows(rows)
    return manifest


MANIFEST_COLUMNS = ("path", "label", "family")


def load_manifest(manifest_path):
    """Load a corpus manifest into LabeledClips (paths relative to it).
    A row's label must fit its family and, when the clip file carries a
    label trailer, that label too. A line csv cannot parse (a field
    over its size limit, say) is a ValueError naming the file and line."""
    base = Path(manifest_path).parent
    clips = []
    with open(manifest_path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [c for c in MANIFEST_COLUMNS
                       if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{manifest_path}: manifest lacks column(s) "
                                 f"{', '.join(missing)}")
            for row in reader:
                clips.append(_manifest_clip(row, base,
                                            f"{manifest_path}:{reader.line_num}"))
        except csv.Error as err:
            # the DictReader counts only the lines of rows it returned
            raise ValueError(f"{manifest_path}:{reader.reader.line_num}: "
                             f"{err}") from err
    return clips


def _manifest_clip(row, base, where):
    """The LabeledClip of one manifest row; ``where`` names its line."""
    short = [c for c in MANIFEST_COLUMNS if row[c] is None]
    if short:
        raise ValueError(f"{where}: row lacks {', '.join(short)}")
    if row["label"].strip() not in ("0", "1"):
        raise ValueError(f"{where}: label {row['label']!r} is not 0 or 1")
    label = int(row["label"])
    if label != int(row["family"] != "real"):
        raise ValueError(f"{where}: label {label} does not fit family "
                         f"{row['family']!r} (0 iff real, else 1)")
    clip, own = load_labeled_clip(base / row["path"])
    if own is not None and own != label:
        raise ValueError(f"{where}: label {label} disagrees with "
                         f"{row['path']!r}, labelled {own}")
    return LabeledClip(clip, label, row["family"])
