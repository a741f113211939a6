"""Direct references for quantities the package computes another way or
no longer needs: the synthetic texture as one sine per pixel and wave
(`synth._texture` reads it off per-axis tables), and the Dirichlet energy
x^T L x that the spectral tests and A2 check low-pass filters against."""

import numpy as np

from sstgnn import synth
from sstgnn.rng import stream


def direct_texture(spec, height, width, coarse=1):
    """`synth._texture` summed wave by wave: the same draws, noise and
    clip, with sin(2 pi (fx u + fy v) + phase) evaluated at every pixel."""
    rng = stream(spec.seed, "texture")
    shape = (synth._N_WAVES, spec.channels)
    fx = rng.uniform(0.4, synth._MAX_CYCLES, size=shape)
    fy = rng.uniform(0.4, synth._MAX_CYCLES, size=shape)
    phase = rng.uniform(0, 2 * np.pi, size=shape)
    amp = rng.uniform(0.5, 1.0, size=shape)
    amp /= amp.sum(axis=0, keepdims=True)
    angle = rng.uniform(0, 2 * np.pi)
    vx, vy = spec.motion * np.cos(angle), spec.motion * np.sin(angle)

    t = np.arange(spec.frames)[:, None, None, None]
    y = (np.arange(height) * coarse + 0.5 * coarse)[None, :, None, None]
    x = (np.arange(width) * coarse + 0.5 * coarse)[None, None, :, None]
    u = (x + t * vx) / spec.width
    v = (y + t * vy) / spec.height
    out = np.zeros((spec.frames, height, width, spec.channels))
    for k in range(synth._N_WAVES):
        out += amp[k] * np.sin(2 * np.pi * (fx[k] * u + fy[k] * v) + phase[k])
    out = synth._BASE + synth._SPAN * out

    noise = stream(spec.seed, "noise").uniform(
        -synth._NOISE_AMP, synth._NOISE_AMP, size=out.shape)
    return np.clip(out + noise, 0.0, 1.0)


def dirichlet_energy(x, lap):
    """Per-column smoothness x^T L x (lower = smoother on the graph)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return np.einsum("id,ij,jd->d", x, lap, x)
