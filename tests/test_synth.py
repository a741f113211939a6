"""Synthetic corpus: family contracts, determinism, VGF1 container."""

import hashlib

import numpy as np
import pytest

from sstgnn import synth
from sstgnn.differential import npr_reference


def pixel_hash(clip):
    return hashlib.sha256(clip.pixels.tobytes()).hexdigest()


class TestRealFamily:
    def test_smooth_and_steady_motion(self):
        clip = synth.generate(synth.SynthSpec("real", seed=3)).clip
        pix = clip.pixels.astype(np.float64)
        mad = np.abs(np.diff(pix, axis=0)).mean(axis=(1, 2, 3))
        assert mad.max() < 0.05
        assert mad.max() - mad.min() < 0.02  # near-constant across t

    def test_pixels_in_unit_interval(self):
        clip = synth.generate(synth.SynthSpec("real", seed=9)).clip
        assert clip.pixels.min() >= 0.0 and clip.pixels.max() <= 1.0


class TestUpsampleFamily:
    def test_two_by_two_blocks_constant(self):
        clip = synth.generate(synth.SynthSpec("upsample_artifact", seed=5)).clip
        pix = clip.pixels
        assert np.array_equal(pix[:, 0::2], pix[:, 1::2])
        assert np.array_equal(pix[:, :, 0::2], pix[:, :, 1::2])

    def test_npr_identically_zero(self):
        clip = synth.generate(synth.SynthSpec("upsample_artifact", seed=5)).clip
        for frame in clip.pixels[:, :, :, 0].astype(np.float64):
            assert np.abs(npr_reference(frame, 2)).max() == 0.0

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            synth.SynthSpec("upsample_artifact", seed=0, height=63, width=64)


class TestJitterFamily:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_has_an_abrupt_transition(self, seed):
        clip = synth.generate(synth.SynthSpec("temporal_jitter", seed=seed)).clip
        mad = np.abs(np.diff(clip.pixels.astype(np.float64), axis=0)).mean(axis=(1, 2, 3))
        assert mad.max() > 5 * np.median(mad)


class TestSpectralFamily:
    def test_checker_energy_added(self):
        real = synth.generate(synth.SynthSpec("real", seed=4)).clip.pixels
        noisy = synth.generate(synth.SynthSpec("spectral_noise", seed=4)).clip.pixels
        assert np.abs(noisy.astype(np.float64) - real).mean() > 0.1


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            synth.SynthSpec("blurred", seed=0)

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="frames"):
            synth.SynthSpec("real", seed=0, frames=1)

    def test_fake_needs_strength(self):
        with pytest.raises(ValueError, match="strength"):
            synth.SynthSpec("spectral_noise", seed=0, strength=0.0)

    def test_label_family_consistency(self):
        clip = synth.generate(synth.SynthSpec("real", seed=0)).clip
        with pytest.raises(ValueError, match="label 0 iff"):
            synth.LabeledClip(clip, 1, "real")
        with pytest.raises(ValueError, match="got 2 for spectral_noise"):
            synth.LabeledClip(clip, 2, "spectral_noise")


class TestDeterminism:
    @pytest.mark.parametrize("family", synth.FAMILIES)
    def test_same_seed_byte_identical(self, family):
        spec = synth.SynthSpec(family, seed=11)
        assert pixel_hash(synth.generate(spec).clip) == \
            pixel_hash(synth.generate(spec).clip)

    def test_different_seeds_differ(self):
        a = synth.generate(synth.SynthSpec("real", seed=1)).clip
        b = synth.generate(synth.SynthSpec("real", seed=2)).clip
        assert pixel_hash(a) != pixel_hash(b)


class TestContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        clip = synth.generate(synth.SynthSpec("real", seed=8)).clip
        path = tmp_path / "clip.vgf"
        synth.save_clip(path, clip)
        loaded = synth.load_clip(path)
        assert np.array_equal(loaded.pixels, clip.pixels)
        assert loaded.pixels.dtype == clip.pixels.dtype

    def test_label_trailer(self, tmp_path):
        clip = synth.generate(synth.SynthSpec("spectral_noise", seed=8)).clip
        path = tmp_path / "clip.vgf"
        synth.save_clip(path, clip, label=1)
        loaded, label = synth.load_labeled_clip(path)
        assert label == 1
        assert np.array_equal(loaded.pixels, clip.pixels)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.vgf"
        path.write_bytes(b"NOTAVGF1" + b"\0" * 64)
        with pytest.raises(synth.ClipFormatError, match="bad magic"):
            synth.load_clip(path)

    def test_truncated(self, tmp_path):
        clip = synth.generate(synth.SynthSpec("real", seed=8, height=4, width=4,
                                              frames=2)).clip
        path = tmp_path / "clip.vgf"
        synth.save_clip(path, clip)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(synth.ClipFormatError, match="truncated"):
            synth.load_clip(path)

    def test_file_size_arithmetic(self, tmp_path):
        # header = 8 magic + 4*u32 dims; pixels are float32 per the format
        clip = synth.FrameSequence(
            np.zeros((2, 4, 4, 1), dtype=np.float32))
        path = tmp_path / "tiny.vgf"
        synth.save_clip(path, clip)
        assert path.stat().st_size == 8 + 16 + 2 * 4 * 4 * 1 * 4


class TestCorpus:
    def test_family_separability(self):
        # the artifact family must be detectable in principle
        seeds = range(6)
        def mean_npr(family):
            vals = []
            for s in seeds:
                pix = synth.generate(synth.SynthSpec(family, seed=s)).clip.pixels
                vals.extend(np.abs(npr_reference(f, 2)).mean()
                            for f in pix[:, :, :, 0].astype(np.float64))
            return np.mean(vals)
        assert mean_npr("upsample_artifact") < mean_npr("real")

    def test_manifest_roundtrip(self, tmp_path):
        manifest = synth.write_corpus(tmp_path, ["real", "temporal_jitter"],
                                      range(2), frames=2, height=8, width=8)
        header = manifest.read_text().splitlines()[0]
        assert header == "path,label,family,seed"
        clips = synth.load_manifest(manifest)
        assert len(clips) == 4
        assert {c.family for c in clips} == {"real", "temporal_jitter"}
        assert all((c.label == 1) == (c.family != "real") for c in clips)

    @pytest.mark.parametrize("line, label, error", [
        pytest.param(3, "2", "label '2' is not 0 or 1", id="2"),
        pytest.param(3, "x", "label 'x' is not 0 or 1", id="x"),
        # a label that contradicts its family: a real clip labelled fake
        pytest.param(2, "1", r"label 1 does not fit family 'real' "
                             r"\(0 iff real, else 1\)", id="real-1"),
    ])
    def test_manifest_bad_label_names_the_line(self, tmp_path, line, label,
                                               error):
        manifest = synth.write_corpus(tmp_path, ["real", "temporal_jitter"],
                                      range(1), frames=2, height=8, width=8)
        lines = manifest.read_text().splitlines()
        assert [r.split(",")[2] for r in lines[1:]] == ["real", "temporal_jitter"]
        row = lines[line - 1].split(",")
        row[1] = label
        lines[line - 1] = ",".join(row)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"manifest.csv:{line}: {error}"):
            synth.load_manifest(manifest)
