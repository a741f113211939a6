"""Synthetic corpus: family contracts, determinism, VGF1 container."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import direct_texture

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

    @pytest.mark.parametrize("field", ["strength", "motion"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            synth.SynthSpec("temporal_jitter", seed=0, **{field: value})

    @pytest.mark.parametrize("strength", [4.5, 1e300])
    def test_strength_above_cap_rejected(self, strength):
        # the cap bounds temporal_jitter's swap loop; no clip is made
        with pytest.raises(ValueError, match="strength must be at most"):
            synth.SynthSpec("temporal_jitter", seed=0, strength=strength)

    def test_strength_at_cap_makes_a_clip(self):
        spec = synth.SynthSpec("temporal_jitter", seed=0, frames=4, height=4,
                               width=4, strength=synth.MAX_STRENGTH)
        assert synth.generate(spec).clip.pixels.shape == (4, 4, 4, 1)

    @pytest.mark.parametrize("field", ["height", "width", "channels"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_frame_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            synth.SynthSpec("real", seed=0, **{field: value})

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


# clip geometries the pinned digests cover; SynthSpec refuses
# upsample_artifact at the odd 9 x 7 x 9
GEOMETRIES = {"default": {}, "two_frames": {"frames": 2},
              "9x7x9": {"frames": 9, "height": 7, "width": 9}, "rgb": {"channels": 3},
              "still": {"motion": 0.0}, "32x48": {"height": 32, "width": 48}}

# SHA-256 of the pixel bytes of seeds 0, 1 and 2, one after another, as
# the direct per-pixel sum of sines rendered them before the per-axis
# tables; the tables give the same float32 bytes for these clips
PINNED = {
    ("default", "real"): "fbc0b190bc8dc8366e76da419e25791adec0b97bb525eb74551992dbb4cbac69",
    ("default", "upsample_artifact"): "25a39a10819db85541042fc3160403093b1a0bc913de88201345e6a4b5ae2a41",
    ("default", "temporal_jitter"): "c37c144944b1304253e400e587d9f58415dbd5a97b3c53ea323b8e7f721dd45c",
    ("default", "spectral_noise"): "01b86cb69c024c117f2111073ca43d2e2357636e6b2b4679209704126c2f5245",
    ("two_frames", "real"): "b523082fde5bbb53678c42e12a15ad5f1d177759dbcfed3b2c52ae03e0a1d6eb",
    ("two_frames", "upsample_artifact"): "fc3a52c5b7568e8a53c968dda3d02d810a829c2a033b6753c77aa272d069cecc",
    ("two_frames", "temporal_jitter"): "8ef1e806e7a4bf36cee56fbce1867eb37afefb092b020a2199941ee5a3e888f1",
    ("two_frames", "spectral_noise"): "c2cf535c61e01a48324d5d6a2aae6500df9fea41d8c1aabd08f9198453128af0",
    ("9x7x9", "real"): "9fabd51d22eac67f9dc6dad1f6f67f8ef84f87d73e0a4be225f83a563d412a29",
    ("9x7x9", "temporal_jitter"): "a9e29979d1e676a655fc2ce1d87f9f67ac7eed4820832dee4135bda1ad58c913",
    ("9x7x9", "spectral_noise"): "a3faf1cc842fe229eb9dd51122e86803f70e25dfd55fbe9ba857933f5cf27d23",
    ("rgb", "real"): "cc103ed7319cda9c5443ea3423e5ad7acc712798065a4369eacc4f31ecfff003",
    ("rgb", "upsample_artifact"): "806b257d0c9f50cf1c22bdbde01dc903b7b31c8aea29449fa8264cd2e1f820f7",
    ("rgb", "temporal_jitter"): "f65e12054d2e5f31b0550ab56179abd162fe31d5b5a5752b237583625e19b919",
    ("rgb", "spectral_noise"): "6d0ce89048e108e6a37e968e73ef676201c0d26e487908e68290107928729d25",
    ("still", "real"): "1e770ef94e9e28f04ce3da783e6fbb4a86b3703bf55dc2755759dfee294b5930",
    ("still", "upsample_artifact"): "00a159836bfa9243124b6439922e2c4ba90850cd3743297bf731c6508edd1fea",
    ("still", "temporal_jitter"): "6f887a4af586f2ecb0a33918387c2560e56b1b353a04e5bedcd8e9f312e149fe",
    ("still", "spectral_noise"): "eae5e363338ab5f067bdc077697697ed6c1eefec4b24b26e708ce66826563098",
    ("32x48", "real"): "b661478deb4605822d2403e487d0059e0110006aad6f6aa55c373e6d71437224",
    ("32x48", "upsample_artifact"): "cbea0ada090f3b71e2b23bc50a80be297d10694266481e113ecd507caba4b2de",
    ("32x48", "temporal_jitter"): "a63e7aa7ea0fa3538813dde8d0eb51026d02af9567ffcd5f247144c1078558fd",
    ("32x48", "spectral_noise"): "97aaaa90b4e14c65b97aff198637bf0da656dff7a466c264fff5c860d91d35aa",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("geometry, family", sorted(PINNED))
    def test_pixel_digest(self, geometry, family):
        digest = hashlib.sha256()
        for seed in range(3):
            spec = synth.SynthSpec(family, seed=seed, **GEOMETRIES[geometry])
            digest.update(synth.generate(spec).clip.pixels.tobytes())
        assert digest.hexdigest() == PINNED[geometry, family]

    def test_every_family_at_every_geometry(self):
        assert set(PINNED) == {(g, f) for g in GEOMETRIES for f in synth.FAMILIES
                               if (g, f) != ("9x7x9", "upsample_artifact")}


class TestTexture:
    @given(frames=st.integers(2, 6), height=st.integers(1, 24), width=st.integers(1, 24),
           channels=st.integers(1, 3), motion=st.floats(-3.0, 3.0),
           coarse=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 20))
    @settings(max_examples=60, deadline=None)
    def test_tables_match_the_direct_sum(self, frames, height, width, channels,
                                         motion, coarse, seed):
        # the grid is height x width at ``coarse``, inside a frame coarse
        # times its size, as upsample_artifact renders it
        spec = synth.SynthSpec("real", seed=seed, frames=frames, height=coarse * height,
                               width=coarse * width, channels=channels, motion=motion)
        got = synth._texture(spec, height, width, coarse)
        assert got.shape == (frames, height, width, channels)
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, direct_texture(spec, height, width, coarse),
                                   rtol=0, atol=1e-13)


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

    def test_manifest_label_must_match_the_clip_trailer(self, tmp_path):
        manifest = synth.write_corpus(tmp_path, ["real", "upsample_artifact"],
                                      range(1), frames=2, height=8, width=8)
        text = manifest.read_text()
        assert "real_0.vgf,0,real," in text
        # a real row pointing at a fake clip, whose trailer says 1
        manifest.write_text(text.replace("real_0.vgf,0,real,",
                                         "upsample_artifact_0.vgf,0,real,"))
        with pytest.raises(ValueError, match=re.escape(
                "manifest.csv:2: label 0 disagrees with "
                "'upsample_artifact_0.vgf', labelled 1")):
            synth.load_manifest(manifest)
        # a clip file without a trailer takes the row's label
        synth.save_clip(tmp_path / "bare.vgf", synth.load_clip(
            tmp_path / "upsample_artifact_0.vgf"))
        manifest.write_text(text.replace("real_0.vgf,0,real,", "bare.vgf,0,real,"))
        assert synth.load_manifest(manifest)[0].label == 0

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
