import numpy as np
import pytest

from m2i2.errors import ConfigError, ContractError, DataError
from m2i2.vision import (
    Image,
    augment,
    load_image,
    mask_patches,
    patchify,
    resize_bilinear,
    unpatchify,
    write_image,
)

RNG = np.random.default_rng(0)


def rand_image(h=64, w=64, c=1):
    return Image(RNG.random((h, w, c)))


class TestImageIO:
    def test_p5_scaling(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 0, 255]))
        img = load_image(p)
        assert img.pixels.shape == (2, 2, 1)
        assert np.array_equal(img.pixels.ravel(), [0.0, 1.0, 0.0, 1.0])

    def test_p6_color(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n1 2\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        img = load_image(p)
        assert img.channels == 3
        assert np.array_equal(img.pixels[0, 0], [1.0, 0.0, 0.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError):
            load_image(tmp_path / "nope.pgm")

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "t.pbm"
        p.write_bytes(b"P4\n2 2\n")
        with pytest.raises(ValueError, match="format"):
            load_image(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(DataError, match="truncated pixel data") as e:
            load_image(p)
        assert str(p) in str(e.value)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2")
        with pytest.raises(DataError, match="truncated header") as e:
            load_image(p)
        assert str(p) in str(e.value)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\0\0")
        with pytest.raises(ValueError, match="maxval"):
            load_image(p)

    @pytest.mark.parametrize(
        "header, field",
        [(b"P5\n0 5\n255\n", "width"), (b"P5\n-2 -2\n255\n", "width"), (b"P5\nab 2\n255\n", "width"),
         (b"P5\n2 0\n255\n", "height"), (b"P5\n1 1\n0\n", "maxval")],
    )
    def test_header_field_that_is_not_a_positive_integer(self, tmp_path, header, field):
        p = tmp_path / "t.pgm"
        p.write_bytes(header + bytes(4))
        with pytest.raises(DataError, match=f"{field} must be a positive integer.*t\\.pgm"):
            load_image(p)

    def test_header_comments(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([7, 9]))
        assert load_image(p).pixels.shape == (1, 2, 1)

    def test_roundtrip_bit_exact(self, tmp_path):
        p = tmp_path / "t.pgm"
        raw = RNG.integers(0, 256, size=(8, 8), dtype=np.uint8)
        p.write_bytes(b"P5\n8 8\n255\n" + raw.tobytes())
        first = p.read_bytes()
        write_image(p, load_image(p))
        assert p.read_bytes() == first

    def test_grayscale_replication(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n1 1\n255\n\x80")
        img = load_image(p, channels=3)
        assert img.channels == 3
        assert (img.pixels[0, 0] == img.pixels[0, 0, 0]).all()

    def test_color_image_read_as_grayscale_raises_data_error(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n1 2\n255\n" + bytes(6))
        assert load_image(p, channels=3).channels == 3
        with pytest.raises(DataError, match=r"t\.ppm holds 3 channels, but 1 are expected"):
            load_image(p, channels=1)


class TestAugment:
    def test_eval_mode_is_center_crop(self):
        img = rand_image(10, 10)
        out = augment(img, 6)
        assert np.array_equal(out.pixels, img.pixels[2:8, 2:8])

    def test_eval_mode_deterministic(self):
        img = rand_image(12, 12)
        a = augment(img, 8)
        b = augment(img, 8)
        assert np.array_equal(a.pixels, b.pixels)

    def test_small_image_resized_up(self):
        out = augment(rand_image(4, 4), 8)
        assert out.pixels.shape == (8, 8, 1)

    def test_pixels_stay_in_range(self):
        img = rand_image(16, 16)
        for seed in range(1000):
            out = augment(img, 8, np.random.default_rng(seed))
            assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_seeded_determinism(self):
        img = rand_image(16, 16)
        a = augment(img, 8, np.random.default_rng(3))
        b = augment(img, 8, np.random.default_rng(3))
        assert np.array_equal(a.pixels, b.pixels)

    def test_resize_preserves_constant(self):
        out = resize_bilinear(np.full((5, 5, 1), 0.4), 9, 13)
        assert np.abs(out - 0.4).max() < 1e-12


class TestPatchify:
    def test_256_grid(self):
        mp = patchify(rand_image(256, 256), 16)
        assert mp.n_patches == 256 and mp.grid == (16, 16)

    def test_384_grid(self):
        mp = patchify(rand_image(384, 384), 16)
        assert mp.n_patches == 576 and mp.grid == (24, 24)

    def test_non_divisible_errors(self):
        with pytest.raises(ContractError):
            patchify(rand_image(60, 64), 16)

    def test_roundtrip_exact(self):
        img = rand_image(64, 64, 3)
        assert np.array_equal(unpatchify(patchify(img, 16)).pixels, img.pixels)

    def test_row_major_order(self):
        # patch index = row*cols + col
        img = Image(np.arange(16.0).reshape(4, 4, 1) / 16.0)
        mp = patchify(img, 2)
        assert mp.grid == (2, 2)
        assert np.array_equal(mp.patches[1].ravel() * 16, [2, 3, 6, 7])


class TestMaskPatches:
    def test_count_rule(self):
        mp = patchify(rand_image(256, 256), 16)
        out = mask_patches(mp, 0.15, np.random.default_rng(0))
        assert len(out.mask_positions) == 38  # round(0.15*256)

    def test_floor_rule(self):
        mp = patchify(rand_image(32, 32), 16)
        out = mask_patches(mp, 0.15, np.random.default_rng(0))
        assert len(out.mask_positions) == 1  # max(1, round(0.6))

    def test_no_duplicate_positions(self):
        mp = patchify(rand_image(64, 64), 16)
        for seed in range(50):
            out = mask_patches(mp, 0.5, np.random.default_rng(seed))
            assert len(np.unique(out.mask_positions)) == len(out.mask_positions)

    def test_scatter_back_reconstructs(self):
        mp = patchify(rand_image(64, 64), 16)
        out = mask_patches(mp, 0.3, np.random.default_rng(7))
        restored = out.patches.copy()
        restored[out.mask_positions] = out.mask_targets
        assert np.array_equal(restored, mp.patches)

    def test_masked_rows_zeroed_and_complementary(self):
        mp = patchify(rand_image(64, 64), 16)
        out = mask_patches(mp, 0.25, np.random.default_rng(1))
        assert (out.patches[out.mask_positions] == 0).all()
        both = np.concatenate([out.mask_positions, out.visible_positions])
        assert np.array_equal(np.sort(both), np.arange(mp.n_patches))

    def test_bad_rate(self):
        mp = patchify(rand_image(32, 32), 16)
        with pytest.raises(ConfigError):
            mask_patches(mp, 1.0, np.random.default_rng(0))
