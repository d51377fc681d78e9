import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailkit.raster import (
    CLIP_MEAN,
    IMAGENET_MEAN,
    IMAGENET_STD,
    TTA_TRANSFORMS,
    Raster,
    TtaSpec,
    apply_transform,
    load_pgm,
    nearest_rank_percentile,
    normalize_clip_style,
    percentile_clip_rescale,
    resize_bilinear,
    to_tensor3,
)

grids = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    elements=st.floats(min_value=0.0, max_value=1.0),
)


class TestLoadPgm:
    def test_p5_8bit(self, write_pgm):
        path = write_pgm("a.pgm", [[0, 100], [200, 255]], maxval=255)
        raster = load_pgm(path)
        assert (raster.width, raster.height, raster.depth) == (2, 2, 8)
        assert raster.pixels.tolist() == [[0, 100], [200, 255]]

    def test_p5_16bit_big_endian(self, write_pgm):
        path = write_pgm("b.pgm", [[0, 65535], [32768, 1]], maxval=65535)
        raster = load_pgm(path)
        assert raster.depth == 16
        assert raster.pixels.tolist() == [[0, 65535], [32768, 1]]

    def test_p2_ascii(self, write_pgm):
        path = write_pgm("c.pgm", [[5, 10], [15, 20]], maxval=255, binary=False)
        raster = load_pgm(path)
        assert raster.pixels.tolist() == [[5, 10], [15, 20]]

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_text("P2\n# a comment\n2 2\n255\n1 2\n3 4\n", encoding="ascii")
        assert load_pgm(path).pixels.tolist() == [[1, 2], [3, 4]]

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_text("P2\n1 1\n1023\n0\n", encoding="ascii")
        with pytest.raises(ValueError, match="maxval"):
            load_pgm(path)

    def test_truncated_ascii(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_text("P2\n2 2\n255\n1 2 3\n", encoding="ascii")
        with pytest.raises(ValueError, match="truncated"):
            load_pgm(path)

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x01\x02\x03")
        with pytest.raises(ValueError, match="truncated"):
            load_pgm(path)

    def test_not_pgm(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="not a PGM"):
            load_pgm(path)

    def test_round_trip(self, write_pgm):
        pixels = np.random.default_rng(1).integers(0, 65536, (3, 5))
        for binary in (True, False):
            back = load_pgm(write_pgm(f"rt{binary}.pgm", pixels, maxval=65535, binary=binary))
            assert (back.width, back.height, back.depth) == (5, 3, 16)
            assert np.array_equal(back.pixels, pixels)


class TestPercentileClip:
    def test_constant_raster_all_zero(self):
        raster = Raster(width=3, height=2, depth=8, pixels=np.full((2, 3), 77))
        out = percentile_clip_rescale(raster, 1, 99)
        assert (out == 0.0).all()

    def test_full_range_identity_rescale(self):
        pixels = np.arange(256, dtype=np.uint16).reshape(16, 16)
        raster = Raster(width=16, height=16, depth=8, pixels=pixels)
        out = percentile_clip_rescale(raster, 0, 100)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_nearest_rank_oracle(self):
        # population {0,0,0,100}: rank ceil(.01*4)=1 -> 0, rank ceil(.99*4)=4 -> 100
        raster = Raster(width=2, height=2, depth=8, pixels=np.array([[0, 0], [0, 100]]))
        out = percentile_clip_rescale(raster, 1, 99)
        assert sorted(out.ravel().tolist()) == [0.0, 0.0, 0.0, 1.0]

    def test_nearest_rank_definition(self):
        values = [15, 20, 35, 40, 50]
        # classic nearest-rank cases
        assert nearest_rank_percentile(values, 30) == 20
        assert nearest_rank_percentile(values, 40) == 20
        assert nearest_rank_percentile(values, 50) == 35
        assert nearest_rank_percentile(values, 100) == 50

    def test_invalid_bounds(self):
        raster = Raster(width=1, height=1, depth=8, pixels=[[0]])
        with pytest.raises(ValueError):
            percentile_clip_rescale(raster, 50, 50)
        with pytest.raises(ValueError):
            percentile_clip_rescale(raster, -1, 99)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_output_in_unit_interval_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, (6, 6))
        raster = Raster(width=6, height=6, depth=8, pixels=pixels)
        out = percentile_clip_rescale(raster, 5, 95)
        assert (out >= 0.0).all() and (out <= 1.0).all()
        # raising one pixel never lowers its output
        i, j = int(rng.integers(6)), int(rng.integers(6))
        if pixels[i, j] < 255:
            bumped = pixels.copy()
            bumped[i, j] += 1
            out2 = percentile_clip_rescale(
                Raster(width=6, height=6, depth=8, pixels=bumped), 5, 95
            )
            assert out2[i, j] >= out[i, j] - 1e-12


class TestNormalizeClipStyle:
    def test_8bit_max(self):
        raster = Raster(width=1, height=1, depth=8, pixels=[[255]])
        assert normalize_clip_style(raster)[0, 0] == 1.0

    def test_16bit_max(self):
        raster = Raster(width=1, height=1, depth=16, pixels=[[65535]])
        assert normalize_clip_style(raster)[0, 0] == 1.0

    def test_16bit_half(self):
        raster = Raster(width=1, height=1, depth=16, pixels=[[32768]])
        assert normalize_clip_style(raster)[0, 0] == pytest.approx(32768 / 65535, abs=1e-15)


class TestResizeBilinear:
    def test_same_size_identity(self):
        rng = np.random.default_rng(2)
        grid = rng.random((7, 5))
        out = resize_bilinear(grid, 7, 5)
        np.testing.assert_allclose(out, grid, atol=1e-12)

    def test_constant_stays_constant(self):
        out = resize_bilinear(np.full((3, 3), 0.42), 9, 5)
        np.testing.assert_allclose(out, 0.42, atol=1e-12)

    def test_half_pixel_middle_column(self):
        out = resize_bilinear(np.array([[0.0, 1.0], [0.0, 1.0]]), 2, 3)
        np.testing.assert_allclose(out[:, 1], 0.5, atol=1e-12)
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(out[:, 2], 1.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(grids, st.integers(1, 20), st.integers(1, 20))
    def test_no_overshoot(self, grid, out_h, out_w):
        out = resize_bilinear(grid, out_h, out_w)
        assert out.shape == (out_h, out_w)
        assert out.min() >= grid.min() - 1e-12
        assert out.max() <= grid.max() + 1e-12


class TestToTensor3:
    def test_identity_normalization(self):
        grid = np.random.default_rng(3).random((4, 4))
        tensor = to_tensor3(grid, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        assert tensor.shape == (3, 4, 4)
        for ch in range(3):
            np.testing.assert_array_equal(tensor[ch], grid)

    def test_imagenet_centering(self):
        tensor = to_tensor3(np.full((2, 2), IMAGENET_MEAN[0]), IMAGENET_MEAN, IMAGENET_STD)
        np.testing.assert_allclose(tensor[0], 0.0, atol=1e-12)

    def test_affine_value(self):
        tensor = to_tensor3(np.ones((1, 1)), (0.5, 0.5, 0.5), (0.25, 0.25, 0.25))
        np.testing.assert_allclose(tensor, 2.0, atol=1e-15)

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError):
            to_tensor3(np.ones((1, 1)), (0.0, 0.0, 0.0), (1.0, 0.0, 1.0))

    def test_clip_constants_are_three_channel(self):
        assert len(CLIP_MEAN) == 3


class TestTta:
    def test_identity_exact(self):
        grid = np.random.default_rng(4).random((6, 6))
        np.testing.assert_array_equal(apply_transform(grid, "identity"), grid)

    def test_hflip_involution(self):
        grid = np.random.default_rng(5).random((5, 8))
        once = apply_transform(grid, "hflip")
        twice = apply_transform(once, "hflip")
        np.testing.assert_allclose(twice, grid, atol=1e-12)

    def test_rotation_constant_interior(self):
        grid = np.full((21, 21), 0.8)
        out = apply_transform(grid, "rot+5")
        assert out.shape == grid.shape
        # interior far from the border is untouched by the zero-fill rule
        np.testing.assert_allclose(out[8:13, 8:13], 0.8, atol=1e-12)
        assert out.min() >= 0.0 and out.max() <= 0.8 + 1e-12

    def test_all_transforms_preserve_shape(self):
        grid = np.random.default_rng(6).random((10, 14))
        for name in TTA_TRANSFORMS:
            assert apply_transform(grid, name).shape == grid.shape

    def test_zoom_out_pads_with_zeros(self):
        grid = np.ones((20, 20))
        out = apply_transform(grid, "zoom0.9")
        assert out.shape == (20, 20)
        assert out[0, 0] == 0.0  # symmetric pad border
        np.testing.assert_allclose(out[2:-2, 2:-2], 1.0, atol=1e-12)

    def test_zoom_in_center_crop(self):
        grid = np.ones((20, 20))
        out = apply_transform(grid, "zoom1.1")
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TtaSpec(())
        with pytest.raises(ValueError):
            TtaSpec(("identity", "identity"))
        with pytest.raises(ValueError):
            TtaSpec(("spin",))

    @settings(max_examples=25, deadline=None)
    @given(grids)
    def test_hflip_involution_property(self, grid):
        twice = apply_transform(apply_transform(grid, "hflip"), "hflip")
        np.testing.assert_allclose(twice, grid, atol=1e-12)


def test_raster_validation():
    with pytest.raises(ValueError):
        Raster(width=1, height=1, depth=12, pixels=[[0]])
    with pytest.raises(ValueError):
        Raster(width=0, height=1, depth=8, pixels=np.zeros((1, 0)))
    with pytest.raises(ValueError):
        Raster(width=1, height=1, depth=8, pixels=[[256]])
