import importlib.util
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailkit.cli import main
from tailkit.raster import (
    CLIP_MEAN,
    CLIP_STD,
    IMAGENET_MEAN,
    IMAGENET_STD,
    TTA_TRANSFORMS,
    PgmRows,
    Raster,
    TtaSpec,
    apply_transform,
    bordered,
    fill_view,
    _HIST_BLOCK,
    _STRIP_ROWS,
    _nearest_rank_values,
    _pgm_tokens,
    _rescale,
    _rotate,
    load_pgm,
    normalize_clip_style,
    percentile_clip_rescale,
    percentile_window,
    resize_bilinear,
    to_tensor3,
    write_view,
)

grids = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    elements=st.floats(min_value=0.0, max_value=1.0),
)

FIXED_PCTS = (0.0, 1.0, 37.5, 99.0, 100.0)


# ---------------------------------------------------------------------------
# Reference kernels: the sort, clip + np.where and whole-frame code that the
# histogram read, the padded gather and the row strips replaced.  Those must
# agree byte for byte.
# ---------------------------------------------------------------------------


def nearest_rank_percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the value at rank max(1, ceil(pct/100 * n))."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if v.size == 0:
        raise ValueError("empty population")
    rank = max(1, int(np.ceil(pct / 100.0 * v.size)))
    return float(v[rank - 1])


def percentile_clip_rescale_oracle(raster, lo_pct, hi_pct):
    pixels = raster.pixels.astype(np.float64)
    q_lo = nearest_rank_percentile(pixels, lo_pct)
    q_hi = nearest_rank_percentile(pixels, hi_pct)
    if q_hi == q_lo:
        return np.zeros_like(pixels)
    return np.clip((pixels - q_lo) / (q_hi - q_lo), 0.0, 1.0)


def rotate_oracle(grid, degrees: float):
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid.shape
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    src_x = cos_t * xx + sin_t * yy + cx
    src_y = -sin_t * xx + cos_t * yy + cy
    x0 = np.floor(src_x).astype(np.int64)
    y0 = np.floor(src_y).astype(np.int64)
    fx = src_x - x0
    fy = src_y - y0
    out = np.zeros_like(grid)
    for dy in (0, 1):
        for dx in (0, 1):
            ys = y0 + dy
            xs = x0 + dx
            weight = (fy if dy else 1 - fy) * (fx if dx else 1 - fx)
            inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
            vals = np.where(inside, grid[np.clip(ys, 0, h - 1), np.clip(xs, 0, w - 1)], 0.0)
            out += weight * vals
    return out


def rotate(grid, degrees: float):
    """``_rotate`` of ``grid`` read from its bordered frame into a NaN-filled buffer."""
    return _rotate(bordered(grid), degrees, np.full(np.shape(grid), np.nan))


def resize_bilinear_oracle(grid, out_h, out_w):
    grid = np.asarray(grid, dtype=np.float64)
    in_h, in_w = grid.shape
    src_y = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0.0, in_h - 1.0)
    src_x = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0.0, in_w - 1.0)
    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (src_y - y0)[:, None]
    wx = (src_x - x0)[None, :]
    top = grid[np.ix_(y0, x0)] * (1 - wx) + grid[np.ix_(y0, x1)] * wx
    bottom = grid[np.ix_(y1, x0)] * (1 - wx) + grid[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def zoom_oracle(grid, scale: float):
    """The whole resize, then its centered crop (zoom in) or a zero frame around it (zoom out)."""
    h, w = grid.shape
    new_h, new_w = (max(1, int(np.floor(n * scale + 0.5))) for n in (h, w))
    scaled = resize_bilinear_oracle(grid, new_h, new_w)
    if scale >= 1.0:
        top, left = (new_h - h) // 2, (new_w - w) // 2
        return scaled[top : top + h, left : left + w]
    out = np.zeros((h, w))
    top, left = (h - new_h) // 2, (w - new_w) // 2
    out[top : top + new_h, left : left + new_w] = scaled
    return out


TRANSFORM_ORACLES = {
    "identity": lambda grid: grid,
    "hflip": lambda grid: grid[:, ::-1],
    "rot+5": lambda grid: rotate_oracle(grid, 5.0),
    "rot-5": lambda grid: rotate_oracle(grid, -5.0),
    "zoom1.1": lambda grid: zoom_oracle(grid, 1.1),
    "zoom0.9": lambda grid: zoom_oracle(grid, 0.9),
}


def to_tensor3_oracle(grid, mean, std):
    grid = np.asarray(grid, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    return (grid[None, :, :] - mean[:, None, None]) / std[:, None, None]


def pgm_tokens_oracle(data: bytes):
    """The byte-by-byte PGM header scanner that the one regex replaced."""
    i = 0
    while i < len(data):
        ch = data[i : i + 1]
        if ch in b" \t\r\n":
            i += 1
        elif ch == b"#":
            j = data.find(b"\n", i)
            i = len(data) if j < 0 else j + 1
        else:
            j = i
            while j < len(data) and data[j : j + 1] not in b" \t\r\n#":
                j += 1
            yield data[i:j], j
            i = j


@st.composite
def rasters(draw, heights=st.integers(1, 12), widths=st.integers(1, 12)):
    """8- or 16-bit rasters, up to 12x12 unless sizes are given, a third of them constant."""
    depth = draw(st.sampled_from([8, 16]))
    h, w = draw(heights), draw(widths)
    maxval = (1 << depth) - 1
    if draw(st.integers(0, 2)) == 0:
        pixels = np.full((h, w), draw(st.integers(0, maxval)))
    else:
        pixels = draw(hnp.arrays(np.uint16, (h, w), elements=st.integers(0, maxval)))
    return Raster(width=w, height=h, depth=depth, pixels=pixels)


# signed grids with -0.0 drawn as often as any other value
signed_cells = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e6, 1e6))
ROTATION_ANGLES = (5.0, -5.0, 33.0, 90.0, 180.0)

# heights on either side of one and two strips, and odd widths; width 33 leaves zoom0.9 an odd pad
# remainder (3 columns) at any strip height
STRIP_HEIGHTS = (1, _STRIP_ROWS - 1, _STRIP_ROWS, _STRIP_ROWS + 1, 2 * _STRIP_ROWS + 1)
ODD_WIDTHS = (1, 3, 17, 33)


def strip_grids(heights=STRIP_HEIGHTS, widths=ODD_WIDTHS):
    """Signed grids whose height sits at a strip boundary, with an odd width."""
    shapes = st.tuples(st.sampled_from(heights), st.sampled_from(widths))
    return shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=signed_cells))


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

    @pytest.mark.parametrize(
        "header",
        [b"P5\n+2 1_0\n255\n", b"P5\n2 1\n+255\n", b"P2\n2 -1\n255\n", b"P2\n2_0 1\n255\n"],
    )
    def test_header_numbers_must_be_digits(self, tmp_path, header):
        # int() takes a sign or an underscore; the header, like a P2 pixel, does not
        path = tmp_path / "s.pgm"
        path.write_bytes(header + b"7 8" + bytes(40))
        with pytest.raises(ValueError) as info:
            load_pgm(path)
        assert str(info.value) == f"{path}: malformed header"

    # the separators, comment and line bytes, and bytes that are token text though they look like space
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(list(b" \t\r\n#09Pa\x00\x0b\x0c")), max_size=40).map(bytes))
    def test_tokens_match_the_scanning_oracle(self, data):
        assert list(_pgm_tokens(data)) == list(pgm_tokens_oracle(data))

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_p2_pixel_above_maxval_fails(self, tmp_path, maxval):
        path = tmp_path / "over.pgm"
        path.write_text(f"P2\n2 1\n{maxval}\n{maxval} {maxval + 1}\n", encoding="ascii")
        with pytest.raises(ValueError) as info:
            load_pgm(path)
        assert str(info.value) == f"{path}: pixel exceeds maxval"

    @pytest.mark.parametrize(
        "header, pixels, message",
        [
            ("1 1\n255", "99999999999999999999", "pixel exceeds maxval"),  # past int64
            ("2 1\n65535", "7 " + "9" * 400, "pixel exceeds maxval"),
            # the faults checked before it keep their precedence
            ("2 1\n255", "99999999999999999999 x", "bad ascii pixel b'x'"),
            ("2 1\n255", "99999999999999999999", "truncated pixel data"),
        ],
        ids=["past-int64", "400-digits", "bad-pixel-first", "truncated-first"],
    )
    def test_p2_pixel_past_int64(self, tmp_path, header, pixels, message):
        path = tmp_path / "huge.pgm"
        path.write_text(f"P2\n{header}\n{pixels}\n", encoding="ascii")
        with pytest.raises(ValueError) as info:
            load_pgm(path)
        assert str(info.value) == f"{path}: {message}"

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

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_p5_keeps_its_bits_and_one_byte_short_is_truncated(self, tmp_path, write_pgm, maxval):
        pixels = np.random.default_rng(maxval).integers(0, maxval + 1, (37, 23))
        path = write_pgm("p.pgm", pixels, maxval=maxval)
        raster = load_pgm(path)
        assert raster.pixels.dtype == np.uint16 and raster.pixels.tobytes() == pixels.astype(np.uint16).tobytes()
        short = tmp_path / "short.pgm"
        short.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError) as info:
            load_pgm(short)
        assert str(info.value) == f"{short}: truncated pixel data"

    def test_comment_right_after_a_p5_maxval_is_malformed(self, tmp_path):
        # P2 skips the comment; a P5 maxval ends at one whitespace byte, so there it is not pixels
        p2, p5 = tmp_path / "c.pgm", tmp_path / "d.pgm"
        p2.write_bytes(b"P2\n2 2\n255#c\n0 64 128 255\n")
        assert load_pgm(p2).pixels.tolist() == [[0, 64], [128, 255]]
        p5.write_bytes(b"P5\n2 2\n255#c\n" + bytes([0, 64, 128, 255]))
        with pytest.raises(ValueError) as info:
            load_pgm(p5)
        assert str(info.value) == f"{p5}: malformed header"

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_rows_on_demand_equal_the_loaded_pixels(self, write_pgm, maxval):
        """``PgmRows.rows_at(ys)`` reads P5 rows in spans; any ascending ``ys``, repeats included, gives
        the rows of ``load_pgm``.  A file cut short after it was opened fails on the read."""
        path = write_pgm("p.pgm", np.random.default_rng(maxval).integers(0, maxval + 1, (37, 23)), maxval=maxval)
        pixels, rows = load_pgm(path).pixels, PgmRows(path)
        for ys in ([0], [0, 0, 1], [5, 6, 6, 7], [3, 4], [36], [0, 36], [10, 11, 12], [35, 36, 36]):
            flat, starts = rows.rows_at(np.array(ys))
            assert flat[starts[:, None] + np.arange(23)].tolist() == pixels[ys].tolist(), ys
        rows = PgmRows(path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError) as info:
            rows.rows_at(np.array([36]))
        assert str(info.value) == f"{path}: truncated pixel data"
        # opened short, the file fails on open, before any pixel is read
        with pytest.raises(ValueError) as info:
            PgmRows(path)
        assert str(info.value) == f"{path}: truncated pixel data"

    @pytest.mark.parametrize("binary", [True, False])
    def test_window_from_the_file_equals_the_raster_window(self, write_pgm, binary):
        # 257 columns: blocks of 255 whole rows, so the last block is short
        path = write_pgm("w.pgm", np.random.default_rng(6).integers(0, 65536, (300, 257)), maxval=65535, binary=binary)
        assert _nearest_rank_values(PgmRows(path), FIXED_PCTS) == _nearest_rank_values(load_pgm(path), FIXED_PCTS)

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_p5_load_copies_the_pixels_once(self, write_pgm, maxval):
        """The file's bytes plus one uint16 cast: 1.5x (8-bit) or 2x (16-bit) the raster's pixels.

        A slice of the bytes and a second cast took 3x and 4x.
        """
        path = write_pgm("big.pgm", np.random.default_rng(2).integers(0, maxval + 1, (384, 512)), maxval=maxval)
        tracemalloc.start()
        try:
            raster = load_pgm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * raster.pixels.nbytes


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
        # classic nearest-rank cases, by the sort and by the histogram
        cases = {30: 20, 40: 20, 50: 35, 100: 50}
        for pct, expected in cases.items():
            assert nearest_rank_percentile(values, pct) == expected
        counted = _nearest_rank_values(Raster(width=5, height=1, depth=8, pixels=[values]), list(cases))
        assert counted == list(cases.values())

    @settings(max_examples=150, deadline=None)
    @given(rasters(), st.lists(st.floats(0.0, 100.0), max_size=4))
    @example(Raster(width=1, height=1, depth=16, pixels=[[65535]]), [])
    @example(Raster(width=1, height=1, depth=8, pixels=[[0]]), [])
    def test_counting_matches_sort_oracle(self, raster, drawn):
        pcts = list(FIXED_PCTS) + drawn
        counted = _nearest_rank_values(raster, pcts)
        for pct, value in zip(pcts, counted):
            oracle = nearest_rank_percentile(raster.pixels, pct)
            assert np.float64(value).tobytes() == np.float64(oracle).tobytes(), pct

    @settings(max_examples=100, deadline=None)
    @given(rasters(), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    def test_clip_rescale_matches_sort_oracle(self, raster, a, b):
        for lo, hi in [(min(a, b), max(a, b)), (1.0, 99.0), (0.0, 100.0), (37.5, 99.0)]:
            if lo < hi:
                out = percentile_clip_rescale(raster, lo, hi)
                expected = percentile_clip_rescale_oracle(raster, lo, hi)
                assert out.dtype == np.float64 and out.shape == expected.shape
                assert out.tobytes() == expected.tobytes()

    def test_large_16bit_raster_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        pixels = np.clip(rng.normal(30000, 9000, (512, 512)), 0, 65535).astype(np.uint16)
        raster = Raster(width=512, height=512, depth=16, pixels=pixels)
        counted = _nearest_rank_values(raster, FIXED_PCTS)
        assert counted == [nearest_rank_percentile(pixels, pct) for pct in FIXED_PCTS]
        out = percentile_clip_rescale(raster, 1.0, 99.0)
        assert out.tobytes() == percentile_clip_rescale_oracle(raster, 1.0, 99.0).tobytes()

    @pytest.mark.parametrize("n", [_HIST_BLOCK - 1, _HIST_BLOCK, _HIST_BLOCK + 1, 2 * _HIST_BLOCK + 1])
    def test_blocked_histogram_matches_sort_oracle(self, n):
        # the unique minimum opens the first block and the unique maximum closes the last
        pixels = np.random.default_rng(n).integers(1, 60000, (1, n)).astype(np.uint16)
        pixels[0, 0], pixels[0, -1] = 0, 65535
        raster = Raster(width=n, height=1, depth=16, pixels=pixels)
        counted = _nearest_rank_values(raster, FIXED_PCTS)
        assert counted == [nearest_rank_percentile(pixels, pct) for pct in FIXED_PCTS]
        assert counted[0] == 0.0 and counted[-1] == 65535.0
        for lo, hi in [(1.0, 99.0), (0.0, 100.0)]:
            out = percentile_clip_rescale(raster, lo, hi)
            assert out.tobytes() == percentile_clip_rescale_oracle(raster, lo, hi).tobytes()

    def test_window_allocates_a_quarter_of_the_pixel_bytes(self):
        """The percentile window of a 2048^2 16-bit raster peaks at 0.19x its pixel bytes;
        one np.bincount of the whole raster cast it to intp, 4.06x."""
        pixels = np.random.default_rng(4).integers(0, 65536, (2048, 2048)).astype(np.uint16)
        raster = Raster(width=2048, height=2048, depth=16, pixels=pixels)
        tracemalloc.start()
        try:
            window = percentile_window(raster, 1.0, 99.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * pixels.nbytes
        assert window == (nearest_rank_percentile(pixels, 1.0), nearest_rank_percentile(pixels, 99.0))

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

    @pytest.mark.parametrize("out_h, out_w", [(0, 3), (3, 0)])
    def test_output_must_be_at_least_one_pixel(self, out_h, out_w):
        with pytest.raises(ValueError) as exc:
            resize_bilinear(np.ones((2, 2)), out_h, out_w)
        assert str(exc.value) == "output size must be at least 1x1"

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


    @settings(max_examples=120, deadline=None)
    @given(
        strip_grids(heights=(1, 2, 31, 32, 33, 65, 70)),
        st.sampled_from(STRIP_HEIGHTS),
        st.sampled_from(ODD_WIDTHS + (2, 64)),
    )
    def test_strips_match_whole_frame_oracle(self, grid, out_h, out_w):
        # drawn input heights above and below the output's cover up- and downscaling
        out = resize_bilinear(grid, out_h, out_w)
        assert out.shape == (out_h, out_w)
        assert out.tobytes() == resize_bilinear_oracle(grid, out_h, out_w).tobytes()

    def test_benchmark_sized_resizes_match_whole_frame_oracle(self):
        grid = np.random.default_rng(13).random((300, 257))
        for out_h, out_w in [(97, 129), (330, 283), (271, 231), (300, 257), (1, 5)]:
            out = resize_bilinear(grid, out_h, out_w)
            assert out.tobytes() == resize_bilinear_oracle(grid, out_h, out_w).tobytes()


class TestRescaleInsideResize:
    """``resize_bilinear(pixels, ..., window=)`` against the whole-frame rescale, then resize."""

    @settings(max_examples=150, deadline=None)
    @given(
        rasters(heights=st.sampled_from((1, 2, 31, 33, 70)), widths=st.integers(1, 40)),
        st.sampled_from([(1, 1.0, 99.0), (1, 0.0, 100.0), (2, None, None)]),
        st.sampled_from(STRIP_HEIGHTS),
        st.sampled_from(ODD_WIDTHS),
        st.sampled_from(TTA_TRANSFORMS),
    )
    def test_views_match_whole_frame_rescale_then_resize(self, raster, task_pcts, out_h, out_w, name):
        # drawn input sizes above and below the output's cover up- and downscaling
        task, lo, hi = task_pcts
        if task == 1:
            window, grid = percentile_window(raster, lo, hi), percentile_clip_rescale_oracle(raster, lo, hi)
            mean_std = (IMAGENET_MEAN, IMAGENET_STD)
        else:
            window, grid = (0, raster.maxval), raster.pixels.astype(np.float64) / float(raster.maxval)
            mean_std = (CLIP_MEAN, CLIP_STD)
        out = resize_bilinear(raster.pixels, out_h, out_w, window=window)
        expected = resize_bilinear_oracle(grid, out_h, out_w)
        assert out.dtype == np.float64 and out.tobytes() == expected.tobytes()
        view = to_tensor3(apply_transform(out, name), *mean_std).astype("<f4")
        assert view.tobytes() == to_tensor3_oracle(apply_transform(expected, name), *mean_std).astype("<f4").tobytes()

    def test_each_strip_reads_one_span_of_a_p5_file(self, write_pgm, monkeypatch):
        """A strip's top and bottom source rows come from one read, into one reused buffer: one read per
        strip of the 65 output rows."""
        path = write_pgm("s.pgm", np.random.default_rng(3).integers(0, 65536, (130, 9)), maxval=65535)
        source, spans = PgmRows(path), set()
        rows_at = source.rows_at

        def spy(ys):
            flat, starts = rows_at(ys)
            spans.add((*source._span[:2], flat.__array_interface__["data"][0]))
            return flat, starts

        monkeypatch.setattr(source, "rows_at", spy)
        out = resize_bilinear(source, 65, 5, window=(0, 65535))
        assert len(spans) == math.ceil(65 / _STRIP_ROWS) and len({data for *_, data in spans}) == 1
        assert out.tobytes() == resize_bilinear(load_pgm(path).pixels, 65, 5, window=(0, 65535)).tobytes()

    @pytest.mark.parametrize("framed", [False, True])
    @pytest.mark.parametrize("window", [None, (3, 200)], ids=["no-window", "window"])
    @pytest.mark.parametrize("depth", [8, 16])
    def test_a_raster_resizes_as_its_pixels(self, depth, window, framed):
        # a Raster passed the rows_at test of a pixel source, then failed on its missing shape
        pixels = np.random.default_rng(depth).integers(0, 1 << depth, (37, 11))
        raster = Raster(width=11, height=37, depth=depth, pixels=pixels)
        assert raster.shape == (37, 11)
        for out_h, out_w in [(70, 5), (9, 23)]:
            got = resize_bilinear(raster, out_h, out_w, window=window, framed=framed)
            assert got.tobytes() == resize_bilinear(raster.pixels, out_h, out_w, window=window, framed=framed).tobytes()

    @pytest.mark.parametrize("depth", [8, 16])
    def test_maxval_window_is_the_division_for_every_value(self, depth):
        maxval = (1 << depth) - 1
        pixels = np.arange(maxval + 1, dtype=np.uint16)
        assert _rescale(pixels, 0, maxval).tobytes() == (pixels.astype(np.float64) / maxval).tobytes()
        raster = Raster(width=maxval + 1, height=1, depth=depth, pixels=pixels)
        assert normalize_clip_style(raster).tobytes() == (pixels.astype(np.float64) / maxval).tobytes()


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

    @settings(max_examples=60, deadline=None)
    @given(
        strip_grids(),
        st.sampled_from([(IMAGENET_MEAN, IMAGENET_STD), (CLIP_MEAN, CLIP_STD)]),
    )
    def test_matches_whole_frame_oracle(self, grid, mean_std):
        tensor = to_tensor3(grid, *mean_std)
        assert tensor.dtype == np.float64 and tensor.shape == (3,) + grid.shape
        assert tensor.tobytes() == to_tensor3_oracle(grid, *mean_std).tobytes()

    @pytest.mark.parametrize("mean, std", [((0.5, 0.5), (1.0, 1.0, 1.0)), ((0.5, 0.5, 0.5), (1.0,) * 4)])
    def test_mean_and_std_need_three_entries(self, mean, std):
        with pytest.raises(ValueError) as exc:
            to_tensor3(np.ones((1, 1)), mean, std)
        assert str(exc.value) == "mean and std must have 3 entries"
        with pytest.raises(ValueError) as exc:
            write_view(io.BytesIO(), bordered(np.ones((1, 1))), "identity", mean, std, {})
        assert str(exc.value) == "mean and std must have 3 entries"

    @pytest.mark.parametrize(
        "mean, std, message",
        [
            ((0.5, np.nan, 0.5), (1.0, 1.0, 1.0), "mean must be numbers in (-inf, inf)"),
            ((0.5, 0.5, 0.5), (1.0, np.nan, 1.0), "std must be numbers in (0, inf)"),
            ((0.5, 0.5, 0.5), (1.0, 0.0, 1.0), "std must be numbers in (0, inf)"),
        ],
        ids=["nan-mean", "nan-std", "zero-std"],
    )
    def test_mean_and_std_entries_are_checked(self, mean, std, message):
        """A NaN mean or std is rejected, not written as NaN channels, by both the whole-view and strip writers."""
        with pytest.raises(ValueError) as exc:
            to_tensor3(np.ones((1, 1)), mean, std)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            write_view(io.BytesIO(), bordered(np.ones((1, 1))), "identity", mean, std, {})
        assert str(exc.value) == message


class TestWriteView:
    @settings(max_examples=40, deadline=None)
    @given(
        strip_grids(),
        st.permutations(TTA_TRANSFORMS),
        st.sampled_from([(IMAGENET_MEAN, IMAGENET_STD), (CLIP_MEAN, CLIP_STD)]),
    )
    def test_views_through_one_work_dict_equal_the_whole_frame_tensor(self, grid, order, mean_std):
        """Every view written through one work dict, whose arrays start as NaN, is the float32 bytes of
        ``to_tensor3`` of the whole view, channel plane after channel plane."""
        padded, w = bordered(grid), grid.shape[1]
        work = {key: np.full(6 * _STRIP_ROWS * w, np.nan) for key in ("float", "view")}
        for name in order:
            fh = io.BytesIO()
            write_view(fh, padded, name, *mean_std, work)
            expected = to_tensor3_oracle(apply_transform(grid, name), *mean_std).astype("<f4")
            assert fh.getvalue() == expected.tobytes(), name


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

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([(1, 1), (7, 5), (3, 8)]).flatmap(
            lambda shape: hnp.arrays(np.float64, shape, elements=signed_cells)
        ),
        st.one_of(st.sampled_from(ROTATION_ANGLES), st.floats(-360.0, 360.0)),
    )
    def test_rotate_matches_clip_where_oracle(self, grid, degrees):
        assert rotate(grid, degrees).tobytes() == rotate_oracle(grid, degrees).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(strip_grids(), st.one_of(st.sampled_from(ROTATION_ANGLES), st.floats(-360.0, 360.0)))
    def test_rotate_strips_match_clip_where_oracle(self, grid, degrees):
        assert rotate(grid, degrees).tobytes() == rotate_oracle(grid, degrees).tobytes()

    def test_rotate_1024_matches_clip_where_oracle(self):
        rng = np.random.default_rng(12)
        grid = rng.standard_normal((1024, 1024))
        grid[rng.random(grid.shape) < 0.05] = -0.0
        grid[::97, :] = 0.0
        for degrees in ROTATION_ANGLES:
            assert rotate(grid, degrees).tobytes() == rotate_oracle(grid, degrees).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(grids)
    def test_hflip_involution_property(self, grid):
        twice = apply_transform(apply_transform(grid, "hflip"), "hflip")
        np.testing.assert_allclose(twice, grid, atol=1e-12)


class TestViewBuffer:
    """``fill_view`` refilling one buffer, as ``preprocess`` does, against fresh arrays and oracles."""

    @settings(max_examples=120, deadline=None)
    @given(strip_grids(), st.permutations(TTA_TRANSFORMS), st.booleans())
    def test_refilled_buffer_holds_each_fresh_view(self, grid, order, keep_previous):
        # the buffer starts as NaN and is refilled with NaN before each view, or keeps the previous view
        padded, out = bordered(grid), np.full(grid.shape, np.nan)
        for name in order:
            if not keep_previous:
                out.fill(np.nan)
            assert fill_view(padded, name, out) is out
            assert out.tobytes() == apply_transform(grid, name).tobytes(), name
            assert out.tobytes() == np.ascontiguousarray(TRANSFORM_ORACLES[name](grid)).tobytes(), name

    @settings(max_examples=80, deadline=None)
    @given(strip_grids(), st.integers(1, 40), st.permutations(TTA_TRANSFORMS))
    def test_strips_sharing_work_arrays_equal_each_fresh_view(self, grid, rows, order):
        """Every view filled by strips of ``rows`` rows, all through one work dict whose arrays start
        as NaN and then hold what earlier strips and views left, is the whole view."""
        h, w = grid.shape
        padded, strip = bordered(grid), np.full((rows, w), np.nan)
        work = {"float": np.full(6 * _STRIP_ROWS * w, np.nan), "int": np.full(2 * _STRIP_ROWS * w, -1)}
        for name in order:
            strips = [fill_view(padded, name, strip[: h - r], row0=r, work=work).copy() for r in range(0, h, rows)]
            assert np.concatenate(strips).tobytes() == apply_transform(grid, name).tobytes(), name

    def test_warm_strips_make_no_work_array(self):
        """Once the work arrays exist, no 32-row strip of a 1024^2 view allocates as much as the strip,
        256 KiB: measured at most 174 KiB, numpy's own ufunc buffers and the coordinate vectors, with
        32-row work arrays (``_STRIP_ROWS`` 32) and with 16-row ones alike.  Each strip that made its
        own 32-row work arrays took 2.0 MiB (rotation) and 1.1 MiB (zoom1.1)."""
        grid = np.random.default_rng(8).random((1024, 1024))
        padded, strip, work = bordered(grid), np.empty((32, 1024)), {}
        for name in TTA_TRANSFORMS:
            fill_view(padded, name, strip, work=work)
        for name in TTA_TRANSFORMS:
            tracemalloc.start()
            try:
                for row0 in range(0, 1024, 32):
                    fill_view(padded, name, strip, row0=row0, work=work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < strip.nbytes, name

    def test_each_view_allocates_at_most_half_the_grid(self):
        """Each transform of a 1024^2 bordered grid into a preallocated buffer allocates at most
        0.5x the grid: measured 0 for identity and hflip, 0.29x for rotation, 0.17x for zoom1.1
        and 0.16x for zoom0.9.  Built as a new array per view, each took 1x for its output plus
        1.30x (rotation's padded copy), 0.40x (the whole zoom1.1 resize) or 0.81x (the zoom0.9
        resize before its zero pad)."""
        grid = np.random.default_rng(8).random((1024, 1024))
        padded, out = bordered(grid), np.empty(grid.shape)
        for name in TTA_TRANSFORMS:
            tracemalloc.start()
            try:
                fill_view(padded, name, out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.5 * grid.nbytes, name

    def test_unknown_transform_fails(self):
        with pytest.raises(ValueError, match="unknown transform 'spin'"):
            apply_transform(np.zeros((2, 2)), "spin")

    def test_benchmark_tracer_books_each_view_to_raster(self, tmp_path):
        """The benchmark's tracer spans public functions only: each view ``preprocess`` writes is one
        ``raster.write_view`` span, and the ``raster.fill_view`` span of each of its strips is a child of
        it, so the view stage, each strip's normalize and cast included, counts as raster work, not cli."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        pgm = tmp_path / "img.pgm"
        pgm.write_bytes(b"P5\n8 8\n255\n" + bytes(range(0, 256, 4)))
        views = ["identity", "rot+5", "zoom0.9"]
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            code = main(["preprocess", str(pgm), "--size", "70", "--tta", *views, "--out-dir", str(tmp_path / "v")])
        finally:
            tracer.uninstall()
        assert code == 0
        assert [name for name, *_ in tracer.spans].count("raster.write_view") == len(views)
        # one fill per strip of the 70 rows, the last one partial
        fills = [parent for name, _, _, parent in tracer.spans if name == "raster.fill_view"]
        assert len(fills) == math.ceil(70 / _STRIP_ROWS) * len(views)
        assert all(tracer.spans[parent][0] == "raster.write_view" for parent in fills)


def test_raster_validation():
    with pytest.raises(ValueError):
        Raster(width=1, height=1, depth=12, pixels=[[0]])
    with pytest.raises(ValueError):
        Raster(width=0, height=1, depth=8, pixels=np.zeros((1, 0)))
    with pytest.raises(ValueError):
        Raster(width=1, height=1, depth=8, pixels=[[256]])


@pytest.mark.parametrize(
    "pixels, message",
    [
        # each of these once passed, wrapped or truncated by the uint16 cast: 4464, 65535, 3 and 1
        (np.array([[70000]]), "pixel intensity exceeds depth"),
        (np.array([[-1]]), "pixel values must be non-negative integers"),
        (np.array([[3.7]]), "pixel values must be non-negative integers"),
        (np.array([[True]]), "pixel values must be non-negative integers"),
        (np.array([[65536]], dtype=np.uint32), "pixel intensity exceeds depth"),
    ],
    ids=["past-16-bits", "negative", "float", "bool", "uint32-past-16-bits"],
)
def test_raster_checks_pixels_before_the_cast(pixels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Raster(width=1, height=1, depth=16, pixels=pixels)


def test_raster_keeps_valid_pixels():
    for pixels in ([[0, 65535]], np.array([[0, 65535]], dtype=np.int64), np.array([[0, 65535]], dtype=np.uint16)):
        raster = Raster(width=2, height=1, depth=16, pixels=pixels)
        assert raster.pixels.dtype == np.uint16 and raster.pixels.tolist() == [[0, 65535]]
    frame = np.arange(6, dtype=np.uint16)
    assert Raster(width=3, height=2, depth=8, pixels=frame).pixels.base is frame
