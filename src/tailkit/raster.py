"""Grayscale raster preprocessing and the geometric TTA transform set.

Pins the conventions that matter for bit-reproducibility:

* percentiles use the nearest-rank definition: the value is read from the
  uint16 histogram and equals the one at that rank of the sorted pixel
  population; a constant raster rescales to all zeros,
* bilinear resampling uses half-pixel-centered sampling with edge clamping,
  so plain bilinear never overshoots the input range,
* rotation is about the image center (half-pixel convention) with bilinear
  sampling and zero fill for out-of-bounds source samples,
* odd crop/pad remainders put the extra pixel at the bottom/right.

All public operations are pure functions over float64 grids in [0, 1].
Bilinear resize, rotation and the channel normalization work in strips of
``_STRIP_ROWS`` rows, and a resize given a rescale window rescales only the
raw pixel rows each strip reads.  A TTA view fills a caller's buffer from
the grid held once inside a zero border, and a zoom computes only the rows
and columns it keeps.  Each output value goes through the same float
operations in the same order as in a whole-frame computation, so outputs do
not depend on the strip height or on what the buffer held.
"""

import re
from dataclasses import dataclass

import numpy as np

from .data import _check_real

TTA_TRANSFORMS = ("identity", "hflip", "rot+5", "rot-5", "zoom1.1", "zoom0.9")

IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)
CLIP_MEAN = (0.48145466, 0.4578275, 0.40821073)
CLIP_STD = (0.26862954, 0.26130258, 0.27577711)

# output rows per strip in resize_bilinear, _rotate and tensor3_channels: each
# float64 temporary of a 1024-pixel-wide output then takes 256 KiB
_STRIP_ROWS = 32
# the zero border that bordered adds: _rotate clips tap corners to [-2, h], so every tap lands in it
_BORDER = 2
# pixels per np.bincount call in _nearest_rank_values: each casts a 512 KiB intp block
_HIST_BLOCK = 1 << 16


@dataclass
class Raster:
    width: int
    height: int
    depth: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.depth not in (8, 16):
            raise ValueError("depth must be 8 or 16 bits")
        if self.width < 1 or self.height < 1:
            raise ValueError("raster must be at least 1x1")
        self.pixels = np.asarray(self.pixels, dtype=np.uint16).reshape(self.height, self.width)
        if int(self.pixels.max(initial=0)) > (1 << self.depth) - 1:
            raise ValueError("pixel intensity exceeds depth")

    @property
    def maxval(self) -> int:
        return (1 << self.depth) - 1


@dataclass
class TtaSpec:
    transforms: tuple

    def __post_init__(self):
        self.transforms = tuple(self.transforms)
        if not self.transforms:
            raise ValueError("TTA spec must name at least one transform")
        unknown = [t for t in self.transforms if t not in TTA_TRANSFORMS]
        if unknown:
            raise ValueError(f"unknown transform(s): {unknown}")
        if len(set(self.transforms)) != len(self.transforms):
            raise ValueError("duplicate transform in TTA spec")


# a # comment runs to the end of its line; a token stops at whitespace or a #
_PGM_TOKEN = re.compile(rb"#[^\n]*|[^ \t\r\n#]+")


def _pgm_tokens(data: bytes):
    """The tokens of ``data``, each with the offset where it ends, skipping # comments."""
    return ((m.group(), m.end()) for m in _PGM_TOKEN.finditer(data) if m.group()[:1] != b"#")


def load_pgm(path) -> Raster:
    """Read a P2 (ascii) or P5 (binary) PGM; maxval must be 255 or 65535."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM (magic {magic!r})")
    try:
        (w_tok, _), (h_tok, _), (max_tok, max_end) = next(tokens), next(tokens), next(tokens)
    except StopIteration:
        raise ValueError(f"{path}: malformed header") from None
    # decimal digits only, as for P2 pixels: int() would also take a sign or an underscore
    if not (w_tok + h_tok + max_tok).isdigit():
        raise ValueError(f"{path}: malformed header")
    width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    depth = 8 if maxval == 255 else 16
    count = width * height

    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the pixel bytes
        start, dtype = max_end + 1, np.dtype(np.uint8 if depth == 8 else ">u2")
        if len(data) - start < count * dtype.itemsize:
            raise ValueError(f"{path}: truncated pixel data")
        pixels = np.frombuffer(data, dtype, count=count, offset=start)
    else:
        values = []
        for tok, _ in tokens:
            # decimal digits only: int() would also take a sign or an underscore
            if not tok.isdigit():
                raise ValueError(f"{path}: bad ascii pixel {tok!r}")
            values.append(int(tok))
            if len(values) == count:
                break
        if len(values) < count:
            raise ValueError(f"{path}: truncated pixel data")
        pixels = np.asarray(values, dtype=np.int64)
        if (pixels > maxval).any():
            raise ValueError(f"{path}: pixel exceeds maxval")
    return Raster(width=width, height=height, depth=depth, pixels=pixels.astype(np.uint16))


def _nearest_rank_values(pixels, pcts) -> list:
    """Nearest-rank values of uint16 ``pixels``: for each pct, the value at rank
    max(1, ceil(pct/100 * n)) of the sorted population.

    Read from the histogram: that value is the smallest intensity whose
    cumulative count reaches the rank.  The histogram is summed over blocks of
    ``_HIST_BLOCK`` pixels, so no intp copy of the whole raster is made.
    """
    flat = pixels.ravel()
    counts = np.zeros(int(flat.max(initial=0)) + 1, dtype=np.int64)
    for start in range(0, flat.size, _HIST_BLOCK):
        counts += np.bincount(flat[start : start + _HIST_BLOCK], minlength=counts.size)
    ranks = [max(1, int(np.ceil(pct / 100.0 * pixels.size))) for pct in pcts]
    return [float(v) for v in np.searchsorted(np.cumsum(counts), ranks)]


def _check_percentiles(lo_pct, hi_pct) -> None:
    """Each percentile must be a number in [0, 100], and ``lo_pct`` below ``hi_pct``."""
    _check_real("lo_pct", lo_pct, "[0, 100]")
    _check_real("hi_pct", hi_pct, "[0, 100]")
    if not lo_pct < hi_pct:
        raise ValueError("need 0 <= lo_pct < hi_pct <= 100")


def percentile_window(raster: Raster, lo_pct: float = 1.0, hi_pct: float = 99.0) -> tuple:
    """The nearest-rank (lo, hi) intensities that ``percentile_clip_rescale`` maps to 0 and 1."""
    _check_percentiles(lo_pct, hi_pct)
    return tuple(_nearest_rank_values(raster.pixels, (lo_pct, hi_pct)))


def percentile_clip_rescale(raster: Raster, lo_pct: float = 1.0, hi_pct: float = 99.0):
    """Clip to the [lo, hi] percentile window, then rescale to [0, 1]."""
    return _rescale(raster.pixels, *percentile_window(raster, lo_pct, hi_pct))


def normalize_clip_style(raster: Raster):
    """Divide by the depth's maxval (255 or 65535): the (0, maxval) window, with the same bits."""
    return _rescale(raster.pixels, 0, raster.maxval)


def _rescale(pixels, lo, hi):
    """``(pixels - lo) / (hi - lo)`` clipped to [0, 1] in float64; all zeros when hi == lo."""
    if hi == lo:
        return np.zeros(pixels.shape)
    grid = pixels.astype(np.float64)
    grid -= lo
    grid /= hi - lo
    return np.clip(grid, 0.0, 1.0, out=grid)


def resize_bilinear(grid, out_h: int, out_w: int, *, window=None):
    """Bilinear resize with half-pixel-centered sampling and edge clamping; with
    ``window=(lo, hi)``, ``grid`` holds raw pixels and each strip rescales the rows it reads."""
    grid = np.asarray(grid, dtype=np.float64 if window is None else None)
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be at least 1x1")
    return _resize_into(np.empty((out_h, out_w)), grid, out_h, out_w, window=window)


def _resize_into(out, grid, full_h: int, full_w: int, row0: int = 0, col0: int = 0, window=None):
    """Fill ``out`` with the rows from ``row0`` and the columns from ``col0`` of the
    ``full_h`` x ``full_w`` resize of ``grid``; the rows and columns outside are not computed."""
    in_h, in_w = grid.shape
    out_h, out_w = out.shape
    src_y = np.clip((np.arange(row0, row0 + out_h) + 0.5) * (in_h / full_h) - 0.5, 0.0, in_h - 1.0)
    src_x = np.clip((np.arange(col0, col0 + out_w) + 0.5) * (in_w / full_w) - 0.5, 0.0, in_w - 1.0)
    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (src_y - y0)[:, None]
    wx = src_x - x0
    not_wy, not_wx = 1 - wy, 1 - wx
    source_rows = grid.__getitem__ if window is None else lambda ys: _rescale(grid[ys], *window)
    for start in range(0, out_h, _STRIP_ROWS):
        rows = slice(start, start + _STRIP_ROWS)
        top = _lerp_columns(source_rows(y0[rows]), x0, x1, not_wx, wx)
        bottom = _lerp_columns(source_rows(y1[rows]), x0, x1, not_wx, wx)
        np.multiply(top, not_wy[rows], out=out[rows])
        bottom *= wy[rows]
        out[rows] += bottom
    return out


def _lerp_columns(lines, x0, x1, not_wx, wx):
    """``lines[:, x0] * (1 - wx) + lines[:, x1] * wx``, computed in the gathered columns."""
    left = lines[:, x0]
    left *= not_wx
    right = lines[:, x1]
    right *= wx
    left += right
    return left


def tensor3_channels(grid, mean=IMAGENET_MEAN, std=IMAGENET_STD):
    """Yield ``to_tensor3(grid, mean, std)`` in C order, ``_STRIP_ROWS`` rows of one channel at a time."""
    grid = np.asarray(grid, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    if mean.shape != (3,) or std.shape != (3,):
        raise ValueError("mean and std must have 3 entries")
    if (std <= 0).any():
        raise ValueError("std entries must be > 0")
    for k in range(3):
        for start in range(0, len(grid), _STRIP_ROWS):
            strip = grid[start : start + _STRIP_ROWS] - mean[k]
            strip /= std[k]
            yield strip


def to_tensor3(grid, mean=IMAGENET_MEAN, std=IMAGENET_STD):
    """Replicate to 3 channels and normalize channelwise: (grid - mean) / std."""
    grid = np.asarray(grid, dtype=np.float64)
    return np.concatenate(list(tensor3_channels(grid, mean, std))).reshape(3, *grid.shape)


def bordered(grid):
    """A float64 copy of ``grid`` inside a ``_BORDER``-pixel zero border: the frame every view of it reads."""
    grid = np.asarray(grid, dtype=np.float64)
    padded = np.zeros((grid.shape[0] + 2 * _BORDER, grid.shape[1] + 2 * _BORDER))
    padded[_BORDER:-_BORDER, _BORDER:-_BORDER] = grid
    return padded


def _rotate(padded, degrees: float, out):
    """Fill ``out`` with the grid inside ``padded``'s zero border rotated about its center,
    bilinear sampling, zero fill outside.

    Each bilinear tap is gathered through one flat index into ``padded``.  Tap
    corners are clipped to [-2, h] and [-2, w], so a tap outside the grid, even
    one far outside, reads a zero of the border.
    """
    h, w = out.shape
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    xs = np.arange(w) - cx
    ys = (np.arange(h) - cy)[:, None]
    # inverse map: rotate output coordinates by -theta back into the source
    x_of_x, x_of_y = cos_t * xs, sin_t * ys
    y_of_x, y_of_y = -sin_t * xs, cos_t * ys
    stride = w + 2 * _BORDER
    flat = padded.reshape(-1)
    for start in range(0, h, _STRIP_ROWS):
        rows = slice(start, start + _STRIP_ROWS)
        src_x = x_of_x + x_of_y[rows]
        src_x += cx
        src_y = y_of_x + y_of_y[rows]
        src_y += cy
        floor_x = np.floor(src_x)
        floor_y = np.floor(src_y)
        fx = np.subtract(src_x, floor_x, out=src_x)
        fy = np.subtract(src_y, floor_y, out=src_y)
        # flat index of the top-left tap in the padded frame
        corner = np.clip(floor_y, -_BORDER, h, out=floor_y).astype(np.int64)
        corner += _BORDER
        corner *= stride
        corner += np.clip(floor_x, -_BORDER, w, out=floor_x).astype(np.int64)
        corner += _BORDER
        # the taps add up from a zeroed strip, as in a fresh zero frame: -0.0 products sum to +0.0
        taps = out[rows]
        taps.fill(0.0)
        for dy in (0, 1):
            for dx in (0, 1):
                weight = (fy if dy else 1 - fy) * (fx if dx else 1 - fx)
                weight *= flat[corner + (dy * stride + dx)]
                taps += weight
    return out


def _zoom(grid, scale: float, out):
    """Fill ``out`` with ``grid`` resized by ``scale`` about its center: a zoom in computes only
    the centered crop, a zoom out resizes into the centered window of a zeroed ``out``."""
    h, w = grid.shape
    new_h = max(1, int(np.floor(h * scale + 0.5)))
    new_w = max(1, int(np.floor(w * scale + 0.5)))
    if scale >= 1.0:
        return _resize_into(out, grid, new_h, new_w, (new_h - h) // 2, (new_w - w) // 2)
    out.fill(0.0)
    top, left = (h - new_h) // 2, (w - new_w) // 2
    _resize_into(out[top : top + new_h, left : left + new_w], grid, new_h, new_w)
    return out


def fill_view(padded, name: str, out):
    """Fill ``out``, of the grid's shape, with TTA view ``name`` of the grid in ``padded`` (made by
    ``bordered``) and return it.  Whatever ``out`` held before, an earlier view too, is overwritten."""
    grid = padded[_BORDER:-_BORDER, _BORDER:-_BORDER]
    if name == "identity":
        out[...] = grid
    elif name == "hflip":
        out[...] = grid[:, ::-1]
    elif name in ("rot+5", "rot-5"):
        _rotate(padded, float(name[3:]), out)
    elif name in ("zoom1.1", "zoom0.9"):
        _zoom(grid, float(name[4:]), out)
    else:
        raise ValueError(f"unknown transform {name!r}")
    return out


def apply_transform(grid, name: str):
    """Transform ``name`` of ``grid`` as a new float64 array: the view ``preprocess`` builds in its buffer."""
    return fill_view(bordered(grid), name, np.empty(np.shape(grid)))
