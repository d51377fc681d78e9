"""Grayscale raster preprocessing and the geometric TTA transform set.

Pins the conventions that matter for bit-reproducibility:

* percentiles use the nearest-rank definition on the sorted pixel
  population; a constant raster rescales to all zeros,
* bilinear resampling uses half-pixel-centered sampling with edge clamping,
  so plain bilinear never overshoots the input range,
* rotation is about the image center (half-pixel convention) with bilinear
  sampling and zero fill for out-of-bounds source samples,
* odd crop/pad remainders put the extra pixel at the bottom/right.

All operations are pure functions over float64 grids in [0, 1].
"""

from dataclasses import dataclass

import numpy as np

TTA_TRANSFORMS = ("identity", "hflip", "rot+5", "rot-5", "zoom1.1", "zoom0.9")

IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)
CLIP_MEAN = (0.48145466, 0.4578275, 0.40821073)
CLIP_STD = (0.26862954, 0.26130258, 0.27577711)


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


def _pgm_tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments; track offset."""
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
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except (StopIteration, ValueError):
        raise ValueError(f"{path}: malformed header") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    depth = 8 if maxval == 255 else 16
    count = width * height

    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the pixel bytes
        start = max_end + 1
        bytes_per = 1 if depth == 8 else 2
        raw = data[start : start + count * bytes_per]
        if len(raw) < count * bytes_per:
            raise ValueError(f"{path}: truncated pixel data")
        if depth == 8:
            pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.uint16)
        else:
            pixels = np.frombuffer(raw, dtype=">u2").astype(np.uint16)
    else:
        values = []
        for tok, _ in tokens:
            try:
                values.append(int(tok))
            except ValueError:
                raise ValueError(f"{path}: bad ascii pixel {tok!r}") from None
            if len(values) == count:
                break
        if len(values) < count:
            raise ValueError(f"{path}: truncated pixel data")
        pixels = np.asarray(values, dtype=np.int64)
    if (pixels > maxval).any():
        raise ValueError(f"{path}: pixel exceeds maxval")
    return Raster(width=width, height=height, depth=depth, pixels=pixels.astype(np.uint16))


def nearest_rank_percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the value at rank max(1, ceil(pct/100 * n))."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if v.size == 0:
        raise ValueError("empty population")
    rank = max(1, int(np.ceil(pct / 100.0 * v.size)))
    return float(v[rank - 1])


def percentile_clip_rescale(raster: Raster, lo_pct: float = 1.0, hi_pct: float = 99.0):
    """Clip to the [lo, hi] percentile window, then rescale to [0, 1]."""
    if not 0.0 <= lo_pct < hi_pct <= 100.0:
        raise ValueError("need 0 <= lo_pct < hi_pct <= 100")
    pixels = raster.pixels.astype(np.float64)
    q_lo = nearest_rank_percentile(pixels, lo_pct)
    q_hi = nearest_rank_percentile(pixels, hi_pct)
    if q_hi == q_lo:
        return np.zeros_like(pixels)
    return np.clip((pixels - q_lo) / (q_hi - q_lo), 0.0, 1.0)


def normalize_clip_style(raster: Raster):
    """Divide by the depth's maxval (255 or 65535)."""
    return raster.pixels.astype(np.float64) / float(raster.maxval)


def resize_bilinear(grid, out_h: int, out_w: int):
    """Bilinear resize with half-pixel-centered sampling and edge clamping."""
    grid = np.asarray(grid, dtype=np.float64)
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be at least 1x1")
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


def to_tensor3(grid, mean=IMAGENET_MEAN, std=IMAGENET_STD):
    """Replicate to 3 channels and normalize channelwise: (grid - mean) / std."""
    grid = np.asarray(grid, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    if mean.shape != (3,) or std.shape != (3,):
        raise ValueError("mean and std must have 3 entries")
    if (std <= 0).any():
        raise ValueError("std entries must be > 0")
    return (grid[None, :, :] - mean[:, None, None]) / std[:, None, None]


def _rotate(grid, degrees: float):
    """Rotate about the image center, bilinear sampling, zero fill outside."""
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid.shape
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    # inverse map: rotate output coordinates by -theta back into the source
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


def _center_crop(grid, out_h: int, out_w: int):
    h, w = grid.shape
    top = (h - out_h) // 2
    left = (w - out_w) // 2
    return grid[top : top + out_h, left : left + out_w]


def _center_pad(grid, out_h: int, out_w: int):
    h, w = grid.shape
    top = (out_h - h) // 2
    left = (out_w - w) // 2
    out = np.zeros((out_h, out_w), dtype=np.float64)
    out[top : top + h, left : left + w] = grid
    return out


def _zoom(grid, scale: float):
    h, w = grid.shape
    new_h = max(1, int(np.floor(h * scale + 0.5)))
    new_w = max(1, int(np.floor(w * scale + 0.5)))
    scaled = resize_bilinear(grid, new_h, new_w)
    if scale >= 1.0:
        return _center_crop(scaled, h, w)
    return _center_pad(scaled, h, w)


def apply_transform(grid, name: str):
    grid = np.asarray(grid, dtype=np.float64)
    if name == "identity":
        return grid.copy()
    if name == "hflip":
        return grid[:, ::-1].copy()
    if name == "rot+5":
        return _rotate(grid, 5.0)
    if name == "rot-5":
        return _rotate(grid, -5.0)
    if name == "zoom1.1":
        return _zoom(grid, 1.1)
    if name == "zoom0.9":
        return _zoom(grid, 0.9)
    raise ValueError(f"unknown transform {name!r}")
