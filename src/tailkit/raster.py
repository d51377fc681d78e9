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
Bilinear resize and rotation work in strips of ``_STRIP_ROWS`` rows, in work
arrays that later strips reuse; a resize given a rescale window rescales only the
raw pixels each strip gathers, from rows that ``PgmRows`` reads from a P5 file on
demand.  A TTA view fills a caller's buffer, a strip of rows or all of them, from
the grid held once inside a zero border, and a zoom computes only the rows and
columns it keeps; ``write_view`` writes a view's file strip by strip.  Each
output value goes through the same float operations in the same order as in a
whole-frame computation, so outputs depend neither on the strips nor on what
the buffer or the work arrays held.  Strips are 16 rows: for a 1024^2 view,
rotation's four float64 and two int64 work arrays, the view strip, its channel
and the float32 strip each channel is divided into come to 1.06 MiB, beside the
8 MiB frame.
"""

import os
import re
from dataclasses import dataclass
from itertools import chain, islice
from types import SimpleNamespace

import numpy as np

from .data import _check_real, _check_values

TTA_TRANSFORMS = ("identity", "hflip", "rot+5", "rot-5", "zoom1.1", "zoom0.9")

IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)
CLIP_MEAN = (0.48145466, 0.4578275, 0.40821073)
CLIP_STD = (0.26862954, 0.26130258, 0.27577711)

# output rows per strip in _resize_into, _rotate and write_view: each float64 work array of a
# 1024-pixel-wide output then takes 128 KiB, and write_view's work arrays 1.06 MiB in all
_STRIP_ROWS = 16
# the zero border that bordered adds: _rotate clips tap corners to [-2, h], so every tap lands in it
_BORDER = 2
# pixels per np.bincount call in _nearest_rank_values, each cast into one reused 512 KiB intp block; the
# file is read in spans of whole rows of about as many pixels
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
        # checked before the uint16 cast, which would wrap 70000 and -1 and truncate 3.7
        pixels = np.asarray(self.pixels)
        if pixels.dtype.kind not in "ui" or (pixels.dtype.kind == "i" and pixels.min(initial=0) < 0):
            raise ValueError("pixel values must be non-negative integers")
        if int(pixels.max(initial=0)) > self.maxval:
            raise ValueError("pixel intensity exceeds depth")
        self.pixels = pixels.astype(np.uint16, copy=False).reshape(self.height, self.width)

    @property
    def maxval(self) -> int:
        return (1 << self.depth) - 1

    @property
    def shape(self) -> tuple:
        return self.pixels.shape

    def rows_at(self, ys):
        return self.pixels.reshape(-1), ys * self.width


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


def _pgm_tokens(data: bytes, start: int = 0):
    """The tokens of ``data`` from ``start``, each with the offset where it ends, skipping # comments."""
    return ((m.group(), m.end()) for m in _PGM_TOKEN.finditer(data, start) if m.group()[:1] != b"#")


class PgmRows:
    """A P2 (ascii) or P5 (binary) PGM, maxval 255 or 65535, as ``_resize_into`` reads raw pixels: ``shape``,
    ``size`` and ``rows_at(ys)``.  P2 is parsed on open; P5 is checked on open and its rows are read on demand."""

    def __init__(self, path):
        self.path, data = path, b""
        with open(path, "rb") as fh:
            # the header, read in whole lines, so the maxval token and the byte after it are read whole
            while len(tokens := list(islice(_pgm_tokens(data), 4))) < 4 and (line := fh.readline()):
                data += line
            if not tokens:
                raise ValueError(f"{path}: empty file")
            magic = tokens[0][0]
            if magic not in (b"P2", b"P5"):
                raise ValueError(f"{path}: not a PGM (magic {magic!r})")
            if len(tokens) < 4:
                raise ValueError(f"{path}: malformed header")
            (w_tok, _), (h_tok, _), (max_tok, end) = tokens[1:]
            # decimal digits only, as for P2 pixels: int() would also take a sign or an underscore.  A
            # token ends at whitespace, a # or the end of the file; a P5 maxval, at one whitespace byte
            if not (w_tok + h_tok + max_tok).isdigit() or (magic == b"P5" and data[end : end + 1] == b"#"):
                raise ValueError(f"{path}: malformed header")
            self.width, self.height, self.maxval = int(w_tok), int(h_tok), int(max_tok)
            if self.width < 1 or self.height < 1:
                raise ValueError(f"{path}: bad dimensions {self.width}x{self.height}")
            if self.maxval not in (255, 65535):
                raise ValueError(f"{path}: unsupported maxval {self.maxval}")
            self.shape, self.size = (self.height, self.width), self.height * self.width
            self._dtype, self._offset = np.dtype("u1" if self.maxval == 255 else ">u2"), end + 1
            # rows lo to hi of the file, as a flat array; P2 keeps all of them
            self._buf, self._span = np.empty(0, self._dtype), (0, 0, None)
            if magic == b"P2":
                # the header's last line ends at a newline, so no token runs on into the rest of the file
                values = []
                for tok, _ in chain(_pgm_tokens(data, end), _pgm_tokens(fh.read())):
                    # decimal digits only: int() would also take a sign or an underscore
                    if not tok.isdigit():
                        raise ValueError(f"{path}: bad ascii pixel {tok!r}")
                    values.append(int(tok))
                    if len(values) == self.size:
                        break
                if len(values) < self.size:
                    raise ValueError(f"{path}: truncated pixel data")
                if max(values) > self.maxval:  # Python ints, so a value past int64 is compared too
                    raise ValueError(f"{path}: pixel exceeds maxval")
                self._span = 0, self.height, np.asarray(values, dtype=np.uint16)
            elif os.fstat(fh.fileno()).st_size - self._offset < self.size * self._dtype.itemsize:
                raise ValueError(f"{path}: truncated pixel data")

    def rows_at(self, ys):
        """``(flat, starts)`` for ascending rows ``ys``: pixel ``(ys[i], x)`` is ``flat[starts[i] + x]``.  Rows of
        a P5 file outside the last span are read in one span, ``ys[0]`` to ``ys[-1] + 1``, into the buffer of
        the last span when it is large enough."""
        lo, hi, flat = self._span
        if ys[0] < lo or ys[-1] >= hi:
            lo, hi = int(ys[0]), min(int(ys[-1]) + 2, self.height)
            if self._buf.size < (hi - lo) * self.width:
                self._buf = np.empty((hi - lo) * self.width, self._dtype)
            flat = self._buf[: (hi - lo) * self.width]
            with open(self.path, "rb") as fh:
                fh.seek(self._offset + lo * self.width * self._dtype.itemsize)
                if fh.readinto(flat) != flat.nbytes:
                    raise ValueError(f"{self.path}: truncated pixel data")
            self._span = lo, hi, flat
        return flat, (ys - lo) * self.width


def load_pgm(path) -> Raster:
    """Read a P2 (ascii) or P5 (binary) PGM; maxval must be 255 or 65535."""
    src = PgmRows(path)
    return Raster(src.width, src.height, 8 if src.maxval == 255 else 16, src.rows_at(np.arange(src.height))[0])


def _nearest_rank_values(source, pcts) -> list:
    """Nearest-rank values of the pixels of a ``Raster`` or a ``PgmRows``: for each pct, the value
    at rank max(1, ceil(pct/100 * n)) of the sorted population.

    Read from the histogram: that value is the smallest intensity whose cumulative count reaches
    the rank, at most the pixels' max since every rank is at most n.  The histogram is summed over
    blocks of ``_HIST_BLOCK`` pixels, so no intp copy of the raster is made.
    """
    counts, block = np.zeros(source.maxval + 1, dtype=np.int64), np.empty(_HIST_BLOCK, np.intp)
    step = max(1, _HIST_BLOCK // source.width)
    for lo in range(0, source.height, step):
        flat, starts = source.rows_at(np.arange(lo, min(lo + step, source.height)))
        span = flat[starts[0] : starts[-1] + source.width]
        for start in range(0, span.size, _HIST_BLOCK):
            part = block[: min(_HIST_BLOCK, span.size - start)]
            np.copyto(part, span[start : start + _HIST_BLOCK])
            counts += np.bincount(part, minlength=counts.size)
    ranks = [max(1, int(np.ceil(pct / 100.0 * (source.width * source.height)))) for pct in pcts]
    return [float(v) for v in np.searchsorted(np.cumsum(counts), ranks)]


def _check_percentiles(lo_pct, hi_pct) -> None:
    """Each percentile must be a number in [0, 100], and ``lo_pct`` below ``hi_pct``."""
    _check_real("lo_pct", lo_pct, "[0, 100]")
    _check_real("hi_pct", hi_pct, "[0, 100]")
    if not lo_pct < hi_pct:
        raise ValueError("need 0 <= lo_pct < hi_pct <= 100")


def percentile_window(raster, lo_pct: float = 1.0, hi_pct: float = 99.0) -> tuple:
    """The nearest-rank (lo, hi) of a ``Raster`` or ``PgmRows`` that ``percentile_clip_rescale`` maps to 0 and 1."""
    _check_percentiles(lo_pct, hi_pct)
    return tuple(_nearest_rank_values(raster, (lo_pct, hi_pct)))


def percentile_clip_rescale(raster: Raster, lo_pct: float = 1.0, hi_pct: float = 99.0):
    """Clip to the [lo, hi] percentile window, then rescale to [0, 1]."""
    return _rescale(raster.pixels, *percentile_window(raster, lo_pct, hi_pct))


def normalize_clip_style(raster: Raster):
    """Divide by the depth's maxval (255 or 65535): the (0, maxval) window, with the same bits."""
    return _rescale(raster.pixels, 0, raster.maxval)


def _rescale(pixels, lo, hi, out=None):
    """``(pixels - lo) / (hi - lo)`` clipped to [0, 1] in float64, in ``out`` if given; all zeros when hi == lo."""
    grid = np.empty(pixels.shape) if out is None else out
    if hi == lo:
        grid.fill(0.0)
        return grid
    np.copyto(grid, pixels)
    grid -= lo
    grid /= hi - lo
    return np.clip(grid, 0.0, 1.0, out=grid)


def _scratch(work: dict, key: str, shape, dtype=np.float64, count: int = 1):
    """``count`` arrays of ``shape`` in ``work[key]``, made anew only if missing, too small or of another dtype."""
    size = count * shape[0] * shape[1]
    if key not in work or work[key].size < size or work[key].dtype != dtype:
        work[key] = np.empty(size, dtype)
    return work[key][:size].reshape(count, *shape)


def _framed(frame, border: int = 0):
    """The grid inside ``border`` pixels of a C-contiguous ``frame``, read by ``_resize_into`` like a ``PgmRows``."""
    def rows_at(ys):
        return frame.reshape(-1), (ys + border) * frame.shape[1] + border

    return SimpleNamespace(shape=(frame.shape[0] - 2 * border, frame.shape[1] - 2 * border), rows_at=rows_at)


def resize_bilinear(grid, out_h: int, out_w: int, *, window=None, framed=False):
    """Bilinear resize with half-pixel-centered sampling and edge clamping of ``grid``, an array, a ``Raster``
    or a ``PgmRows`` whose rows are read as the strips need them; with ``window=(lo, hi)``, ``grid`` holds raw
    pixels and each strip rescales the values it reads.  ``framed`` returns the resize inside the zero border
    ``bordered`` adds, the frame that every view reads."""
    if not hasattr(grid, "rows_at"):
        grid = _framed(np.ascontiguousarray(grid, dtype=np.float64 if window is None else None))
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be at least 1x1")
    border = _BORDER if framed else 0
    frame = (np.zeros if framed else np.empty)((out_h + 2 * border, out_w + 2 * border))
    _resize_into(frame[border : border + out_h, border : border + out_w], grid, out_h, out_w, window=window)
    return frame


def _resize_into(out, grid, full_h: int, full_w: int, row0: int = 0, col0: int = 0, window=None, work=None):
    """Fill ``out`` with the rows from ``row0`` and the columns from ``col0`` of the ``full_h`` x ``full_w`` resize
    of ``grid``, a ``Raster``, ``PgmRows`` or ``_framed`` frame; the rows and columns outside are not computed.
    Every strip takes its work arrays from the dict ``work``, which later calls may reuse."""
    work = {} if work is None else work
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
    for start in range(0, out_h, _STRIP_ROWS):
        rows = slice(start, start + _STRIP_ROWS)
        top = _lerp_columns(grid, y0[rows], x0, x1, not_wx, wx, window, work)
        np.multiply(top, not_wy[rows], out=out[rows])
        bottom = _lerp_columns(grid, y1[rows], x0, x1, not_wx, wx, window, work)
        bottom *= wy[rows]
        out[rows] += bottom
    return out


def _lerp_columns(grid, ys, x0, x1, not_wx, wx, window, work):
    """``rows[:, x0] * (1 - wx) + rows[:, x1] * wx`` of the rows ``ys`` of ``grid``, every value rescaled by
    ``window`` first, computed in the gathered columns, in ``work``'s arrays."""
    flat, starts = grid.rows_at(ys)
    shape = (len(ys), len(x0))
    (index,), (left, right) = _scratch(work, "int", shape, np.int64), _scratch(work, "float", shape, count=2)
    for xs, weight, values in ((x0, not_wx, left), (x1, wx, right)):
        np.add(starts[:, None], xs, out=index)
        # gathered in the source's dtype: np.take(out=) does not cast, so raw pixels take a scratch array
        raw = values if flat.dtype == values.dtype else _scratch(work, "raw", shape, flat.dtype)[0]
        np.take(flat, index, out=raw, mode="clip")
        if window is not None:
            _rescale(raw, *window, out=values)
        elif raw is not values:
            np.copyto(values, raw)
        values *= weight
    left += right
    return left


def _check_mean_std(mean, std):
    """``mean`` and ``std`` as float64 3-vectors, every entry finite and every std entry positive."""
    mean = np.asarray(_check_values("mean", mean, "(-inf, inf)"), dtype=np.float64)
    std = np.asarray(_check_values("std", std, "(0, inf)"), dtype=np.float64)
    if mean.shape != (3,) or std.shape != (3,):
        raise ValueError("mean and std must have 3 entries")
    return mean, std


def to_tensor3(grid, mean=IMAGENET_MEAN, std=IMAGENET_STD):
    """Replicate to 3 channels and normalize channelwise: (grid - mean) / std."""
    grid = np.asarray(grid, dtype=np.float64)
    mean, std = _check_mean_std(mean, std)
    return (grid - mean[:, None, None]) / std[:, None, None]


def bordered(grid):
    """A float64 copy of ``grid`` inside a ``_BORDER``-pixel zero border: the frame every view of it reads."""
    grid = np.asarray(grid, dtype=np.float64)
    padded = np.zeros((grid.shape[0] + 2 * _BORDER, grid.shape[1] + 2 * _BORDER))
    padded[_BORDER:-_BORDER, _BORDER:-_BORDER] = grid
    return padded


def _rotate(padded, degrees: float, out, row0: int = 0, work=None):
    """Fill ``out`` with the rows from ``row0`` of the grid inside ``padded``'s zero border rotated
    about its center, bilinear sampling, zero fill outside; strips compute in ``work``'s arrays.

    Each bilinear tap is gathered through one flat index into ``padded``.  Tap
    corners are clipped to [-2, h] and [-2, w], so a tap outside the grid, even
    one far outside, reads a zero of the border.
    """
    work = {} if work is None else work
    h, w = padded.shape[0] - 2 * _BORDER, padded.shape[1] - 2 * _BORDER
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    xs = np.arange(w) - cx
    ys = (np.arange(row0, row0 + len(out)) - cy)[:, None]
    # inverse map: rotate output coordinates by -theta back into the source
    x_of_x, x_of_y = cos_t * xs, sin_t * ys
    y_of_x, y_of_y = -sin_t * xs, cos_t * ys
    stride = w + 2 * _BORDER
    flat = padded.reshape(-1)
    for start in range(0, len(out), _STRIP_ROWS):
        rows = slice(start, start + _STRIP_ROWS)
        taps = out[rows]
        fx, fy, weight, tap = _scratch(work, "float", taps.shape, count=4)
        corner, index = _scratch(work, "int", taps.shape, np.int64, 2)
        np.add(x_of_x, x_of_y[rows], out=fx)
        fx += cx
        np.add(y_of_x, y_of_y[rows], out=fy)
        fy += cy
        floor_x, floor_y = np.floor(fx, out=weight), np.floor(fy, out=tap)
        fx -= floor_x
        fy -= floor_y
        # flat index of the top-left tap in the padded frame
        np.copyto(corner, np.clip(floor_y, -_BORDER, h, out=floor_y), casting="unsafe")
        corner += _BORDER
        corner *= stride
        np.copyto(index, np.clip(floor_x, -_BORDER, w, out=floor_x), casting="unsafe")
        corner += index
        corner += _BORDER
        # the taps add up from a zeroed strip, as in a fresh zero frame: -0.0 products sum to +0.0
        taps.fill(0.0)
        for dy in (0, 1):
            for dx in (0, 1):
                # (1 - fy or fy) * (1 - fx or fx): each 1 - f is made anew per tap in weight or tap
                weight_y = np.subtract(1, fy, out=weight) if dy == 0 else fy
                np.multiply(weight_y, np.subtract(1, fx, out=tap) if dx == 0 else fx, out=weight)
                np.add(corner, dy * stride + dx, out=index)
                weight *= np.take(flat, index, out=tap, mode="clip")
                taps += weight
    return out


def _zoom(padded, scale: float, out, row0: int = 0, work=None):
    """Fill ``out`` with the rows from ``row0`` of the grid in ``padded`` resized by ``scale`` about its center:
    a zoom in computes only the centered crop, a zoom out resizes into the centered window of a zeroed ``out``."""
    grid = _framed(padded, _BORDER)
    h, w = grid.shape
    new_h = max(1, int(np.floor(h * scale + 0.5)))
    new_w = max(1, int(np.floor(w * scale + 0.5)))
    if scale >= 1.0:
        return _resize_into(out, grid, new_h, new_w, (new_h - h) // 2 + row0, (new_w - w) // 2, work=work)
    out.fill(0.0)
    # the window's top row and the rows of out it covers, counted from out's first row
    top, left = (h - new_h) // 2 - row0, (w - new_w) // 2
    first, last = max(top, 0), max(top, 0, min(top + new_h, len(out)))
    _resize_into(out[first:last, left : left + new_w], grid, new_h, new_w, first - top, work=work)
    return out


def fill_view(padded, name: str, out, *, row0: int = 0, work=None):
    """Fill ``out`` with the rows from ``row0`` of TTA view ``name`` of the grid in ``padded`` (made by
    ``bordered``) and return it.  Whatever ``out`` held before, an earlier view too, is overwritten.
    ``work``, a dict the caller keeps, holds the work arrays that later calls reuse."""
    grid = padded[_BORDER:-_BORDER, _BORDER:-_BORDER]
    if name == "identity":
        out[...] = grid[row0 : row0 + len(out)]
    elif name == "hflip":
        out[...] = grid[row0 : row0 + len(out), ::-1]
    elif name in ("rot+5", "rot-5"):
        _rotate(padded, float(name[3:]), out, row0, work)
    elif name in ("zoom1.1", "zoom0.9"):
        _zoom(padded, float(name[4:]), out, row0, work)
    else:
        raise ValueError(f"unknown transform {name!r}")
    return out


def apply_transform(grid, name: str):
    """Transform ``name`` of ``grid`` as a new float64 array: the view ``write_view`` writes strip by strip."""
    return fill_view(bordered(grid), name, np.empty(np.shape(grid)))


def write_view(fh, frame, name: str, mean, std, work: dict) -> None:
    """Write ``to_tensor3`` of TTA view ``name`` of the grid in ``frame`` (made by ``bordered``) to the binary
    file ``fh``: three float32-LE channel planes, each filled ``_STRIP_ROWS`` rows at a time through buffers in
    ``work``, the dict the caller keeps for all its views."""
    mean, std = _check_mean_std(mean, std)
    h, w = frame.shape[0] - 2 * _BORDER, frame.shape[1] - 2 * _BORDER
    view, channel = _scratch(work, "view", (min(h, _STRIP_ROWS), w), count=2)
    (cast,) = _scratch(work, "cast", view.shape, "<f4")
    for row0 in range(0, h, _STRIP_ROWS):
        rows = min(_STRIP_ROWS, h - row0)
        strip = fill_view(frame, name, view[:rows], row0=row0, work=work)
        for k in range(3):
            np.subtract(strip, mean[k], out=channel[:rows])
            # divided in float64 and rounded once to float32, as to_tensor3(...).astype("<f4") does
            np.divide(channel[:rows], std[k], out=cast[:rows], casting="same_kind")
            fh.seek((k * h + row0) * w * 4)
            fh.write(cast[:rows])
