"""Shared data model and portable file formats.

CSV is the canonical text format: UTF-8, LF line endings, header row with
``id`` (``class`` in a margins file) first and column names after.  Embeddings
additionally have a binary format: magic ``EMB1``, u32-LE count, u32-LE dim,
then count*dim float32-LE values row-major, with ids in a JSON sidecar
``<file>.ids.json``.

The structures are plain mutable dataclasses, validated only at construction;
``ClassConfig`` is not, since only ``class_stats`` builds it, from a checked ``LabelMatrix``.
"""

import csv
import json
import math
import numbers
import os
import re
import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

# each score kind's values must be numbers in its interval
SCORE_KINDS = {"logits": "(-inf, inf)", "probabilities": "[0, 1]"}

EMB_MAGIC = b"EMB1"

# rows per block of the EMB1 reader, _map_rows's unit division and the CSV writer's float
# conversion: 1 MiB of float64 (and a 0.5 MiB float32 buffer) at D = 512, and 5k Python floats at C = 20
_NORM_BLOCK_ROWS = 256


def _inside(x, interval: str):
    """Whether ``x``, a float or each entry of an array, lies in ``interval``, spelled ``"(0, inf]"``."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= x if interval[0] == "[" else low < x
    return above & (x <= high if interval[-1] == "]" else x < high)


def _float(value) -> float:
    """``float(value)`` of a real number; NaN for a non-number and for an int past the float range."""
    try:
        return float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        return math.nan


def _check_real(name: str, value, interval: str) -> None:
    """``value`` must be a real number in ``interval``, spelled as in the message: ``"(0, inf]"``.

    bool and non-numbers fail; NaN and an int past the float range lie in no interval.
    """
    if not _inside(math.nan if isinstance(value, bool) else _float(value), interval):
        raise ValueError(f"{name} must be a number in {interval}")


def _check_values(name: str, values, interval: str, whole: bool = False) -> np.ndarray:
    """``values`` as an array; its entries must be numbers in ``interval``, as ``_check_real``'s, and whole if ``whole``.

    A numeric array is compared as given, with no cast or copy; bool entries count as 0 and 1.
    An object array goes through float64 by ``_float``, so None, a string or an int past the
    float range fails; so does any other dtype.  NaN lies in no interval; an empty array passes.
    """
    values = np.asarray(values)
    if values.dtype == object:
        values = np.array([_float(v) for v in values.flat], dtype=np.float64).reshape(values.shape)
    inside = values.dtype.kind in "biuf" and _inside(values, interval).all()
    if not inside or (whole and values.dtype.kind == "f" and (np.floor(values) != values).any()):
        raise ValueError(f"{name} must be {'whole ' if whole else ''}numbers in {interval}")
    return values


def _check_int(name: str, value, low: int) -> None:
    """``value`` must be an integer, not bool or float, and at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def _check_unique(items, what: str) -> None:
    if len(set(items)) != len(items):
        raise ValueError(f"duplicate {what}")


def _check_table(table, what: str, dtype) -> None:
    """Make a ``what`` matrix's ids and class names lists and its values ``dtype``: N x C, unique ids and names."""
    table.ids, table.class_names = list(table.ids), list(table.class_names)
    table.values = np.asarray(table.values, dtype=dtype)
    if table.values.ndim != 2:
        raise ValueError(f"{what} values must be a 2-D matrix")
    if table.values.shape != (len(table.ids), len(table.class_names)):
        raise ValueError(f"{what} matrix shape does not match ids/class names")
    _check_unique(table.ids, f"id in {what} matrix")
    _check_unique(table.class_names, f"class name in {what} matrix")


@dataclass
class LabelMatrix:
    """N x C binary ground-truth labels."""

    ids: list
    values: np.ndarray
    class_names: list

    def __post_init__(self):
        self.values = _check_values("label values", self.values, "[0, 1]", whole=True)
        _check_table(self, "label", np.int8)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass
class ScoreMatrix:
    """N x C real-valued scores, tagged as logits or probabilities.

    The values are checked first, before the float64 cast, as numbers in the
    kind's ``SCORE_KINDS`` interval; ``load_scores`` checks each cell so too.
    """

    ids: list
    values: np.ndarray
    kind: str
    class_names: list

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        self.values = _check_values("score values", self.values, SCORE_KINDS[self.kind])
        _check_table(self, "score", np.float64)


@dataclass
class ClassConfig:
    """Per-class positive counts (int64, >= 0) and frequencies (float64, in [0, 1]), as ``class_stats`` makes them."""

    counts: np.ndarray
    frequencies: np.ndarray


@dataclass
class EmbeddingSet:
    """Row-major real vectors, one per id.

    Held in float64 so downstream arithmetic keeps full precision; the
    binary file format is float32, applied at write time (exact for data
    that came from a file, since float32 -> float64 is lossless).  A float64
    ``vectors`` is kept as given, not copied; the loaders hand over one that
    nothing else holds.  The values are checked first, before that cast, as
    numbers in (-inf, inf); the readers check each CSV cell and EMB1 block so too.
    """

    ids: list
    vectors: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.ids = list(self.ids)
        self.vectors = np.asarray(_check_values("embedding values", self.vectors, "(-inf, inf)"), dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError("embedding vectors must be a 2-D matrix")
        if self.vectors.shape[0] != len(self.ids):
            raise ValueError("embedding count does not match ids")
        _check_unique(self.ids, "id in embedding set")
        if self.normalized and not _unit_norm(self.vectors):
            raise ValueError("normalized flag set but rows are not unit norm")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _unit_norm(vectors) -> bool:
    """Whether every row has norm 1 to within 1e-6; einsum sums the squares with no N x D temporary."""
    return np.allclose(np.sqrt(np.einsum("ij,ij->i", vectors, vectors)), 1.0, atol=1e-6)


def _unit_rows(rows):
    """Divide each row of float64 ``rows`` in place by ``np.linalg.norm(rows, axis=1)``.

    Unless a row's squared norm is not a finite, normal float64, that is, its norm is not in
    [2**-511, inf): 2**-1022 is the least normal and sqrt is correctly rounded.  Then ``rows`` are
    left as they are and the first such row's (index, fault) is returned, the fault to be followed
    by the row's id.  An all-zero row's fault is ``zero-norm embedding row``.
    """
    with np.errstate(over="ignore", under="ignore"):  # a norm out of range is the fault below
        norms = np.linalg.norm(rows, axis=1)
    bad = ~((norms >= 2.0**-511) & (norms < np.inf))
    if bad.any():
        i = int(np.argmax(bad))
        return i, "zero-norm embedding row" if not rows[i].any() else "embedding row norm out of float64 range"
    rows /= norms[:, None]


# the bytes of a plain file: printable ASCII, tab and LF, less the csv quote.  An
# underscore may stand in an id or a name; in a cell, float() reads it as a digit
# separator but np.loadtxt rejects it, so such a file is declined and csv reads it
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n"


def _read_plain(path, parse, check, key="id"):
    """(ids, column names, values) of a plain file, or None to leave it to csv.

    A plain file holds only ``_PLAIN_BYTES``, ends in LF, has no line longer
    than ``csv.field_size_limit()``, a ``key``-first header with unique column
    names and at least one, one or more body rows with one cell per column,
    and unique ids.  csv.reader splits such a file at every LF and comma, and on
    its cells np.loadtxt's C reader yields the same doubles as float(): both
    parse with PyOS_string_to_double (the bytes 0x1c-0x1f, which loadtxt strips
    as whitespace and float() rejects, are not plain).  The one spelling
    float() accepts and loadtxt does not is a digit-separating underscore, as
    in ``1_0``; loadtxt raises on it and the file goes to csv.
    ``parse(body, c)`` maps the whole body lines to values and ``check`` vets
    them; if either raises ValueError (an empty cell does), or rows go missing,
    the file is declined and the csv path finds and names the fault.
    """
    raw = Path(path).read_bytes()
    if not raw.endswith(b"\n") or raw.translate(None, _PLAIN_BYTES):
        return None
    lines = raw.decode("ascii")
    del raw  # the bytes go before the text is split
    lines = lines.split("\n")[:-1]
    head = lines[0].split(",")
    names, c = head[1:], len(head) - 1
    body = lines[1:]
    if head[0] != key or not names or len(set(names)) != c or not body:
        return None
    if max(map(len, lines)) > csv.field_size_limit() or any(line.count(",") != c for line in body):
        return None
    ids = [line[: line.index(",")] for line in body]
    if len(set(ids)) != len(ids):
        return None
    try:
        values = check(parse(body, c))
    except ValueError:
        return None
    return (ids, names, values) if values.shape == (len(body), c) else None


def _read_matrix(path, parse_cells, parse_plain, check=lambda values: values, key="id"):
    """Parse a ``key``-first CSV into (ids, column names, checked values).

    ``key`` is ``"id"``, or ``"class"`` for a margins file; messages use it.
    A plain file (see ``_read_plain``) is parsed from its text by
    ``parse_plain``.  Any other goes through csv.reader, and ``parse_cells``
    maps an object array of its cell strings to values, raising ValueError for
    a cell it rejects.  It and ``check`` run on the whole body at once; only if
    they or the row-length/duplicate-id check fail are the rows rescanned one
    by one, and a bad row's cells left to right, so the error names the first
    bad line and its leftmost bad cell.  "line N" counts CSV records, the
    header being line 1, also for a record the csv module cannot parse; a
    quoted field that spans physical lines is one record.
    """
    plain = _read_plain(path, parse_plain, check, key)
    if plain is not None:
        return plain

    def convert(cells):
        return check(parse_cells(cells))

    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows.extend(csv.reader(fh))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {len(rows) + 1}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not valid UTF-8 text") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    if not header or header[0] != key:
        raise ValueError(f"{path}: line 1: header must start with '{key}'")
    names = header[1:]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: line 1: duplicate column name")
    width = len(header)
    if all(len(row) == width for row in body):
        table = np.array(body, dtype=object).reshape(len(body), width)
        ids = table[:, 0].tolist()
        if len(set(ids)) == len(ids):
            try:
                return ids, names, convert(table[:, 1:])
            except ValueError:
                pass
    seen = set()
    for lineno, row in enumerate(body, start=2):
        if len(row) != width:
            raise ValueError(f"{path}: line {lineno}: ragged row (dimension mismatch with header)")
        if row[0] in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate {key} {row[0]!r}")
        seen.add(row[0])
        try:
            convert(np.array([row[1:]], dtype=object))
        except ValueError:
            for cell in row[1:]:
                try:
                    convert(np.array([[cell]], dtype=object))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
    raise AssertionError(f"{path}: bulk conversion failed but every row converts")


def _binary_labels(cells) -> np.ndarray:
    stripped = np.frompyfunc(str.strip, 1, 1)(cells)
    ones = stripped == "1"
    bad = ~ones & (stripped != "0")
    if bad.any():
        raise ValueError(f"non-binary label {stripped[bad][0]!r}")
    return ones.astype(np.int8)


def _plain_labels(lines, c) -> np.ndarray:
    """Labels from lines of ``c`` commas that each end in exactly ``(,[01]){c}``; else ValueError."""
    pairs = np.frombuffer("".join(line[-2 * c :] for line in lines).encode("ascii"), dtype=np.uint8)
    if pairs.size != 2 * len(lines) * c:
        raise ValueError("not a plain label body")
    pairs = pairs.reshape(len(lines), c, 2)
    ones = pairs[..., 1] == ord("1")
    if not ((ones | (pairs[..., 1] == ord("0"))).all() and (pairs[..., 0] == ord(",")).all()):
        raise ValueError("not a plain label body")
    return ones.astype(np.int8)


def _floats(cells) -> np.ndarray:
    """float() of every cell, so exactly Python's float spellings are accepted."""
    try:
        return cells.astype(np.float64)
    except ValueError:
        for tok in cells.flat:
            try:
                float(tok)
            except ValueError:
                raise ValueError(f"bad number {tok!r}") from None
        raise


def _plain_floats(lines, c) -> np.ndarray:
    """Columns 1..c of ``lines``: np.loadtxt skips the id column without parsing it."""
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2, usecols=range(1, c + 1))


# a field that csv.writer's minimal quoting quotes: it holds a delimiter, quote or line break
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_field(value) -> str:
    """``value`` as one CSV field: ``None`` is empty, any other ``str(value)``, quoted if special."""
    text = "" if value is None else str(value)
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_matrix(path, header, ids, values) -> None:
    """Write ``header``, then per row its id and each value to 9 significant digits.

    Fields are quoted by ``_csv_field``; a row that is one empty field is written
    ``""``, so it does not read back as a blank line.  ``"%.9g" % v == f"{v:.9g}"``.
    """
    fmt = ",%.9g" * values.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_field, header)) + "\n")
        for start in range(0, len(values), _NORM_BLOCK_ROWS):
            rows = values[start : start + _NORM_BLOCK_ROWS].tolist()
            for sample_id, row in zip(ids[start : start + _NORM_BLOCK_ROWS], rows):
                line = _csv_field(sample_id) + fmt % tuple(row)
                fh.write((line or '""') + "\n")


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON: indent 2, sorted keys, LF line endings, trailing LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    """The JSON value in ``path``; bad UTF-8 or bad JSON raises ValueError naming the file."""
    try:
        # no name keeps the bytes alive during the parse: one that did added 0.3 MB
        # to the peak RSS of zeroshot on a 20k-id sidecar
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not valid UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: not valid JSON: nested too deeply") from None


def load_labels(path) -> LabelMatrix:
    """Parse a labels CSV into a LabelMatrix.  Entries must be exactly 0 or 1."""
    ids, class_names, values = _read_matrix(path, _binary_labels, _plain_labels)
    return LabelMatrix(ids=ids, values=values, class_names=class_names)


def save_labels(labels: LabelMatrix, path) -> None:
    _write_matrix(path, ["id"] + labels.class_names, labels.ids, labels.values)


def load_scores(path, kind: str) -> ScoreMatrix:
    """Parse a scores CSV; each entry must be a number in the kind's ``SCORE_KINDS`` interval."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    check = partial(_check_values, "score values", interval=SCORE_KINDS[kind])
    ids, class_names, values = _read_matrix(path, _floats, _plain_floats, check)
    return ScoreMatrix(ids=ids, values=values, kind=kind, class_names=class_names)


def save_scores(scores: ScoreMatrix, path) -> None:
    """Write a scores CSV with 9 significant digits per value."""
    _write_matrix(path, ["id"] + scores.class_names, scores.ids, scores.values)


def _load_margins(path, class_names) -> np.ndarray:
    """The ``margin`` column of a ``class``-first CSV such as ``weights.csv``, in ``class_names`` order."""
    names, columns, values = _read_matrix(path, _floats, _plain_floats, key="class")
    if "margin" not in columns:
        raise ValueError(f"{path}: need 'class' and 'margin' columns")
    by_class = dict(zip(names, values[:, columns.index("margin")].tolist()))
    for name, margin in by_class.items():
        _check_real(f"{path}: margin of class {name!r}", margin, "[0, inf)")
    missing = [name for name in class_names if name not in by_class]
    if missing:
        raise ValueError(f"{path}: no margin for class(es) {', '.join(missing)}")
    return np.array([by_class[name] for name in class_names])


def class_stats(labels: LabelMatrix) -> ClassConfig:
    """Per-class positive counts and their frequencies over the samples."""
    if labels.n_samples < 1:
        raise ValueError("need at least one sample")
    counts = labels.values.sum(axis=0, dtype=np.int64)
    frequencies = counts / float(labels.n_samples)
    return ClassConfig(counts=counts, frequencies=frequencies)


def load_embeddings(path) -> EmbeddingSet:
    """Load an embedding file, binary (EMB1 magic) or CSV, with normalized=False."""
    ids, vectors, _ = _map_rows(path)
    return EmbeddingSet(ids=ids, vectors=vectors, normalized=False)


def _ids_sidecar(path) -> Path:
    """The ids sidecar ``<file>.ids.json`` of EMB1 file ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".ids.json")


def _map_rows(path, fn=None, width=None, dim=None, unit=False):
    """(ids, N x ``width`` array, by default N x D, files read): ``fn`` of each row block.

    A CSV file is parsed and checked whole first; EMB1 rows pass ``_NORM_BLOCK_ROWS`` at a time
    through one buffer.  ``unit`` first divides each block by its row norms (``_unit_rows``).
    Faults come in file order: header and length, each block, sidecar; the first row that ``unit``
    cannot divide, named by file and id; last, if ``dim`` is ``(D, source)``, a dimension other
    than D, named by ``source``.  ``fn`` runs only before such a row and on a file of dimension D.
    Every message spells the file as ``Path`` does, without a leading ``./``.  The files read
    are ``path`` as given, then the ids sidecar if one was read."""
    files, path = [path], Path(path)
    with open(path, "rb") as fh:
        size, head = os.fstat(fh.fileno()).st_size, fh.read(12)
        binary = head[:4] == EMB_MAGIC
        if not binary:
            # anything non-textual that is not EMB1 is a corrupt binary, not a CSV
            if b"\x00" in head[:4]:
                raise ValueError(f"{path}: bad magic {head[:4]!r}")
            check = partial(_check_values, "embedding values", interval="(-inf, inf)")
            ids, _, vectors = _read_matrix(path, _floats, _plain_floats, check)
            count, found = vectors.shape
        elif len(head) < 12:
            raise ValueError(f"{path}: truncated header")
        else:
            count, found = struct.unpack_from("<II", head, 4)
            expected = 12 + 4 * count * found
            if size != expected:
                raise ValueError(f"{path}: expected {expected} bytes, found {size}")
            buffer = np.empty((min(count, _NORM_BLOCK_ROWS), found), dtype="<f4")
        out, bad = np.empty((count, width or found)), None
        for start in range(0, count, _NORM_BLOCK_ROWS):
            if binary:
                rows = buffer[: count - start]
                if fh.readinto(rows) != rows.nbytes:
                    raise ValueError(f"{path}: truncated data")
                block = _check_values(f"{path}: embedding values", rows, "(-inf, inf)").astype(np.float64)
            else:
                block = vectors[start : start + _NORM_BLOCK_ROWS]
            if unit and bad is None and (fault := _unit_rows(block)):
                bad = (start + fault[0], fault[1])
            if bad is None and (dim is None or dim[0] == found):
                out[start : start + len(block)] = block if fn is None else fn(block)
    buffer = rows = block = None  # freed before the sidecar's ids are parsed, which can reuse the memory
    sidecar = _ids_sidecar(path)
    if binary and sidecar.exists():
        ids = _read_json(sidecar)
        if not isinstance(ids, list) or len(ids) != count:
            raise ValueError(f"{sidecar}: ids sidecar does not match count {count}")
        if not all(type(i) in (str, int) for i in ids):
            raise ValueError(f"{sidecar}: every id must be a string or an integer")
        # compared as written: the id 1 and the id "1" are both written as 1
        seen = set()
        for key in map(str, ids):
            if key in seen:
                raise ValueError(f"{sidecar}: duplicate id {key!r}")
            seen.add(key)
        files.append(sidecar)
    elif binary:
        ids = [str(i) for i in range(count)]
    if bad is not None:
        raise ValueError(f"{path}: {bad[1]} (id {ids[bad[0]]!r})")
    if dim is not None and dim[0] != found:
        raise ValueError(f"{path}: {'embedding' if unit else 'feature'} dimension {found} differs from {dim[0]} in {dim[1]}")
    return ids, out, files


def save_embeddings_binary(emb: EmbeddingSet, path) -> None:
    """Write EMB1 binary plus the ids JSON sidecar.  Round trips bit-exactly."""
    count, dim = emb.vectors.shape
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<II", count, dim))
        fh.write(np.ascontiguousarray(emb.vectors, dtype="<f4").tobytes())
    _ids_sidecar(path).write_text(json.dumps(list(emb.ids)), encoding="utf-8")


def save_embeddings_csv(emb: EmbeddingSet, path) -> None:
    _write_matrix(path, ["id"] + [f"d{j}" for j in range(emb.dim)], emb.ids, emb.vectors)
