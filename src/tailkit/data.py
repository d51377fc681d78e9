"""Shared data model and portable file formats.

CSV is the canonical text format: UTF-8, LF line endings, header row with
``id`` first and class (or dimension) names after.  Embeddings additionally
have a binary format: magic ``EMB1``, u32-LE count, u32-LE dim, then
count*dim float32-LE values row-major, with ids in a JSON sidecar
``<file>.ids.json``.

The structures are plain mutable dataclasses, validated only at construction.
"""

import csv
import json
import re
import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SCORE_KINDS = ("logits", "probabilities")

EMB_MAGIC = b"EMB1"


@dataclass
class LabelMatrix:
    """N x C binary ground-truth labels."""

    ids: list
    values: np.ndarray
    class_names: list

    def __post_init__(self):
        self.ids = list(self.ids)
        self.class_names = list(self.class_names)
        self.values = np.asarray(self.values, dtype=np.int8)
        if self.values.ndim != 2:
            raise ValueError("label values must be a 2-D matrix")
        n, c = self.values.shape
        if n != len(self.ids) or c != len(self.class_names):
            raise ValueError("label matrix shape does not match ids/class names")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate id in label matrix")
        if not np.isin(self.values, (0, 1)).all():
            raise ValueError("non-binary label value")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass
class ScoreMatrix:
    """N x C real-valued scores, tagged as logits or probabilities."""

    ids: list
    values: np.ndarray
    kind: str
    class_names: list

    def __post_init__(self):
        self.ids = list(self.ids)
        self.class_names = list(self.class_names)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.values.ndim != 2:
            raise ValueError("score values must be a 2-D matrix")
        n, c = self.values.shape
        if n != len(self.ids) or c != len(self.class_names):
            raise ValueError("score matrix shape does not match ids/class names")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate id in score matrix")
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite score entry")
        if self.kind == "probabilities":
            if (self.values < 0).any() or (self.values > 1).any():
                raise ValueError("probability out of range [0, 1]")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]


@dataclass
class ClassConfig:
    """Per-class positive counts and frequencies."""

    counts: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if (self.counts < 0).any():
            raise ValueError("negative class count")
        c = self.counts.shape[0]
        self.frequencies = np.asarray(self.frequencies, dtype=np.float64)
        if self.frequencies.shape != (c,):
            raise ValueError("frequencies shape mismatch")
        if (self.frequencies < 0).any() or (self.frequencies > 1).any():
            raise ValueError("frequency outside [0, 1]")


@dataclass
class EmbeddingSet:
    """Row-major real vectors, one per id.

    Held in float64 so downstream arithmetic keeps full precision; the
    binary file format is float32, applied at write time (exact for data
    that came from a file, since float32 -> float64 is lossless).
    """

    ids: list
    vectors: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.ids = list(self.ids)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError("embedding vectors must be a 2-D matrix")
        if self.vectors.shape[0] != len(self.ids):
            raise ValueError("embedding count does not match ids")
        if not np.isfinite(self.vectors).all():
            raise ValueError("non-finite embedding entry")
        if self.normalized:
            norms = np.linalg.norm(self.vectors, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-6):
                raise ValueError("normalized flag set but rows are not unit norm")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _read_matrix(path, convert):
    """Parse an ``id``-first CSV into (ids, column names, converted values).

    ``convert`` maps an object array of cell strings to values, raising
    ValueError for a cell it rejects.  It runs on the whole body at once; only
    if it or the row-length/duplicate-id check fails are the rows rescanned
    one by one, so the error names the first bad line.  "line N" counts CSV
    records, the header being line 1, also for a record the csv module
    cannot parse; a quoted field that spans physical lines is one record.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows.extend(csv.reader(fh))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {len(rows) + 1}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    if not header or header[0] != "id":
        raise ValueError(f"{path}: line 1: header must start with 'id'")
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
            raise ValueError(f"{path}: line {lineno}: duplicate id {row[0]!r}")
        seen.add(row[0])
        try:
            convert(np.array([row[1:]], dtype=object))
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


def _finite(cells, what: str = "score") -> np.ndarray:
    """float() of every cell, so exactly Python's float spellings are accepted."""
    try:
        values = cells.astype(np.float64)
    except ValueError:
        for tok in cells.flat:
            try:
                float(tok)
            except ValueError:
                raise ValueError(f"bad number {tok!r}") from None
        raise
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite {what}")
    return values


def _probabilities(cells) -> np.ndarray:
    values = _finite(cells)
    if ((values < 0.0) | (values > 1.0)).any():
        raise ValueError("probability out of range")
    return values


def csv_writer(fh):
    r"""csv.writer with LF line endings that quotes fields holding a ``\r``.

    Under ``lineterminator="\n"`` the writer leaves a lone ``\r`` bare, and the
    field reads back as two records.  It quotes it under ``"\r\n"``, so rows
    are written that way and each ending is cut back to ``\n``; fields without
    ``\r`` are quoted the same under both.
    """
    lf_lines = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
    return csv.writer(lf_lines, lineterminator="\r\n")


# an id csv.writer may quote or reject: it holds a delimiter, quote, line-break or NUL
_CSV_SPECIAL = re.compile(r'[,"\r\n\x00]')


def _write_matrix(path, ids, names, values) -> None:
    """Write an ``id``-first CSV with 9 significant digits per value.

    A row whose id is a string ``csv.writer`` writes bare is formatted with one
    ``%`` call (``"%.9g" % v == f"{v:.9g}"``).  Every other row goes through
    ``csv_writer`` for its quoting rules, and so does every row of a matrix
    without columns, where an empty id is a lone field and is written ``""``.
    """
    fmt = ",".join(["%.9g"] * len(names))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv_writer(fh)
        writer.writerow(["id"] + names)
        for sample_id, row in zip(ids, values.tolist()):
            if fmt and type(sample_id) is str and not _CSV_SPECIAL.search(sample_id):
                fh.write(f"{sample_id},{fmt % tuple(row)}\n")
            else:
                writer.writerow([sample_id] + [f"{v:.9g}" for v in row])


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON: indent 2, sorted keys, LF line endings, trailing LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_labels(path) -> LabelMatrix:
    """Parse a labels CSV into a LabelMatrix.  Entries must be exactly 0 or 1."""
    ids, class_names, values = _read_matrix(path, _binary_labels)
    return LabelMatrix(ids=ids, values=values, class_names=class_names)


def save_labels(labels: LabelMatrix, path) -> None:
    _write_matrix(path, labels.ids, labels.class_names, labels.values)


def load_scores(path, kind: str) -> ScoreMatrix:
    """Parse a scores CSV.  kind='probabilities' enforces entries in [0, 1]."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    convert = _probabilities if kind == "probabilities" else _finite
    ids, class_names, values = _read_matrix(path, convert)
    return ScoreMatrix(ids=ids, values=values, kind=kind, class_names=class_names)


def save_scores(scores: ScoreMatrix, path) -> None:
    """Write a scores CSV with 9 significant digits per value."""
    _write_matrix(path, scores.ids, scores.class_names, scores.values)


def class_stats(labels: LabelMatrix) -> ClassConfig:
    """Per-class positive counts and their frequencies over the samples."""
    if labels.n_samples < 1:
        raise ValueError("need at least one sample")
    counts = labels.values.sum(axis=0, dtype=np.int64)
    frequencies = counts / float(labels.n_samples)
    return ClassConfig(counts=counts, frequencies=frequencies)


def load_embeddings(path) -> EmbeddingSet:
    """Load an embedding file, binary (EMB1 magic) or CSV, with normalized=False."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == EMB_MAGIC:
        return _load_embeddings_binary(path)
    # anything non-textual that is not EMB1 is a corrupt binary, not a CSV
    if b"\x00" in head:
        raise ValueError(f"{path}: bad magic {head!r}")
    ids, _, vectors = _read_matrix(path, partial(_finite, what="embedding entry"))
    return EmbeddingSet(ids=ids, vectors=vectors, normalized=False)


def _load_embeddings_binary(path: Path) -> EmbeddingSet:
    raw = path.read_bytes()
    if len(raw) < 12:
        raise ValueError(f"{path}: truncated header")
    count, dim = struct.unpack_from("<II", raw, 4)
    expected = 12 + 4 * count * dim
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
    vectors = np.frombuffer(raw, dtype="<f4", offset=12).reshape(count, dim)
    if not np.isfinite(vectors).all():
        raise ValueError(f"{path}: non-finite embedding entry")
    sidecar = path.with_name(path.name + ".ids.json")
    if sidecar.exists():
        ids = json.loads(sidecar.read_text(encoding="utf-8"))
        if not isinstance(ids, list) or len(ids) != count:
            raise ValueError(f"{sidecar}: ids sidecar does not match count {count}")
        if not all(type(i) in (str, int) for i in ids):
            raise ValueError(f"{sidecar}: every id must be a string or an integer")
    else:
        ids = [str(i) for i in range(count)]
    return EmbeddingSet(ids=ids, vectors=vectors, normalized=False)


def save_embeddings_binary(emb: EmbeddingSet, path) -> None:
    """Write EMB1 binary plus the ids JSON sidecar.  Round trips bit-exactly."""
    path = Path(path)
    count, dim = emb.vectors.shape
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<II", count, dim))
        fh.write(np.ascontiguousarray(emb.vectors, dtype="<f4").tobytes())
    sidecar = path.with_name(path.name + ".ids.json")
    sidecar.write_text(json.dumps(list(emb.ids)), encoding="utf-8")


def save_embeddings_csv(emb: EmbeddingSet, path) -> None:
    _write_matrix(path, emb.ids, [f"d{j}" for j in range(emb.dim)], emb.vectors)
