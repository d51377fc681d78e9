import csv
import json
import math
import os
import re
import struct
import warnings
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailkit import data
from tailkit.data import (
    _NORM_BLOCK_ROWS,
    EmbeddingSet,
    LabelMatrix,
    ScoreMatrix,
    class_stats,
    load_embeddings,
    load_labels,
    load_scores,
    save_embeddings_binary,
    save_embeddings_csv,
    save_labels,
    save_scores,
    _check_int,
    _check_real,
    _check_values,
)
from tailkit.loss import DbLossParams
from tailkit.sampler import SamplerConfig
from tailkit.trainer import LinearModel, TrainConfig, load_model, train


# ---------------------------------------------------------------------------
# Reference codec: one per-token loop per file kind, one writer per kind.
# The library's single bulk reader and writer must agree with these.
# ---------------------------------------------------------------------------


def oracle_read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def oracle_check_header(rows, path):
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = rows[0]
    if not header or header[0] != "id":
        raise ValueError(f"{path}: line 1: header must start with 'id'")
    names = header[1:]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: line 1: duplicate column name")
    return names


def oracle_load_labels(path):
    rows = oracle_read_rows(path)
    class_names = oracle_check_header(rows, path)
    ids, seen = [], set()
    values = np.zeros((len(rows) - 1, len(class_names)), dtype=np.int8)
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(class_names) + 1:
            raise ValueError(f"{path}: line {lineno}: ragged row")
        sample_id = row[0]
        if sample_id in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        ids.append(sample_id)
        for j, tok in enumerate(row[1:]):
            tok = tok.strip()
            if tok == "0":
                values[lineno - 2, j] = 0
            elif tok == "1":
                values[lineno - 2, j] = 1
            else:
                raise ValueError(f"{path}: line {lineno}: non-binary label {tok!r}")
    return LabelMatrix(ids=ids, values=values, class_names=class_names)


def oracle_save_labels(labels, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + labels.class_names)
        for i, sample_id in enumerate(labels.ids):
            writer.writerow([sample_id] + [str(int(v)) for v in labels.values[i]])


def oracle_load_scores(path, kind):
    rows = oracle_read_rows(path)
    class_names = oracle_check_header(rows, path)
    ids, seen = [], set()
    values = np.zeros((len(rows) - 1, len(class_names)), dtype=np.float64)
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(class_names) + 1:
            raise ValueError(f"{path}: line {lineno}: header mismatch (ragged row)")
        sample_id = row[0]
        if sample_id in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        ids.append(sample_id)
        for j, tok in enumerate(row[1:]):
            try:
                v = float(tok)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad number {tok!r}") from None
            if kind == "probabilities" and not 0.0 <= v <= 1.0:
                raise ValueError(f"{path}: line {lineno}: score values must be numbers in [0, 1]")
            if not math.isfinite(v):
                raise ValueError(f"{path}: line {lineno}: score values must be numbers in (-inf, inf)")
            values[lineno - 2, j] = v
    return ScoreMatrix(ids=ids, values=values, kind=kind, class_names=class_names)


def oracle_save_scores(scores, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + scores.class_names)
        for i, sample_id in enumerate(scores.ids):
            writer.writerow([sample_id] + [f"{v:.9g}" for v in scores.values[i]])


def oracle_load_embeddings_csv(path):
    rows = oracle_read_rows(path)
    oracle_check_header(rows, path)
    dim = len(rows[0]) - 1
    ids, seen = [], set()
    vectors = np.zeros((len(rows) - 1, dim), dtype=np.float64)
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != dim + 1:
            raise ValueError(f"{path}: line {lineno}: dimension mismatch")
        sample_id = row[0]
        if sample_id in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        ids.append(sample_id)
        for j, tok in enumerate(row[1:]):
            try:
                v = float(tok)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad number {tok!r}") from None
            if not math.isfinite(v):
                raise ValueError(f"{path}: line {lineno}: embedding values must be numbers in (-inf, inf)")
            vectors[lineno - 2, j] = v
    return EmbeddingSet(ids=ids, vectors=vectors, normalized=False)


def oracle_save_embeddings_csv(emb, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"d{j}" for j in range(emb.dim)])
        for i, sample_id in enumerate(emb.ids):
            writer.writerow([sample_id] + [f"{float(v):.9g}" for v in emb.vectors[i]])


def oracle_write_matrix(path, ids, names, values):
    """The per-cell writer behind every save_* before rows took one ``%`` format call."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        lf_lines = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lf_lines, lineterminator="\r\n")
        writer.writerow(["id"] + names)
        for sample_id, row in zip(ids, values.tolist()):
            writer.writerow([sample_id] + [f"{v:.9g}" for v in row])


def oracle_write_rows(path, header, ids, values):
    """One pass: the whole matrix made Python floats at once, then one ``%`` format per row."""
    fmt = ",%.9g" * values.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(data._csv_field, header)) + "\n")
        for sample_id, row in zip(ids, values.tolist()):
            line = data._csv_field(sample_id) + fmt % tuple(row)
            fh.write((line or '""') + "\n")


# kind -> (library loader, oracle loader); each returns (ids, names, values)
LOADERS = {
    "labels": (load_labels, oracle_load_labels),
    "logits": (lambda p: load_scores(p, "logits"), lambda p: oracle_load_scores(p, "logits")),
    "probabilities": (
        lambda p: load_scores(p, "probabilities"),
        lambda p: oracle_load_scores(p, "probabilities"),
    ),
    "embeddings": (load_embeddings, oracle_load_embeddings_csv),
}

# whitespace that str.strip() and float() both drop, ASCII and not
PADDING = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\u00a0", "\u2003", "\u3000"])
# spellings float() accepts beyond plain repr: underscores, signs, exponents, other digits
SPELLED = {
    "logits": ["1_0", "-0", "+.5", "1E+2", "-1_000.2_5e-1_0", "\u0661\u0662", "007"],
    "probabilities": ["1_0e-1", "-0", "+.5", "1E-2", "0.0_1", "\u0660.\u0665", "1"],
}
SPELLED["embeddings"] = SPELLED["logits"]


def _written_number(kind):
    # not near the float maximum, where a 4-digit spelling rounds up to inf
    lo, hi = (0.0, 1.0) if kind == "probabilities" else (-1e300, 1e300)
    number = st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)
    return number.flatmap(lambda v: st.sampled_from([repr(v), f"{v:.9g}", f"{v:.3e}", f"{v:f}"]))


def _number_token(kind):
    return st.one_of(_written_number(kind), st.sampled_from(SPELLED[kind]))


def _cell(kind):
    core = st.sampled_from(["0", "1"]) if kind == "labels" else _number_token(kind)
    return st.tuples(PADDING, core, PADDING).map("".join)


# the oracle writers leave a lone "\r" unquoted (csv.writer under lineterminator="\n"),
# so such a field would split the record on reading; NUL is rejected by csv on Python 3.10
_NAME_TEXT = st.text(st.characters(blacklist_characters="\x00\r", blacklist_categories=("Cs",)), max_size=4)
# the library writers quote a lone "\r"; the characters csv treats specially come often
_ANY_NAME_TEXT = st.text(
    st.one_of(
        st.sampled_from(["\r", "\n", '"', ",", " "]),
        st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
    ),
    max_size=4,
)


@st.composite
def matrix_files(draw, kind, min_rows=0):
    """(header, rows) of a valid ``id``-first CSV of the given kind."""
    n = draw(st.integers(min_value=min_rows, max_value=6))
    c = draw(st.integers(min_value=0, max_value=4))
    ids = draw(st.lists(_NAME_TEXT, min_size=n, max_size=n, unique=True))
    names = draw(st.lists(_NAME_TEXT, min_size=c, max_size=c, unique=True))
    rows = [[sample_id] + draw(st.lists(_cell(kind), min_size=c, max_size=c)) for sample_id in ids]
    return ["id"] + names, rows


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _error(load, path) -> str:
    with pytest.raises(ValueError) as info:
        load(path)
    return str(info.value)


class TestCodecMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(LOADERS)).flatmap(lambda k: st.tuples(st.just(k), matrix_files(k))))
    def test_valid_files(self, tmp_path_factory, case):
        kind, (header, rows) = case
        path = tmp_path_factory.mktemp("codec") / "m.csv"
        _write_rows(path, header, rows)
        load, oracle = LOADERS[kind]
        got, want = load(path), oracle(path)
        got_values = got.vectors if kind == "embeddings" else got.values
        want_values = want.vectors if kind == "embeddings" else want.values
        assert got.ids == want.ids
        assert getattr(got, "class_names", None) == getattr(want, "class_names", None)
        assert got_values.dtype == want_values.dtype
        assert got_values.shape == want_values.shape == (len(rows), len(header) - 1)
        assert got_values.tobytes() == want_values.tobytes()

    NOT_A_NUMBER = ["abc", "", " ", "1__0", "0x1", "1,5", "_1", "1\x1c"]
    NON_FINITE = ["nan", "inf", "-Infinity", "1e999", " NaN "]
    BAD_TOKENS = {
        "labels": {"token": ["2", "1.0", "x", "", " 01 ", "-1"]},
        "logits": {"token": NOT_A_NUMBER, "non-finite": NON_FINITE},
        "embeddings": {"token": NOT_A_NUMBER, "non-finite": NON_FINITE},
        "probabilities": {
            "token": NOT_A_NUMBER,
            "non-finite": NON_FINITE,
            "range": ["1.5", "-0.25", "1e1", "1.0000001", "-1e-300"],
        },
    }

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_first_bad_line(self, tmp_path_factory, data):
        kind = data.draw(st.sampled_from(sorted(LOADERS)))
        header, rows = data.draw(matrix_files(kind, min_rows=1))
        c = len(header) - 1
        tokens = self.BAD_TOKENS[kind] if c else {}
        corruptions = ["ragged"] + (["duplicate"] if len(rows) > 1 else []) + sorted(tokens)
        corruption = data.draw(st.sampled_from(corruptions))
        k = data.draw(st.integers(min_value=1 if corruption == "duplicate" else 0, max_value=len(rows) - 1))
        row = rows[k]
        if corruption == "ragged":
            rows[k] = row[:-1] if data.draw(st.booleans()) else row + ["0"]
        elif corruption == "duplicate":
            row[0] = rows[data.draw(st.integers(min_value=0, max_value=k - 1))][0]
        else:
            row[data.draw(st.integers(min_value=1, max_value=c))] = data.draw(st.sampled_from(tokens[corruption]))
        path = tmp_path_factory.mktemp("codec") / "m.csv"
        _write_rows(path, header, rows)
        load, oracle = LOADERS[kind]
        got, want = _error(load, path), _error(oracle, path)
        assert re.search(r": line (\d+): ", got).group(1) == str(k + 2)
        assert re.search(r": line (\d+): ", want).group(1) == str(k + 2)
        if corruption == "ragged":
            assert "ragged row" in got and "dimension mismatch" in got
        else:
            assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=4),
        st.data(),
    )
    def test_writers_byte_identical(self, tmp_path_factory, n, c, data):
        ids = data.draw(st.lists(_NAME_TEXT, min_size=n, max_size=n, unique=True))
        names = data.draw(st.lists(_NAME_TEXT, min_size=c, max_size=c, unique=True))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = np.array(data.draw(st.lists(finite, min_size=n * c, max_size=n * c))).reshape(n, c)
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n * c, max_size=n * c))).reshape(n, c)
        tmp = tmp_path_factory.mktemp("writers")
        cases = [
            (save_labels, oracle_save_labels, LabelMatrix(ids, bits, names)),
            (save_scores, oracle_save_scores, ScoreMatrix(ids, values, "logits", names)),
            (save_embeddings_csv, oracle_save_embeddings_csv, EmbeddingSet(ids, values)),
        ]
        for save, oracle, matrix in cases:
            save(matrix, tmp / "got.csv")
            oracle(matrix, tmp / "want.csv")
            assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


# any finite float, with -0.0, subnormals and values near the 9-digit boundary drawn often
_ANY_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -1.5e-310, 1e16, 123456789.5, 999999999.5, 1.7976931348623157e308]),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=4), st.data())
def test_writer_matches_per_cell_writer(tmp_path_factory, n, c, data):
    ids = data.draw(st.lists(st.one_of(st.just(""), _ANY_NAME_TEXT), min_size=n, max_size=n, unique=True))
    names = data.draw(st.lists(_ANY_NAME_TEXT, min_size=c, max_size=c, unique=True))
    values = np.array(data.draw(st.lists(_ANY_FINITE, min_size=n * c, max_size=n * c))).reshape(n, c)
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n * c, max_size=n * c))).reshape(n, c)
    tmp = tmp_path_factory.mktemp("writer")
    cases = [
        (save_labels, LabelMatrix(ids, bits, names), names),
        (save_scores, ScoreMatrix(ids, values, "logits", names), names),
        (save_embeddings_csv, EmbeddingSet(ids, values), [f"d{j}" for j in range(c)]),
    ]
    for save, matrix, header in cases:
        save(matrix, tmp / "got.csv")
        values_of = matrix.vectors if isinstance(matrix, EmbeddingSet) else matrix.values
        oracle_write_matrix(tmp / "want.csv", ids, header, values_of)
        assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


# either side of one and two writer blocks, and of 1024 and 2048 rows, which span several
WRITER_ROWS = sorted(
    {0, 1, _NORM_BLOCK_ROWS - 1, _NORM_BLOCK_ROWS, _NORM_BLOCK_ROWS + 1, 2 * _NORM_BLOCK_ROWS + 1}
    | {1023, 1024, 1025, 2049}
)


@pytest.mark.parametrize("n", WRITER_ROWS)
def test_writer_blocks_match_the_whole_matrix_writer(tmp_path, n):
    # quoted ids on both sides of every block boundary, and one empty id, which a table
    # of no columns writes as ""
    special = ["a,b", 'q"x', "n\ny", "r\rz", "plain"]
    ids = [f"{special[i % 5]}{i}" for i in range(n)]
    if n:
        ids[n // 2] = ""
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-320, 300, (n, 3))
    header = ["id", "p", "q,r", 's"t']
    tables = [(header, values), (header, (values > 0).astype(np.int8)), (["id"], np.empty((n, 0)))]
    for header, table in tables:
        data._write_matrix(tmp_path / "got.csv", header, ids, table)
        oracle_write_rows(tmp_path / "want.csv", header, ids, table)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (b'\n""\n' in (tmp_path / "got.csv").read_bytes()) == (n > 0)


@pytest.mark.parametrize(
    "ids", [["a\x00b"], ["x", "\x00"], [7, 8.5, None, True]], ids=["nul-inner", "nul-alone", "not-str"]
)
def test_unusual_ids_written_as_per_cell_writer(tmp_path, ids):
    # csv.writer writes a non-string id as str(), and None as an empty field; it
    # writes NUL bare from Python 3.11 on and rejects it on 3.10, where the
    # expected bytes are those that 3.11 and later write
    scores = ScoreMatrix(ids, np.full((len(ids), 2), 0.5), "logits", ["p", "q"])
    save_scores(scores, tmp_path / "got.csv")
    try:
        oracle_write_matrix(tmp_path / "want.csv", scores.ids, scores.class_names, scores.values)
        want = (tmp_path / "want.csv").read_bytes()
    except csv.Error:
        want = ("id,p,q\n" + "".join(f"{i},0.5,0.5\n" for i in ids)).encode("utf-8")
    assert (tmp_path / "got.csv").read_bytes() == want


# every kind of id the writer meets, with the bytes it writes for each on every Python
GOLDEN_IDS = ["", None, 7, "a,b", 'q"x', "r\rz", "n\ny", "z\x00", "\u00e9"]
GOLDEN_FIELDS = [b"", b"", b"7", b'"a,b"', b'"q""x"', b'"r\rz"', b'"n\ny"', b"z\x00", b"\xc3\xa9"]


def test_writer_golden_bytes(tmp_path):
    # a row that is one empty field is written "" so that it is not a blank line
    path = tmp_path / "s.csv"
    save_scores(ScoreMatrix(GOLDEN_IDS, np.zeros((len(GOLDEN_IDS), 0)), "logits", []), path)
    assert path.read_bytes() == b"id\n" + b"".join((f or b'""') + b"\n" for f in GOLDEN_FIELDS)
    values = np.tile([1 / 3, -0.0, 1e16], (len(GOLDEN_IDS), 1))
    save_scores(ScoreMatrix(GOLDEN_IDS, values, "logits", ["p", 'q"', "r,\n"]), path)
    rows = b"".join(f + b",0.333333333,-0,1e+16\n" for f in GOLDEN_FIELDS)
    assert path.read_bytes() == b'id,p,"q""","r,\n"\n' + rows


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=4), st.data())
def test_ids_and_names_round_trip(tmp_path_factory, n, c, data):
    ids = data.draw(st.lists(_ANY_NAME_TEXT, min_size=n, max_size=n, unique=True))
    names = data.draw(st.lists(_ANY_NAME_TEXT, min_size=c, max_size=c, unique=True))
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n * c, max_size=n * c)))
    bits = bits.reshape(n, c)
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    cases = [
        (save_labels, load_labels, LabelMatrix(ids, bits, names)),
        (save_scores, lambda p: load_scores(p, "logits"), ScoreMatrix(ids, bits - 0.5, "logits", names)),
        (save_embeddings_csv, load_embeddings, EmbeddingSet(ids, bits * 0.25)),
    ]
    for save, load, matrix in cases:
        save(matrix, path)
        back = load(path)
        assert back.ids == ids
        if hasattr(matrix, "class_names"):
            assert back.class_names == names
            assert back.values.tobytes() == matrix.values.tobytes()
        else:
            assert back.vectors.tobytes() == matrix.vectors.tobytes()


def test_lone_carriage_return_is_quoted(tmp_path):
    path = tmp_path / "s.csv"
    save_scores(ScoreMatrix(["0\r", "a"], [[0.5], [1.0]], "logits", ["k\r"]), path)
    assert path.read_bytes() == b'id,"k\r"\n"0\r",0.5\na,1\n'
    back = load_scores(path, "logits")
    assert back.ids == ["0\r", "a"] and back.class_names == ["k\r"]


@pytest.mark.parametrize(
    "last_record, message",
    [("z,2", "non-binary label '2'"), ("z" * 200_000 + ",1", "field larger than field limit")],
    ids=["bad-cell", "csv-error"],
)
def test_line_numbers_count_records(tmp_path, last_record, message):
    # the quoted id spans two physical lines, so the faulty record is line 4 of
    # the file but record 3; a cell fault and a csv parse fault both say line 3
    path = tmp_path / "y.csv"
    path.write_text('id,a\n"x\ny",1\n' + last_record + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_labels(path)
    assert str(info.value).startswith(f"{path}: line 3: {message}")


# ---------------------------------------------------------------------------
# Plain files: printable ASCII ones are parsed by np.loadtxt (labels by a byte
# compare), every other file by the csv module.  Both must give what the
# per-token oracles give, bytes and messages alike.
# ---------------------------------------------------------------------------

# the bytes on which float() and np.loadtxt, or csv and a plain split, part ways
_ODD_TEXT = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x00", '"', "_", "#", "\r"]
_SOMETIMES = st.sampled_from([False, False, True])


@st.composite
def ascii_files(draw, kind):
    """The text of an ``id``-first CSV: plain, or with a few odd bytes, bad cells or broken lines."""
    odd = draw(st.lists(st.sampled_from(_ODD_TEXT), max_size=2, unique=True)) if draw(_SOMETIMES) else []
    if kind == "labels":
        core = st.sampled_from(["0", "1"])
    else:
        ascii_spelled = [t for t in SPELLED[kind] if t.isascii() and "_" not in t]
        core = st.one_of(_written_number(kind), st.sampled_from(ascii_spelled))
    pad = st.sampled_from(["", " ", "\t"] + odd) if draw(st.booleans()) else st.just("")
    cell = st.tuples(pad, core, pad).map("".join)
    if draw(_SOMETIMES):
        junk = st.one_of(
            st.text(st.sampled_from(list("0123456789.eE+- \t") + odd), max_size=6),
            st.sampled_from(["inf", "-inf", "+Infinity", "nan", "-NaN", "1e999", "0x1", "2", "01", "1.0"]),
            st.sampled_from(SPELLED.get(kind, ["1_0", "١"])),
        )
        cell = st.one_of(cell, cell, junk)
    n = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=4))
    name = st.text(st.sampled_from(list("ab01 .#\t") + odd), max_size=3)
    unique = not draw(_SOMETIMES)
    names = draw(st.lists(name, min_size=c, max_size=c, unique=unique))
    ids = draw(st.lists(name, min_size=n, max_size=n, unique=unique))
    lines = [",".join(["id"] + names)] + [",".join([i] + draw(st.lists(cell, min_size=c, max_size=c))) for i in ids]
    for _ in range(draw(st.integers(min_value=1, max_value=2)) if draw(_SOMETIMES) else 0):
        k = draw(st.integers(min_value=1, max_value=len(lines) - 1))
        damage = draw(st.sampled_from(["blank", "longer", "shorter"]))
        if damage == "blank":
            lines.insert(k, "")
        elif damage == "longer":
            lines[k] += "," + draw(cell)
        else:
            lines[k] = lines[k].rpartition(",")[0]
    end = draw(st.sampled_from(["\r\n", ""])) if draw(_SOMETIMES) else "\n"
    return "\r\n".join(lines) + end if end == "\r\n" else "\n".join(lines) + end


_RAGGED = re.compile(r": (ragged row|header mismatch \(ragged row\)|dimension mismatch)$")


def _outcome(load, path):
    """(ids, names, dtype, value bytes) of a load, or its error message."""
    try:
        got = load(path)
    except csv.Error as exc:  # the oracles leave csv's own errors unwrapped
        return f"csv: {exc}"
    except ValueError as exc:
        return _RAGGED.sub(": ragged row (dimension mismatch with header)", str(exc))
    values = got.vectors if isinstance(got, EmbeddingSet) else got.values
    return got.ids, getattr(got, "class_names", None), values.dtype.str, values.shape, values.tobytes()


def _assert_loads_as_oracle(kind, path):
    load, oracle = LOADERS[kind]
    got, want = _outcome(load, path), _outcome(oracle, path)
    head = path.read_bytes()[:4]
    if kind == "embeddings" and b"\x00" in head:  # taken for a corrupt EMB1 file
        assert got == f"{path}: bad magic {head!r}"
        return
    if not isinstance(want, str):
        assert got == want
        return
    # a rejected file is never parsed by the plain path: the csv path names the fault
    with mock.patch.object(data, "_read_plain", return_value=None):
        assert got == _outcome(load, path)
    if want.startswith("csv: "):
        assert re.fullmatch(rf"{re.escape(str(path))}: line \d+: {re.escape(want[5:])}", got)
    else:
        # the same line and, in a row with several faults, the same leftmost cell
        assert got == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LOADERS)).flatmap(lambda k: st.tuples(st.just(k), ascii_files(k))))
def test_plain_files_load_as_the_oracles_do(tmp_path_factory, case):
    kind, text = case
    path = tmp_path_factory.mktemp("plain") / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_loads_as_oracle(kind, path)


@pytest.mark.parametrize(
    "text",
    [
        "id,a,b\nx,0,1,0\ny,1\n",  # a long and a short row with the right number of cells in all
        "id,a,b\nx,1,0\n\ny,0,1\n",  # a blank line
        "id,a\nx,1\ny,0",  # no final LF
        "id,a\nx,\n",  # an empty cell, which np.loadtxt would skip with a warning
        "id,a\nx,\x1c1\n",  # float() rejects the byte, np.loadtxt strips it
        "id,a\nx,1_0\n",  # float() reads 10, np.loadtxt rejects it
        "id,a\nx,1\nx,0\n",  # a duplicate id
        "id,a,a\nx,1,0\n",  # a duplicate column name
        "id,a\n x,1\n\tx,0\n",  # ids that differ only in padding
        "id\nx\n",  # no columns
        "id,a\n",  # no rows
        'id,a\n"x",1\n',  # a quoted id
    ],
)
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_plain_looking_files_load_as_the_oracles_do(tmp_path, kind, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("ascii"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_loads_as_oracle(kind, path)


# the value checks of load_scores for logits and for probabilities
_finite_scores = partial(_check_values, "score values", interval="(-inf, inf)")
_probability_scores = partial(_check_values, "score values", interval="[0, 1]")
# kind -> (key, plain parser, check, loader, the message of an empty cell)
EMPTY_CELL_KINDS = {
    "labels": ("id", data._plain_labels, lambda v: v, load_labels, "non-binary label ''"),
    "logits": ("id", data._plain_floats, _finite_scores, lambda p: load_scores(p, "logits"), "bad number ''"),
    "probabilities": (
        "id", data._plain_floats, _probability_scores, lambda p: load_scores(p, "probabilities"), "bad number ''"
    ),
    "margins": ("class", data._plain_floats, lambda v: v, lambda p: data._load_margins(p, ["x"]), "bad number ''"),
}


@pytest.mark.parametrize(
    "body, line", [("x,\n", 2), ("x,1,,0\n", 2), ("w,1,0,0\nx,0,,1\n", 3)], ids=["last", "middle", "second-row"]
)
@pytest.mark.parametrize("kind", sorted(EMPTY_CELL_KINDS))
def test_an_empty_cell_is_declined_by_the_plain_path(tmp_path, kind, body, line):
    # np.loadtxt raises on the empty cell of a whole line, so csv reads the file and names the line
    key, parse, check, load, message = EMPTY_CELL_KINDS[kind]
    columns = ["margin"] + [f"c{j}" for j in range(body.split("\n")[0].count(",") - 1)]
    path = tmp_path / "m.csv"
    path.write_text(",".join([key] + columns) + "\n" + body, encoding="ascii")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert data._read_plain(path, parse, check, key) is None
        with pytest.raises(ValueError) as info:
            load(path)
    assert str(info.value) == f"{path}: line {line}: {message}"


@pytest.mark.parametrize(
    "kind, row, message",
    [
        ("logits", "x,inf,zz", "score values must be numbers in (-inf, inf)"),
        ("probabilities", "x,2,1_0,zz", "score values must be numbers in [0, 1]"),
        ("embeddings", ",inf,1_0,", "embedding values must be numbers in (-inf, inf)"),
        ("labels", "x, 2 ,zz", "non-binary label '2'"),
    ],
)
def test_a_bad_row_is_reported_by_its_leftmost_bad_cell(tmp_path, kind, row, message):
    # float() rejects only the cells to the right, which the bulk parse would name
    path = tmp_path / "m.csv"
    width = row.count(",")
    path.write_text(",".join(["id"] + [f"c{j}" for j in range(width)]) + "\n" + row + "\n", encoding="utf-8")
    load, oracle = LOADERS[kind]
    for reader in (load, oracle):
        with pytest.raises(ValueError) as info:
            reader(path)
        assert str(info.value) == f"{path}: line 2: {message}"


def test_refine_sized_files_take_the_plain_path(tmp_path, monkeypatch):
    n, c = 10_000, 20
    rng = np.random.default_rng(0)
    ids = [f"s{i:06d}" for i in range(n)]
    header = ",".join(["id", "Normal"] + [f"c{j}" for j in range(1, c)])
    labels = (rng.random((n, c)) < 0.2).astype(np.int8)
    scores = rng.random((n, c))  # in [0, 1], and repr() reads back exactly
    for name, table, cell in [("y.csv", labels, str), ("p.csv", scores, repr)]:
        rows = [f"{i},{','.join(map(cell, row))}" for i, row in zip(ids, table.tolist())]
        (tmp_path / name).write_text("\n".join([header] + rows) + "\n", encoding="ascii")

    def no_csv(*args, **kwargs):
        raise AssertionError("a plain file went to csv.reader")

    monkeypatch.setattr(csv, "reader", no_csv)
    got = [load_labels(tmp_path / "y.csv")]
    got += [load_scores(tmp_path / "p.csv", kind) for kind in ("logits", "probabilities")]
    got += [load_embeddings(tmp_path / "p.csv")]
    for matrix, want in zip(got, [labels, scores, scores, scores]):
        values = matrix.vectors if isinstance(matrix, EmbeddingSet) else matrix.values
        assert matrix.ids == ids
        assert values.dtype == want.dtype and values.tobytes() == want.tobytes()


def test_underscored_ids_take_the_plain_path(tmp_path, monkeypatch):
    # PadChest-style image ids, and a class name with an underscore
    files = {
        "labels": "id,Normal,pleural_effusion\nimg_0001,1,0\nimg_0002,0,1\n",
        "probabilities": "id,Normal,pleural_effusion\nimg_0001,0.25,1\nimg_0002,0,0.5\n",
    }
    paths = {kind: tmp_path / f"{kind}.csv" for kind in files}
    for kind, text in files.items():
        paths[kind].write_text(text, encoding="ascii")
    want = {kind: _outcome(LOADERS[kind][1], paths[kind]) for kind in files}

    def no_csv(*args, **kwargs):
        raise AssertionError("a plain file went to csv.reader")

    monkeypatch.setattr(csv, "reader", no_csv)
    for kind in files:
        got = _outcome(LOADERS[kind][0], paths[kind])
        assert got == want[kind] and got[0] == ["img_0001", "img_0002"]


def test_underscore_in_a_cell_reads_through_csv(tmp_path):
    # np.loadtxt declines the digit separator that float() reads, so csv reads the file
    with pytest.raises(ValueError):
        np.loadtxt(["1_0"], delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    path = tmp_path / "s.csv"
    path.write_text("id,a\nimg_1,1_0\n", encoding="ascii")
    assert data._read_plain(path, data._plain_floats, _finite_scores) is None
    assert load_scores(path, "logits").values.tolist() == [[10.0]]


@pytest.mark.parametrize("load", [load_labels, load_embeddings, lambda p: load_scores(p, "logits")])
def test_non_utf8_csv_names_the_file(tmp_path, load):
    path = tmp_path / "m.csv"
    path.write_bytes(b"id,a\nx,\xff1\n")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: not valid UTF-8 text"


class TestLoadLabels:
    def test_basic_parse(self, write_csv):
        path = write_csv("y.csv", ["id", "a", "b"], [["x1", "1", "0"]])
        labels = load_labels(path)
        assert labels.ids == ["x1"]
        assert labels.class_names == ["a", "b"]
        assert labels.values.tolist() == [[1, 0]]

    def test_non_binary_value(self, write_csv):
        path = write_csv("y.csv", ["id", "a", "b"], [["x1", "2", "0"]])
        with pytest.raises(ValueError, match="non-binary"):
            load_labels(path)

    def test_duplicate_id(self, write_csv):
        path = write_csv("y.csv", ["id", "a"], [["x1", "0"], ["x1", "1"]])
        with pytest.raises(ValueError, match="duplicate id"):
            load_labels(path)

    def test_ragged_row(self, write_csv):
        path = write_csv("y.csv", ["id", "a", "b"], [["x1", "1"]])
        with pytest.raises(ValueError, match="line 2"):
            load_labels(path)

    def test_header_must_start_with_id(self, write_csv):
        path = write_csv("y.csv", ["name", "a"], [["x1", "1"]])
        with pytest.raises(ValueError, match="header"):
            load_labels(path)


class TestLoadScores:
    def test_probability_parse(self, write_csv):
        path = write_csv("s.csv", ["id", "a"], [["x1", "0.7"]])
        scores = load_scores(path, kind="probabilities")
        assert scores.kind == "probabilities"
        assert scores.values.tolist() == [[0.7]]

    def test_probability_out_of_range(self, write_csv):
        path = write_csv("s.csv", ["id", "a"], [["x1", "1.2"]])
        with pytest.raises(ValueError, match=re.escape("score values must be numbers in [0, 1]")):
            load_scores(path, kind="probabilities")

    def test_logits_unbounded(self, write_csv):
        path = write_csv("s.csv", ["id", "a"], [["x1", "-3.5"]])
        scores = load_scores(path, kind="logits")
        assert scores.values.tolist() == [[-3.5]]

    def test_nan_rejected(self, write_csv):
        path = write_csv("s.csv", ["id", "a"], [["x1", "nan"]])
        with pytest.raises(ValueError, match=re.escape("score values must be numbers in (-inf, inf)")):
            load_scores(path, kind="logits")


class TestClassStats:
    def test_counting(self):
        labels = LabelMatrix(["a", "b"], [[1, 0], [1, 1]], ["c0", "c1"])
        stats = class_stats(labels)
        assert stats.counts.tolist() == [2, 1]
        assert stats.frequencies.tolist() == [1.0, 0.5]

    def test_empty_class_allowed(self):
        stats = class_stats(LabelMatrix(["a"], [[0]], ["c0"]))
        assert stats.counts.tolist() == [0]
        assert stats.frequencies.tolist() == [0.0]

    def test_quarter_frequency(self):
        labels = LabelMatrix(["a", "b", "c", "d"], [[1], [0], [0], [0]], ["c0"])
        assert class_stats(labels).frequencies.tolist() == [0.25]


def class_stats_oracle(rows, n_classes):
    """(counts, frequencies) of 0/1 label rows, counted one cell at a time."""
    counts = [0] * n_classes
    for row in rows:
        for j, value in enumerate(row):
            counts[j] += value
    return counts, [count / len(rows) for count in counts]


@st.composite
def label_rows(draw):
    """n >= 1 rows of up to 6 classes; each column all zero, all one or mixed."""
    n = draw(st.integers(1, 30))
    kinds = draw(st.lists(st.sampled_from(["zeros", "ones", "mixed"]), max_size=6))
    mixed = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    columns = [[0] * n if k == "zeros" else [1] * n if k == "ones" else draw(mixed) for k in kinds]
    return [[column[i] for column in columns] for i in range(n)], len(columns)


@settings(max_examples=100, deadline=None)
@example(table=([[1]], 1))  # n = 1
@example(table=([[], [], []], 0))  # no classes
@example(table=([[0, 1]] * 4, 2))  # an all-zero and an all-one column
@given(table=label_rows())
def test_class_stats_matches_loop_oracle(table):
    """int64 counts and float64 frequencies in [0, 1], equal to a loop's: the invariants ClassConfig relies on."""
    rows, n_classes = table
    values = np.array(rows, dtype=np.int8).reshape(len(rows), n_classes)
    labels = LabelMatrix([f"s{i}" for i in range(len(rows))], values, [f"c{j}" for j in range(n_classes)])
    stats = class_stats(labels)
    counts, frequencies = class_stats_oracle(rows, n_classes)
    assert stats.counts.dtype == np.int64 and stats.frequencies.dtype == np.float64
    assert stats.counts.tolist() == counts
    assert stats.frequencies.tolist() == frequencies
    assert ((stats.frequencies >= 0) & (stats.frequencies <= 1)).all()


class TestEmbeddings:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        emb = EmbeddingSet(["a", "b"], rng.standard_normal((2, 3)).astype(np.float32))
        path = tmp_path / "e.bin"
        save_embeddings_binary(emb, path)
        back = load_embeddings(path)
        assert back.ids == ["a", "b"]
        assert back.vectors.tobytes() == emb.vectors.tobytes()
        assert back.normalized is False

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"NO\x00P" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            load_embeddings(path)

    def test_damaged_magic_names_the_file(self, tmp_path):
        # no NUL in the first 4 bytes, so the file is read as text and is not UTF-8
        path = tmp_path / "e.bin"
        save_embeddings_binary(EmbeddingSet(["a"], [[1.0, -2.0]]), path)
        path.write_bytes(b"EMB\xb1" + path.read_bytes()[4:])
        with pytest.raises(ValueError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path}: not valid UTF-8 text"

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b'["a", "b"', "not valid JSON: Expecting ',' delimiter: line 1 column 10 (char 9)"),
            (b"", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            (b'["\xff", "b"]', "not valid UTF-8 text"),
        ],
        ids=["truncated", "empty", "not-utf8"],
    )
    def test_bad_ids_sidecar_names_the_file(self, tmp_path, raw, message):
        path = tmp_path / "e.bin"
        save_embeddings_binary(EmbeddingSet(["a", "b"], [[1.0], [2.0]]), path)
        sidecar = tmp_path / "e.bin.ids.json"
        sidecar.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{sidecar}: {message}"

    def test_emb1_magic_truncated(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"EMB1" + (2).to_bytes(4, "little") + (3).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="expected"):
            load_embeddings(path)

    def test_csv_dimension_mismatch(self, write_csv):
        path = write_csv("e.csv", ["id", "d0", "d1", "d2"], [["a", "1", "2", "3"], ["b", "1", "2"]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            load_embeddings(path)

    def test_csv_round_trip(self, tmp_path):
        emb = EmbeddingSet(["a"], np.array([[0.125, -2.5, 3.0]], dtype=np.float32))
        path = tmp_path / "e.csv"
        save_embeddings_csv(emb, path)
        back = load_embeddings(path)
        assert back.vectors.tobytes() == emb.vectors.tobytes()

    def test_duplicate_ids_are_rejected(self):
        with pytest.raises(ValueError, match="^duplicate id in embedding set$"):
            EmbeddingSet(["a", "a"], np.ones((2, 3)))

    @pytest.mark.parametrize("save", [save_embeddings_binary, save_embeddings_csv])
    def test_a_saved_set_loads_back(self, tmp_path, save):
        """Both savers write only sets with unique ids, so each file they write reads back."""
        emb = EmbeddingSet(["a", "b", "c"], np.arange(9.0).reshape(3, 3) - 4)
        save(emb, tmp_path / "e")
        back = load_embeddings(tmp_path / "e")
        assert back.ids == emb.ids and back.vectors.tobytes() == emb.vectors.tobytes()


def oracle_load_emb1(path):
    """The EMB1 reader before block-wise loading: the whole file's bytes, then one frombuffer."""
    raw = path.read_bytes()
    if len(raw) < 12:
        raise ValueError(f"{path}: truncated header")
    count, dim = struct.unpack_from("<II", raw, 4)
    expected = 12 + 4 * count * dim
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
    vectors = np.frombuffer(raw, dtype="<f4", offset=12).reshape(count, dim)
    if not np.isfinite(vectors).all():
        raise ValueError(f"{path}: embedding values must be numbers in (-inf, inf)")
    return vectors.astype(np.float64)


def outcome(load, path):
    """(float64 bytes, None) of a load, or (None, its ValueError message)."""
    try:
        return np.asarray(load(path), dtype=np.float64).tobytes(), None
    except ValueError as exc:
        return None, str(exc)


# counts on either side of one and two reader blocks, and none at all
EMB1_COUNTS = (0, 1, _NORM_BLOCK_ROWS - 1, _NORM_BLOCK_ROWS, _NORM_BLOCK_ROWS + 1, 2 * _NORM_BLOCK_ROWS + 1)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(EMB1_COUNTS),
    st.integers(1, 5),
    st.sampled_from(["intact", "nan", "inf", "-inf", "one byte short", "one byte long"]),
    st.integers(0, 2**32 - 1),
)
def test_blocked_emb1_reader_matches_whole_file_oracle(tmp_path_factory, count, dim, damage, seed):
    """Same values or the same message; a bad value lands in the last, often partial, block."""
    rng = np.random.default_rng(seed)
    vectors = (rng.standard_normal((count, dim)) * rng.choice([1e-30, 1.0, 1e30], size=(count, 1))).astype("<f4")
    if damage in ("nan", "inf", "-inf") and count:
        last_block = (count - 1) // _NORM_BLOCK_ROWS * _NORM_BLOCK_ROWS
        vectors[rng.integers(last_block, count), rng.integers(dim)] = float(damage)
    raw = data.EMB_MAGIC + struct.pack("<II", count, dim) + vectors.tobytes()
    raw = {"one byte short": raw[:-1], "one byte long": raw + b"\x00"}.get(damage, raw)
    path = tmp_path_factory.mktemp("emb1") / "e.emb"
    path.write_bytes(raw)
    got = outcome(lambda p: load_embeddings(p).vectors, path)
    assert got == outcome(oracle_load_emb1, path)
    if damage == "intact":
        assert got[0] == vectors.astype(np.float64).tobytes()


def test_emb1_read_that_ends_early_is_truncated(tmp_path, monkeypatch):
    """A file that loses bytes after its length is checked fails as truncated data."""
    path = tmp_path / "e.emb"
    save_embeddings_binary(EmbeddingSet(["a", "b"], [[1.0, 2.0], [3.0, 4.0]]), path)
    path.write_bytes(path.read_bytes()[:-1])
    real_fstat = os.fstat
    monkeypatch.setattr(data.os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 1))
    with pytest.raises(ValueError) as info:
        load_embeddings(path)
    assert str(info.value) == f"{path}: truncated data"


@pytest.mark.parametrize("count", sorted({1, _NORM_BLOCK_ROWS, _NORM_BLOCK_ROWS + 1, 1024, 1025}))
def test_embedding_set_finds_non_finite_entry_in_last_block(count):
    vectors = np.ones((count, 3))
    vectors[-1, -1] = np.inf
    with pytest.raises(ValueError, match=f"^{re.escape('embedding values must be numbers in (-inf, inf)')}$"):
        EmbeddingSet([str(i) for i in range(count)], vectors)


def test_score_matrix_rejects_bad_probability():
    with pytest.raises(ValueError):
        ScoreMatrix(["a"], [[1.5]], "probabilities", ["c"])


def test_score_matrix_rejects_nan():
    with pytest.raises(ValueError):
        ScoreMatrix(["a"], [[np.nan]], "logits", ["c"])


def test_matrices_reject_duplicate_class_names():
    with pytest.raises(ValueError, match="^duplicate class name in score matrix$"):
        ScoreMatrix(["a"], [[0.5, 0.5]], "probabilities", ["c", "c"])
    with pytest.raises(ValueError, match="^duplicate class name in label matrix$"):
        LabelMatrix(["a"], [[0, 1]], ["c", "c"])


@pytest.mark.parametrize("what", ["label", "score"])
@pytest.mark.parametrize(
    "ids, values, names, message",
    [
        (["a"], [0, 1], ["c", "d"], "{} values must be a 2-D matrix"),
        (["a", "b"], [[0, 1]], ["c", "d"], "{} matrix shape does not match ids/class names"),
        (["a"], [[0, 1]], ["c"], "{} matrix shape does not match ids/class names"),
        (["a", "a"], [[0, 1], [1, 0]], ["c", "d"], "duplicate id in {} matrix"),
        (["a"], [[0, 1]], ["c", "c"], "duplicate class name in {} matrix"),
    ],
)
def test_label_and_score_matrices_check_their_table_alike(what, ids, values, names, message):
    make = LabelMatrix if what == "label" else partial(ScoreMatrix, kind="probabilities")
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(what))}$"):
        make(ids=ids, values=values, class_names=names)


@pytest.mark.parametrize(
    "kind, values, message",
    [
        ("logits", [[np.nan]], "score values must be numbers in (-inf, inf)"),
        ("probabilities", [[np.inf]], "score values must be numbers in [0, 1]"),
        ("probabilities", [[1.5]], "score values must be numbers in [0, 1]"),
        ("probabilities", [[-0.25]], "score values must be numbers in [0, 1]"),
        # the kind is checked before the values are cast
        ("odds", [["x"]], "unknown score kind 'odds'"),
    ],
)
def test_score_matrix_values_fail_in_the_readers_words(kind, values, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScoreMatrix(["a"], values, kind, ["c"])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_label_round_trip(tmp_path_factory, n, c, seed):
    rng = np.random.default_rng(seed)
    labels = LabelMatrix(
        ids=[f"s{i}" for i in range(n)],
        values=rng.integers(0, 2, (n, c)),
        class_names=[f"k{j}" for j in range(c)],
    )
    path = tmp_path_factory.mktemp("rt") / "y.csv"
    save_labels(labels, path)
    back = load_labels(path)
    assert back.ids == labels.ids
    assert np.array_equal(back.values, labels.values)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_score_round_trip_nine_digits(tmp_path_factory, n, c, seed):
    rng = np.random.default_rng(seed)
    scores = ScoreMatrix(
        ids=[f"s{i}" for i in range(n)],
        values=rng.uniform(-50, 50, (n, c)),
        kind="logits",
        class_names=[f"k{j}" for j in range(c)],
    )
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    save_scores(scores, path)
    back = load_scores(path, kind="logits")
    # 9 significant digits of formatting precision
    assert np.allclose(back.values, scores.values, rtol=5e-9, atol=1e-300)


# interval -> (values inside, values outside), each end hit, just inside and just outside
_BELOW_ONE, _ABOVE_ONE = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
_TINY, _HUGE = math.nextafter(0.0, 1.0), np.finfo(np.float64).max
REAL_CASES = {
    "[0, 1)": ([0, 0.0, -0.0, _TINY, 0.5, _BELOW_ONE], [-_TINY, -1, 1, 1.0, _ABOVE_ONE]),
    "(0, 1]": ([_TINY, 0.5, _BELOW_ONE, 1, 1.0], [0, 0.0, -0.0, -_TINY, _ABOVE_ONE, 2]),
    "[0, inf)": ([0, 0.0, _TINY, 1e308, _HUGE, 10**308], [-_TINY, -1, math.inf]),
    "(0, inf)": ([_TINY, 5, _HUGE], [0, 0.0, -_TINY, math.inf]),
    "[0, inf]": ([0, 0.0, _TINY, _HUGE, math.inf], [-_TINY, -1, -math.inf]),
    "[1, inf]": ([1, 1.0, _ABOVE_ONE, _HUGE, math.inf], [_BELOW_ONE, 0, -math.inf]),
    "[-inf, inf]": ([-math.inf, -_HUGE, 0, _HUGE, math.inf], []),
}
# no interval holds these: NaN, bool, non-numbers and an int past the float range
NOT_IN_ANY_INTERVAL = [math.nan, np.float64("nan"), True, False, "0.5", None, [0.5], 10**400, -(10**400)]


@pytest.mark.parametrize(
    "interval, value, inside",
    [(i, v, True) for i, (ins, _) in REAL_CASES.items() for v in ins]
    + [(i, v, False) for i, (_, outs) in REAL_CASES.items() for v in outs]
    + [(i, v, False) for i in REAL_CASES for v in NOT_IN_ANY_INTERVAL]
    + [("[0, 1)", t(0.5), True) for t in (np.float32, np.float64, np.int64)]
    + [("(0, 1]", t(0), False) for t in (np.float32, np.float64, np.int64)]
    + [("[0, inf]", np.float32("inf"), True), ("(0, inf)", np.float32("inf"), False)],
)
def test_check_real(interval, value, inside):
    if inside:
        _check_real("x_field", value, interval)
    else:
        with pytest.raises(ValueError, match=rf"^x_field must be a number in {re.escape(interval)}$"):
            _check_real("x_field", value, interval)


@pytest.mark.parametrize(
    "value, low, message",
    [
        (0, 0, None),
        (1, 1, None),
        (10**400, 1, None),
        (np.int64(3), 1, None),
        (-1, 0, "must be >= 0"),
        (0, 1, "must be >= 1"),
        (np.int64(0), 1, "must be >= 1"),
        (-(10**400), 0, "must be >= 0"),
        (True, 0, "must be an integer"),
        (False, 0, "must be an integer"),
        (1.0, 0, "must be an integer"),
        (np.float64(1.0), 0, "must be an integer"),
        (np.float32(1.0), 0, "must be an integer"),
        (math.nan, 0, "must be an integer"),
        ("1", 0, "must be an integer"),
        (None, 0, "must be an integer"),
    ],
)
def test_check_int(value, low, message):
    if message is None:
        _check_int("k_field", value, low)
    else:
        with pytest.raises(ValueError, match=f"^k_field {message}$"):
            _check_int("k_field", value, low)


# interval -> (arrays inside, arrays outside) of _check_values, each end hit, just inside and just outside
VALUES_CASES = {
    "[0, 1]": (
        [[0.0, 1.0], [-0.0], [_TINY, _BELOW_ONE], np.array([0, 1], np.int8), [True, False], np.array([1], np.uint64)],
        [[-_TINY], [_ABOVE_ONE], np.array([2], np.int8), np.array([-1], np.int8), np.array([257]), [0.5, -1.0]],
    ),
    "[0, 1)": ([[0.0], [_BELOW_ONE], [False]], [[-_TINY], [1.0], [True], np.array([1], np.int8)]),
    "(0, 1]": ([[_TINY], [1.0], [True]], [[0.0], [-0.0], [_ABOVE_ONE], [False]]),
    "(0, inf)": ([[_TINY, _HUGE], np.array([1, 127], np.int8)], [[0.0], [-_TINY], [math.inf], np.array([0], np.int8)]),
    "[0, inf)": ([[0.0, _HUGE], np.array([0, 2**64 - 1], np.uint64)], [[-_TINY], [math.inf], np.array([-128], np.int8)]),
    "[1, inf)": ([[1.0, _ABOVE_ONE, _HUGE], [True]], [[_BELOW_ONE], [math.inf], [False], np.array([0], np.int8)]),
    "[0, inf]": ([[0.0, math.inf]], [[-_TINY], [-math.inf]]),
    "(-inf, inf)": ([[-_HUGE, 0.0, _HUGE], np.array([-128, 127], np.int8)], [[-math.inf], [math.inf], [0.0, -math.inf]]),
    "[-inf, inf]": ([[-math.inf, math.inf], np.array([-128], np.int8)], []),
}
# no interval holds these: NaN, None, an int past the float range, strings and other non-numbers
NOT_VALUES = [
    [math.nan],
    [0.5, np.float32("nan")],
    np.array([None], dtype=object),
    np.array([0.5, 10**400], dtype=object),
    np.array([-(10**400)], dtype=object),
    ["0.5"],
    np.array(["0.5"], dtype=object),
    np.array([b"0"]),
    [0.5 + 0j],
    np.array([0], dtype="timedelta64[s]"),
]
# every interval holds an empty array, whatever its dtype or shape
EMPTY_VALUES = [[], np.empty((0, 3)), np.array([], dtype=np.int8), np.array([], dtype=object)]
# float32 arrays, as EMB1 blocks are, at each end and its float32 neighbours: numpy 1.x compares them
# with a Python-float bound by value-based casting, numpy 2 by NEP 50
_F32 = partial(np.array, dtype=np.float32)
_F32_TINY, _F32_HUGE = np.nextafter(np.float32(0), np.float32(1)), np.finfo(np.float32).max
_F32_BELOW_ONE, _F32_ABOVE_ONE = np.nextafter(np.float32(1), np.float32(0)), np.nextafter(np.float32(1), np.float32(2))
FLOAT32_CASES = {
    "[0, 1]": (
        [_F32([0.0, _F32_TINY, _F32_BELOW_ONE, 1.0]), _F32([-0.0])],
        [_F32([_F32_ABOVE_ONE]), _F32([-_F32_TINY]), _F32([0.5, np.nan])],
    ),
    "(0, inf)": ([_F32([_F32_TINY, _F32_HUGE])], [_F32([0.0]), _F32([-0.0]), _F32([np.inf])]),
    "(-inf, inf)": ([_F32([-_F32_HUGE, 0.0, _F32_HUGE])], [_F32([0.5, np.inf]), _F32([-np.inf]), _F32([np.nan])]),
}


@pytest.mark.parametrize(
    "interval, values, inside",
    [(i, v, True) for i, (ins, _) in VALUES_CASES.items() for v in ins]
    + [(i, v, False) for i, (_, outs) in VALUES_CASES.items() for v in outs]
    + [(i, v, False) for i in VALUES_CASES for v in NOT_VALUES]
    + [(i, v, True) for i in VALUES_CASES for v in EMPTY_VALUES]
    + [(i, v, inside) for i, cases in FLOAT32_CASES.items() for inside, vs in zip((True, False), cases) for v in vs],
)
def test_check_values(interval, values, inside):
    """The array twin of _check_real: the same intervals, each entry compared, one message."""
    if inside:
        checked = _check_values("x_field", values, interval)
        assert checked.shape == np.shape(values)
    else:
        with pytest.raises(ValueError, match=rf"^x_field must be numbers in {re.escape(interval)}$"):
            _check_values("x_field", values, interval)


@pytest.mark.parametrize(
    "values, interval, inside",
    [
        ([1.0, 0.0, -0.0], "[0, 1]", True),
        ([0.5], "[0, 1]", False),
        ([1.5], "[1, inf)", False),
        (np.array([[1.0, 0.5]], np.float32), "[0, 1]", False),
        ([2.0, 3.0], "[1, inf)", True),
        ([_ABOVE_ONE], "[1, inf)", False),
        ([2.0**53 + 2.0], "[1, inf)", True),
        (np.array([1, 3], np.int8), "[1, inf)", True),
        ([True, False], "[0, 1]", True),
        (np.array([1, 0.5], dtype=object), "[0, 1]", False),
        ([], "[0, 1]", True),
    ],
)
def test_check_values_whole(values, interval, inside):
    if inside:
        _check_values("k_field", values, interval, whole=True)
    else:
        with pytest.raises(ValueError, match=rf"^k_field must be whole numbers in {re.escape(interval)}$"):
            _check_values("k_field", values, interval, whole=True)


def test_check_values_compares_numeric_arrays_as_given():
    floats, ints = np.array([0.0, 1.0]), np.array([[0, 1]], np.int8)
    assert _check_values("v", floats, "[0, 1]") is floats  # no copy
    assert _check_values("v", ints, "[0, 1]", whole=True) is ints  # no cast
    assert _check_values("v", np.float64(0.5), "[0, 1]").shape == ()
    assert _check_values("v", [0, 1], "[0, 1]").dtype == np.int64
    objects = _check_values("v", np.array([1, 0.5, True], dtype=object), "[0, 1]")
    assert objects.dtype == np.float64 and objects.tolist() == [1.0, 0.5, 1.0]


# entries that no input site takes: NaN, +-inf, a string, None, an int past the float range, a complex
BAD_ENTRIES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "string": "0.5", "none": None, "huge": 10**400, "complex": 0.5 + 2j}
JSON_ENTRIES = ["nan", "inf", "-inf", "string", "none", "huge"]  # json.dumps writes NaN, Infinity, "0.5", null and digits
CSV_ENTRIES = ["nan", "inf", "-inf", "huge"]  # as repr() spells them; float() reads the digits of 10**400 as inf
EMB1_ENTRIES = ["nan", "inf", "-inf"]


def _csv_file(tmp_path, entry):
    path = tmp_path / "m.csv"
    path.write_text(f"id,a,b\nx,0.5,{entry!r}\n", encoding="utf-8")
    return path


def _emb1_file(tmp_path, entry):
    path = tmp_path / "m.emb"
    path.write_bytes(data.EMB_MAGIC + struct.pack("<II", 1, 2) + np.array([0.5, entry], "<f4").tobytes())
    return path


def _model_file(tmp_path, weights, bias):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"class_names": ["a"], "weights": weights, "bias": bias}), encoding="utf-8")
    return path


def _train(features):
    return train(features, LabelMatrix(["x"], [[1]], ["a"]), TrainConfig(0.1, 1, 1), DbLossParams(), SamplerConfig())


NOT_A_MODEL = "{tmp}/m.json: not a model file: ValueError('{field} must be numbers in (-inf, inf)')"
# site -> (the call with a bad entry, in tmp; its message, {tmp} the directory; the entries it can be given)
VALUE_SITES = {
    "ScoreMatrix logits": (
        lambda tmp, v: ScoreMatrix(["x"], [[0.5, v]], "logits", ["a", "b"]),
        "score values must be numbers in (-inf, inf)",
        list(BAD_ENTRIES),
    ),
    "ScoreMatrix probabilities": (
        lambda tmp, v: ScoreMatrix(["x"], [[0.5, v]], "probabilities", ["a", "b"]),
        "score values must be numbers in [0, 1]",
        list(BAD_ENTRIES),
    ),
    "EmbeddingSet": (
        lambda tmp, v: EmbeddingSet(["x"], [[0.5, v]]), "embedding values must be numbers in (-inf, inf)", list(BAD_ENTRIES)
    ),
    "train features": (lambda tmp, v: _train([[0.5, v]]), "feature values must be numbers in (-inf, inf)", list(BAD_ENTRIES)),
    "LinearModel weights": (
        lambda tmp, v: LinearModel([[0.5, v]], [0.0], ["a"]), "weights must be numbers in (-inf, inf)", list(BAD_ENTRIES)
    ),
    "LinearModel bias": (lambda tmp, v: LinearModel([[0.5]], [v], ["a"]), "bias must be numbers in (-inf, inf)", list(BAD_ENTRIES)),
    "load_model weights": (
        lambda tmp, v: load_model(_model_file(tmp, [[0.5, v]], [0.0])), NOT_A_MODEL.replace("{field}", "weights"), JSON_ENTRIES
    ),
    "load_model bias": (
        lambda tmp, v: load_model(_model_file(tmp, [[0.5]], [v])), NOT_A_MODEL.replace("{field}", "bias"), JSON_ENTRIES
    ),
    "load_scores logits": (
        lambda tmp, v: load_scores(_csv_file(tmp, v), "logits"),
        "{tmp}/m.csv: line 2: score values must be numbers in (-inf, inf)",
        CSV_ENTRIES,
    ),
    "load_scores probabilities": (
        lambda tmp, v: load_scores(_csv_file(tmp, v), "probabilities"),
        "{tmp}/m.csv: line 2: score values must be numbers in [0, 1]",
        CSV_ENTRIES,
    ),
    "embedding CSV cell": (
        lambda tmp, v: load_embeddings(_csv_file(tmp, v)),
        "{tmp}/m.csv: line 2: embedding values must be numbers in (-inf, inf)",
        CSV_ENTRIES,
    ),
    "EMB1 block": (
        lambda tmp, v: load_embeddings(_emb1_file(tmp, v)), "{tmp}/m.emb: embedding values must be numbers in (-inf, inf)", EMB1_ENTRIES
    ),
}


@pytest.mark.parametrize(
    "site, entry", [(site, entry) for site, (_, _, entries) in VALUE_SITES.items() for entry in entries]
)
def test_every_input_site_checks_its_values_before_the_cast(tmp_path, site, entry):
    """One message per site, for each entry it can be given.  The float64 cast parsed the string
    "0.5", raised OverflowError on 10**400 and kept the real part of 0.5+2j."""
    call, message, _ = VALUE_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cast of a complex warned and went on
        with pytest.raises(ValueError) as info:
            call(tmp_path, BAD_ENTRIES[entry])
    assert str(info.value) == message.format(tmp=tmp_path)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ScoreMatrix(["x", "x"], [[math.nan]], "logits", ["a"]), "score values must be numbers in (-inf, inf)"),
        (lambda: EmbeddingSet(["x", "x"], [[math.nan]]), "embedding values must be numbers in (-inf, inf)"),
        (lambda: LinearModel([[math.nan]], [0.0, 0.0], ["a"]), "weights must be numbers in (-inf, inf)"),
        (lambda: _train([[math.nan], [0.0]]), "feature values must be numbers in (-inf, inf)"),
    ],
    ids=["scores", "embeddings", "model", "features"],
)
def test_values_are_checked_before_the_shape(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LabelMatrix(["s0"], [[2]], ["c0"]), "label values must be whole numbers in [0, 1]"),
        (lambda: EmbeddingSet(["e0"], [1.0, 0.0]), "embedding vectors must be a 2-D matrix"),
        (lambda: EmbeddingSet(["e0", "e1"], [[1.0, 0.0]]), "embedding count does not match ids"),
        (lambda: EmbeddingSet(["e0"], [[2.0, 0.0]], normalized=True), "normalized flag set but rows are not unit norm"),
    ],
    ids=["label-not-binary", "vectors-1d", "count-vs-ids", "not-unit-norm"],
)
def test_containers_reject_bad_values(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("values", [[[1.5]], [[0.9]], [[-1]], np.array([[257]]), np.array([[2]], np.int16), [[math.nan]], [[None]]])
def test_label_values_are_checked_before_the_int8_cast(values):
    # the cast held 1.5 as 1, 0.9 as 0 and the int64 257 as 1
    with pytest.raises(ValueError) as exc:
        LabelMatrix(["s0"], values, ["c0"])
    assert str(exc.value) == "label values must be whole numbers in [0, 1]"


def test_label_values_keep_their_bits():
    for values in ([[1, 0]], [[True, False]], [[1.0, -0.0]], np.array([[1, 0]], np.uint8), np.array([[1, 0]], dtype=object)):
        labels = LabelMatrix(["s0"], values, ["a", "b"])
        assert labels.values.dtype == np.int8 and labels.values.tolist() == [[1, 0]]
    int8 = np.array([[0, 1]], np.int8)
    assert LabelMatrix(["s0"], int8, ["a", "b"]).values is int8


def test_load_scores_rejects_an_unknown_kind(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("id,c0\na,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_scores(path, kind="odds")
    assert str(exc.value) == "unknown score kind 'odds'"


def test_plain_label_row_shorter_than_its_cells_takes_the_csv_path(tmp_path):
    """A row of fewer than 2·C characters cannot hold C ``,0``/``,1`` pairs: the plain reader
    declines it, and the csv path names the first bad cell."""
    path = tmp_path / "labels.csv"
    path.write_text("id,a,b\n,,\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_labels(path)
    assert str(exc.value) == f"{path}: line 2: non-binary label ''"


def test_emb1_header_cut_short_names_the_file(tmp_path):
    path = tmp_path / "short.emb"
    path.write_bytes(b"EMB1" + struct.pack("<I", 1))
    with pytest.raises(ValueError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path}: truncated header"
