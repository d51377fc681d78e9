"""The streamed scoring path of `zeroshot` and `predict`, and the memory of the score CSV chain.

EMB1 rows are read, checked and scored one block at a time.  Pinned here:
a row's scores do not depend on the other rows of its file; no N x D matrix
is held; and a damaged file reports the same fault as the whole-file loaders.
The score CSV reader, `tta_merge`, `ensemble`, `normal_gate` and the writer
each peak within a small multiple of the N x C float64 table they load,
refine or save.
"""

import json
import struct
import traceback
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit.cli import main
from tailkit.data import (
    _NORM_BLOCK_ROWS,
    EMB_MAGIC,
    EmbeddingSet,
    ScoreMatrix,
    _map_rows,
    _write_matrix,
    load_embeddings,
    load_scores,
    save_embeddings_binary,
    save_embeddings_csv,
    save_scores,
)
from tailkit.loss import stable_sigmoid
from tailkit.pipeline import EnsembleSpec, GateConfig, ensemble, normal_gate, tta_merge
from tailkit.trainer import LinearModel, forward, save_model
from tailkit.zeroshot import PromptBank, ZsConfig, score_batch, score_file, unit_normalize

B = _NORM_BLOCK_ROWS


@st.composite
def subsets(draw, max_rows=2100):
    """(n, rows): a file of n rows, and a subset of them, a slice or scattered in any order."""
    n = draw(st.one_of(st.sampled_from([1, B - 1, B, B + 1]), st.integers(1, max_rows)))
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        return n, np.arange(start, draw(st.integers(start + 1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, rng.choice(n, draw(st.integers(1, n)), replace=False)


def bank_of(rng, classes, dim):
    rows = {f"k{j}": rng.standard_normal((3, dim)) for j in range(classes)}
    return PromptBank(list(rows), {k: v / np.linalg.norm(v, axis=1, keepdims=True) for k, v in rows.items()})


# D = 64 and 200 take several BLAS kernel paths; with them x @ M.T fails these tests
dims = st.sampled_from([3, 64, 200])


@settings(max_examples=25, deadline=None)
@given(subsets(), dims, st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_score_batch_row_does_not_depend_on_other_rows(drawn, dim, classes, seed):
    (n, rows), rng = drawn, np.random.default_rng(seed)
    images = unit_normalize(EmbeddingSet(range(n), rng.standard_normal((n, dim))))
    bank, cfg = bank_of(rng, classes, dim), ZsConfig(scale=5.0)
    whole = score_batch(images, bank, cfg).values
    part = score_batch(EmbeddingSet(rows, images.vectors[rows], normalized=True), bank, cfg).values
    assert part.tobytes() == whole[rows].tobytes()


@settings(max_examples=25, deadline=None)
@given(subsets(), dims, st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_rowwise_forward_row_does_not_depend_on_other_rows(drawn, dim, classes, seed):
    """``forward`` gives a row the same logits in any batch: what `predict` and demo evaluation score."""
    (n, rows), rng = drawn, np.random.default_rng(seed)
    model = LinearModel(rng.standard_normal((classes, dim)), rng.standard_normal(classes), list(range(classes)))
    x = rng.standard_normal((n, dim))
    whole = forward(model, x)
    assert forward(model, x[rows]).tobytes() == whole[rows].tobytes()


def write_emb1(path, vectors, ids):
    save_embeddings_binary(EmbeddingSet(ids, np.asarray(vectors, dtype=np.float32)), path)
    return path


@settings(max_examples=12, deadline=None)
@given(subsets(), dims, st.integers(0, 2**32 - 1))
def test_cli_scores_of_a_row_do_not_depend_on_other_rows(tmp_path_factory, drawn, dim, seed):
    """`zeroshot` and `predict` on EMB1: a subset file gives its rows the bits they get in the whole file."""
    (n, rows), rng = drawn, np.random.default_rng(seed)
    tmp = tmp_path_factory.mktemp("rows")
    vectors, ids = rng.standard_normal((n, dim)).astype(np.float32), [f"r{i}" for i in range(n)]
    whole = write_emb1(tmp / "whole.emb", vectors, ids)
    part = write_emb1(tmp / "part.emb", vectors[rows], [ids[i] for i in rows])
    bank = bank_of(rng, 3, dim)
    entries = []
    for name in bank.class_names:
        write_emb1(tmp / f"{name}.emb", bank.embeddings[name], [f"{name}-{i}" for i in range(3)])
        entries.append({"name": name, "embeddings": f"{name}.emb"})
    (tmp / "manifest.json").write_text(json.dumps({"classes": entries}), encoding="utf-8")
    model = LinearModel(rng.standard_normal((4, dim)), rng.standard_normal(4), list("abcd"))
    save_model(model, tmp / "model.json")
    zeroshot = partial(score_file, bank=bank, cfg=ZsConfig(scale=5.0))
    predict = partial(_map_rows, fn=partial(forward, model), width=4, dim=(dim, tmp / "model.json"))
    for score, argv in [
        (zeroshot, ["zeroshot", "--prompts", tmp / "manifest.json", "--images"]),
        (predict, ["predict", "--model", tmp / "model.json", "--features"]),
    ]:
        assert score(part)[1].tobytes() == score(whole)[1][rows].tobytes()
        lines = {}
        for path in (whole, part):
            assert main([str(a) for a in argv + [path, "--out", tmp / f"{path.stem}.csv"]]) == 0
            lines[path] = (tmp / f"{path.stem}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[part] == [lines[whole][0]] + [lines[whole][1 + i] for i in rows]


@pytest.mark.parametrize("save", [save_embeddings_binary, save_embeddings_csv])
def test_predict_probabilities_match_the_whole_matrix_sigmoid(tmp_path, save):
    """`predict --probabilities` makes each block's probabilities as it reads the block, and writes the
    bytes of `stable_sigmoid` of the whole file's logits: over 2 blocks and 1 row, with a row whose logits
    overflow to +inf and -inf."""
    rows, rng = 2 * B + 1, np.random.default_rng(6)
    vectors = rng.standard_normal((rows, 4)).astype(np.float32)
    vectors[:, 0] = 0.0  # the first column, where the model's weights are huge, is 0 but in one row
    vectors[B + 3, 0] = 1e10
    features = tmp_path / f"f.{'emb' if save is save_embeddings_binary else 'csv'}"
    save(EmbeddingSet([f"r{i}" for i in range(rows)], vectors), features)
    weights = np.column_stack([[1e300, -1e300, 0.0], rng.standard_normal((3, 3))])
    model = LinearModel(weights, rng.standard_normal(3), list("abc"))
    save_model(model, tmp_path / "model.json")
    argv = ["predict", "--model", tmp_path / "model.json", "--features", features, "--probabilities"]
    assert main([str(a) for a in argv + ["--out", tmp_path / "p.csv"]]) == 0
    with np.errstate(over="ignore"):
        whole = stable_sigmoid(forward(model, load_embeddings(features).vectors))
    assert whole[B + 3, :2].tolist() == [1.0, 0.0]
    save_scores(ScoreMatrix([f"r{i}" for i in range(rows)], whole, "probabilities", list("abc")), tmp_path / "w.csv")
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()


def test_streamed_zeroshot_holds_no_n_by_d_matrix(tmp_path):
    """16 blocks of 128-dim rows with a sidecar: the peak stays under a quarter of the N x D float64 array.

    Loading the file whole would take 1x; the ids take about 0.06x and one block 1/16.
    """
    rows, dim = 16 * B, 128
    rng = np.random.default_rng(0)
    path = write_emb1(tmp_path / "images.emb", rng.standard_normal((rows, dim)), [f"img{i:05d}" for i in range(rows)])
    bank, cfg = bank_of(rng, 6, dim), ZsConfig(scale=5.0)
    tracemalloc.start()
    try:
        ids, values, _ = score_file(path, bank, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(ids), values.shape) == (rows, (rows, 6))
    assert peak <= 0.25 * rows * dim * 8


def traced_peak(fn):
    """(fn(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def refine_scores(tmp_path_factory):
    """A 10k x 20 logit table as save_scores writes it (%.9g), and its path."""
    n, c = 10_000, 20
    scores = ScoreMatrix(
        [f"s{i:06d}" for i in range(n)],
        np.random.default_rng(0).normal(0.0, 2.0, (n, c)),
        "logits",
        [f"c{j}" for j in range(c)],
    )
    path = tmp_path_factory.mktemp("refine") / "view.csv"
    save_scores(scores, path)
    return load_scores(path, "logits"), path


def test_score_csv_load_peaks_within_five_tables(refine_scores):
    # at the peak: the text or its lines, the ids and the values; the bytes or a second copy of
    # the cells held beside them would pass 5x
    want, path = refine_scores
    got, peak = traced_peak(lambda: load_scores(path, "logits"))
    assert got.values.tobytes() == want.values.tobytes()
    assert peak / want.values.nbytes <= 5


def permuted_copies(table, kind, seeds):
    """``table`` and one copy of it per seed, each in a row permutation drawn from that seed."""
    copies = [table]
    for seed in seeds:
        perm = np.random.default_rng(seed).permutation(len(table.ids))
        copies.append(ScoreMatrix([table.ids[i] for i in perm], table.values[perm], kind, table.class_names))
    return copies


def test_tta_merge_of_three_views_peaks_within_two_and_a_half_tables(refine_scores):
    # at the peak: the sum, one realigned view and the id map that realigns it; the sigmoid's
    # two arrays and mask over a whole view beside them would pass 4x
    views = permuted_copies(refine_scores[0], "logits", (1, 2))
    merged, peak = traced_peak(lambda: tta_merge(views))
    assert merged.values.shape == views[0].values.shape
    assert peak / views[0].values.nbytes <= 2.5


def test_ensemble_of_two_members_peaks_within_two_and_a_half_tables(refine_scores):
    # at the peak: the sum, one realigned member and the id map that realigns it; a whole
    # weighted copy of the member beside them would pass 3.4x
    first = refine_scores[0]
    table = ScoreMatrix(first.ids, stable_sigmoid(first.values), "probabilities", first.class_names)
    members = permuted_copies(table, "probabilities", (1,))
    combined, peak = traced_peak(lambda: ensemble(members, EnsembleSpec.from_raw([1.0, 1.5])))
    assert combined.values.shape == table.values.shape
    assert peak / table.values.nbytes <= 2.5


def test_normal_gate_peaks_within_one_and_three_quarter_tables(refine_scores):
    # at the peak: the output and the result's id checks; the abnormal columns gathered
    # into an N x (C - 1) temporary would pass 2x
    first = refine_scores[0]
    p = ScoreMatrix(first.ids, stable_sigmoid(first.values), "probabilities", first.class_names)
    gated, peak = traced_peak(lambda: normal_gate(p, GateConfig(normal_class_index=0)))
    assert gated.values.shape == p.values.shape
    assert peak / p.values.nbytes <= 1.75


def test_score_csv_save_peaks_within_two_tables(refine_scores, tmp_path):
    # one block of rows as Python floats; the whole table as Python floats would pass 2x
    scores, path = refine_scores
    _, peak = traced_peak(lambda: save_scores(scores, tmp_path / "out.csv"))
    assert (tmp_path / "out.csv").read_bytes() == path.read_bytes()
    assert peak / scores.values.nbytes <= 2


@pytest.mark.parametrize("save", [save_embeddings_binary, save_embeddings_csv])
def test_the_file_is_closed_when_fn_raises(tmp_path, save):
    """The reader closes its file on every exit, also while a traceback still holds its frame."""
    path = tmp_path / "e.emb"
    save(EmbeddingSet(["a", "b", "c"], np.ones((3, 2))), path)

    def fail(block):
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError) as info:
        _map_rows(path, fail)
    frame = next(f for f, _ in traceback.walk_tb(info.tb) if f.f_code.co_name == "_map_rows")
    assert frame.f_locals["fh"].closed


N, ZERO_ROW = 2 * B + 5, B + 7  # three blocks; the zero row lies in the second
# the order in which the whole-file loaders report faults
FAULTS = ("truncated", "nan", "sidecar", "zero", "dim")
# the faults a CSV can carry, in the same order
CSV_FAULTS = ("nan", "zero", "dim")


def damaged_inputs(tmp_path, faults, csv=False):
    """Images of N rows, EMB1 or ``csv``, carrying ``faults``, a one-class prompt manifest and a model, both 2-dim."""
    dim = 3 if "dim" in faults else 2
    vectors = np.random.default_rng(4).standard_normal((N, dim)).astype("<f4")
    if "nan" in faults:
        vectors[-1, 0] = np.nan
    if "zero" in faults:
        vectors[ZERO_ROW] = 0.0
    ids = [f"r{i}" for i in range(N)]
    raw = EMB_MAGIC + struct.pack("<II", N, dim) + vectors.tobytes()
    images, sidecar = tmp_path / ("img.csv" if csv else "img.emb"), tmp_path / "img.emb.ids.json"
    if csv:
        _write_matrix(images, ["id"] + [f"d{j}" for j in range(dim)], ids, vectors)
    else:
        images.write_bytes(raw[:-1] if "truncated" in faults else raw)
        sidecar.write_text(json.dumps(ids[:-1] if "sidecar" in faults else ids), encoding="utf-8")
    write_emb1(tmp_path / "g.emb", [[1.0, 0.0]], ["g0"])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"classes": [{"name": "g", "embeddings": "g.emb"}]}), encoding="utf-8")
    model = tmp_path / "model.json"
    save_model(LinearModel([[1.0, -1.0]], [0.5], ["a"]), model)
    messages = {
        "truncated": f"{images}: expected {len(raw)} bytes, found {len(raw) - 1}",
        # the CSV reader names the record: the header is line 1, the last row line N + 1
        "nan": f"{images}: {f'line {N + 1}: ' if csv else ''}embedding values must be numbers in (-inf, inf)",
        "sidecar": f"{sidecar}: ids sidecar does not match count {N}",
        "zero": f"{images}: zero-norm embedding row (id 'r{ZERO_ROW}')",
    }
    zeroshot = messages | {"dim": f"{images}: embedding dimension 3 differs from 2 in {manifest}"}
    # a zero row is no fault for a linear model
    predict = messages | {"zero": None, "dim": f"{images}: feature dimension 3 differs from 2 in {model}"}
    return [
        (["zeroshot", "--images", images, "--prompts", manifest], zeroshot),
        (["predict", "--model", model, "--features", images], predict),
    ]


@pytest.mark.parametrize(
    "faults",
    [(f,) for f in FAULTS] + [(a, b) for i, a in enumerate(FAULTS) for b in FAULTS[i + 1 :]],
    ids=lambda faults: "+".join(faults),
)
def test_streamed_faults_come_in_the_loaders_order(tmp_path, capsys, faults):
    """Each fault alone, and each pair, through both commands: the earlier fault in FAULTS wins."""
    check_fault_order(tmp_path, capsys, faults, csv=False)


@pytest.mark.parametrize(
    "faults",
    [(f,) for f in CSV_FAULTS] + [(a, b) for i, a in enumerate(CSV_FAULTS) for b in CSV_FAULTS[i + 1 :]],
    ids=lambda faults: "+".join(faults),
)
def test_csv_faults_come_in_the_loaders_order(tmp_path, capsys, faults):
    """As for EMB1: CSV images with each fault a CSV can carry, alone and in pairs."""
    check_fault_order(tmp_path, capsys, faults, csv=True)


@pytest.mark.parametrize("fault", ["truncated", "nan", "sidecar", "dim"])
def test_dot_slash_inputs_are_named_as_path_spells_them(tmp_path, capsys, monkeypatch, fault):
    """Inputs given as ``./x``: every fault, the dimension's ``in <source>`` included, names ``x``."""
    monkeypatch.chdir(tmp_path)
    # built under Path("."), so each message reads "img.emb: ...", "... in manifest.json"
    for argv, messages in damaged_inputs(Path("."), (fault,)):
        argv = [f"./{a}" if isinstance(a, Path) else a for a in argv]
        assert main(argv + ["--out", "./out.csv"]) == 1
        assert capsys.readouterr().err == f"error: {messages[fault]}\n", argv[0]
        assert not Path("out.csv").exists()


def check_fault_order(tmp_path, capsys, faults, csv):
    for argv, messages in damaged_inputs(tmp_path, faults, csv):
        out = tmp_path / f"{argv[0]}.csv"
        shown = next((messages[f] for f in FAULTS if f in faults and messages[f]), None)
        code = main([str(a) for a in argv + ["--out", out]])
        err = capsys.readouterr().err
        if shown is None:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (1, f"error: {shown}\n"), argv[0]
            assert not out.exists()
