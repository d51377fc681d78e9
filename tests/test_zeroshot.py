import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit.cli import main
from tailkit.data import (
    _NORM_BLOCK_ROWS,
    EmbeddingSet,
    _map_rows,
    _write_matrix,
    load_embeddings,
    save_embeddings_binary,
    save_embeddings_csv,
)
from tailkit.metrics import average_precision
from tailkit.trainer import LinearModel, save_model
from tailkit.zeroshot import (
    PromptBank,
    ZsConfig,
    load_prompt_manifest,
    score_batch,
    score_file,
    unit_normalize,
)

SIGMOID_5 = 1.0 / (1.0 + math.exp(-5.0))  # 0.9933071490757153


def make_bank(class_vectors):
    """class name -> K x D array of unit rows."""
    return PromptBank(
        class_names=list(class_vectors),
        embeddings={k: np.asarray(v, dtype=np.float64) for k, v in class_vectors.items()},
    )


def unit_rows(rng, k, d):
    m = rng.standard_normal((k, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def load_one_class(path) -> np.ndarray:
    """The prompt rows that ``load_prompt_manifest`` reads from embedding file ``path``, its one class."""
    manifest = path.with_name("manifest.json")
    manifest.write_text(json.dumps({"classes": [{"name": "c", "embeddings": path.name}]}), encoding="utf-8")
    return load_prompt_manifest(manifest).embeddings["c"]


def zs_score(image_vec, prompts, scale=5.0) -> float:
    """score_batch of one unit image vector against one class's prompt rows."""
    images = EmbeddingSet(["img"], [image_vec], normalized=True)
    return float(score_batch(images, make_bank({"k": prompts}), ZsConfig(scale=scale)).values[0, 0])


class TestUnitNormalize:
    def test_three_four_five(self):
        emb = EmbeddingSet(["a"], np.array([[3.0, 4.0]], dtype=np.float32))
        out = unit_normalize(emb)
        assert out.normalized
        np.testing.assert_allclose(out.vectors[0], [0.6, 0.8], atol=1e-7)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        emb = unit_normalize(EmbeddingSet(["a", "b"], rng.standard_normal((2, 8))))
        again = unit_normalize(emb)
        np.testing.assert_allclose(again.vectors, emb.vectors, atol=1e-12)

    def test_zero_row_rejected(self):
        emb = EmbeddingSet(["a", "z"], np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero-norm"):
            unit_normalize(emb)

    def test_input_left_unchanged_and_result_float64(self):
        emb = EmbeddingSet(["a", "b"], np.array([[3.0, 4.0], [0.0, -2.0]], dtype=np.float32))
        before = emb.vectors.copy()
        out = unit_normalize(emb)
        np.testing.assert_array_equal(emb.vectors, before)
        assert not emb.normalized
        assert out.vectors.dtype == np.float64
        assert not np.shares_memory(out.vectors, emb.vectors)

    @pytest.mark.parametrize("save", [save_embeddings_binary, save_embeddings_csv])
    def test_load_unit_divides_in_place_bit_for_bit(self, tmp_path, save):
        rng = np.random.default_rng(5)
        rows = _NORM_BLOCK_ROWS + 3
        vectors = rng.standard_normal((rows, 6)) * rng.choice([1e-20, 1.0, 1e20], size=(rows, 1))
        path = tmp_path / "e.emb"
        save(EmbeddingSet([str(i) for i in range(rows)], vectors.astype(np.float32)), path)
        got = load_one_class(path)
        assert got.tobytes() == unit_normalize(load_embeddings(path)).vectors.tobytes()

    def test_load_unit_zero_row_names_the_file(self, tmp_path):
        path = tmp_path / "e.emb"
        save_embeddings_binary(EmbeddingSet(["a", "z"], [[1.0, 0.0], [0.0, 0.0]]), path)
        with pytest.raises(ValueError) as info:
            load_one_class(path)
        assert str(info.value) == f"{path}: zero-norm embedding row (id 'z')"


# rows to plant, by the value of every entry.  The squared norm of a CSV row of 1e300s is inf, of 1e-161s
# subnormal and of 1e-162s 0; an EMB1 file's float32 entries square into float64's normal range, so
# of its rows only an all-zero one is a fault
CSV_PLANTS = {0.0: "zero-norm embedding row", 1e300: "out", 1e-161: "out", 1e-162: "out", 3.0: None}
EMB1_PLANTS = {0.0: "zero-norm embedding row", 3e38: None, 1e-45: None}
OUT_OF_RANGE = "embedding row norm out of float64 range"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, _NORM_BLOCK_ROWS - 1, _NORM_BLOCK_ROWS + 1, 2 * _NORM_BLOCK_ROWS + 3]),
    st.integers(1, 6),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 4)), max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_reader_and_unit_normalize_share_one_unit_row_rule(tmp_path_factory, n, dim, csv, plants, seed):
    """``_map_rows(unit=True)`` and ``unit_normalize`` of the loaded file: the bits of the loaded
    rows divided by their norms, or the first bad row's fault and id, named by the reader with
    its file's path."""
    table = CSV_PLANTS if csv else EMB1_PLANTS
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim)) * rng.choice([1e-20, 1.0, 1e20], size=(n, 1))
    planted = {}
    for row, pick in plants:
        value = list(table)[pick % len(table)]
        vectors[row % n], planted[row % n] = value, value
    ids = [f"r{i}" for i in range(n)]
    path = tmp_path_factory.mktemp("unit") / ("e.csv" if csv else "e.emb")
    if csv:
        _write_matrix(path, ["id"] + [f"d{j}" for j in range(dim)], ids, vectors)
    else:
        save_embeddings_binary(EmbeddingSet(ids, vectors.astype(np.float32)), path)
    loaded = load_embeddings(path).vectors

    def outcome(normalize):
        try:
            return normalize().tobytes(), None
        except ValueError as exc:
            return None, str(exc)

    read = outcome(lambda: _map_rows(path, unit=True)[1])
    normalized = outcome(lambda: unit_normalize(EmbeddingSet(ids, loaded)).vectors)
    bad = sorted(row for row, value in planted.items() if table[value])
    if bad:
        fault = table[planted[bad[0]]].replace("out", OUT_OF_RANGE)
        assert normalized == (None, f"{fault} (id 'r{bad[0]}')")
        assert read == (None, f"{path}: {normalized[1]}")
    else:
        assert read == normalized == ((loaded / np.linalg.norm(loaded, axis=1, keepdims=True)).tobytes(), None)


class TestClassSimilarity:
    """The score of a class is the scaled sigmoid of the mean cosine with its prompts."""

    def test_matching_prompt(self):
        v = unit_rows(np.random.default_rng(2), 1, 16)[0]
        assert zs_score(v, [v]) == pytest.approx(SIGMOID_5, abs=1e-12)

    def test_orthogonal_prompts(self):
        v = np.array([1.0, 0.0, 0.0])
        assert zs_score(v, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) == 0.5

    def test_half_mean(self):
        v = np.array([1.0, 0.0])
        expected = 1.0 / (1.0 + math.exp(-2.5))
        assert zs_score(v, [[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(expected, abs=1e-15)

    def test_prompt_permutation_invariance(self):
        rng = np.random.default_rng(3)
        prompts = unit_rows(rng, 5, 16)
        v = unit_rows(rng, 1, 16)[0]
        assert zs_score(v, prompts) == pytest.approx(zs_score(v, prompts[::-1]), abs=1e-12)


class TestZsProbability:
    def test_zero_similarity(self):
        for scale in (0.1, 1.0, 5.0, 50.0):
            assert zs_score([1.0, 0.0], [[0.0, 1.0]], scale=scale) == 0.5

    def test_scaled_sigmoid_at_one(self):
        assert zs_score([0.0, 1.0], [[0.0, 1.0]]) == pytest.approx(SIGMOID_5, abs=1e-12)

    def test_symmetry(self):
        p = zs_score([-1.0, 0.0], [[1.0, 0.0]])
        assert p == pytest.approx(1.0 - SIGMOID_5, abs=1e-12)

    def test_scale_must_be_positive(self):
        for scale in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="scale"):
                ZsConfig(scale=scale)


class TestScoreBatch:
    def test_single_perfect_match(self):
        v = np.array([[0.6, 0.8]], dtype=np.float32)
        images = unit_normalize(EmbeddingSet(["img"], v))
        bank = make_bank({"k": [[0.6, 0.8]]})
        out = score_batch(images, bank, ZsConfig(scale=5.0))
        assert out.kind == "probabilities"
        assert out.class_names == ["k"]
        assert out.values[0, 0] == pytest.approx(SIGMOID_5, abs=1e-7)

    def test_small_scale_approaches_half(self):
        rng = np.random.default_rng(5)
        images = unit_normalize(EmbeddingSet(["a", "b"], rng.standard_normal((2, 12))))
        bank = make_bank({"x": unit_rows(rng, 3, 12), "y": unit_rows(rng, 2, 12)})
        out = score_batch(images, bank, ZsConfig(scale=1e-9))
        np.testing.assert_allclose(out.values, 0.5, atol=1e-9)

    def test_matches_per_sample_loop(self):
        rng = np.random.default_rng(6)
        images = unit_normalize(EmbeddingSet([f"i{k}" for k in range(16)], rng.standard_normal((16, 24))))
        bank = make_bank({f"c{j}": unit_rows(rng, 4, 24) for j in range(5)})
        cfg = ZsConfig(scale=5.0)
        batched = score_batch(images, bank, cfg)
        # independent loop oracle: one dot product at a time
        for i in range(16):
            for j, name in enumerate(bank.class_names):
                prompts = bank.embeddings[name]
                s = sum(float(np.dot(images.vectors[i], row)) for row in prompts) / len(prompts)
                expected = 1.0 / (1.0 + math.exp(-cfg.scale * s))
                assert batched.values[i, j] == pytest.approx(expected, rel=1e-6)

    def test_raw_scale_invariance(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((6, 10))
        bank = make_bank({"c": unit_rows(rng, 3, 10)})
        cfg = ZsConfig(scale=5.0)
        base = score_batch(unit_normalize(EmbeddingSet([f"i{k}" for k in range(6)], raw)), bank, cfg)
        scaled = score_batch(
            unit_normalize(EmbeddingSet([f"i{k}" for k in range(6)], 37.5 * raw)), bank, cfg
        )
        np.testing.assert_allclose(scaled.values, base.values, atol=1e-12)

    def test_ranking_invariant_to_scale(self):
        rng = np.random.default_rng(8)
        images = unit_normalize(EmbeddingSet([f"i{k}" for k in range(30)], rng.standard_normal((30, 16))))
        bank = make_bank({"c0": unit_rows(rng, 2, 16), "c1": unit_rows(rng, 3, 16)})
        a = score_batch(images, bank, ZsConfig(scale=5.0))
        b = score_batch(images, bank, ZsConfig(scale=0.7))
        for j in range(2):
            np.testing.assert_array_equal(
                np.argsort(a.values[:, j], kind="stable"),
                np.argsort(b.values[:, j], kind="stable"),
            )
        labels = rng.integers(0, 2, 30)
        labels[0] = 1
        assert average_precision(a.values[:, 0], labels) == pytest.approx(
            average_precision(b.values[:, 0], labels), abs=1e-12
        )

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(9)
        images = unit_normalize(EmbeddingSet([f"i{k}" for k in range(8)], rng.standard_normal((8, 6))))
        bank = make_bank({"c": unit_rows(rng, 2, 6)})
        out = score_batch(images, bank, ZsConfig(scale=5.0))
        assert (out.values > 0).all() and (out.values < 1).all()

    def test_requires_normalized_images(self):
        emb = EmbeddingSet(["a"], np.array([[3.0, 4.0]]))
        bank = make_bank({"c": [[1.0, 0.0]]})
        with pytest.raises(ValueError, match="unit-normalized"):
            score_batch(emb, bank, ZsConfig())

    def test_dimension_mismatch(self):
        images = unit_normalize(EmbeddingSet(["a"], np.array([[1.0, 0.0]])))
        bank = make_bank({"c": [[1.0, 0.0, 0.0]]})
        with pytest.raises(ValueError, match="dimension"):
            score_batch(images, bank, ZsConfig())


@pytest.mark.parametrize("save", [save_embeddings_binary, save_embeddings_csv])
@pytest.mark.parametrize("loaded", [True, False], ids=["loaded-bank", "built-bank"])
def test_score_file_rejects_another_dimension(tmp_path, save, loaded):
    """A 5 x 3 file against a 4-dim bank fails naming the bank's manifest, or the bank built in code,
    and returns no scores: the bank's dimension is checked by the reader, not by the caller."""
    images = tmp_path / "img.emb"
    save(EmbeddingSet([f"i{k}" for k in range(5)], np.ones((5, 3))), images)
    bank = make_bank({"c": [[1.0, 0.0, 0.0, 0.0]]})
    source = "the prompt bank"
    if loaded:
        save_embeddings_binary(EmbeddingSet(["p0"], bank.embeddings["c"]), tmp_path / "c.emb")
        source = tmp_path / "manifest.json"
        source.write_text(json.dumps({"classes": [{"name": "c", "embeddings": "c.emb"}]}), encoding="utf-8")
        bank = load_prompt_manifest(source)
    with pytest.raises(ValueError) as exc:
        score_file(images, bank, ZsConfig())
    assert str(exc.value) == f"{images}: embedding dimension 3 differs from 4 in {source}"


class TestPromptManifest:
    def test_load_and_order(self, tmp_path):
        rng = np.random.default_rng(10)
        names = ["Scoliosis", "Osteopenia", "Bulla"]
        entries = []
        for name in names:
            emb = EmbeddingSet([f"{name}-{k}" for k in range(2)], rng.standard_normal((2, 8)))
            save_embeddings_binary(emb, tmp_path / f"{name}.emb")
            entries.append({"name": name, "embeddings": f"{name}.emb"})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"classes": entries}), encoding="utf-8")
        bank = load_prompt_manifest(manifest)
        assert bank.class_names == names
        for name in names:
            np.testing.assert_allclose(
                np.linalg.norm(bank.embeddings[name], axis=1), 1.0, atol=1e-6
            )

    def test_files_lists_what_was_read(self, tmp_path):
        """The manifest, each embedding file and the ids sidecars read: a CSV's stray sidecar is not."""
        rows = EmbeddingSet(["p0"], [[0.6, 0.8]])
        save_embeddings_binary(rows, tmp_path / "a.emb")
        save_embeddings_binary(rows, tmp_path / "b.emb")
        (tmp_path / "b.emb.ids.json").unlink()
        save_embeddings_csv(rows, tmp_path / "c.csv")
        (tmp_path / "c.csv.ids.json").write_text('["p0"]', encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        entries = [{"name": name, "embeddings": f} for name, f in zip("abc", ["a.emb", "b.emb", "c.csv"])]
        manifest.write_text(json.dumps({"classes": entries}), encoding="utf-8")
        files = load_prompt_manifest(manifest).files
        assert files == (manifest, tmp_path / "a.emb", tmp_path / "a.emb.ids.json", tmp_path / "b.emb", tmp_path / "c.csv")

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"classes": []}), encoding="utf-8")
        with pytest.raises(ValueError, match="no classes"):
            load_prompt_manifest(manifest)

    def test_bank_requires_unit_rows(self):
        with pytest.raises(ValueError, match="unit norm"):
            make_bank({"c": [[3.0, 4.0]]})


class TestPromptBankInvariants:
    """Each fault is a ValueError of the constructor, not an error at first use."""

    def test_needs_a_class(self):
        with pytest.raises(ValueError, match="at least one class"):
            PromptBank([], {})

    def test_class_without_embeddings(self):
        with pytest.raises(ValueError, match="class 'b' needs at least one prompt embedding"):
            PromptBank(["a", "b"], {"a": [[1.0, 0.0]]})

    def test_duplicate_class_name(self):
        with pytest.raises(ValueError, match="duplicate class name in prompt bank"):
            PromptBank(["a", "a"], {"a": [[1.0, 0.0]]})

    def test_one_dimension_for_all_classes(self):
        with pytest.raises(ValueError, match="class 'b' prompt embeddings have dimension 3, not 2"):
            PromptBank(["a", "b"], {"a": [[1.0, 0.0]], "b": [[1.0, 0.0, 0.0]]})

    def test_caller_dict_left_as_it_was(self):
        rows = np.array([[0.6, 0.8]], dtype=np.float32)
        given = {"a": rows, "unused": rows}
        bank = PromptBank(["a"], given)
        assert list(given) == ["a", "unused"] and given["a"] is rows and given["a"].dtype == np.float32
        assert list(bank.embeddings) == ["a"] and bank.embeddings["a"].dtype == np.float64


def test_load_unit_peak_stays_near_one_float64_array(tmp_path):
    """Loading a class's EMB1 prompt file holds one N x D float64 array plus small change.

    A second full copy (the file's bytes, a cast or a normalized twin) adds 0.5x or
    1x.  The ids (about 0.06x here) and one block's temporaries (1/16 of the rows
    squared) stay under 0.25x once the file holds 16 blocks: with 4 blocks, one
    block's square alone is 0.25x.
    """
    rows, dim = 16 * _NORM_BLOCK_ROWS, 128
    rng = np.random.default_rng(0)
    path = tmp_path / "images.emb"
    save_embeddings_binary(EmbeddingSet([f"img{i:05d}" for i in range(rows)], rng.standard_normal((rows, dim))), path)
    tracemalloc.start()
    try:
        vectors = load_one_class(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vectors.shape == (rows, dim)
    assert peak <= 1.25 * vectors.nbytes


def write_benchmark_images(path, rng):
    """The ids of 20000 x 512 random EMB1 rows written to `path` with an ids sidecar, the benchmark's shape."""
    rows, dim = 20000, 512
    with open(path, "wb") as fh:
        fh.write(b"EMB1" + np.array([rows, dim], "<u4").tobytes())
        for _ in range(rows // 1000):
            fh.write(rng.standard_normal((1000, dim), dtype=np.float32).tobytes())
    ids = [f"img{i:05d}" for i in range(rows)]
    path.with_name(path.name + ".ids.json").write_text(json.dumps(ids), encoding="utf-8")
    return ids


def test_score_file_peak_stays_near_its_result(tmp_path):
    """``score_file`` at the benchmark's shape, 20000 x 512 EMB1 images with an ids sidecar against 6
    classes, peaks at most at 6 MiB traced: the 0.9 MiB N x C result, the ids and their parse, and
    one block's float32 buffer, float64 cast and scores.

    Measured at 4.68 MiB with 256-row blocks, where 1024-row blocks peaked at 10.94 MiB.
    """
    rows, dim, rng = 20000, 512, np.random.default_rng(4)
    path = tmp_path / "images.emb"
    ids = write_benchmark_images(path, rng)
    bank = make_bank({f"class{k}": unit_rows(rng, 16, dim) for k in range(6)})
    tracemalloc.start()
    try:
        read, values, _ = score_file(path, bank, ZsConfig(scale=5.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == ids and values.shape == (rows, 6)
    assert peak <= 6 * 2**20


def test_predict_probabilities_peak_stays_near_its_result(tmp_path):
    """``predict --probabilities`` on the same 20000 x 512 EMB1 features with a 30-class model peaks at
    most at 10 MiB traced: the 4.6 MiB N x C result, the ids, and one block's logits and sigmoid.

    Measured at 8.68 MiB.  A sigmoid of the whole N x C logits after the read held the logits, two more
    N x C float64 arrays and an N x C mask at once, and peaked at 15.76 MiB.
    """
    rng = np.random.default_rng(5)
    features, model, out = tmp_path / "features.emb", tmp_path / "model.json", tmp_path / "p.csv"
    write_benchmark_images(features, rng)
    names = [f"class{k}" for k in range(30)]
    save_model(LinearModel(rng.standard_normal((30, 512)) / 16, rng.standard_normal(30), names), model)
    argv = ["predict", "--model", str(model), "--features", str(features), "--probabilities", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8").count("\n") == 20001
    assert peak <= 10 * 2**20
