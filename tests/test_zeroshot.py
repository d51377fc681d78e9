import json
import math

import numpy as np
import pytest

from tailkit.data import EmbeddingSet, save_embeddings_binary
from tailkit.metrics import average_precision
from tailkit.zeroshot import (
    PromptBank,
    ZsConfig,
    default_prompt_texts,
    load_prompt_manifest,
    score_batch,
    unit_normalize,
)

SIGMOID_5 = 1.0 / (1.0 + math.exp(-5.0))  # 0.9933071490757153


def make_bank(class_vectors):
    """class name -> K x D array of unit rows."""
    return PromptBank(
        class_names=list(class_vectors),
        prompts_per_class={},
        embeddings={k: np.asarray(v, dtype=np.float64) for k, v in class_vectors.items()},
    )


def unit_rows(rng, k, d):
    m = rng.standard_normal((k, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


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

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"classes": []}), encoding="utf-8")
        with pytest.raises(ValueError, match="no classes"):
            load_prompt_manifest(manifest)

    def test_bank_requires_unit_rows(self):
        with pytest.raises(ValueError, match="unit norm"):
            make_bank({"c": [[3.0, 4.0]]})


class TestDefaultPromptTexts:
    def test_covers_the_six_unseen_classes(self):
        texts = default_prompt_texts()
        assert set(texts) == {
            "Scoliosis",
            "Osteopenia",
            "Bulla",
            "Infarction",
            "Adenopathy",
            "Goiter",
        }
        assert all(len(v) >= 1 for v in texts.values())

    def test_usable_as_bank_with_placeholder_vectors(self):
        texts = default_prompt_texts()
        rng = np.random.default_rng(42)
        embeddings = {
            name: unit_rows(rng, len(prompts), 16) for name, prompts in texts.items()
        }
        bank = PromptBank(
            class_names=list(texts), prompts_per_class=texts, embeddings=embeddings
        )
        images = unit_normalize(EmbeddingSet(["i0"], rng.standard_normal((1, 16))))
        out = score_batch(images, bank, ZsConfig(scale=5.0))
        assert out.class_names == list(texts)
        assert ((out.values > 0) & (out.values < 1)).all()
