"""Acceptance suite: every release gate with its pinned tolerance.

Each test is one criterion; the terminal summary prints one line per
criterion.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from tailkit.cli import main
from tailkit.data import EmbeddingSet, ScoreMatrix
from tailkit.loss import db_loss, effective_numbers
from tailkit.metrics import auc_roc, average_precision
from tailkit.pipeline import EnsembleSpec, GateConfig, normal_gate, tta_merge
from tailkit.raster import (
    Raster,
    apply_transform,
    normalize_clip_style,
    percentile_clip_rescale,
    resize_bilinear,
)
from tailkit.sampler import SamplerConfig, build_epoch, class_repeat_factors
from tailkit.trainer import SynthSpec, run_comparison
from tailkit.zeroshot import PromptBank, ZsConfig, score_batch, unit_normalize

from test_metrics import ap_threshold_oracle, auc_pairwise_oracle


def test_c01_gradient_correctness():
    """Analytic gradient vs central differences: 200 instances, <= 1e-6, < 5 s."""
    start = time.monotonic()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    step = 1e-5
    for _ in range(200):
        n = int(rng.integers(1, 6))
        c = int(rng.integers(1, 7))
        z = rng.uniform(-6.0, 6.0, (n, c))
        y = (rng.random((n, c)) < 0.5).astype(np.float64)
        w = rng.uniform(0.5, 2.0, c)
        m = rng.uniform(0.0, 1.0, c)
        analytic = db_loss(z, y, w, m).grad_z
        for i in range(n):
            for j in range(c):
                zp = z.copy()
                zp[i, j] += step
                zm = z.copy()
                zm[i, j] -= step
                fd = (db_loss(zp, y, w, m).loss - db_loss(zm, y, w, m).loss) / (2 * step)
                a = analytic[i, j]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-6, f"max relative error {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c02_db_loss_degenerates_to_plain_bce():
    """All margins 0, all weights 1: equals mean BCE-with-logits to 1e-12."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        c = int(rng.integers(1, 7))
        z = rng.uniform(-6.0, 6.0, (n, c))
        y = (rng.random((n, c)) < 0.5).astype(np.float64)
        result = db_loss(z, y, np.ones(c), np.zeros(c))
        p = 1.0 / (1.0 + np.exp(-z))  # naive oracle, safe within |z| <= 6
        oracle = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
        assert abs(result.loss - oracle) <= 1e-12


def test_c03_effective_numbers_closed_forms():
    """eff(1, beta) = 1 exactly; eff(2, 0.9999) = 1/1.9999 to 1e-12."""
    for beta in (0.0, 0.5, 0.9999):
        assert effective_numbers([1], beta)[0] == 1.0
    assert abs(effective_numbers([2], 0.9999)[0] - 1.0 / (1.0 + 0.9999)) <= 1e-12


def test_c04_sampler_contract():
    """Repeat-factor formula, Monte-Carlo multiplicity, byte-for-byte determinism."""
    # (a) frequent classes keep r = 1 exactly
    cfg = SamplerConfig(threshold=0.01, seed=0)
    r = class_repeat_factors([0.01, 0.2, 1.0], cfg)
    assert r.tolist() == [1.0, 1.0, 1.0]

    # (b) 10,000 seeded epochs at r = 1.5: mean multiplicity within [1.48, 1.52]
    cfg = SamplerConfig(seed=404)
    repeat = np.full(4, 1.5)
    total = 0
    for epoch in range(10_000):
        total += build_epoch(repeat, cfg, epoch=epoch).epoch_len
    mean = total / (4 * 10_000)
    assert 1.48 <= mean <= 1.52, f"mean multiplicity {mean}"

    # (c) identical seed, identical plan, byte for byte
    repeat = np.array([1.3, 2.7, 1.0, 4.2, 1.5])
    a = build_epoch(repeat, SamplerConfig(seed=99), epoch=7)
    b = build_epoch(repeat, SamplerConfig(seed=99), epoch=7)
    assert a.indices.tobytes() == b.indices.tobytes()
    assert json.dumps(a.indices.tolist()) == json.dumps(b.indices.tolist())


def test_c05_metric_oracles():
    """AP vs exhaustive thresholds (n <= 10), AUC vs pairwise (n <= 64), 1e-12, < 60 s."""
    start = time.monotonic()
    rng = np.random.default_rng(5)

    # every label pattern of length 10 x 20 random tie-free score vectors
    score_vectors = [rng.random(10) for _ in range(20)]
    for pattern in itertools.product((0, 1), repeat=10):
        labels = np.array(pattern)
        for scores in score_vectors:
            expected = ap_threshold_oracle(scores, labels)
            got = average_precision(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert abs(got - expected) <= 1e-12

    # shorter patterns, exhaustively
    for n in range(1, 8):
        scores = rng.random(n)
        for pattern in itertools.product((0, 1), repeat=n):
            labels = np.array(pattern)
            expected = ap_threshold_oracle(scores, labels)
            got = average_precision(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert abs(got - expected) <= 1e-12

    # AUC vs the O(n^2) pairwise count, with deliberate ties
    for n in (2, 3, 5, 9, 17, 33, 64):
        for _ in range(30):
            scores = rng.random(n)
            if rng.random() < 0.5:
                scores = np.round(scores, 1)
            labels = rng.integers(0, 2, n)
            expected = auc_pairwise_oracle(scores, labels)
            got = auc_roc(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert abs(got - expected) <= 1e-12

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c06_rank_invariance_chain():
    """Gating at constant p0 and the zero-shot scale leave AP/AUC untouched."""
    rng = np.random.default_rng(6)

    # normal gate with constant p0 across samples
    values = rng.random((50, 5))
    values[:, 0] = 0.42
    labels = rng.integers(0, 2, (50, 5))
    labels[0] = 1
    labels[1] = 0
    p = ScoreMatrix(
        [f"s{i}" for i in range(50)],
        values,
        "probabilities",
        [f"c{j}" for j in range(5)],
    )
    gated = normal_gate(p, GateConfig(normal_class_index=0, exponent=0.5))
    for j in range(5):
        ap_a = average_precision(values[:, j], labels[:, j])
        ap_b = average_precision(gated.values[:, j], labels[:, j])
        assert abs(ap_a - ap_b) <= 1e-12
        auc_a = auc_roc(values[:, j], labels[:, j])
        auc_b = auc_roc(gated.values[:, j], labels[:, j])
        assert abs(auc_a - auc_b) <= 1e-12

    # zero-shot sharpening scale never reorders per-class rankings
    for batch in range(100):
        batch_rng = np.random.default_rng(1000 + batch)
        images = batch_rng.standard_normal((12, 16))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        prompts = batch_rng.standard_normal((3, 2, 16))
        prompts /= np.linalg.norm(prompts, axis=2, keepdims=True)
        bank = PromptBank(
            class_names=["a", "b", "c"],
            embeddings={n: prompts[k] for k, n in enumerate(["a", "b", "c"])},
        )
        emb = EmbeddingSet([f"i{k}" for k in range(12)], images, normalized=True)
        lo = score_batch(emb, bank, ZsConfig(scale=0.5))
        hi = score_batch(emb, bank, ZsConfig(scale=5.0))
        for j in range(3):
            assert np.array_equal(
                np.argsort(lo.values[:, j], kind="stable"),
                np.argsort(hi.values[:, j], kind="stable"),
            )


def test_c07_pipeline_fixtures():
    """Weight normalization, TTA merge, and gating fixtures, exact to 1e-12."""
    spec = EnsembleSpec([1.0, 1.5])
    assert abs(spec.normalized_weights[0] - 0.4) <= 1e-12
    assert abs(spec.normalized_weights[1] - 0.6) <= 1e-12

    views = [
        ScoreMatrix(["s0"], [[0.0]], "logits", ["c"]),
        ScoreMatrix(["s0"], [[math.log(3.0)]], "logits", ["c"]),
    ]
    merged = tta_merge(views)
    assert abs(merged.values[0, 0] - 0.625) <= 1e-12

    p = ScoreMatrix(["s0"], [[0.75, 0.4, 0.9]], "probabilities", ["Normal", "x", "y"])
    gated = normal_gate(p, GateConfig(normal_class_index=0, exponent=0.5))
    assert abs(gated.values[0, 1] - 0.2) <= 1e-12
    assert abs(gated.values[0, 2] - 0.45) <= 1e-12
    assert gated.values[0, 0] == 0.75


def test_c08_zeroshot_batch_oracle():
    """Batched scoring equals the per-sample loop; scale invariance; sigma(5)."""
    sigma_5 = 1.0 / (1.0 + math.exp(-5.0))
    cfg = ZsConfig(scale=5.0)
    for batch in range(100):
        rng = np.random.default_rng(3000 + batch)
        images = rng.standard_normal((32, 64))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        prompts = rng.standard_normal((6, 4, 64))
        prompts /= np.linalg.norm(prompts, axis=2, keepdims=True)
        names = [f"c{j}" for j in range(6)]
        bank = PromptBank(
            class_names=names,
            embeddings={n: prompts[j] for j, n in enumerate(names)},
        )
        emb = EmbeddingSet([f"i{k}" for k in range(32)], images, normalized=True)
        batched = score_batch(emb, bank, cfg)
        # independent loop oracle: one dot product at a time
        for i in range(32):
            v = emb.vectors[i].astype(np.float64)
            for j in range(6):
                s = 0.0
                for k in range(4):
                    s += float(np.dot(v, prompts[j, k]))
                expected = 1.0 / (1.0 + math.exp(-cfg.scale * (s / 4.0)))
                got = batched.values[i, j]
                assert abs(got - expected) / max(abs(expected), 1e-30) <= 1e-6

    # scaling raw embeddings by a positive factor changes nothing
    rng = np.random.default_rng(77)
    raw = rng.standard_normal((8, 24))
    prompts = rng.standard_normal((2, 3, 24))
    prompts /= np.linalg.norm(prompts, axis=2, keepdims=True)
    bank = PromptBank(
        class_names=["a", "b"],
        embeddings={"a": prompts[0], "b": prompts[1]},
    )
    ids = [f"i{k}" for k in range(8)]
    base = score_batch(unit_normalize(EmbeddingSet(ids, raw)), bank, cfg)
    scaled = score_batch(unit_normalize(EmbeddingSet(ids, 123.0 * raw)), bank, cfg)
    assert np.abs(base.values - scaled.values).max() <= 1e-12

    # unit similarity at scale 5 reproduces the logistic value
    v = np.zeros((1, 16))
    v[0, 0] = 1.0
    bank1 = PromptBank(class_names=["k"], embeddings={"k": v.copy()})
    out = score_batch(EmbeddingSet(["q"], v, normalized=True), bank1, cfg)
    assert abs(out.values[0, 0] - sigma_5) <= 1e-9


def test_c09_directional_synthetic_experiment():
    """db+cas beats bce+uniform on tail AP for >= 4 of 5 seeds, head intact, < 2 min."""
    start = time.monotonic()
    wins = 0
    head_changes = []
    for seed in (1, 2, 3, 4, 5):
        spec = SynthSpec(
            n_samples=4000,
            n_classes=20,
            feature_dim=32,
            power_law_exponent=1.5,
            noise_std=0.5,
            seed=seed,
        )
        summary, _, _ = run_comparison(spec, learning_rate=0.5, epochs=40, batch_size=64)
        if summary["arms"]["db_cas"]["tail_map"] > summary["arms"]["bce_uniform"]["tail_map"]:
            wins += 1
        head_changes.append(summary["head_change"])
    elapsed = time.monotonic() - start
    assert wins >= 4, f"tail-tercile wins {wins}/5"
    assert np.mean(head_changes) > -0.05, f"mean head change {np.mean(head_changes):+.4f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_c10_preprocessing_fixtures():
    """hflip involution, identity resize, constant-raster clip, 16-bit scaling."""
    rng = np.random.default_rng(10)
    grid = rng.random((9, 13))
    assert np.array_equal(apply_transform(apply_transform(grid, "hflip"), "hflip"), grid)

    out = resize_bilinear(grid, 9, 13)
    assert np.abs(out - grid).max() <= 1e-12

    constant = Raster(width=4, height=4, depth=8, pixels=np.full((4, 4), 123))
    assert (percentile_clip_rescale(constant, 1, 99) == 0.0).all()

    bright = Raster(width=1, height=1, depth=16, pixels=[[65535]])
    assert normalize_clip_style(bright)[0, 0] == 1.0


def test_c11_demo_determinism(tmp_path, monkeypatch):
    """`tailkit demo --seed 7` twice: byte-identical models and reports."""
    digests = []
    for run in ("one", "two"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        rc = main(["demo", "--seed", "7", "--out-dir", "out"])
        assert rc == 0
        digests.append(
            {p.name: p.read_bytes() for p in sorted((workdir / "out").iterdir())}
        )
    assert set(digests[0]) == set(digests[1])
    for name in digests[0]:
        assert digests[0][name] == digests[1][name], f"{name} differs between runs"
