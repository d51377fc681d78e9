import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailkit import cli, trainer
from tailkit.cli import build_parser, main
from tailkit.data import (
    EmbeddingSet,
    _load_margins,
    class_stats,
    load_labels,
    load_scores,
    save_embeddings_binary,
    save_labels,
)
from tailkit.loss import DbLossParams, class_weights, effective_numbers, margins
from tailkit.raster import (
    CLIP_MEAN,
    CLIP_STD,
    IMAGENET_MEAN,
    IMAGENET_STD,
    TTA_TRANSFORMS,
    _STRIP_ROWS,
    apply_transform,
    load_pgm,
    normalize_clip_style,
    percentile_clip_rescale,
    percentile_window,
    resize_bilinear,
    to_tensor3,
)
from tailkit.trainer import LinearModel, SynthSpec, generate_synthetic, run_comparison, save_model


def write_csv_file(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_one_class_prompts(directory):
    """A prompt manifest for one class `g` with the single unit prompt (1, 0)."""
    save_embeddings_binary(EmbeddingSet(["g0"], [[1.0, 0.0]]), directory / "g.emb")
    manifest = directory / "manifest.json"
    manifest.write_text(
        json.dumps({"classes": [{"name": "g", "embeddings": "g.emb"}]}), encoding="utf-8"
    )
    return manifest


@pytest.fixture
def labels_csv(tmp_path):
    return write_csv_file(
        tmp_path / "labels.csv",
        ["id", "a", "b", "c"],
        [
            ["s0", "1", "0", "1"],
            ["s1", "1", "0", "0"],
            ["s2", "1", "1", "0"],
            ["s3", "0", "0", "1"],
        ],
    )


class TestWeightsCommand:
    def test_emits_per_class_table(self, tmp_path, labels_csv):
        out = tmp_path / "w.csv"
        rc = main(["weights", "--labels", str(labels_csv), "--out", str(out)])
        assert rc == 0
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["class"] for r in rows] == ["a", "b", "c"]
        assert [int(r["count"]) for r in rows] == [3, 1, 2]
        assert float(rows[0]["margin"]) == 0.0  # head class
        weights = [float(r["weight"]) for r in rows]
        assert np.mean(weights) == pytest.approx(1.0, rel=1e-6)
        assert (out.parent / "w.csv.manifest.json").exists()

    def test_zero_count_class_is_validation_error(self, tmp_path, capsys):
        labels = write_csv_file(
            tmp_path / "z.csv", ["id", "a", "b"], [["s0", "1", "0"]]
        )
        rc = main(["weights", "--labels", str(labels), "--out", str(tmp_path / "w.csv")])
        assert rc == 1
        assert "zero positives" in capsys.readouterr().err


def oracle_weights_csv(path, labels, beta, alpha, kappa):
    """The per-cell csv.writer loop `weights` wrote its table with before it shared the matrix writer."""
    stats = class_stats(labels)
    eff = effective_numbers(stats.counts, beta)
    weights = class_weights(eff, alpha)
    margin_vec = margins(stats.counts, kappa)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        lf_lines = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lf_lines, lineterminator="\r\n")
        writer.writerow(["class", "count", "frequency", "effective_number", "weight", "margin"])
        for j, name in enumerate(labels.class_names):
            cells = (stats.frequencies[j], eff[j], weights[j], margin_vec[j])
            writer.writerow([name, int(stats.counts[j])] + [f"{v:.9g}" for v in cells])


# class names from the characters csv quotes, plus ASCII and non-ASCII letters
_CLASS_NAMES = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "\u00e9", "\u4e2d"]), max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(_CLASS_NAMES, min_size=1, max_size=4, unique=True),
    bits=st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), max_size=6),
    beta=st.sampled_from(["0", "0.9", "0.9999"]),
    kappa=st.sampled_from(["0", "0.1", "2.5"]),
)
def test_weights_csv_matches_per_cell_writer(names, bits, beta, kappa):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # every class has a positive in the first row; CRLF rows send the file through csv.reader
        rows = [[f"s{i}"] + [str(b) for b in row[: len(names)]] for i, row in enumerate([[1] * 4] + bits)]
        with open(tmp / "y.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\r\n").writerows([["id"] + names] + rows)
        argv = ["weights", "--labels", tmp / "y.csv", "--beta", beta, "--kappa", kappa, "--out", tmp / "w.csv"]
        assert main([str(a) for a in argv]) == 0
        labels = load_labels(tmp / "y.csv")
        assert labels.class_names == names
        oracle_weights_csv(tmp / "want.csv", labels, float(beta), 1.0, float(kappa))
        assert (tmp / "w.csv").read_bytes() == (tmp / "want.csv").read_bytes()


class TestSampleCommand:
    def test_jsonl_deterministic(self, tmp_path, labels_csv):
        outs = []
        for name in ("p1.jsonl", "p2.jsonl"):
            out = tmp_path / name
            rc = main(
                [
                    "sample",
                    "--labels",
                    str(labels_csv),
                    "--threshold",
                    "0.6",
                    "--seed",
                    "11",
                    "--epochs",
                    "3",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = [json.loads(line) for line in outs[0].decode().splitlines()]
        assert [entry["epoch"] for entry in lines] == [0, 1, 2]
        for entry in lines:
            assert entry["epoch_len"] == len(entry["indices"])
            assert set(entry["indices"]) == {0, 1, 2, 3}

    def test_zero_positive_classes_reported(self, tmp_path, capsys):
        labels = write_csv_file(
            tmp_path / "z.csv",
            ["id", "a", "b"],
            [["s0", "1", "0"], ["s1", "1", "0"]],
        )
        rc = main(
            ["sample", "--labels", str(labels), "--json-logs", "--epochs", "1", "--out", str(tmp_path / "p.jsonl")]
        )
        assert rc == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        flagged = [e for e in events if e["event"] == "zero_positive_classes"]
        assert flagged and flagged[0]["classes"] == ["b"]


class TestTrainPredict:
    def test_train_then_predict(self, tmp_path):
        spec = {
            "n_samples": 120,
            "n_classes": 4,
            "feature_dim": 6,
            "power_law_exponent": 1.0,
            "noise_std": 0.3,
            "seed": 2,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        model_path = tmp_path / "model.json"
        rc = main(
            [
                "train",
                "--synth-spec",
                str(spec_path),
                "--loss",
                "bce",
                "--sampler",
                "uniform",
                "--lr",
                "0.2",
                "--epochs",
                "3",
                "--model-out",
                str(model_path),
            ]
        )
        assert rc == 0
        payload = json.loads(model_path.read_text())
        assert len(payload["weights"]) == 4
        assert len(payload["weights"][0]) == 6

        emb = EmbeddingSet(["q0", "q1"], np.random.default_rng(0).standard_normal((2, 6)))
        feat_path = tmp_path / "feat.emb"
        save_embeddings_binary(emb, feat_path)
        out = tmp_path / "scores.csv"
        rc = main(
            ["predict", "--model", str(model_path), "--features", str(feat_path), "--out", str(out)]
        )
        assert rc == 0
        scores = load_scores(out, kind="logits")
        assert scores.ids == ["q0", "q1"]

        out_p = tmp_path / "probs.csv"
        rc = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--features",
                str(feat_path),
                "--probabilities",
                "--out",
                str(out_p),
            ]
        )
        assert rc == 0
        probs = load_scores(out_p, kind="probabilities")
        assert ((probs.values >= 0) & (probs.values <= 1)).all()


class TestTrainMarginOverride:
    def test_margins_file_bypasses_generator(self, tmp_path):
        spec = {
            "n_samples": 60,
            "n_classes": 2,
            "feature_dim": 4,
            "power_law_exponent": 1.0,
            "noise_std": 0.2,
            "seed": 4,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        margins_csv = write_csv_file(
            tmp_path / "margins.csv",
            ["class", "margin"],
            [["c0", "0.0"], ["c1", "0.25"]],
        )
        model_path = tmp_path / "m.json"
        rc = main(
            [
                "train",
                "--synth-spec",
                str(spec_path),
                "--margins",
                str(margins_csv),
                "--epochs",
                "2",
                "--model-out",
                str(model_path),
            ]
        )
        assert rc == 0
        assert model_path.exists()

    def test_missing_class_margin_fails(self, tmp_path, capsys):
        spec = {
            "n_samples": 40,
            "n_classes": 2,
            "feature_dim": 4,
            "seed": 4,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        margins_csv = write_csv_file(
            tmp_path / "margins.csv", ["class", "margin"], [["c0", "0.1"]]
        )
        rc = main(
            [
                "train",
                "--synth-spec",
                str(spec_path),
                "--margins",
                str(margins_csv),
                "--model-out",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 1
        assert "no margin" in capsys.readouterr().err

    @pytest.mark.parametrize("loss", ["bce", "plain-bce"])
    def test_margins_need_the_db_loss(self, tmp_path, capsys, loss):
        """Checked with the flags, before the margins file is read: it does not exist here."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 40, "n_classes": 2, "feature_dim": 4}), encoding="utf-8")
        model = tmp_path / "m.json"
        argv = ["train", "--synth-spec", spec, "--loss", loss, "--margins", tmp_path / "missing.csv", "--model-out", model]
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr() == ("", "error: --margins needs --loss db\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    @staticmethod
    def train_with_margins(tmp_path, raw):
        """Run `train` on a 2-class spec with ``raw`` as the margins file; return (exit code, its path)."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 40, "n_classes": 2, "feature_dim": 4}), encoding="utf-8")
        margins_csv = tmp_path / "margins.csv"
        margins_csv.write_bytes(raw)
        argv = ["train", "--synth-spec", spec, "--margins", margins_csv, "--epochs", "1", "--model-out", tmp_path / "m.json"]
        return main([str(a) for a in argv]), margins_csv

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"margin,class\n0.1,c0\n0.2,c1\n", "line 1: header must start with 'class'"),
            (b"class,margin,note\nc0,0.1,x\nc1,0.2,y\n", "line 2: bad number 'x'"),
            (b"class,margin\nc0,0.2\nc1,0.2\nc1,5\n", "line 4: duplicate class 'c1'"),
            (b"class,margin\nc0,0.1,9\nc1,0.2\n", "line 2: ragged row (dimension mismatch with header)"),
            (b"class,margin\nc0,0.1\nc1,0.2\n\n", "line 4: ragged row (dimension mismatch with header)"),
            (b"class,margin\nc0,0.1\nc1,0.2\xff\n", "not valid UTF-8 text"),
            (b"class,margin\n", "no margin for class(es) c0, c1"),
            (b"class,weight\nc0,1\nc1,2\n", "need 'class' and 'margin' columns"),
        ],
        ids=["class-not-first", "text-column", "duplicate-class", "extra-cell", "blank-line", "not-utf8", "no-rows", "no-margin"],
    )
    def test_margin_file_faults_name_file_and_line(self, tmp_path, capsys, raw, message):
        code, margins_csv = self.train_with_margins(tmp_path, raw)
        assert code == 1
        assert capsys.readouterr().err == f"error: {margins_csv}: {message}\n"
        assert not (tmp_path / "m.json").exists()

    def test_quoted_crlf_margins_in_any_column_after_class(self, tmp_path):
        raw = b'class,note,margin\r\n"c1",1,0.25\r\n"c0",2e0,0\r\n'
        assert self.train_with_margins(tmp_path, raw)[0] == 0
        assert _load_margins(tmp_path / "margins.csv", ["c0", "c1"]).tolist() == [0.0, 0.25]


@settings(max_examples=30, deadline=None)
@given(
    names=st.lists(_CLASS_NAMES, min_size=3, max_size=3, unique=True),
    kappa=st.sampled_from(["0", "1e-7", "0.1", "2.5"]),
)
def test_weights_csv_is_a_margins_file(names, kappa):
    """`weights` then `train --margins` on its weights.csv: train gets loss.margins to 9 significant digits."""
    spec = {"n_samples": 60, "n_classes": 3, "feature_dim": 4, "seed": 4}
    features, labels = generate_synthetic(SynthSpec(**spec))
    labels.class_names = names  # train's labels, renamed to names that need quoting
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_labels(labels, tmp / "y.csv")
        (tmp / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        weights = ["weights", "--labels", tmp / "y.csv", "--kappa", kappa, "--out", tmp / "w.csv"]
        train = ["train", "--synth-spec", tmp / "spec.json", "--margins", tmp / "w.csv", "--epochs", "1"]
        with mock.patch.object(cli, "generate_synthetic", return_value=(features, labels)), mock.patch.object(
            cli, "train", wraps=trainer.train
        ) as spy:
            assert main([str(a) for a in weights]) == 0
            assert main([str(a) for a in train + ["--model-out", tmp / "m.json"]]) == 0
    got = spy.call_args.args[5]
    want = margins(class_stats(labels).counts, float(kappa))
    assert [f"{v:.9g}" for v in got] == [f"{v:.9g}" for v in want]


class TestScorePipelineCommands:
    def test_merge_ensemble_gate_chain(self, tmp_path):
        v1 = write_csv_file(
            tmp_path / "v1.csv", ["id", "Normal", "x"], [["s0", "0", "0"]]
        )
        v2 = write_csv_file(
            tmp_path / "v2.csv",
            ["id", "Normal", "x"],
            [["s0", f"{math.log(3)!r}", f"{math.log(3)!r}"]],
        )
        merged = tmp_path / "merged.csv"
        rc = main(["merge-tta", "--in", str(v1), str(v2), "--out", str(merged)])
        assert rc == 0
        m = load_scores(merged, kind="probabilities")
        assert m.values[0, 0] == pytest.approx(0.625, abs=1e-9)

        m2 = write_csv_file(
            tmp_path / "m2.csv", ["id", "Normal", "x"], [["s0", "0.75", "0.9"]]
        )
        ens = tmp_path / "ens.csv"
        rc = main(
            ["ensemble", "--in", str(merged), str(m2), "--weights", "1.0", "1.5", "--out", str(ens)]
        )
        assert rc == 0
        e = load_scores(ens, kind="probabilities")
        assert e.values[0, 0] == pytest.approx(0.4 * 0.625 + 0.6 * 0.75, abs=1e-9)

        fixed = write_csv_file(
            tmp_path / "fixed.csv", ["id", "Normal", "x"], [["s0", "0.75", "0.9"]]
        )
        gated = tmp_path / "gated.csv"
        rc = main(["gate", "--in", str(fixed), "--alpha-ng", "0.5", "--out", str(gated)])
        assert rc == 0
        g = load_scores(gated, kind="probabilities")
        assert g.values[0, 0] == 0.75
        assert g.values[0, 1] == pytest.approx(0.45, abs=1e-12)

    def test_ensemble_needs_one_weight_per_member(self, tmp_path, capsys):
        scores = write_csv_file(tmp_path / "s.csv", ["id", "a"], [["s0", "0.5"]])
        rc = main(["ensemble", "--in", str(scores), str(scores), "--weights", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: need one weight per ensemble member\n"

    def test_gate_unknown_class_fails_validation(self, tmp_path, capsys):
        scores = write_csv_file(tmp_path / "s.csv", ["id", "a"], [["s0", "0.5"]])
        rc = main(["gate", "--in", str(scores), "--normal-class", "Missing", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "Missing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, flag, normal, gated",
        [
            (["1", "0"], "0", "0", [0.6, 0.36]),
            (["1", "0"], "1", "1", [0.75, 0.18]),
            (["-1", "x"], "-1", "-1", [0.75, 0.18]),
            (["Normal", "a"], "1", "a", [0.6, 0.36]),
        ],
    )
    def test_gate_reads_a_class_name_before_an_index(self, tmp_path, capsys, header, flag, normal, gated):
        # the factor is sqrt(1 - 0.75) = 0.5 with the first column normal, sqrt(1 - 0.36) = 0.8 with the second
        scores = write_csv_file(tmp_path / "s.csv", ["id", *header], [["s0", "0.75", "0.36"]])
        out = tmp_path / "o.csv"
        assert main(["gate", "--in", str(scores), "--normal-class", flag, "--out", str(out)]) == 0
        assert load_scores(out, kind="probabilities").values.tolist() == [gated]
        assert capsys.readouterr().out == f"gated: normal_class={normal} exponent=0.5\n"

    @pytest.mark.parametrize("flag", [" 2", "+1", "-0", "\u0662", "1_0", ""])
    def test_gate_reads_an_index_only_in_ascii_digits(self, tmp_path, capsys, flag):
        # int() reads the first five as 2, 1, 0, 2 (Arabic-Indic two) and 10
        header = ["id", *(f"c{j}" for j in range(11))]
        scores = write_csv_file(tmp_path / "s.csv", header, [["s0", *["0.5"] * 11]])
        out = tmp_path / "o.csv"
        assert main(["gate", "--in", str(scores), "--normal-class", flag, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: normal class {flag!r} not in header\n"
        assert not out.exists()


class TestZeroshotCommand:
    def test_end_to_end(self, tmp_path):
        rng = np.random.default_rng(1)
        images = EmbeddingSet(["i0", "i1"], rng.standard_normal((2, 8)))
        img_path = tmp_path / "img.emb"
        save_embeddings_binary(images, img_path)
        entries = []
        for name in ("Scoliosis", "Goiter"):
            emb = EmbeddingSet([f"{name}-0"], rng.standard_normal((1, 8)))
            save_embeddings_binary(emb, tmp_path / f"{name}.emb")
            entries.append({"name": name, "embeddings": f"{name}.emb"})
        (tmp_path / "manifest.json").write_text(
            json.dumps({"classes": entries}), encoding="utf-8"
        )
        out = tmp_path / "zs.csv"
        rc = main(
            [
                "zeroshot",
                "--images",
                str(img_path),
                "--prompts",
                str(tmp_path),
                "--scale",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        scores = load_scores(out, kind="probabilities")
        assert scores.class_names == ["Scoliosis", "Goiter"]
        assert scores.ids == ["i0", "i1"]

    @pytest.mark.parametrize("prompts", [["a goiter", "an enlarged thyroid"], 5], ids=["list", "number"])
    def test_prompts_key_is_ignored(self, tmp_path, prompts):
        """A class's ``"prompts"`` key is ignored like any other extra key: the scores are byte-identical
        to those of the same manifest without it."""
        rng = np.random.default_rng(2)
        images = tmp_path / "img.emb"
        save_embeddings_binary(EmbeddingSet(["i0", "i1", "i2"], rng.standard_normal((3, 4))), images)
        classes = []
        for name in ("g", "h"):
            save_embeddings_binary(EmbeddingSet([f"{name}0", f"{name}1"], rng.standard_normal((2, 4))), tmp_path / f"{name}.emb")
            classes.append({"name": name, "embeddings": f"{name}.emb"})
        scored = []
        for k, entries in enumerate([classes, [dict(c, prompts=prompts) for c in classes]]):
            manifest, out = tmp_path / f"manifest{k}.json", tmp_path / f"zs{k}.csv"
            manifest.write_text(json.dumps({"classes": entries}), encoding="utf-8")
            assert main(["zeroshot", "--images", str(images), "--prompts", str(manifest), "--out", str(out)]) == 0
            scored.append(out.read_bytes())
        assert scored[0] == scored[1]

    @pytest.mark.parametrize("value", ["1e300", "1e-161", "1e-162"])
    @pytest.mark.parametrize("where", ["images", "prompts"])
    def test_row_norm_out_of_range_names_the_file_and_id(self, tmp_path, capsys, where, value):
        """A CSV row whose squared norm is not a normal float64 (inf, subnormal, or 0 though the row
        is not): exit 1 naming the file and the row, no scores written and no numpy warning."""
        rows = {
            "images": [["i0", "1", "0"], ["i1", "3", "4"], ["i2", "0", "1"]],
            "prompts": [["g0", "0.6", "0.8"], ["g1", "1", "0"]],
        }
        rows[where][1][1:] = [value, value]
        images = write_csv_file(tmp_path / "img.csv", ["id", "d0", "d1"], rows["images"])
        prompts = write_csv_file(tmp_path / "g.csv", ["id", "d0", "d1"], rows["prompts"])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"classes": [{"name": "g", "embeddings": "g.csv"}]}), encoding="utf-8")
        out = tmp_path / "zs.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["zeroshot", "--images", str(images), "--prompts", str(manifest), "--out", str(out)])
        victim, row_id = (images, "i1") if where == "images" else (prompts, "g1")
        assert (code, capsys.readouterr().err) == (
            1,
            f"error: {victim}: embedding row norm out of float64 range (id {row_id!r})\n",
        )
        assert not out.exists()


class TestEvalCommand:
    def test_report_json(self, tmp_path, labels_csv):
        scores = write_csv_file(
            tmp_path / "scores.csv",
            ["id", "a", "b", "c"],
            [
                ["s0", "0.9", "0.1", "0.8"],
                ["s1", "0.8", "0.2", "0.1"],
                ["s2", "0.7", "0.9", "0.2"],
                ["s3", "0.2", "0.1", "0.9"],
            ],
        )
        out = tmp_path / "report.json"
        rc = main(
            ["eval", "--scores", str(scores), "--labels", str(labels_csv), "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report["macro"]) == {"map", "mauc", "mf1", "mece"}
        assert set(report["per_class"]) == {"a", "b", "c"}
        macro_ap = np.mean([report["per_class"][k]["ap"] for k in ("a", "b", "c")])
        assert report["macro"]["map"] == pytest.approx(macro_ap)

    def test_row_permuted_scores_give_identical_report(self, tmp_path, labels_csv):
        # tied scores across rows, so a tie rule that followed row order would show
        rows = [
            ["s0", "0.5", "0.5", "0.8"],
            ["s1", "0.5", "0.2", "0.5"],
            ["s2", "0.7", "0.5", "0.5"],
            ["s3", "0.5", "0.2", "0.5"],
        ]
        reports = []
        for name, order in (("aligned", [0, 1, 2, 3]), ("permuted", [3, 1, 0, 2])):
            scores = write_csv_file(
                tmp_path / f"{name}.csv", ["id", "a", "b", "c"], [rows[i] for i in order]
            )
            out = tmp_path / f"{name}.json"
            rc = main(["eval", "--scores", str(scores), "--labels", str(labels_csv), "--out", str(out)])
            assert rc == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_gated_zeros_give_one_report_in_any_label_row_order(self, tmp_path):
        # gate writes exact zeros where p_normal reads 1, so each abnormal column holds a long tie run
        rng = np.random.default_rng(36)
        n, names = 48, ["Normal", "a", "b", "c"]
        ids = [f"s{i:02d}" for i in range(n)]
        probs = np.round(rng.random((n, len(names))), 3)
        probs[rng.permutation(n)[:16], 0] = 1.0
        labels = (rng.random((n, len(names))) < 0.3).astype(int)
        labels[:2] = [[0, 1, 1, 1], [1, 0, 0, 0]]  # every class has a positive and a negative
        rows = [[i, *map(repr, row)] for i, row in zip(ids, probs.tolist())]
        scores = write_csv_file(tmp_path / "p.csv", ["id", *names], rows)
        gated = tmp_path / "gated.csv"
        assert main(["gate", "--in", str(scores), "--out", str(gated)]) == 0
        assert (load_scores(gated, kind="probabilities").values[:, 1:] == 0.0).sum(axis=0).min() >= 16

        reports = []
        for k, order in enumerate((np.arange(n), np.arange(n)[::-1], rng.permutation(n))):
            rows = [[ids[i], *map(str, labels[i])] for i in order]
            labels_csv = write_csv_file(tmp_path / f"y{k}.csv", ["id", *names], rows)
            out = tmp_path / f"r{k}.json"
            assert main(["eval", "--scores", str(gated), "--labels", str(labels_csv), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))

        def exact(report):
            macro = {k: report["macro"][k] for k in ("map", "mauc", "mf1")}
            return macro | {(c, k): report["per_class"][c][k] for c in names for k in ("ap", "auc", "f1")}

        for report in reports[1:]:
            assert exact(report) == exact(reports[0])
            assert report["macro"]["mece"] == pytest.approx(reports[0]["macro"]["mece"], rel=1e-15, abs=0)

    def test_misaligned_ids_fail(self, tmp_path, labels_csv, capsys):
        scores = write_csv_file(
            tmp_path / "scores.csv", ["id", "a", "b", "c"], [["zz", "0.5", "0.5", "0.5"]]
        )
        rc = main(["eval", "--scores", str(scores), "--labels", str(labels_csv), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "misalignment" in capsys.readouterr().err


class TestPreprocessCommand:
    def test_writes_raw_and_sidecars(self, tmp_path, write_pgm):
        rng = np.random.default_rng(2)
        pgm = write_pgm("img.pgm", rng.integers(0, 256, (16, 16)), maxval=255)
        out_dir = tmp_path / "pre"
        rc = main(
            [
                "preprocess",
                str(pgm),
                "--task",
                "1",
                "--size",
                "8",
                "--tta",
                "identity",
                "hflip",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        for name in ("identity", "hflip"):
            raw = out_dir / f"img__{name}.raw"
            sidecar = json.loads((out_dir / f"img__{name}.json").read_text())
            assert sidecar["shape"] == [3, 8, 8]
            assert sidecar["transform"] == name
            tensor = np.frombuffer(raw.read_bytes(), dtype="<f4").reshape(3, 8, 8)
            assert np.isfinite(tensor).all()
        assert (out_dir / "manifest.json").exists()

    def test_every_view_equals_its_transform(self, tmp_path, write_pgm):
        rng = np.random.default_rng(3)
        pgm = write_pgm("scan.pgm", rng.integers(0, 65536, (24, 20)), maxval=65535)
        out_dir = tmp_path / "views"
        argv = ["preprocess", str(pgm), "--size", "16", "--tta", *TTA_TRANSFORMS]
        assert main(argv + ["--out-dir", str(out_dir)]) == 0
        grid = resize_bilinear(percentile_clip_rescale(load_pgm(pgm)), 16, 16)
        for name in TTA_TRANSFORMS:
            tensor = to_tensor3(apply_transform(grid, name), IMAGENET_MEAN, IMAGENET_STD)
            expected = tensor.astype("<f4").tobytes()
            assert (out_dir / f"scan__{name}.raw").read_bytes() == expected, name

    @pytest.mark.parametrize("task, maxval", [(1, 255), (1, 65535), (2, 255), (2, 65535)])
    def test_views_written_by_channel_equal_the_whole_tensor(self, tmp_path, write_pgm, task, maxval):
        """Every view of either task, at an odd size, is the float32 bytes of ``to_tensor3``."""
        pgm = write_pgm("scan.pgm", np.random.default_rng(task).integers(0, maxval + 1, (31, 26)), maxval=maxval)
        argv = ["preprocess", str(pgm), "--task", str(task), "--size", "13", "--tta", *TTA_TRANSFORMS]
        assert main(argv + ["--out-dir", str(tmp_path / "views")]) == 0
        rescale = percentile_clip_rescale if task == 1 else normalize_clip_style
        grid = resize_bilinear(rescale(load_pgm(pgm)), 13, 13)
        mean_std = (IMAGENET_MEAN, IMAGENET_STD) if task == 1 else (CLIP_MEAN, CLIP_STD)
        for name in TTA_TRANSFORMS:
            expected = to_tensor3(apply_transform(grid, name), *mean_std).astype("<f4").tobytes()
            assert (tmp_path / "views" / f"scan__{name}.raw").read_bytes() == expected, name
            assert json.loads((tmp_path / "views" / f"scan__{name}.json").read_text())["shape"] == [3, 13, 13]

    def test_views_in_one_buffer_equal_fresh_transforms(self, tmp_path, write_pgm):
        """A zoom out right after a full-frame rotation, at a size whose zoom0.9 pad remainder is odd."""
        pgm = write_pgm("scan.pgm", np.random.default_rng(9).integers(0, 65536, (40, 37)), maxval=65535)
        order = ["rot+5", "zoom0.9", "zoom1.1", "identity"]
        argv = ["preprocess", str(pgm), "--size", "33", "--tta", *order, "--out-dir", str(tmp_path / "views")]
        assert main(argv) == 0
        grid = resize_bilinear(percentile_clip_rescale(load_pgm(pgm)), 33, 33)
        for name in order:
            expected = to_tensor3(apply_transform(grid, name), IMAGENET_MEAN, IMAGENET_STD).astype("<f4").tobytes()
            assert (tmp_path / "views" / f"scan__{name}.raw").read_bytes() == expected, name

    @pytest.mark.parametrize("task", [1, 2])
    def test_peak_stays_near_the_output_grid(self, tmp_path, write_pgm, task):
        """tracemalloc peak of the benchmark's shape, a 2048^2 16-bit P5 raster to 1024 with all
        six views: at most one float64 1028^2 frame (the grid inside rotation's zero border,
        8.06 MiB) plus 2 MiB.

        Measured at frame + 1.62 MiB (task 1) and frame + 1.45 MiB (task 2), with P5 rows read as
        each resize strip needs them, the resize written straight into the frame and every view made
        and written 16 rows at a time in work arrays that all strips reuse, four float64 ones for
        rotation, and each channel divided straight into its float32 strip; task 1's histogram pass,
        before the frame, peaks at 1.6 MiB.  With 32-row strips, six rotation work arrays and a
        float64 channel copied into the float32 strip, it peaked at frame + 3.30 and + 3.14 MiB.
        Decoding the whole raster, resizing into a grid that was then copied into the frame, and
        refilling a whole-view buffer peaked at 18.90 MiB and 18.72 MiB.
        """
        pgm = write_pgm("big.pgm", np.random.default_rng(5).integers(0, 65536, (2048, 2048)), maxval=65535)
        argv = ["preprocess", str(pgm), "--task", str(task), "--size", "1024", "--tta", *TTA_TRANSFORMS]
        tracemalloc.start()
        try:
            assert main(argv + ["--out-dir", str(tmp_path / "views")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1028 * 1028 * 8 + 2 * 2**20

    @pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("task", [1, 2])
    def test_streamed_views_equal_the_whole_frame_oracle(self, tmp_path, write_pgm, binary, maxval, task):
        """Every view, written by strips from rows read on demand, is the float32 bytes of the
        whole-frame tensor of the grid that load_pgm, the window and resize_bilinear give; sizes
        around one and two strips leave partial strips, and the sources are not square."""
        mean_std = (IMAGENET_MEAN, IMAGENET_STD) if task == 1 else (CLIP_MEAN, CLIP_STD)
        for shape in [(37, 53), (64, 2)]:
            pixels = np.random.default_rng([maxval, task, *shape]).integers(0, maxval + 1, shape)
            pgm = write_pgm("scan.pgm", pixels, maxval=maxval, binary=binary)
            raster = load_pgm(pgm)
            window = percentile_window(raster) if task == 1 else (0, raster.maxval)
            for size in [1, 2, _STRIP_ROWS - 1, _STRIP_ROWS, _STRIP_ROWS + 1, 2 * _STRIP_ROWS + 1]:
                out_dir = tmp_path / f"views{shape}-{size}"
                argv = ["preprocess", str(pgm), "--task", str(task), "--size", str(size), "--tta", *TTA_TRANSFORMS]
                assert main(argv + ["--out-dir", str(out_dir)]) == 0
                grid = resize_bilinear(raster.pixels, size, size, window=window)
                for name in TTA_TRANSFORMS:
                    raw = (out_dir / f"scan__{name}.raw").read_bytes()
                    assert len(raw) == 3 * size * size * 4, (shape, size, name)
                    expected = to_tensor3(apply_transform(grid, name), *mean_std).astype("<f4").tobytes()
                    assert raw == expected, (shape, size, name)

    def test_task2_divides_by_maxval(self, tmp_path, write_pgm):
        pgm = write_pgm("flat.pgm", np.full((4, 4), 65535), maxval=65535)
        out_dir = tmp_path / "pre2"
        rc = main(
            ["preprocess", str(pgm), "--task", "2", "--size", "4", "--out-dir", str(out_dir)]
        )
        assert rc == 0
        tensor = np.frombuffer((out_dir / "flat__identity.raw").read_bytes(), dtype="<f4")
        tensor = tensor.reshape(3, 4, 4)
        from tailkit.raster import CLIP_MEAN, CLIP_STD

        for ch in range(3):
            expected = (1.0 - CLIP_MEAN[ch]) / CLIP_STD[ch]
            np.testing.assert_allclose(tensor[ch], np.float32(expected), rtol=1e-6)


class TestDemoCommand:
    def test_small_demo_outputs(self, tmp_path):
        out_dir = tmp_path / "demo"
        rc = main(
            [
                "demo",
                "--seed",
                "3",
                "--n-samples",
                "400",
                "--n-classes",
                "6",
                "--feature-dim",
                "8",
                "--epochs",
                "4",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        for name in (
            "model_db_cas.json",
            "model_bce_uniform.json",
            "report_db_cas.json",
            "report_bce_uniform.json",
            "summary.json",
            "manifest.json",
        ):
            assert (out_dir / name).exists(), name
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "tail_gain" in summary and "arms" in summary
        for arm in ("db_cas", "bce_uniform"):
            report = json.loads((out_dir / f"report_{arm}.json").read_text())
            assert report["macro"]["map"] == summary["arms"][arm]["map"]

    def test_tail_tercile_without_held_out_positives(self, tmp_path, capsys):
        # 20 samples, 3 classes: the held-out split has no positive of the tail class
        out_dir = tmp_path / "demo"
        argv = ["demo", "--seed", "1", "--n-samples", "20", "--n-classes", "3"]
        argv += ["--feature-dim", "4", "--epochs", "1", "--out-dir", str(out_dir)]
        assert main(argv) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["tail_gain"] is None
        assert summary["arms"]["db_cas"]["tail_map"] is None
        assert summary["head_change"] is not None
        assert "tail_gain=None" in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        rc = main(["eval", "--nope"])
        assert rc == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        rc = main(["frobnicate"])
        assert rc == 1

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = main(
            ["eval", "--scores", str(tmp_path / "none.csv"), "--labels", str(tmp_path / "n2.csv"), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert "io error" in capsys.readouterr().err

    def test_validation_error_exit_one(self, tmp_path, capsys):
        bad = write_csv_file(tmp_path / "bad.csv", ["id", "a"], [["s0", "2"]])
        rc = main(["weights", "--labels", str(bad), "--out", str(tmp_path / "w.csv")])
        assert rc == 1


def test_predict_probabilities_of_overflowing_logits(tmp_path, capsys):
    # logits of +-inf are no valid logits file, but their probabilities are 1 and 0
    model = tmp_path / "m.json"
    save_model(LinearModel(np.array([[1e308], [-1e308]]), np.zeros(2), ["a", "b"]), model)
    feats = tmp_path / "f.emb"
    save_embeddings_binary(EmbeddingSet(["q0"], [[10.0]]), feats)
    argv = ["predict", "--model", str(model), "--features", str(feats)]
    with np.errstate(over="ignore"):
        assert main(argv + ["--probabilities", "--out", str(tmp_path / "p.csv")]) == 0
        assert load_scores(tmp_path / "p.csv", kind="probabilities").values.tolist() == [[1.0, 0.0]]
        assert main(argv + ["--out", str(tmp_path / "z.csv")]) == 1
    assert "error: non-finite score entry" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "m.json: not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"weights": [[1.0]], "bias": [0.0]}', "m.json: not a model file: KeyError('class_names')"),
        ('{"class_names": ["a"], "weights": [[NaN]], "bias": [0.0]}', "m.json: not a model file: ValueError('weights must be numbers in (-inf, inf)')"),
        ('{"class_names": ["a"], "weights": [[1.0, 2.0]], "bias": [0.0]}', "f.emb: feature dimension 1 differs from 2 in m.json"),
        ('{"class_names": ["a"], "weights": [[1e308]], "bias": [0.0]}', "non-finite score entry: the model m.json overflows on f.emb"),
    ],
    ids=["bad-json", "missing-field", "non-finite", "dimension", "overflow"],
)
def test_predict_names_a_dot_relative_model_one_way(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(text, encoding="utf-8")
    save_embeddings_binary(EmbeddingSet(["q0"], [[10.0]]), "f.emb")
    with np.errstate(over="ignore"):
        assert main(["predict", "--model", "./m.json", "--features", "f.emb", "--out", "p.csv"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir()) == ["f.emb", "f.emb.ids.json", "m.json"]


class TestMalformedInputs:
    """A malformed input file ends in exit 1 and an `error:` line naming it, not a traceback."""

    @staticmethod
    def assert_fails_naming(path, argv, capsys):
        assert main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    def test_csv_cell_over_field_limit(self, tmp_path, capsys):
        labels = write_csv_file(tmp_path / "y.csv", ["id", "a"], [["x" * 200_000, "1"]])
        argv = ["weights", "--labels", labels, "--out", tmp_path / "w.csv"]
        self.assert_fails_naming(labels, argv, capsys)

    def test_model_without_bias(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"class_names": ["a"], "weights": [[1.0]]}), encoding="utf-8")
        feats = tmp_path / "f.emb"
        save_embeddings_binary(EmbeddingSet(["q0"], [[1.0]]), feats)
        argv = ["predict", "--model", model, "--features", feats, "--out", tmp_path / "s.csv"]
        self.assert_fails_naming(model, argv, capsys)

    def test_model_with_nan_weight(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text('{"class_names": ["a"], "weights": [[NaN, 1.0]], "bias": [0.0]}', encoding="utf-8")
        feats = tmp_path / "f.emb"
        save_embeddings_binary(EmbeddingSet(["q0"], [[1.0, 2.0]]), feats)
        argv = ["predict", "--model", model, "--features", feats, "--out", tmp_path / "s.csv"]
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {model}: not a model file: ValueError('weights must be numbers in (-inf, inf)')\n"

    @pytest.mark.parametrize(
        "payload",
        [
            {"class_names": ["a"], "weights": [["x", 1.0]], "bias": [0.0]},
            {"class_names": ["a", "b"], "weights": [[1.0, 2.0], [3.0]], "bias": [0.0, 0.0]},
            {"class_names": ["a"], "weights": [[1.0, 2.0], [3.0, 4.0]], "bias": [0.0, 0.0]},
        ],
        ids=["string-weight", "ragged-weights", "class-names-not-rows"],
    )
    def test_model_value_faults_name_the_file(self, tmp_path, capsys, payload):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        feats = tmp_path / "f.emb"
        save_embeddings_binary(EmbeddingSet(["q0"], [[1.0, 2.0]]), feats)
        argv = ["predict", "--model", model, "--features", feats, "--out", tmp_path / "s.csv"]
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {model}: not a model file: ValueError(")

    @pytest.mark.parametrize("field", ["weights", "bias", "scalar weights", "scalar bias"])
    def test_model_integer_past_float_range_names_the_file(self, tmp_path, capsys, field):
        huge = "9" * 400  # json reads it as an int, which no float64 holds
        weights = {"weights": f"[[{huge}]]", "scalar weights": huge}.get(field, "[[1.0]]")
        bias = {"bias": f"[{huge}]", "scalar bias": huge}.get(field, "[0.0]")
        model = tmp_path / "m.json"
        model.write_text(f'{{"class_names": ["a"], "weights": {weights}, "bias": {bias}}}', encoding="utf-8")
        feats = tmp_path / "f.emb"
        save_embeddings_binary(EmbeddingSet(["q0"], [[1.0]]), feats)
        argv = ["predict", "--model", model, "--features", feats, "--out", tmp_path / "s.csv"]
        assert main([str(a) for a in argv]) == 1
        err, name = capsys.readouterr().err, field.split()[-1]
        assert err.startswith(f"error: {model}: not a model file: ValueError('{name} must be numbers in (-inf, inf)')")
        assert err.count("\n") == 1
        assert not (tmp_path / "s.csv").exists()

    def test_model_with_string_weights_writes_nothing(self, tmp_path, capsys):
        # the float64 cast parsed the JSON string "1.5" as a weight, and predict exited 0
        model = tmp_path / "m.json"
        model.write_text('{"class_names": ["a"], "weights": [["1.5"]], "bias": [0.0]}', encoding="utf-8")
        feats = tmp_path / "f.emb"
        save_embeddings_binary(EmbeddingSet(["q0"], [[1.0]]), feats)
        argv = ["predict", "--model", model, "--features", feats, "--out", tmp_path / "s.csv"]
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {model}: not a model file: ValueError('weights must be numbers in (-inf, inf)')\n"
        assert sorted(os.listdir(tmp_path)) == ["f.emb", "f.emb.ids.json", "m.json"]

    def test_model_with_duplicate_class_names(self, tmp_path, capsys):
        # a scores CSV with a repeated column name would be rejected by every reader
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"class_names": ["a", "a"], "weights": [[1.0], [2.0]], "bias": [0.0, 0.0]}))
        feats = tmp_path / "f.emb"
        save_embeddings_binary(EmbeddingSet(["q0"], [[1.0]]), feats)
        argv = ["predict", "--model", model, "--features", feats, "--out", tmp_path / "s.csv"]
        assert main([str(a) for a in argv]) == 1
        message = "not a model file: ValueError('duplicate class name in model')"
        assert capsys.readouterr().err == f"error: {model}: {message}\n"
        assert not (tmp_path / "s.csv").exists()

    def test_model_and_features_of_other_dimensions(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        save_model(LinearModel([[1.0, 2.0, 3.0]], [0.0], ["a"]), model)
        feats = tmp_path / "f.emb"
        save_embeddings_binary(EmbeddingSet(["q0"], [[1.0, 2.0]]), feats)
        argv = ["predict", "--model", model, "--features", feats, "--out", tmp_path / "s.csv"]
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {feats}: feature dimension 2 differs from 3 in {model}\n"

    def test_model_overflowing_on_finite_features(self, tmp_path, capsys):
        # runs under pytest's error::RuntimeWarning, so an overflow warning would fail it
        model = tmp_path / "m.json"
        model.write_text('{"class_names": ["a"], "weights": [[1e308, 1e308]], "bias": [0.0]}', encoding="utf-8")
        feats = tmp_path / "f.emb"
        save_embeddings_binary(EmbeddingSet(["q0"], [[10.0, 10.0]]), feats)
        argv = ["predict", "--model", model, "--features", feats, "--out", tmp_path / "s.csv"]
        self.assert_fails_naming(model, argv, capsys)
        assert not (tmp_path / "s.csv").exists()
        # the logit is +inf, whose probability is 1
        assert main([str(a) for a in argv[:-2]] + ["--probabilities", "--out", str(tmp_path / "p.csv")]) == 0
        assert load_scores(tmp_path / "p.csv", kind="probabilities").values.tolist() == [[1.0]]

    @pytest.mark.parametrize(
        "manifest",
        [[{"name": "g", "embeddings": "g.emb"}], {"classes": ["g.emb"]}],
        ids=["list-manifest", "non-object-entry"],
    )
    def test_prompt_manifest_shape(self, tmp_path, capsys, manifest):
        images = tmp_path / "img.emb"
        save_embeddings_binary(EmbeddingSet(["i0"], [[1.0, 0.0]]), images)
        save_embeddings_binary(EmbeddingSet(["g0"], [[1.0, 0.0]]), tmp_path / "g.emb")
        prompts = tmp_path / "manifest.json"
        prompts.write_text(json.dumps(manifest), encoding="utf-8")
        argv = ["zeroshot", "--images", images, "--prompts", prompts, "--out", tmp_path / "zs.csv"]
        self.assert_fails_naming(prompts, argv, capsys)

    @pytest.mark.parametrize(
        "ids, shown", [(["a", "a"], "'a'"), ([1, "1"], "'1'")], ids=["same", "int-and-str"]
    )
    def test_sidecar_duplicate_ids_fail_before_the_score_matrix(self, tmp_path, capsys, monkeypatch, ids, shown):
        # blocks are scored as they are read, before the sidecar; its fault, which names
        # the file, must still come before a score matrix is built from its ids
        images = tmp_path / "img.emb"
        save_embeddings_binary(EmbeddingSet(["i0", "i1"], [[1.0, 0.0], [0.0, 1.0]]), images)
        sidecar = tmp_path / "img.emb.ids.json"
        sidecar.write_text(json.dumps(ids), encoding="utf-8")
        monkeypatch.setattr(cli, "ScoreMatrix", lambda *a: pytest.fail("built scores of a bad input"))
        argv = ["zeroshot", "--images", images, "--prompts", write_one_class_prompts(tmp_path)]
        assert main([str(a) for a in argv + ["--out", tmp_path / "zs.csv"]]) == 1
        assert capsys.readouterr().err == f"error: {sidecar}: duplicate id {shown}\n"
        assert not (tmp_path / "zs.csv").exists()

    @pytest.mark.parametrize(
        "ids", [[[1], {"a": 2}], ["i0", True], ["i0", 1.5]], ids=["objects", "bool", "float"]
    )
    def test_sidecar_ids_not_str_or_int(self, tmp_path, capsys, ids):
        images = tmp_path / "img.emb"
        save_embeddings_binary(EmbeddingSet(["i0", "i1"], [[1.0, 0.0], [0.0, 1.0]]), images)
        sidecar = tmp_path / "img.emb.ids.json"
        sidecar.write_text(json.dumps(ids), encoding="utf-8")
        prompts = write_one_class_prompts(tmp_path)
        argv = ["zeroshot", "--images", images, "--prompts", prompts, "--out", tmp_path / "zs.csv"]
        self.assert_fails_naming(sidecar, argv, capsys)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            (b'{"classes": [', "not valid JSON: Expecting value: line 1 column 14 (char 13)"),
            (b"\xff{}", "not valid UTF-8 text"),
            (b"[" * 100_000 + b"]" * 100_000, "not valid JSON: nested too deeply"),
        ],
        ids=["empty", "truncated", "not-utf8", "too-deep"],
    )
    @pytest.mark.parametrize("kind", ["ids-sidecar", "prompt-manifest", "spec", "model"])
    def test_undecodable_json_names_the_file(self, tmp_path, capsys, kind, raw, message):
        images = tmp_path / "img.emb"
        save_embeddings_binary(EmbeddingSet(["i0"], [[1.0, 0.0]]), images)
        prompts = write_one_class_prompts(tmp_path)
        spec, model, out = tmp_path / "spec.json", tmp_path / "m.json", tmp_path / "out"
        spec.write_text(json.dumps({"n_samples": 40, "n_classes": 2, "feature_dim": 2}))
        save_model(LinearModel(np.ones((1, 2)), np.zeros(1), ["a"]), model)
        zeroshot = ["zeroshot", "--images", images, "--prompts", prompts, "--out", out]
        victim, argv = {
            "ids-sidecar": (tmp_path / "img.emb.ids.json", zeroshot),
            "prompt-manifest": (prompts, zeroshot),
            "spec": (spec, ["train", "--synth-spec", spec, "--model-out", out]),
            "model": (model, ["predict", "--model", model, "--features", images, "--out", out]),
        }[kind]
        victim.write_bytes(raw)
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {victim}: {message}\n"

    @pytest.mark.parametrize(
        "prompt_rows, entries, shown",
        [
            ([[1.0, 0.0, 0.0]], None, "img.emb: embedding dimension 2 differs from 3 in {manifest}"),
            (np.zeros((0, 2)), None, "g.emb: no prompt embeddings for class 'g'"),
            ([[0.0, 0.0]], None, "g.emb: zero-norm embedding row (id '0')"),
            ([[1.0, 0.0]], [{"name": "w", "embeddings": "w.emb"}], "w.emb: embedding dimension 3 differs from 2 in {g}"),
            # a later file both empty and of another dimension fails on the dimension
            ([[1.0, 0.0]], [{"name": "e", "embeddings": "e.emb"}], "e.emb: embedding dimension 3 differs from 2 in {g}"),
            ([[1.0, 0.0]], [{"name": 7, "embeddings": "h.emb"}], "manifest.json: each class needs 'name' and 'embeddings'"),
            ([[1.0, 0.0]], [{"name": "g", "embeddings": "h.emb"}], "manifest.json: duplicate class 'g'"),
        ],
        ids=["images-dim", "no-rows", "zero-row", "class-dim", "empty-class-dim", "name-not-str", "duplicate-class"],
    )
    def test_prompt_bank_faults_name_the_file(self, tmp_path, capsys, prompt_rows, entries, shown):
        images = tmp_path / "img.emb"
        save_embeddings_binary(EmbeddingSet(["i0"], [[1.0, 0.0]]), images)
        save_embeddings_binary(EmbeddingSet([str(i) for i in range(len(prompt_rows))], prompt_rows), tmp_path / "g.emb")
        (tmp_path / "g.emb.ids.json").unlink()
        save_embeddings_binary(EmbeddingSet(["h0"], [[0.0, 1.0]]), tmp_path / "h.emb")
        save_embeddings_binary(EmbeddingSet(["w0"], [[0.0, 1.0, 0.0]]), tmp_path / "w.emb")
        save_embeddings_binary(EmbeddingSet([], np.zeros((0, 3))), tmp_path / "e.emb")
        manifest = tmp_path / "manifest.json"
        classes = [{"name": "g", "embeddings": "g.emb"}] + (entries or [])
        manifest.write_text(json.dumps({"classes": classes}), encoding="utf-8")
        argv = ["zeroshot", "--images", images, "--prompts", manifest, "--out", tmp_path / "zs.csv"]
        assert main([str(a) for a in argv]) == 1
        shown = shown.format(manifest=manifest, g=tmp_path / "g.emb")
        assert capsys.readouterr().err == f"error: {tmp_path}/{shown}\n"

    @pytest.mark.parametrize("token", ["-31", "+5", "1_0"])
    def test_ascii_pgm_pixel_must_be_digits(self, tmp_path, capsys, token):
        pgm = tmp_path / "scan.pgm"
        pgm.write_text(f"P2\n2 1\n65535\n7 {token}\n", encoding="ascii")
        assert main(["preprocess", str(pgm), "--size", "2", "--out-dir", str(tmp_path / "v")]) == 1
        assert capsys.readouterr().err == f"error: {pgm}: bad ascii pixel {token.encode()!r}\n"

    def test_spec_list_with_seed_override(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([60, 2, 4]), encoding="utf-8")
        argv = ["train", "--synth-spec", spec, "--seed", "3", "--model-out", tmp_path / "m.json"]
        self.assert_fails_naming(spec, argv, capsys)

    def test_margin_row_without_margin_cell(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 40, "n_classes": 2, "feature_dim": 4}))
        margins = tmp_path / "margins.csv"
        margins.write_text("class,margin\nc0,0.1\nc1\n", encoding="utf-8")
        argv = ["train", "--synth-spec", spec, "--margins", margins, "--model-out", tmp_path / "m.json"]
        self.assert_fails_naming(margins, argv, capsys)

    @pytest.mark.parametrize("margin", ["nan", "inf", "-1"], ids=["nan-nan", "inf-inf", "-1--1.0"])
    def test_margin_not_finite_and_non_negative(self, tmp_path, capsys, margin):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 40, "n_classes": 2, "feature_dim": 4}))
        margins = tmp_path / "margins.csv"
        margins.write_text(f"class,margin\nc0,0.1\nc1,{margin}\n", encoding="utf-8")
        argv = ["train", "--synth-spec", spec, "--margins", margins, "--model-out", tmp_path / "m.json"]
        assert main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {margins}: margin of class 'c1' must be a number in [0, inf)\n"
        assert not (tmp_path / "m.json").exists()


def assert_fails_naming_field(tmp_path, capsys, subcommand, flag, values, field):
    """Exit 1 and one `error:` line naming `field`, no warning and no output file."""
    scores = write_csv_file(tmp_path / "p.csv", ["id", "Normal", "x"], [["s0", "0.5", "0.25"]])
    labels = write_csv_file(tmp_path / "y.csv", ["id", "Normal", "x"], [["s0", "1", "0"]])
    save_embeddings_binary(EmbeddingSet(["i0"], [[1.0, 0.0]]), tmp_path / "img.emb")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_samples": 60, "n_classes": 3, "feature_dim": 4}), encoding="utf-8")
    inputs = {
        "zeroshot": ["--images", tmp_path / "img.emb", "--prompts", write_one_class_prompts(tmp_path)],
        "gate": ["--in", scores],
        "ensemble": ["--in", scores, scores],
        "sample": ["--labels", labels],
        "eval": ["--scores", scores, "--labels", labels],
        "weights": ["--labels", write_csv_file(tmp_path / "y2.csv", ["id", "a", "b"], [["s0", "1", "1"]])],
        "train": ["--synth-spec", spec, "--epochs", "1"],
    }[subcommand]
    out_flag = "--model-out" if subcommand == "train" else "--out"
    argv = [subcommand, *inputs, flag, *values, out_flag, tmp_path / "out.csv"]
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert err.count("\n") == 1 and "Warning" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "subcommand, flag, value, field",
    [
        ("zeroshot", "--scale", "nan", "scale"),
        ("zeroshot", "--scale", "inf", "scale"),
        ("gate", "--alpha-ng", "nan", "exponent"),
        ("ensemble", "--weights", "nan", "weights"),
        ("ensemble", "--weights", "inf", "weights"),
        ("sample", "--rmax", "nan", "r_max"),
        ("eval", "--threshold", "nan", "threshold"),
        ("weights", "--alpha", "nan", "alpha"),
        ("weights", "--kappa", "nan", "margin_scale"),
        ("weights", "--kappa", "inf", "margin_scale"),
        ("train", "--lr", "nan", "learning_rate"),
        ("train", "--lr", "inf", "learning_rate"),
        ("train", "--alpha", "nan", "alpha"),
        ("train", "--kappa", "nan", "margin_scale"),
    ],
)
def test_non_finite_number_names_its_field(tmp_path, capsys, subcommand, flag, value, field):
    """NaN or inf ends in exit 1 and one `error:` line naming the field, with no warning."""
    values = [value, "1"] if subcommand == "ensemble" else [value]
    assert_fails_naming_field(tmp_path, capsys, subcommand, flag, values, field)


@pytest.mark.parametrize(
    "subcommand, flag, values, field",
    [
        ("sample", "--epochs", ["-1"], "epochs"),
        ("sample", "--epochs", ["0"], "epochs"),
        ("ensemble", "--weights", ["1e308", "1e308"], "weights"),
    ],
    ids=["epochs-negative", "epochs-zero", "weights-sum-overflows"],
)
def test_out_of_range_number_names_its_field(tmp_path, capsys, subcommand, flag, values, field):
    """A finite number the command cannot use fails like a non-finite one."""
    assert_fails_naming_field(tmp_path, capsys, subcommand, flag, values, field)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_samples", 6e1),
        ("n_classes", True),
        ("seed", 1.5),
        ("power_law_exponent", math.nan),
        ("noise_std", math.nan),
        ("noise_std", 10**400),
        ("head_frequency", "0.5"),
        ("head_frequency", True),
        ("head_frequency", 0),
    ],
)
def test_bad_synthetic_spec_names_its_field(tmp_path, capsys, field, value):
    spec = tmp_path / "spec.json"
    fields = {"n_samples": 60, "n_classes": 3, "feature_dim": 4, field: value}
    spec.write_text(json.dumps(fields), encoding="utf-8")
    argv = ["train", "--synth-spec", spec, "--epochs", "1", "--model-out", tmp_path / "m.json"]
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: bad synthetic spec: {field} must be ")
    assert err.count("\n") == 1 and not (tmp_path / "m.json").exists()


def test_demo_nan_noise_names_the_field(tmp_path, capsys):
    argv = ["demo", "--noise-std", "nan", "--epochs", "1", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: bad synthetic spec: noise_std must be a number in [0, inf)\n"
    assert not (tmp_path / "out").exists()


HUGE = "100000000000000"  # samples: a draw of that size would take PiB


@pytest.mark.parametrize(
    "flag, message",
    [("--epochs=0", "epochs must be >= 1"), ("--lr=nan", "learning_rate must be a number in [0, inf)")],
)
def test_train_checks_its_flags_before_the_draw(tmp_path, capsys, flag, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_samples": int(HUGE), "n_classes": 3, "feature_dim": 4, "seed": 2}))
    argv = ["train", "--synth-spec", spec, flag, "--model-out", tmp_path / "m.json"]
    assert main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flag, message",
    [("--epochs=0", "epochs must be >= 1"), ("--batch-size=0", "batch_size must be >= 1")],
)
def test_demo_checks_its_flags_before_the_draw(tmp_path, capsys, flag, message):
    assert main(["demo", "--n-samples", HUGE, flag, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--size", "0"], "size must be >= 1"),
        (["--clip-lo", "nan"], "lo_pct must be a number in [0, 100]"),
        (["--clip-hi", "101"], "hi_pct must be a number in [0, 100]"),
        (["--clip-lo", "50", "--clip-hi", "50"], "need 0 <= lo_pct < hi_pct <= 100"),
        (["--task", "2", "--clip-lo", "99", "--clip-hi", "1"], "need 0 <= lo_pct < hi_pct <= 100"),
        (["--tta", "identity", "identity"], "duplicate transform in TTA spec"),
    ],
)
def test_preprocess_checks_its_flags_before_reading_the_image(tmp_path, capsys, flags, message):
    # the image does not exist: a read would end in an io error, exit 2
    argv = ["preprocess", str(tmp_path / "missing.pgm"), *flags, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["weights", "--labels", "y.csv", "--beta", "2"], "beta must be a number in [0, 1)"),
        (["weights", "--labels", "y.csv", "--kappa", "nan"], "margin_scale must be a number in [0, inf)"),
        (["sample", "--labels", "y.csv", "--threshold", "2"], "threshold must be a number in (0, 1]"),
        (["eval", "--scores", "p.csv", "--labels", "y.csv", "--ece-bins", "0"], "n_bins must be >= 1"),
        (["eval", "--scores", "p.csv", "--labels", "y.csv", "--threshold", "nan"], "threshold must be a number in [-inf, inf]"),
        (["gate", "--in", "p.csv", "--alpha-ng", "-1"], "exponent must be a number in [0, inf]"),
        (["ensemble", "--in", "p.csv", "q.csv", "--weights", "-1", "1"], "member weights must be numbers in (0, inf)"),
        (["ensemble", "--in", "p.csv", "missing.csv", "--weights", "1"], "need one weight per ensemble member"),
    ],
    ids=[
        "weights-beta", "weights-kappa", "sample-threshold", "eval-ece-bins", "eval-threshold", "gate-alpha-ng",
        "ensemble-weights", "ensemble-weight-count",
    ],
)
def test_commands_check_their_flags_before_reading_inputs(tmp_path, capsys, argv, message):
    # no input exists: a read would end in an io error, exit 2
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_weights_names_a_bad_flag_before_a_zero_positive_class(tmp_path, capsys):
    labels = write_csv_file(tmp_path / "y.csv", ["id", "a", "b"], [["s0", "1", "0"]])
    argv = ["weights", "--labels", labels, "--kappa", "nan", "--out", tmp_path / "w.csv"]
    assert main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == "error: margin_scale must be a number in [0, inf)\n"
    assert not (tmp_path / "w.csv").exists()


# PGM faults in the order they are checked, each with its message; the file gets every fault of a case
PGM_FAULTS = {
    "bad magic": "not a PGM (magic b'P7')",
    "malformed header": "malformed header",
    "zero width": "bad dimensions 0x2",
    "maxval 1000": "unsupported maxval 1000",
    "truncated P5 payload": "truncated pixel data",
    "bad P2 pixel": "bad ascii pixel b'x'",
}
PGM_FAULT_CASES = [
    faults
    for n in (1, 2)
    for faults in itertools.combinations(PGM_FAULTS, n)
    if set(faults) != {"truncated P5 payload", "bad P2 pixel"}
]


def _faulty_pgm(faults) -> bytes:
    magic = "P7" if "bad magic" in faults else "P2" if "bad P2 pixel" in faults else "P5"
    width = "0" if "zero width" in faults else "2"
    height = "+2" if "malformed header" in faults else "2"
    maxval = "1000" if "maxval 1000" in faults else "255"
    if "bad P2 pixel" in faults:
        body = b"1 x 3 4\n"
    else:
        body = bytes([0, 64, 128, 255][: 3 if "truncated P5 payload" in faults else 4])
    return f"{magic}\n{width} {height}\n{maxval}\n".encode() + body


@pytest.mark.parametrize(
    "data, message",
    [pytest.param(_faulty_pgm(f), PGM_FAULTS[f[0]], id=" + ".join(f)) for f in PGM_FAULT_CASES]
    + [
        # a comment right after a P5 maxval is not read as pixels
        pytest.param(b"P5\n2 2\n255#c\n" + bytes([0, 64, 128, 255]), "malformed header", id="comment after P5 maxval"),
        pytest.param(b"P5\n2 2\n65535\n" + bytes(7), "truncated pixel data", id="16-bit P5 one byte short"),
    ],
)
def test_pgm_faults_keep_their_message_and_order(tmp_path, capsys, data, message):
    """Alone or in pairs, a PGM fault ends preprocess with exit 1 and the first fault's message,
    before --out-dir is made."""
    pgm = tmp_path / "scan.pgm"
    pgm.write_bytes(data)
    assert main(["preprocess", str(pgm), "--size", "2", "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {pgm}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pixel", ["99999999999999999999", "9" * 400], ids=["past-int64", "400-digits"])
def test_p2_pixel_past_int64_exceeds_maxval(tmp_path, capsys, pixel):
    pgm = tmp_path / "scan.pgm"
    pgm.write_text(f"P2\n1 1\n255\n{pixel}\n", encoding="ascii")
    assert main(["preprocess", str(pgm), "--size", "2", "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {pgm}: pixel exceeds maxval\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "callee, argv, shown",
    [
        ("resize_bilinear", ["preprocess", "img.pgm", "--size", "100000", "--out-dir", "out"], "Unable to allocate 74.5 GiB"),
        ("run_comparison", ["demo", "--n-samples", "100000000000000", "--out-dir", "out"], ""),
    ],
)
def test_out_of_memory_exits_one(tmp_path, capsys, monkeypatch, callee, argv, shown):
    # the callee raises instead of allocating, since an overcommitting host may grant the memory
    def fail(*args, **kwargs):
        raise MemoryError(shown)

    monkeypatch.setattr(cli, callee, fail)
    (tmp_path / "img.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([0, 50, 100, 200]))
    argv = [str(tmp_path / a) if a in ("img.pgm", "out") else a for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {shown or 'MemoryError'}\n"


class TestManifestAndLogs:
    def test_manifest_contents(self, tmp_path, labels_csv):
        out = tmp_path / "w.csv"
        main(["weights", "--labels", str(labels_csv), "--out", str(out)])
        manifest = json.loads((tmp_path / "w.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "weights"
        assert manifest["tool_version"]
        assert str(labels_csv) in manifest["input_digests"]
        digest = manifest["input_digests"][str(labels_csv)]
        assert len(digest) == 64

    def test_json_logs(self, tmp_path, labels_csv, capsys):
        out = tmp_path / "w.csv"
        rc = main(["weights", "--labels", str(labels_csv), "--json-logs", "--out", str(out)])
        assert rc == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert any(entry.get("event") == "weights_written" for entry in lines)


def _manifest_case(subcommand, tmp_path, labels_csv):
    """(argv, manifest path, input paths, seed) of one small run of `subcommand`."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_samples": 60, "n_classes": 3, "feature_dim": 4, "seed": 4}))
    model = tmp_path / "model.json"
    save_model(LinearModel(np.eye(3, 4), np.zeros(3), ["a", "b", "c"]), model)
    feats = tmp_path / "feats.emb"
    save_embeddings_binary(EmbeddingSet(["q0", "q1"], np.arange(8.0).reshape(2, 4)), feats)
    probs = write_csv_file(
        tmp_path / "p.csv",
        ["id", "a", "b", "c"],
        [[f"s{i}", "0.5", f"0.{i + 1}", "0.25"] for i in range(4)],
    )
    logits = write_csv_file(tmp_path / "z.csv", ["id", "a", "b", "c"], [["s0", "1", "-2", "0.5"]])
    images = tmp_path / "img.emb"
    save_embeddings_binary(EmbeddingSet(["i0"], np.ones((1, 4))), images)
    save_embeddings_binary(EmbeddingSet(["g0"], np.eye(1, 4)), tmp_path / "g.emb")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"classes": [{"name": "g", "embeddings": "g.emb"}]}), encoding="utf-8"
    )
    pgm = tmp_path / "img.pgm"
    pgm.write_bytes(b"P5\n4 4\n255\n" + bytes(range(0, 160, 10)))
    out, out_dir = tmp_path / "out.x", tmp_path / "out_dir"
    cases = {
        "weights": (["--labels", labels_csv], [labels_csv], None),
        "sample": (["--labels", labels_csv, "--seed", "5"], [labels_csv], 5),
        "train": (["--synth-spec", spec, "--epochs", "1"], [spec], 4),
        "predict": (["--model", model, "--features", feats], [model, feats, f"{feats}.ids.json"], None),
        "merge-tta": (["--in", logits, logits], [logits, logits], None),
        "ensemble": (["--in", probs, "--weights", "2"], [probs], None),
        "gate": (["--in", probs, "--normal-class", "a"], [probs], None),
        "zeroshot": (
            ["--images", images, "--prompts", tmp_path],
            [images, f"{images}.ids.json", tmp_path / "manifest.json", tmp_path / "g.emb", tmp_path / "g.emb.ids.json"],
            None,
        ),
        "eval": (["--scores", probs, "--labels", labels_csv], [probs, labels_csv], None),
        "preprocess": ([pgm, "--size", "4"], [pgm], None),
        "demo": (
            ["--seed", "3", "--n-samples", "60", "--n-classes", "3", "--feature-dim", "4", "--epochs", "1"],
            [],
            3,
        ),
    }
    args, inputs, seed = cases[subcommand]
    if subcommand in ("preprocess", "demo"):
        target, manifest = ["--out-dir", out_dir], out_dir / "manifest.json"
    else:
        flag = "--model-out" if subcommand == "train" else "--out"
        target, manifest = [flag, out], tmp_path / "out.x.manifest.json"
    argv = [subcommand] + [str(a) for a in args + target]
    return argv, manifest, [str(p) for p in inputs], seed


@pytest.mark.parametrize(
    "subcommand",
    ["weights", "sample", "train", "predict", "merge-tta", "ensemble", "gate", "zeroshot", "eval", "preprocess", "demo"],
)
def test_every_subcommand_writes_its_manifest(subcommand, tmp_path, labels_csv):
    argv, manifest_path, inputs, seed = _manifest_case(subcommand, tmp_path, labels_csv)
    assert main(argv) == 0
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    parsed = vars(build_parser().parse_args(argv))
    assert manifest["subcommand"] == subcommand
    assert set(manifest["config"]) == set(parsed) - {"func", "json_logs"}
    assert manifest["config"]["subcommand"] == subcommand
    assert set(manifest["input_digests"]) == set(inputs)
    assert manifest["seed"] == seed


def _sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("subcommand", ["predict", "zeroshot"])
def test_manifest_digests_every_file_read(subcommand, tmp_path, labels_csv):
    """Every digest is its file's sha256, and a change to any file read, sidecars and prompt files
    included, changes that file's digest and no other."""
    argv, manifest_path, inputs, _ = _manifest_case(subcommand, tmp_path, labels_csv)
    assert main(argv) == 0
    digests = json.loads(manifest_path.read_text(encoding="utf-8"))["input_digests"]
    assert digests == {p: _sha256_of(p) for p in inputs}
    for victim in inputs:
        raw = Path(victim).read_bytes()
        # an EMB1 file's last entry becomes 0.5; a JSON file gains a trailing space
        changed = raw[:-4] + struct.pack("<f", 0.5) if victim.endswith(".emb") else raw + b" "
        Path(victim).write_bytes(changed)
        assert main(argv) == 0
        now = json.loads(manifest_path.read_text(encoding="utf-8"))["input_digests"]
        assert now == {**digests, victim: _sha256_of(victim)} and now[victim] != digests[victim]
        Path(victim).write_bytes(raw)


@pytest.mark.parametrize("subcommand", ["predict", "zeroshot"])
def test_manifest_keys_of_dot_slash_paths(subcommand, tmp_path, monkeypatch):
    """Inputs given as ``./x`` keep their keys: a file named on the command line as given, a
    sidecar and a prompt file as the path they are read from."""
    monkeypatch.chdir(tmp_path)
    save_model(LinearModel(np.eye(1, 2), np.zeros(1), ["a"]), tmp_path / "model.json")
    save_embeddings_binary(EmbeddingSet(["i0"], [[1.0, 0.0]]), tmp_path / "img.emb")
    save_embeddings_binary(EmbeddingSet(["g0"], [[0.0, 1.0]]), tmp_path / "g.emb")
    classes = [{"name": "g", "embeddings": "./g.emb"}]
    (tmp_path / "manifest.json").write_text(json.dumps({"classes": classes}), encoding="utf-8")
    argv, keys = {
        "predict": (
            ["predict", "--model", "./model.json", "--features", "./img.emb"],
            {"./model.json", "./img.emb", "img.emb.ids.json"},
        ),
        "zeroshot": (
            ["zeroshot", "--images", "./img.emb", "--prompts", "./manifest.json"],
            {"./img.emb", "img.emb.ids.json", "manifest.json", "g.emb", "g.emb.ids.json"},
        ),
    }[subcommand]
    assert main(argv + ["--out", "./out.csv"]) == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["input_digests"]) == keys


@pytest.mark.parametrize("subcommand", ["gate", "merge-tta"])
def test_in_place_run_digests_its_input_as_read(subcommand, tmp_path, labels_csv):
    argv, _, _, _ = _manifest_case(subcommand, tmp_path, labels_csv)
    victim = argv[2]
    argv[-1] = victim  # --out is the --in file
    raw = Path(victim).read_bytes()
    assert main(argv) == 0
    assert Path(victim).read_bytes() != raw
    manifest = json.loads(Path(f"{victim}.manifest.json").read_text(encoding="utf-8"))
    assert manifest["input_digests"] == {victim: hashlib.sha256(raw).hexdigest()}


@pytest.mark.parametrize(
    "subcommand",
    ["weights", "sample", "train", "predict", "merge-tta", "ensemble", "gate", "zeroshot", "eval", "preprocess"],
)
def test_inputs_are_digested_after_the_command_returns(subcommand, tmp_path, labels_csv, monkeypatch):
    """No digest runs inside a subcommand, so its arrays are freed before OpenSSL is loaded."""
    argv, _, inputs, _ = _manifest_case(subcommand, tmp_path, labels_csv)
    real, callers = cli._sha256, []

    def digest(path):
        frame = sys._getframe(1)
        while frame is not None:
            callers.append(frame.f_code.co_name)
            frame = frame.f_back
        return real(path)

    monkeypatch.setattr(cli, "_sha256", digest)
    assert main(argv) == 0
    assert callers.count("finish") == len(inputs)
    assert [name for name in callers if name.startswith("cmd_")] == []


def _files(directory) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def _fails_on_call(real, at, exc=MemoryError):
    """`real`, which raises `exc` after its call number `at` has run."""
    calls = itertools.count(1)

    def fake(*args, **kwargs):
        result = real(*args, **kwargs)
        if next(calls) == at:
            raise exc("injected")
        return result

    return fake


# writer kind: (subcommand, the cli name that fails, on which call, flags of every run, flags of the rerun)
FAILED_WRITES = {
    "csv": ("gate", "save_scores", 1, [], ["--alpha-ng", "2"]),
    "json": ("train", "save_model", 1, [], ["--epochs", "2"]),
    "jsonl": ("sample", "build_epoch", 2, ["--epochs", "3"], ["--seed", "6"]),
    "raw": ("preprocess", "write_view", 2, ["--tta", "identity", "hflip", "rot+5"], ["--size", "3"]),
    "manifest": ("weights", "_sha256", 1, [], ["--kappa", "0.3"]),
}


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
@pytest.mark.parametrize("kind", sorted(FAILED_WRITES))
def test_failed_run_leaves_the_previous_files(kind, rerun, tmp_path, labels_csv, monkeypatch):
    """A run that fails midway leaves every file as it was, the first run's outputs and manifest
    byte for byte, or no output at all, and no temp file."""
    subcommand, callee, at, flags, rerun_flags = FAILED_WRITES[kind]
    argv, _, _, _ = _manifest_case(subcommand, tmp_path, labels_csv)
    argv += flags
    if rerun:
        assert main(argv) == 0
        argv += rerun_flags
    before = _files(tmp_path)
    monkeypatch.setattr(cli, callee, _fails_on_call(getattr(cli, callee), at))
    assert main(argv) == 1
    assert _files(tmp_path) == before
    monkeypatch.undo()
    assert main(argv) == 0  # the same run, once nothing fails, does change the files
    assert _files(tmp_path) != before


def test_interrupted_run_leaves_no_temp(tmp_path, labels_csv, monkeypatch):
    argv, _, _, _ = _manifest_case("preprocess", tmp_path, labels_csv)
    before = _files(tmp_path)
    monkeypatch.setattr(cli, "write_view", _fails_on_call(cli.write_view, 1, KeyboardInterrupt))
    with pytest.raises(KeyboardInterrupt):
        main(argv + ["--tta", "identity", "hflip"])
    assert _files(tmp_path) == before


@pytest.mark.parametrize("subcommand, callee", [("preprocess", "write_view"), ("demo", "save_model")])
def test_failed_run_removes_only_the_directories_it_made(subcommand, callee, tmp_path, labels_csv, monkeypatch):
    """A fresh --out-dir and its missing parents go, deepest first; a directory that was there
    before the run stays, empty or with its files."""
    argv, _, _, _ = _manifest_case(subcommand, tmp_path, labels_csv)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept" / "empty").mkdir(parents=True)
    (tmp_path / "kept" / "old.txt").write_text("old")
    real = getattr(cli, callee)
    for out_dir in ("kept/new/sub", "kept/empty", "kept"):
        monkeypatch.setattr(cli, callee, _fails_on_call(real, 1))
        assert main(argv[:-1] + [out_dir]) == 1
        assert sorted(p.as_posix() for p in Path("kept").rglob("*")) == ["kept/empty", "kept/old.txt"]
        assert Path("kept/old.txt").read_text() == "old"
    monkeypatch.setattr(cli, callee, real)
    assert main(argv[:-1] + ["kept/new/sub"]) == 0  # once nothing fails, the run makes them
    assert (tmp_path / "kept" / "new" / "sub" / "manifest.json").is_file()


def test_symlinked_output_is_written_through(tmp_path, labels_csv):
    argv, _, _, _ = _manifest_case("gate", tmp_path, labels_csv)
    assert main(argv) == 0
    (tmp_path / "real").mkdir()
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "real" / "g.csv")
    assert main(argv[:-1] + [str(link)]) == 0
    assert link.is_symlink() and link.read_bytes() == (tmp_path / "out.x").read_bytes()
    assert Path(f"{link}.manifest.json").is_file()


@pytest.mark.parametrize(
    "out, shown",
    [("nodir/x.csv", "[Errno 2] No such file or directory: 'nodir/x.csv'"), ("adir", "[Errno 21] Is a directory: 'adir'")],
)
def test_unwritable_output_names_itself(out, shown, tmp_path, labels_csv, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    argv, _, _, _ = _manifest_case("gate", tmp_path, labels_csv)
    before = _files(tmp_path)
    assert main(argv[:-1] + [out]) == 2
    assert capsys.readouterr().err == f"io error: {shown}\n"
    assert _files(tmp_path) == before


def test_outputs_take_the_umask(tmp_path, labels_csv):
    # an existing output is replaced by a new file, so it does not keep its old mode either
    argv, manifest, _, _ = _manifest_case("weights", tmp_path, labels_csv)
    out = tmp_path / "out.x"
    out.write_text("old")
    out.chmod(0o600)
    old_umask = os.umask(0o027)
    try:
        assert main(argv) == 0
    finally:
        os.umask(old_umask)
    assert out.stat().st_mode & 0o777 == 0o640 and manifest.stat().st_mode & 0o777 == 0o640


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tailkit", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "tailkit" in proc.stdout


def _sweep_stdout(summaries) -> str:
    """What scripts/seed_sweep.py prints for these `run_comparison` summaries: demo's lines, then the count."""
    lines = []
    for s in summaries:
        arms = s["arms"]
        fields = {
            "tail_map_db_cas": arms["db_cas"]["tail_map"],
            "tail_map_bce_uniform": arms["bce_uniform"]["tail_map"],
            "tail_gain": s["tail_gain"],
            "head_change": s["head_change"],
        }
        lines.append("demo_complete: " + " ".join(f"{k}={round(v, 4)}" for k, v in fields.items()))
    wins = sum(s["tail_gain"] > 0 for s in summaries)
    mean_head = sum(s["head_change"] for s in summaries) / len(summaries)
    return "\n".join(lines) + f"\n\nwins {wins}/{len(summaries)}, mean head change {mean_head:+.4f}\n"


def test_seed_sweep_runs_demo_per_seed(tmp_path):
    """The sweep is `tailkit demo` per seed: demo's flags pass through, its own --seed and --out-dir win."""
    script = Path(__file__).parents[1] / "scripts" / "seed_sweep.py"
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def sweep(*argv):
        return subprocess.run([sys.executable, script, *argv], cwd=tmp_path, capture_output=True, text=True, env=env)

    def spec(seed):
        return SynthSpec(4000, 20, 32, 1.5, 0.5, seed)

    proc = sweep("--seeds", "1", "2", "--epochs", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _sweep_stdout([run_comparison(spec(seed), 0.5, 2, 64)[0] for seed in (1, 2)])

    proc = sweep("--seeds", "1", "--epochs", "2", "--alpha", "0.25", "--seed", "9", "--out-dir", "elsewhere")
    assert proc.returncode == 0, proc.stderr
    expected = run_comparison(spec(1), 0.5, 2, 64, db_params=DbLossParams(alpha=0.25))[0]
    assert proc.stdout == _sweep_stdout([expected])

    proc = sweep("--seeds", "1", "2", "--epochs", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: epochs must be >= 1\n")
    assert not list(tmp_path.iterdir())


def test_import_loads_no_openssl():
    """hashlib's OpenSSL module adds 3.5 MB to a run's RSS; it is loaded at the first digest."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def loads_openssl(module) -> bool:
        code = f"import sys, {module}; print('_hashlib' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        return proc.stdout == "True\n"

    if loads_openssl("numpy"):
        pytest.skip("a bare `import numpy` loads _hashlib: numpy 1.x imports numpy.random, and so secrets, eagerly")
    assert not loads_openssl("tailkit.cli")


# examples per fuzz case: 40, or the ci profile's 500 (tests/conftest.py); a test's own max_examples
# overrides a profile, so the count is read from the loaded profile
FUZZ_EXAMPLES = settings.default.max_examples if settings.get_current_profile_name() == "ci" else 40

# the CSV inputs of the refine chain: labels, two probability files and three logit views
FUZZ_FILES = {
    "y.csv": "id,Normal,a,b\ns0,1,0,1\ns1,0,1,0\ns2,1,1,0\ns3,0,0,1\n",
    "p.csv": "id,Normal,a,b\ns2,0.5,0.25,1\ns0,0.125,0,0.75\ns3,1e-3,0.9,0.5\ns1,0.6,0.4,0.3\n",
    "q.csv": "id,Normal,a,b\ns0,0.1,0.2,0.3\ns1,0.4,0.5,0.6\ns2,0.7,0.8,0.9\ns3,1,0,0.5\n",
    "v1.csv": "id,Normal,a,b\ns0,1.5,-2,0.25\ns1,-0.5,3,1e1\ns2,0,0,0\ns3,2,-1,-3\n",
    "v2.csv": "id,Normal,a,b\ns3,1,1,1\ns2,-1,-1,-1\ns1,0.5,0.5,0.5\ns0,-2.5,4,0\n",
    "v3.csv": "id,Normal,a,b\ns1,0.75,-0.75,2\ns0,1,2,3\ns3,-1,-2,-3\ns2,0,1,0\n",
}
# subcommand -> (arguments before the output flag, the input files it reads)
FUZZ_COMMANDS = {
    "merge-tta": (["--in", "v1.csv", "v2.csv", "v3.csv"], ["v1.csv", "v2.csv", "v3.csv"]),
    "ensemble": (["--in", "p.csv", "q.csv", "--weights", "1", "2"], ["p.csv", "q.csv"]),
    "gate": (["--in", "p.csv"], ["p.csv"]),
    "eval": (["--scores", "p.csv", "--labels", "y.csv"], ["p.csv", "y.csv"]),
    "weights": (["--labels", "y.csv"], ["y.csv"]),
    "sample": (["--labels", "y.csv", "--epochs", "2"], ["y.csv"]),
}


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """``raw`` truncated, with a byte flipped, or with a NUL or CR inserted, once to three times."""
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=len(raw)))
        how = draw(st.sampled_from(["truncate", "flip", "nul", "cr"]))
        if how == "truncate":
            raw = raw[:k]
        elif how == "flip" and k < len(raw):
            raw = raw[:k] + bytes([raw[k] ^ draw(st.integers(min_value=1, max_value=255))]) + raw[k + 1 :]
        elif how in ("nul", "cr"):
            raw = raw[:k] + (b"\x00" if how == "nul" else b"\r") + raw[k:]
    return raw


def run_on_damaged(files, args, victim, raw):
    """Run ``args`` and an output path with ``files`` written out and ``victim`` replaced by ``raw``.

    Asserts exit 0, 1 or 2, no traceback, and that a failure ends in an error
    line; returns (exit code, stderr, the victim's path).
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, content in files.items():
            (tmp / name).write_bytes(raw if name == victim else content)
        argv = [str(tmp / a) if a in files else a for a in args] + [str(tmp / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.endswith("\n")
        assert err.splitlines()[-1].startswith(("error: ", "io error: "))
    return code, err, str(tmp / victim)


@pytest.mark.parametrize("subcommand", sorted(FUZZ_COMMANDS))
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(data=st.data())
def test_damaged_csv_inputs_exit_cleanly(subcommand, data):
    """Exit 0, 1 or 2 on a damaged input, never a traceback; a failure ends in an error line."""
    args, inputs = FUZZ_COMMANDS[subcommand]
    victim = data.draw(st.sampled_from(inputs))
    raw = data.draw(damaged(FUZZ_FILES[victim].encode("ascii")))
    files = {name: text.encode("ascii") for name, text in FUZZ_FILES.items()}
    run_on_damaged(files, [subcommand] + args + ["--out"], victim, raw)


def _emb1(rows) -> bytes:
    vectors = np.asarray(rows, dtype="<f4")
    return b"EMB1" + np.asarray(vectors.shape, dtype="<u4").tobytes() + vectors.tobytes()


_PIXELS = np.arange(20).reshape(4, 5) * 3000 + 7
# the inputs of preprocess and zeroshot: PGMs, EMB1 files, an ids sidecar and a prompt manifest
BINARY_FUZZ_FILES = {
    "p5.pgm": b"P5\n5 4\n65535\n" + _PIXELS.astype(">u2").tobytes(),
    "p2.pgm": b"P2\n# scan\n5 4\n255\n" + "\n".join(" ".join(map(str, row % 256)) for row in _PIXELS).encode() + b"\n",
    "images.emb": _emb1([[1, 0.5, -2], [0, 3, 1], [-1, -1, 0.25]]),
    "images.emb.ids.json": b'["i0", "i1", "i2"]',
    "manifest.json": json.dumps(
        {
            "classes": [
                {"name": "Goiter", "embeddings": "g.emb", "prompts": ["a goiter", "an enlarged thyroid"]},
                {"name": "Bulla", "embeddings": "b.emb", "prompts": ["a bulla"]},
            ]
        }
    ).encode(),
    "g.emb": _emb1([[1, 2, 0], [0.5, -1, 1]]),
    "b.emb": _emb1([[0, 0, 2]]),
}
# case -> (arguments up to the output flag, the input files it may damage)
BINARY_FUZZ_COMMANDS = {
    "preprocess-p5": (["preprocess", "p5.pgm", "--size", "7", "--tta", *TTA_TRANSFORMS, "--out-dir"], ["p5.pgm"]),
    "preprocess-p2": (["preprocess", "p2.pgm", "--task", "2", "--size", "6", "--out-dir"], ["p2.pgm"]),
    "zeroshot": (
        ["zeroshot", "--images", "images.emb", "--prompts", "manifest.json", "--out"],
        ["images.emb", "images.emb.ids.json", "manifest.json", "g.emb"],
    ),
}


@pytest.mark.parametrize("case", sorted(BINARY_FUZZ_COMMANDS))
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(data=st.data())
def test_damaged_image_and_embedding_inputs_exit_cleanly(case, data):
    """As for CSV inputs, and an exit 1 names the damaged file."""
    args, inputs = BINARY_FUZZ_COMMANDS[case]
    victim = data.draw(st.sampled_from(inputs))
    raw = data.draw(damaged(BINARY_FUZZ_FILES[victim]))
    code, err, victim_path = run_on_damaged(BINARY_FUZZ_FILES, args, victim, raw)
    if code == 1:
        assert victim_path in err


def _compact_json(payload) -> bytes:
    # no spaces, so a flipped byte cannot lengthen a number: the spec stays small enough to train at once
    return json.dumps(payload, separators=(",", ":")).encode()


# the inputs of train and predict: a synthetic spec, a margins file with a margin for up to ten
# classes (a flipped digit in the spec's n_classes still finds its margins), and a model
MODEL_FUZZ_FILES = {
    "spec.json": _compact_json({"n_samples": 30, "n_classes": 3, "feature_dim": 3, "seed": 2}),
    "margins.csv": b"class,count,margin\n" + b"".join(b"c%d,%d,0.%d5\n" % (j, 20 - j, j) for j in range(10)),
    "model.json": _compact_json({"class_names": ["a", "b"], "weights": [[1, 0.5, -2], [0.25, -1, 3]], "bias": [0.1, -0.2]}),
    "features.emb": _emb1([[1, 0.5, -2], [0, 3, 1]]),
}
# case -> (arguments up to the output flag, the input files it may damage)
MODEL_FUZZ_COMMANDS = {
    "train": (
        ["train", "--synth-spec", "spec.json", "--margins", "margins.csv", "--epochs", "2", "--model-out"],
        ["spec.json", "margins.csv"],
    ),
    "predict": (["predict", "--model", "model.json", "--features", "features.emb", "--out"], ["model.json"]),
}


@pytest.mark.parametrize("case", sorted(MODEL_FUZZ_COMMANDS))
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(data=st.data())
def test_damaged_spec_margin_and_model_inputs_exit_cleanly(case, data):
    """As for image and embedding inputs: an exit 1 names the damaged file."""
    args, inputs = MODEL_FUZZ_COMMANDS[case]
    victim = data.draw(st.sampled_from(inputs))
    raw = data.draw(damaged(MODEL_FUZZ_FILES[victim]))
    code, err, victim_path = run_on_damaged(MODEL_FUZZ_FILES, args, victim, raw)
    if code == 1:
        assert victim_path in err


FLOATS = ["nan", "inf", "-inf", "-1", "0", "0.5", "1e308", str(10**30)]
# noise whose features are finite but whose squared row norms overflow
HUGE_NOISE = ["1e200", "1e300"]
INTS = ["-1", "0", "1", str(10**30)]
# subcommand -> (arguments up to the output flag, {numeric flag: (values, count, fields its error may name)}).
# --epochs and --size never get a huge value: nothing bounds them before the work they size runs
NUMERIC_FLAG_COMMANDS = {
    "weights": (
        ["weights", "--labels", "y.csv", "--out"],
        {"--beta": (FLOATS, 1, ["beta"]), "--alpha": (FLOATS, 1, ["alpha"]), "--kappa": (FLOATS, 1, ["margin_scale", "kappa"])},
    ),
    "sample": (
        ["sample", "--labels", "y.csv", "--out"],
        {
            "--threshold": (FLOATS, 1, ["threshold"]),
            "--rmax": (FLOATS, 1, ["r_max"]),
            "--seed": (INTS, 1, ["seed"]),
            "--epochs": (["-1", "0", "2"], 1, ["epochs"]),
        },
    ),
    # argparse reads "-inf" after --weights as an option, and "--weights=-inf" gives one value only
    "ensemble": (
        ["ensemble", "--in", "p.csv", "q.csv", "--out"],
        {"--weights": ([v for v in FLOATS if v != "-inf"], 2, ["weights"])},
    ),
    "gate": (
        ["gate", "--in", "p.csv", "--out"],
        {"--alpha-ng": (FLOATS, 1, ["exponent"]), "--normal-class": (INTS, 1, ["normal class", "normal_class_index"])},
    ),
    "eval": (
        ["eval", "--scores", "p.csv", "--labels", "y.csv", "--out"],
        {"--threshold": (FLOATS, 1, ["threshold"]), "--ece-bins": (INTS, 1, ["n_bins"])},
    ),
    "zeroshot": (
        ["zeroshot", "--images", "images.emb", "--prompts", "manifest.json", "--out"],
        {"--scale": (FLOATS, 1, ["scale"])},
    ),
    "train": (
        ["train", "--synth-spec", "spec.json", "--epochs", "1", "--model-out"],
        {
            "--lr": (FLOATS, 1, ["learning_rate"]),
            "--epochs": (["-1", "0", "2"], 1, ["epochs"]),
            "--batch-size": (INTS, 1, ["batch_size"]),
            "--seed": (INTS, 1, ["seed"]),
            "--beta": (FLOATS, 1, ["beta"]),
            "--alpha": (FLOATS, 1, ["alpha"]),
            "--kappa": (FLOATS, 1, ["margin_scale", "kappa", "margins"]),
            "--threshold": (FLOATS, 1, ["threshold"]),
            "--rmax": (FLOATS, 1, ["r_max"]),
        },
    ),
    "preprocess": (
        ["preprocess", "p5.pgm", "--size", "2", "--out-dir"],
        {
            "--size": (["-1", "0", "1", "2"], 1, ["size"]),
            "--clip-lo": (FLOATS, 1, ["lo_pct"]),
            "--clip-hi": (FLOATS, 1, ["hi_pct"]),
        },
    ),
    "demo": (
        ["demo", "--n-samples", "60", "--n-classes", "3", "--feature-dim", "4", "--epochs", "1", "--out-dir"],
        {
            "--seed": (INTS, 1, ["seed"]),
            "--exponent": (FLOATS, 1, ["power_law_exponent"]),
            "--noise-std": (FLOATS + HUGE_NOISE, 1, ["noise_std"]),
            "--lr": (FLOATS, 1, ["learning_rate"]),
            "--epochs": (["-1", "0", "2"], 1, ["epochs"]),
            "--batch-size": (INTS, 1, ["batch_size"]),
            "--beta": (FLOATS, 1, ["beta"]),
            "--alpha": (FLOATS, 1, ["alpha"]),
            "--kappa": (FLOATS, 1, ["margin_scale", "kappa", "margins"]),
            "--threshold": (FLOATS, 1, ["threshold"]),
            "--rmax": (FLOATS, 1, ["r_max"]),
        },
    ),
}
# (subcommand, numeric flag) -> why no NUMERIC_FLAG_COMMANDS case draws it
NUMERIC_FLAG_EXCLUSIONS = {
    ("preprocess", "--task"): "argparse's choices admit only 1 and 2",
    ("demo", "--n-samples"): "sizes the synthetic draw before anything bounds it",
    ("demo", "--n-classes"): "sizes the synthetic draw before anything bounds it",
    ("demo", "--feature-dim"): "sizes the synthetic draw before anything bounds it",
}
NUMERIC_FLAG_FILES = {
    **{name: text.encode("ascii") for name, text in FUZZ_FILES.items()},
    **BINARY_FUZZ_FILES,
    "spec.json": b'{"n_samples": 60, "n_classes": 3, "feature_dim": 4, "seed": 2}',
}


@pytest.mark.parametrize("subcommand", sorted(NUMERIC_FLAG_COMMANDS))
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(data=st.data())
def test_numeric_flags_exit_cleanly(subcommand, data):
    """NaN, +-inf, negative, zero, fractional and huge flags: exit 0, or exit 1 naming a flag's field."""
    args, flags = NUMERIC_FLAG_COMMANDS[subcommand]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3, unique=True))
    extra = []
    for flag in chosen:
        values, count, _ = flags[flag]
        drawn = data.draw(st.lists(st.sampled_from(values), min_size=count, max_size=count))
        extra += [f"{flag}={drawn[0]}"] if count == 1 else [flag, *drawn]
    # every input intact: y.csv is "damaged" into its own bytes
    argv = args[:-1] + extra + args[-1:]
    code, err, _ = run_on_damaged(NUMERIC_FLAG_FILES, argv, "y.csv", NUMERIC_FLAG_FILES["y.csv"])
    assert code in (0, 1) and "Warning" not in err
    if code:
        assert err.count("\n") == 1
        assert any(field in err for flag in chosen for field in flags[flag][2]), err


def test_every_numeric_flag_is_fuzzed_or_excluded():
    """Each int or float flag of every subcommand has a NUMERIC_FLAG_COMMANDS case or an excluding reason."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    numeric = {
        (name, action.option_strings[-1])
        for name, parser in subparsers.choices.items()
        for action in parser._actions
        if action.type in (int, float)
    }
    fuzzed = {(name, flag) for name, (_, flags) in NUMERIC_FLAG_COMMANDS.items() for flag in flags}
    assert numeric - fuzzed - set(NUMERIC_FLAG_EXCLUSIONS) == set()
    # no stale exclusion, and none of a fuzzed flag
    assert set(NUMERIC_FLAG_EXCLUSIONS) <= numeric - fuzzed


@pytest.mark.parametrize("value", FLOATS + HUGE_NOISE)
def test_spec_noise_std_exits_cleanly(tmp_path, capsys, value):
    """Every FLOATS or HUGE_NOISE value of a spec's noise_std trains, or exits 1 naming noise_std with no warning."""
    spec = tmp_path / "spec.json"
    fields = {"n_samples": 60, "n_classes": 3, "feature_dim": 4, "seed": 2, "noise_std": float(value)}
    spec.write_text(json.dumps(fields), encoding="utf-8")
    argv = ["train", "--synth-spec", spec, "--epochs", "1", "--model-out", tmp_path / "m.json"]
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or (code == 1 and err.count("\n") == 1 and "noise_std" in err), err


def test_huge_noise_names_the_field(tmp_path, capsys):
    # the draw overflows before training starts, so the error names noise_std, not the learning rate
    # or a non-finite score; 1e308 takes a feature to inf, 1e200 and 1e300 only its squared norm
    for value in HUGE_NOISE + ["1e308"]:
        argv = ["demo", "--noise-std", value, "--n-samples", "60", "--n-classes", "3", "--feature-dim", "4"]
        assert main(argv + ["--epochs", "1", "--out-dir", str(tmp_path / "out")]) == 1
        err = f"error: noise_std {float(value)} takes a feature row's squared norm to inf\n"
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()
