import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from tailkit.cli import build_parser, main
from tailkit.data import EmbeddingSet, load_scores, save_embeddings_binary
from tailkit.raster import (
    IMAGENET_MEAN,
    IMAGENET_STD,
    TTA_TRANSFORMS,
    apply_transform,
    load_pgm,
    percentile_clip_rescale,
    resize_bilinear,
    to_tensor3,
)
from tailkit.trainer import LinearModel, save_model


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

    def test_gate_unknown_class_fails_validation(self, tmp_path, capsys):
        scores = write_csv_file(tmp_path / "s.csv", ["id", "a"], [["s0", "0.5"]])
        rc = main(["gate", "--in", str(scores), "--normal-class", "Missing", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "Missing" in capsys.readouterr().err


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
        # tied scores across rows, so AP's stable tie order would expose a row-order effect
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


@pytest.mark.parametrize(
    "subcommand, flag, value, field",
    [
        ("zeroshot", "--scale", "nan", "scale"),
        ("zeroshot", "--scale", "inf", "scale"),
        ("gate", "--alpha-ng", "nan", "exponent"),
        ("ensemble", "--weights", "nan", "weights"),
        ("ensemble", "--weights", "inf", "weights"),
    ],
)
def test_non_finite_number_names_its_field(tmp_path, capsys, subcommand, flag, value, field):
    """NaN or inf ends in exit 1 and one `error:` line naming the field, with no warning."""
    scores = write_csv_file(tmp_path / "p.csv", ["id", "Normal", "x"], [["s0", "0.5", "0.25"]])
    save_embeddings_binary(EmbeddingSet(["i0"], [[1.0, 0.0]]), tmp_path / "img.emb")
    inputs = {
        "zeroshot": ["--images", tmp_path / "img.emb", "--prompts", write_one_class_prompts(tmp_path)],
        "gate": ["--in", scores],
        "ensemble": ["--in", scores, scores],
    }[subcommand]
    values = [value, "1"] if subcommand == "ensemble" else [value]
    argv = [subcommand, *inputs, flag, *values, "--out", tmp_path / "out.csv"]
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert err.count("\n") == 1 and "Warning" not in err
    assert not (tmp_path / "out.csv").exists()


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
        "predict": (["--model", model, "--features", feats], [model, feats], None),
        "merge-tta": (["--in", logits, logits], [logits, logits], None),
        "ensemble": (["--in", probs, "--weights", "2"], [probs], None),
        "gate": (["--in", probs, "--normal-class", "a"], [probs], None),
        "zeroshot": (["--images", images, "--prompts", tmp_path], [images, tmp_path / "manifest.json"], None),
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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tailkit", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "tailkit" in proc.stdout
