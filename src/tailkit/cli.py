"""tailkit command line: every pipeline stage as a subcommand.

The CLI layer is a thin adapter over the library -- no numerical logic
lives here.  Every run writes a manifest (resolved config, input digests,
seed, tool version) alongside its outputs so identical invocations can be
audited and reproduced byte-for-byte.

Exit codes: 0 success, 1 validation/usage error, 2 IO error.
"""

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    class_stats,
    csv_writer,
    load_embeddings,
    load_labels,
    load_scores,
    save_scores,
    ScoreMatrix,
    write_json,
)
from .loss import DbLossParams, class_weights, effective_numbers, margins, stable_sigmoid
from .metrics import EceConfig, macro_report
from .pipeline import EnsembleSpec, GateConfig, ensemble, normal_gate, tta_merge
from .raster import (
    CLIP_MEAN,
    CLIP_STD,
    IMAGENET_MEAN,
    IMAGENET_STD,
    TTA_TRANSFORMS,
    TtaSpec,
    apply_transform,
    load_pgm,
    normalize_clip_style,
    percentile_clip_rescale,
    resize_bilinear,
    to_tensor3,
)
from .sampler import SamplerConfig, build_epoch, class_repeat_factors, sample_repeat_factors
from .trainer import (
    SynthSpec,
    TrainConfig,
    forward,
    generate_synthetic,
    load_model,
    run_comparison,
    save_model,
    train,
)
from .zeroshot import ZsConfig, load_prompt_manifest, score_batch, unit_normalize


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _emit(args, event: str, **fields) -> None:
    if args.json_logs:
        print(json.dumps({"event": event, **fields}, sort_keys=True))
    else:
        detail = " ".join(f"{k}={v}" for k, v in fields.items())
        print(f"{event}: {detail}" if detail else event)


def _finish(args, target, inputs, event: str, seed=None, **fields) -> int:
    """End a run: write its manifest, log `event` with `fields`, return exit code 0.

    The manifest goes next to the output file `target`, or inside it when it
    is a directory, and records the parsed arguments, the sha256 of `inputs`,
    the seed and the tool version.
    """
    target = Path(target)
    path = target / "manifest.json" if target.is_dir() else target.with_name(
        target.name + ".manifest.json"
    )
    manifest = {
        "subcommand": args.subcommand,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "json_logs")},
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "seed": seed,
        "tool_version": __version__,
    }
    write_json(path, manifest)
    _emit(args, event, **fields)
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_weights(args):
    labels = load_labels(args.labels)
    stats = class_stats(labels)
    empty = [labels.class_names[i] for i in np.nonzero(stats.counts == 0)[0]]
    if empty:
        raise ValueError(f"classes with zero positives cannot be weighted: {', '.join(empty)}")
    eff = effective_numbers(stats.counts, args.beta)
    weights = class_weights(eff, args.alpha)
    margin_vec = margins(stats.counts, args.kappa)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv_writer(fh)
        writer.writerow(["class", "count", "frequency", "effective_number", "weight", "margin"])
        for j, name in enumerate(labels.class_names):
            cells = (stats.frequencies[j], eff[j], weights[j], margin_vec[j])
            writer.writerow([name, int(stats.counts[j])] + [f"{v:.9g}" for v in cells])
    classes = len(labels.class_names)
    return _finish(args, args.out, [args.labels], "weights_written", out=args.out, classes=classes)


def cmd_sample(args):
    labels = load_labels(args.labels)
    stats = class_stats(labels)
    cfg = SamplerConfig(threshold=args.threshold, r_max=args.rmax, seed=args.seed)
    r_class = class_repeat_factors(stats.frequencies, cfg)
    silent = [labels.class_names[i] for i in np.nonzero(stats.counts == 0)[0]]
    if silent:
        _emit(args, "zero_positive_classes", classes=silent)
    repeat = sample_repeat_factors(labels, r_class, cfg)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for epoch in range(args.epochs):
            plan = build_epoch(repeat, cfg, epoch=epoch)
            row = {"epoch": epoch, "epoch_len": plan.epoch_len, "indices": plan.indices.tolist()}
            fh.write(json.dumps(row) + "\n")
    return _finish(
        args, args.out, [args.labels], "plans_written", args.seed, out=args.out, epochs=args.epochs
    )


def _load_synth_spec(path, seed_override=None) -> SynthSpec:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: synthetic spec must be a JSON object")
    if seed_override is not None:
        payload["seed"] = seed_override
    try:
        return SynthSpec(**payload)
    except TypeError as exc:
        raise ValueError(f"{path}: bad synthetic spec: {exc}") from None


def _load_margin_file(path, class_names):
    """Per-class margins from a CSV with `class` and `margin` columns."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows or "class" not in rows[0] or "margin" not in rows[0]:
        raise ValueError(f"{path}: need 'class' and 'margin' columns")
    try:
        by_class = {row["class"]: float(row["margin"]) for row in rows}
    except ValueError as exc:
        raise ValueError(f"{path}: bad margin: {exc}") from None
    missing = [name for name in class_names if name not in by_class]
    if missing:
        raise ValueError(f"{path}: no margin for class(es) {', '.join(missing)}")
    return np.array([by_class[name] for name in class_names])


def cmd_train(args):
    spec = _load_synth_spec(args.synth_spec, args.seed)
    features, labels = generate_synthetic(spec)
    loss_name = "plain-bce" if args.loss == "bce" else args.loss
    cfg = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        loss=loss_name,
        sampler=args.sampler,
        seed=spec.seed,
    )
    params = DbLossParams(beta=args.beta, alpha=args.alpha, margin_scale=args.kappa)
    sampler_cfg = SamplerConfig(threshold=args.threshold, r_max=args.rmax, seed=spec.seed)
    margin_override = (
        _load_margin_file(args.margins, labels.class_names) if args.margins else None
    )
    model, trace = train(features, labels, cfg, params, sampler_cfg, margin_override)
    for epoch, value in enumerate(trace):
        _emit(args, "epoch", index=epoch, loss=round(value, 6))
    save_model(model, args.model_out)
    inputs = [args.synth_spec] + ([args.margins] if args.margins else [])
    return _finish(args, args.model_out, inputs, "model_written", spec.seed, out=args.model_out)


def cmd_predict(args):
    model = load_model(args.model)
    emb = load_embeddings(args.features)
    logits = forward(model, emb.vectors)
    kind = "probabilities" if args.probabilities else "logits"
    # the sigmoid of the raw logits, so logits that overflow to +-inf give 1/0
    values = stable_sigmoid(logits) if args.probabilities else logits
    scores = ScoreMatrix(ids=emb.ids, values=values, kind=kind, class_names=model.class_names)
    save_scores(scores, args.out)
    inputs = [args.model, args.features]
    return _finish(args, args.out, inputs, "scores_written", out=args.out, kind=scores.kind)


def cmd_merge_tta(args):
    views = [load_scores(p, kind="logits") for p in args.inputs]
    merged = tta_merge(views)
    save_scores(merged, args.out)
    return _finish(args, args.out, args.inputs, "merged", views=len(views), out=args.out)


def cmd_ensemble(args):
    members = [load_scores(p, kind="probabilities") for p in args.inputs]
    if len(args.weights) != len(members):
        raise ValueError("need one weight per ensemble member")
    spec = EnsembleSpec.from_raw(args.weights)
    combined = ensemble(members, spec)
    save_scores(combined, args.out)
    weights = [round(float(w), 12) for w in spec.normalized_weights]
    return _finish(
        args, args.out, args.inputs, "ensembled", members=len(members), normalized_weights=weights
    )


def cmd_gate(args):
    scores = load_scores(args.input, kind="probabilities")
    try:
        index = int(args.normal_class)
    except ValueError:
        if args.normal_class not in scores.class_names:
            raise ValueError(f"normal class {args.normal_class!r} not in header") from None
        index = scores.class_names.index(args.normal_class)
    gated = normal_gate(scores, GateConfig(normal_class_index=index, exponent=args.alpha_ng))
    save_scores(gated, args.out)
    fields = dict(normal_class=scores.class_names[index], exponent=args.alpha_ng)
    return _finish(args, args.out, [args.input], "gated", **fields)


def cmd_zeroshot(args):
    cfg = ZsConfig(scale=args.scale)
    prompts_path = Path(args.prompts)
    if prompts_path.is_dir():
        prompts_path = prompts_path / "manifest.json"
    bank = load_prompt_manifest(prompts_path)
    images = unit_normalize(load_embeddings(args.images))
    scores = score_batch(images, bank, cfg)
    save_scores(scores, args.out)
    counts = dict(images=len(images.ids), classes=len(bank.class_names))
    return _finish(args, args.out, [args.images, prompts_path], "zeroshot_scored", **counts)


def cmd_eval(args):
    scores = load_scores(args.scores, kind="probabilities")
    labels = load_labels(args.labels)
    report = macro_report(
        scores, labels, threshold=args.threshold, ece_cfg=EceConfig(n_bins=args.ece_bins)
    )
    write_json(args.out, report.to_json_dict())
    inputs = [args.scores, args.labels]
    return _finish(args, args.out, inputs, "report_written", out=args.out, **report.macro)


def cmd_preprocess(args):
    raster = load_pgm(args.image)
    size = args.size if args.size is not None else (512 if args.task == 1 else 224)
    if args.task == 1:
        grid = percentile_clip_rescale(raster, args.clip_lo, args.clip_hi)
        mean, std = IMAGENET_MEAN, IMAGENET_STD
    else:
        grid = normalize_clip_style(raster)
        mean, std = CLIP_MEAN, CLIP_STD
    grid = resize_bilinear(grid, size, size)
    spec = TtaSpec(tuple(args.tta))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.image).stem
    for name in spec.transforms:
        tensor = to_tensor3(apply_transform(grid, name), mean, std).astype("<f4")
        raw_path = out_dir / f"{stem}__{name}.raw"
        raw_path.write_bytes(tensor.tobytes())
        sidecar = {
            "transform": name,
            "shape": list(tensor.shape),
            "dtype": "<f4",
            "source": str(args.image),
        }
        write_json(out_dir / f"{stem}__{name}.json", sidecar)
    return _finish(
        args, out_dir, [args.image], "preprocessed", transforms=list(spec.transforms), size=size
    )


def cmd_demo(args):
    spec = SynthSpec(
        n_samples=args.n_samples,
        n_classes=args.n_classes,
        feature_dim=args.feature_dim,
        power_law_exponent=args.exponent,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    db_params = DbLossParams(beta=args.beta, alpha=args.alpha, margin_scale=args.kappa)
    sampler_cfg = SamplerConfig(threshold=args.threshold, r_max=args.rmax, seed=args.seed)
    summary, models, reports = run_comparison(
        spec,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        db_params=db_params,
        sampler_cfg=sampler_cfg,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for arm, model in models.items():
        save_model(model, out_dir / f"model_{arm}.json")
        write_json(out_dir / f"report_{arm}.json", reports[arm].to_json_dict())
    write_json(out_dir / "summary.json", summary)
    arms = summary["arms"]
    fields = {
        "tail_map_db_cas": arms["db_cas"]["tail_map"],
        "tail_map_bce_uniform": arms["bce_uniform"]["tail_map"],
        "tail_gain": summary["tail_gain"],
        "head_change": summary["head_change"],
    }
    # a tercile whose classes have no held-out positive has no mAP, so no gain
    rounded = {k: None if v is None else round(v, 4) for k, v in fields.items()}
    return _finish(args, out_dir, [], "demo_complete", seed=args.seed, **rounded)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_loss_args(p, alpha=1.0) -> None:
    p.add_argument("--beta", type=float, default=0.9999)
    p.add_argument("--alpha", type=float, default=alpha)
    p.add_argument("--kappa", type=float, default=0.1)


def _add_sampler_args(p, threshold=0.001) -> None:
    p.add_argument("--threshold", type=float, default=threshold)
    p.add_argument("--rmax", type=float, default=10.0)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json-logs", action="store_true", help="emit JSON log lines")

    parser = _Parser(prog="tailkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tailkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("weights", parents=[common], help="per-class loss weights and margins")
    p.add_argument("--labels", required=True)
    _add_loss_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("sample", parents=[common], help="class-aware epoch plans")
    p.add_argument("--labels", required=True)
    _add_sampler_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", parents=[common], help="train the desk-scale linear model")
    p.add_argument("--synth-spec", required=True)
    p.add_argument("--loss", choices=["db", "bce", "plain-bce"], default="db")
    p.add_argument("--sampler", choices=["cas", "uniform"], default="cas")
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    _add_loss_args(p)
    _add_sampler_args(p)
    p.add_argument("--margins", default=None, help="CSV with class,margin columns; bypasses the margin generator")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="score features with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--probabilities", action="store_true", help="emit sigmoid probabilities")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("merge-tta", parents=[common], help="merge logit views into probabilities")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge_tta)

    p = sub.add_parser("ensemble", parents=[common], help="weighted mean of probability files")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--weights", type=float, nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("gate", parents=[common], help="suppress abnormal scores by the normal class")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--normal-class", default="Normal")
    p.add_argument("--alpha-ng", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("zeroshot", parents=[common], help="prompt-ensembled zero-shot scoring")
    p.add_argument("--images", required=True)
    p.add_argument("--prompts", required=True, help="manifest.json or a directory holding one")
    p.add_argument("--scale", type=float, default=5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_zeroshot)

    p = sub.add_parser("eval", parents=[common], help="macro metric report")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--ece-bins", type=int, default=15)
    p.add_argument("--out", default="report.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("preprocess", parents=[common], help="raster preprocessing with TTA views")
    p.add_argument("image", help="input PGM (P2 or P5)")
    p.add_argument("--task", type=int, choices=[1, 2], default=1)
    p.add_argument("--clip-lo", type=float, default=1.0)
    p.add_argument("--clip-hi", type=float, default=99.0)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--tta", nargs="+", default=["identity"], choices=list(TTA_TRANSFORMS))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("demo", parents=[common], help="two-arm synthetic long-tail experiment")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-dir", default="demo_out")
    p.add_argument("--n-samples", type=int, default=4000)
    p.add_argument("--n-classes", type=int, default=20)
    p.add_argument("--feature-dim", type=int, default=32)
    p.add_argument("--exponent", type=float, default=1.5)
    p.add_argument("--noise-std", type=float, default=0.5)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=64)
    _add_loss_args(p, alpha=0.5)
    _add_sampler_args(p, threshold=0.05)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
