"""tailkit command line: every pipeline stage as a subcommand.

The CLI layer is a thin adapter over the library -- no numerical logic
lives here.  Every run writes a manifest (resolved config, input digests,
seed, tool version) with its outputs, all of them only if it succeeds, so
identical invocations can be audited and reproduced byte-for-byte.  Each
subcommand returns what its manifest and log line need; ``main`` finishes
the run after it has returned, so its arrays are freed before any digest.

Exit codes: 0 success, 1 validation/usage error, 2 IO error.
"""

import argparse
import contextlib
import errno
import json
import os
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    _check_int,
    _check_real,
    _load_margins,
    _map_rows,
    _read_json,
    _write_matrix,
    class_stats,
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
    _check_percentiles,
    CLIP_MEAN,
    CLIP_STD,
    IMAGENET_MEAN,
    IMAGENET_STD,
    TTA_TRANSFORMS,
    PgmRows,
    TtaSpec,
    percentile_window,
    resize_bilinear,
    write_view,
)
from .sampler import SamplerConfig, build_epoch, class_repeat_factors, sample_repeat_factors
from .trainer import (
    _uniform,
    PLAIN_BCE,
    SynthSpec,
    TrainConfig,
    forward,
    generate_synthetic,
    load_model,
    run_comparison,
    save_model,
    train,
)
from .zeroshot import ZsConfig, load_prompt_manifest, score_file


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _sha256(path) -> str:
    import hashlib  # OpenSSL's 3.5 MB are loaded at the first digest, not by every run at import

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


class _Run:
    """One run's outputs, each staged beside its target, all moved into place when it finishes."""

    def __init__(self):
        self.staged = []  # (temp, target) pairs in the order they were opened
        self.made = []  # directories this run created, deepest first

    def mkdir(self, path) -> Path:
        """The directory `path`, made with its missing parents, which a run that does not finish removes."""
        path = Path(path)
        self.made += [p for p in (path, *path.parents) if not p.exists()]
        path.mkdir(parents=True, exist_ok=True)
        return path

    def out(self, path) -> str:
        """A new temp path to write the output `path` into; a symlink is written through."""
        target = os.path.realpath(path)
        temp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
        # the errors that opening `path` itself would raise, under its name, not the temp's
        if os.path.isdir(target):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        try:  # O_EXCL: never a file that is not this run's; 0o666 so the umask applies
            os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        self.staged.append((temp, target))
        return temp

    def finish(self, args, target, inputs, event: str, seed, fields: dict) -> int:
        """Write the manifest (parsed arguments, sha256 of `inputs` as read, seed, tool version)
        next to the output file `target`, or inside it when it is a directory, then move every
        output into place, log `event` with `fields` and return exit code 0."""
        target = Path(target)
        path = target / "manifest.json" if target.is_dir() else Path(f"{target}.manifest.json")
        manifest = {
            "subcommand": args.subcommand,
            "config": {k: v for k, v in vars(args).items() if k not in ("func", "json_logs")},
            "input_digests": {str(p): _sha256(p) for p in inputs},
            "seed": seed,
            "tool_version": __version__,
        }
        write_json(self.out(path), manifest)
        for temp, final in self.staged:
            os.replace(temp, final)
        self.staged, self.made = [], []
        _emit(args, event, **fields)
        return 0

    def discard(self) -> None:
        for temp, _ in self.staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        for path in self.made:
            with contextlib.suppress(OSError):  # not empty: a file that is not this run's
                path.rmdir()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_weights(args, run):
    params = DbLossParams(beta=args.beta, alpha=args.alpha, margin_scale=args.kappa)
    labels = load_labels(args.labels)
    stats = class_stats(labels)
    empty = [labels.class_names[i] for i in np.nonzero(stats.counts == 0)[0]]
    if empty:
        raise ValueError(f"classes with zero positives cannot be weighted: {', '.join(empty)}")
    eff = effective_numbers(stats.counts, params.beta)
    weights = class_weights(eff, params.alpha)
    margin_vec = margins(stats.counts, params.margin_scale)
    header = ["class", "count", "frequency", "effective_number", "weight", "margin"]
    table = np.column_stack([stats.counts, stats.frequencies, eff, weights, margin_vec])
    _write_matrix(run.out(args.out), header, labels.class_names, table)
    classes = len(labels.class_names)
    return args.out, [args.labels], "weights_written", None, dict(out=args.out, classes=classes)


def cmd_sample(args, run):
    _check_int("epochs", args.epochs, 1)
    cfg = SamplerConfig(threshold=args.threshold, r_max=args.rmax, seed=args.seed)
    labels = load_labels(args.labels)
    stats = class_stats(labels)
    r_class = class_repeat_factors(stats.frequencies, cfg)
    silent = [labels.class_names[i] for i in np.nonzero(stats.counts == 0)[0]]
    if silent:
        _emit(args, "zero_positive_classes", classes=silent)
    repeat = sample_repeat_factors(labels, r_class, cfg)
    with open(run.out(args.out), "w", encoding="utf-8", newline="\n") as fh:
        for epoch in range(args.epochs):
            plan = build_epoch(repeat, cfg, epoch=epoch)
            row = {"epoch": epoch, "epoch_len": plan.epoch_len, "indices": plan.indices.tolist()}
            fh.write(json.dumps(row) + "\n")
    return args.out, [args.labels], "plans_written", args.seed, dict(out=args.out, epochs=args.epochs)


def _load_synth_spec(path, seed_override=None) -> SynthSpec:
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: synthetic spec must be a JSON object")
    if seed_override is not None:
        payload["seed"] = seed_override
    return _synth_spec(payload, f"{path}: ")


def _synth_spec(fields: dict, where: str = "") -> SynthSpec:
    try:
        return SynthSpec(**fields)
    except (TypeError, ValueError) as exc:  # an unknown or missing field, or a bad value
        raise ValueError(f"{where}bad synthetic spec: {exc}") from None


def cmd_train(args, run):
    spec = _load_synth_spec(args.synth_spec, args.seed)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size)
    # every flag is checked, then the plain arm's values replace those it does not use
    params = DbLossParams(beta=args.beta, alpha=args.alpha, margin_scale=args.kappa)
    sampler_cfg = SamplerConfig(threshold=args.threshold, r_max=args.rmax, seed=spec.seed)
    if args.loss != "db":
        if args.margins:
            raise ValueError("--margins needs --loss db")
        params = PLAIN_BCE
    if args.sampler == "uniform":
        sampler_cfg = _uniform(sampler_cfg)
    features, labels = generate_synthetic(spec)
    margin_override = _load_margins(args.margins, labels.class_names) if args.margins else None
    model, trace = train(features, labels, cfg, params, sampler_cfg, margin_override)
    for epoch, value in enumerate(trace):
        _emit(args, "epoch", index=epoch, loss=round(value, 6))
    save_model(model, run.out(args.model_out))
    inputs = [args.synth_spec] + ([args.margins] if args.margins else [])
    return args.model_out, inputs, "model_written", spec.seed, dict(out=args.model_out)


def cmd_predict(args, run):
    model_path = Path(args.model)  # every message names it as `load_model` does
    model = load_model(model_path)
    dim, classes = model.weights.shape[1], len(model.class_names)
    kind = "probabilities" if args.probabilities else "logits"
    # each block's sigmoid of its raw logits, so logits that overflow to +-inf give 1/0
    score = (lambda block: stable_sigmoid(forward(model, block))) if args.probabilities else partial(forward, model)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score fails below
        ids, values, files = _map_rows(args.features, score, classes, (dim, model_path))
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite score entry: the model {model_path} overflows on {args.features}")
    scores = ScoreMatrix(ids=ids, values=values, kind=kind, class_names=model.class_names)
    save_scores(scores, run.out(args.out))
    return args.out, [args.model, *files], "scores_written", None, dict(out=args.out, kind=kind)


def cmd_merge_tta(args, run):
    views = [load_scores(p, kind="logits") for p in args.inputs]
    merged = tta_merge(views)
    save_scores(merged, run.out(args.out))
    return args.out, args.inputs, "merged", None, dict(views=len(views), out=args.out)


def cmd_ensemble(args, run):
    spec = EnsembleSpec(member_weights=args.weights)
    if len(args.weights) != len(args.inputs):
        raise ValueError("need one weight per ensemble member")
    members = [load_scores(p, kind="probabilities") for p in args.inputs]
    combined = ensemble(members, spec)
    save_scores(combined, run.out(args.out))
    weights = [round(float(w), 12) for w in spec.normalized_weights]
    return args.out, args.inputs, "ensembled", None, dict(members=len(members), normalized_weights=weights)


def cmd_gate(args, run):
    _check_real("exponent", args.alpha_ng, "[0, inf]")
    scores = load_scores(args.input, kind="probabilities")
    names, wanted = scores.class_names, args.normal_class
    digits = wanted.isascii() and wanted.isdigit()  # as in a PGM header: int() also takes " 2", "+1", "1_0"
    try:  # a class name wins; ASCII digits name a column only when no class has that name
        index = names.index(wanted) if wanted in names or not digits else int(wanted)
    except ValueError:
        raise ValueError(f"normal class {wanted!r} not in header") from None
    gated = normal_gate(scores, GateConfig(normal_class_index=index, exponent=args.alpha_ng))
    save_scores(gated, run.out(args.out))
    fields = dict(normal_class=names[index], exponent=args.alpha_ng)
    return args.out, [args.input], "gated", None, fields


def cmd_zeroshot(args, run):
    cfg = ZsConfig(scale=args.scale)
    prompts_path = Path(args.prompts)
    if prompts_path.is_dir():
        prompts_path = prompts_path / "manifest.json"
    bank = load_prompt_manifest(prompts_path)
    ids, values, files = score_file(args.images, bank, cfg)
    save_scores(ScoreMatrix(ids, values, "probabilities", bank.class_names), run.out(args.out))
    counts = dict(images=len(ids), classes=len(bank.class_names))
    return args.out, [*files, *bank.files], "zeroshot_scored", None, counts


def cmd_eval(args, run):
    _check_real("threshold", args.threshold, "[-inf, inf]")
    ece_cfg = EceConfig(n_bins=args.ece_bins)
    scores = load_scores(args.scores, kind="probabilities")
    labels = load_labels(args.labels)
    report = macro_report(scores, labels, threshold=args.threshold, ece_cfg=ece_cfg)
    write_json(run.out(args.out), asdict(report))
    return args.out, [args.scores, args.labels], "report_written", None, dict(out=args.out, **report.macro)


def cmd_preprocess(args, run):
    size = args.size if args.size is not None else (512 if args.task == 1 else 224)
    _check_int("size", size, 1)
    _check_percentiles(args.clip_lo, args.clip_hi)
    spec = TtaSpec(tuple(args.tta))
    source = PgmRows(args.image)
    if args.task == 1:
        window = percentile_window(source, args.clip_lo, args.clip_hi)
        mean, std = IMAGENET_MEAN, IMAGENET_STD
    else:
        window, mean, std = (0, source.maxval), CLIP_MEAN, CLIP_STD
    # the one full-size array is the resize inside rotation's zero border; every view is made and written by
    # strips, in the buffers and work arrays that work keeps for all of them
    frame, work = resize_bilinear(source, size, size, window=window, framed=True), {}
    out_dir = run.mkdir(args.out_dir)
    stem = Path(args.image).stem
    for name in spec.transforms:
        with open(run.out(out_dir / f"{stem}__{name}.raw"), "wb") as fh:
            write_view(fh, frame, name, mean, std, work)
        sidecar = {"transform": name, "shape": [3, size, size], "dtype": "<f4", "source": str(args.image)}
        write_json(run.out(out_dir / f"{stem}__{name}.json"), sidecar)
    return out_dir, [args.image], "preprocessed", None, dict(transforms=list(spec.transforms), size=size)


def cmd_demo(args, run):
    spec = _synth_spec(
        dict(
            n_samples=args.n_samples,
            n_classes=args.n_classes,
            feature_dim=args.feature_dim,
            power_law_exponent=args.exponent,
            noise_std=args.noise_std,
            seed=args.seed,
        )
    )
    db_params = DbLossParams(beta=args.beta, alpha=args.alpha, margin_scale=args.kappa)
    sampler_cfg = SamplerConfig(threshold=args.threshold, r_max=args.rmax, seed=args.seed)
    summary, models, reports = run_comparison(
        spec, args.lr, args.epochs, args.batch_size, db_params=db_params, sampler_cfg=sampler_cfg
    )
    out_dir = run.mkdir(args.out_dir)
    for arm, model in models.items():
        save_model(model, run.out(out_dir / f"model_{arm}.json"))
        write_json(run.out(out_dir / f"report_{arm}.json"), asdict(reports[arm]))
    write_json(run.out(out_dir / "summary.json"), summary)
    arms = summary["arms"]
    fields = {
        "tail_map_db_cas": arms["db_cas"]["tail_map"],
        "tail_map_bce_uniform": arms["bce_uniform"]["tail_map"],
        "tail_gain": summary["tail_gain"],
        "head_change": summary["head_change"],
    }
    # a tercile whose classes have no held-out positive has no mAP, so no gain
    rounded = {k: None if v is None else round(v, 4) for k, v in fields.items()}
    return out_dir, [], "demo_complete", args.seed, rounded


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
    p.add_argument("--margins", help="class-first CSV with a margin column, e.g. weights.csv; bypasses the margin generator")
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
    parser, run = build_parser(), _Run()
    try:
        args = parser.parse_args(argv)
        # (target, inputs, event, seed, log fields): finished once the command's frame is gone
        return run.finish(args, *args.func(args, run))
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    finally:  # a run that did not finish, on any exception, leaves its targets as they were
        run.discard()


def entry() -> None:
    sys.exit(main())
