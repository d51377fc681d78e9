"""Desk-scale trainer: a linear multi-label classifier on synthetic long-tailed data.

The synthetic generator draws per-class Gaussian prototypes, samples each
label independently with a power-law frequency f_c = f_head * (c+1)^-exponent,
and builds features as the sum of the sample's positive prototypes plus
Gaussian noise.  Training is plain SGD (no momentum) on the distribution-
balanced loss over epochs of the class-aware sampler; plain BCE (`PLAIN_BCE`)
and a uniform shuffle (r_max 1) are parameter values of the two.  Everything
is deterministic given the configured seeds.
"""

import math
import warnings
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .data import LabelMatrix, ScoreMatrix, _check_int, _check_real, _check_unique, _check_values, _read_json
from .data import class_stats, write_json
from .loss import (
    DbLossParams,
    class_weights,
    db_loss_fused,
    effective_numbers,
    margins,
    stable_sigmoid,
)
from .metrics import _defined_mean, macro_report
from .sampler import SamplerConfig, build_epoch, class_repeat_factors, sample_repeat_factors

DEFAULT_HEAD_FREQUENCY = 0.5
# the baseline arm's loss: beta 0 and alpha 0 give unit weights, kappa 0 zero margins (gate c02)
PLAIN_BCE = DbLossParams(beta=0.0, alpha=0.0, margin_scale=0.0)


@dataclass
class LinearModel:
    """C x D ``weights`` and a C-vector ``bias``, checked first, before the float64 cast, as numbers in (-inf, inf)."""

    weights: np.ndarray
    bias: np.ndarray
    class_names: list

    def __post_init__(self):
        self.weights = np.asarray(_check_values("weights", self.weights, "(-inf, inf)"), dtype=np.float64)
        self.bias = np.asarray(_check_values("bias", self.bias, "(-inf, inf)"), dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be C x D with a C-vector bias")
        if len(self.class_names) != self.weights.shape[0]:
            raise ValueError("class_names must match weight rows")
        _check_unique(self.class_names, "class name in model")


@dataclass
class SynthSpec:
    n_samples: int
    n_classes: int
    feature_dim: int
    power_law_exponent: float = 1.5
    noise_std: float = 0.5
    seed: int = 0
    head_frequency: float = DEFAULT_HEAD_FREQUENCY

    def __post_init__(self):
        for name in ("n_samples", "n_classes", "feature_dim"):
            _check_int(name, getattr(self, name), 1)
        _check_int("seed", self.seed, 0)
        _check_real("power_law_exponent", self.power_law_exponent, "[0, inf)")
        _check_real("noise_std", self.noise_std, "[0, inf)")
        _check_real("head_frequency", self.head_frequency, "(0, 1]")


@dataclass
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int

    def __post_init__(self):
        _check_real("learning_rate", self.learning_rate, "[0, inf)")
        _check_int("epochs", self.epochs, 1)
        _check_int("batch_size", self.batch_size, 1)


def _uniform(sampler_cfg: SamplerConfig) -> SamplerConfig:
    """The baseline arm's sampler: `sampler_cfg` at r_max 1, where every repeat factor is 1."""
    return replace(sampler_cfg, r_max=1.0)


def power_law_frequencies(n_classes: int, exponent: float, head: float = DEFAULT_HEAD_FREQUENCY):
    """Configured class frequencies f_c = head * (c+1)^-exponent, before clipping."""
    ranks = np.arange(1, n_classes + 1, dtype=np.float64)
    return head * np.power(ranks, -exponent)


def generate_synthetic(spec: SynthSpec):
    """Draw (features, labels) with every class guaranteed at least one positive."""
    if spec.n_classes > spec.feature_dim:
        warnings.warn("more classes than feature dimensions; prototypes will collide")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    freqs = power_law_frequencies(spec.n_classes, spec.power_law_exponent, spec.head_frequency)
    prototypes = rng.standard_normal((spec.n_classes, spec.feature_dim))
    labels = (rng.random((spec.n_samples, spec.n_classes)) < freqs).astype(np.int8)
    for c in range(spec.n_classes):
        if labels[:, c].sum() == 0:
            labels[int(rng.integers(spec.n_samples)), c] = 1
    with np.errstate(over="ignore"):  # an overflow fails below
        noise = rng.standard_normal((spec.n_samples, spec.feature_dim)) * spec.noise_std
        features = labels.astype(np.float64) @ prototypes + noise
        # x . x is inf for an infinite feature too; a row whose x . x overflows overflows the scores later
        squared_norms = np.einsum("nd,nd->n", features, features)
    if not np.isfinite(squared_norms).all():
        raise ValueError(f"noise_std {spec.noise_std} takes a feature row's squared norm to inf")
    label_matrix = LabelMatrix(
        ids=[f"s{i}" for i in range(spec.n_samples)],
        values=labels,
        class_names=[f"c{j}" for j in range(spec.n_classes)],
    )
    return features, label_matrix


def forward(model: LinearModel, x) -> np.ndarray:
    """Logits ``x @ W.T + b``, summed by einsum, so a row's do not depend on the other rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.weights.shape[1]:
        raise ValueError("feature batch does not match model dimensions")
    return np.einsum("nd,cd->nc", x, model.weights) + model.bias


def _loss_terms(counts, params: DbLossParams, margin_override=None):
    """Per-class weights and margins of the DB loss under `params`, from the classes' positive counts.

    `class_weights` and `margins` check the terms they make; an explicit
    margin vector, which bypasses the count-based generator, is checked here.
    A class with zero training positives gets the weight and margin of a
    class with one (counts clamped to 1).  Its margin never applies, since it
    has no positive; its weight scales every negative of that class.
    """
    counts = np.maximum(counts, 1)
    weights = class_weights(effective_numbers(counts, params.beta), params.alpha)
    if margin_override is not None:
        margin_vec = np.asarray(_check_values("margins", margin_override, "[0, inf)"), dtype=np.float64)
        if margin_vec.shape != counts.shape:
            raise ValueError("margin override needs one value per class")
        return weights, margin_vec
    return weights, margins(counts, params.margin_scale)


def train(
    features,
    labels: LabelMatrix,
    cfg: TrainConfig,
    loss_params: DbLossParams,
    sampler_cfg: SamplerConfig,
    margin_override=None,
):
    """SGD on the DB loss under `loss_params` over epochs of the class-aware sampler.

    Returns (model, trace) where trace[e] is the epoch-mean loss.  The features
    are checked first, before the float64 cast, as numbers in (-inf, inf): else
    the first epoch's NaN loss would be blamed on the learning rate.  Aborts with
    ValueError if the loss stops being finite.  The class weights and margins
    are checked once, where `_loss_terms` makes them; each batch then runs
    `db_loss_fused` in scratch arrays allocated once per epoch, with the
    same bits as calling `db_loss` on it.
    """
    features = np.asarray(_check_values("feature values", features, "(-inf, inf)"), dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("feature values must be an N x D matrix")
    n, d = features.shape
    if n != labels.n_samples:
        raise ValueError("features and labels disagree on sample count")
    c = labels.n_classes

    stats = class_stats(labels)
    weights, margin_vec = _loss_terms(stats.counts, loss_params, margin_override)
    r_class = class_repeat_factors(stats.frequencies, sampler_cfg)
    repeat = sample_repeat_factors(labels, r_class, sampler_cfg)

    model = LinearModel(
        weights=np.zeros((c, d)), bias=np.zeros(c), class_names=list(labels.class_names)
    )
    y_all = labels.values.astype(np.float64)
    full_scale = weights / (cfg.batch_size * c)
    trace = []
    for epoch in range(cfg.epochs):
        plan = build_epoch(repeat, sampler_cfg, epoch=epoch)
        # scratch of the fused step; a shorter batch uses the leading rows
        rows = min(cfg.batch_size, plan.epoch_len)
        z_buf, grad_buf, work_buf = (np.empty((rows, c)) for _ in range(3))
        mask_buf = np.empty((rows, c), dtype=bool)
        # per-class vectors tiled to whole rows, so no ufunc of the step broadcasts
        w_rows, m_rows, scale_rows = (
            np.tile(v, (rows, 1)) for v in (weights, margin_vec, full_scale)
        )
        loss_sum = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # the divergence checks report these
            for start in range(0, plan.epoch_len, cfg.batch_size):
                batch = plan.indices[start : start + cfg.batch_size]
                k = batch.size
                z, grad, mask = z_buf[:k], grad_buf[:k], mask_buf[:k]
                x_b = features[batch]
                np.matmul(x_b, model.weights.T, out=z)
                z += model.bias
                if not np.isfinite(z, out=mask).all():
                    raise ValueError(f"training diverged at epoch {epoch}: lower learning_rate")
                scale = scale_rows[:k] if k == cfg.batch_size else weights / (k * c)
                loss = db_loss_fused(
                    z, y_all[batch], w_rows[:k], m_rows[:k], scale, grad, work_buf[:k], mask
                )
                if not math.isfinite(loss):
                    raise ValueError(f"training diverged at epoch {epoch}: lower learning_rate or margins")
                model.weights -= cfg.learning_rate * (grad.T @ x_b)
                model.bias -= cfg.learning_rate * grad.sum(axis=0)
                loss_sum += loss * k
        trace.append(loss_sum / plan.epoch_len)
    if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
        raise ValueError("training diverged: non-finite parameters; lower learning_rate")
    return model, trace


def holdout_split(features, labels: LabelMatrix, fraction: float = 0.2):
    """Deterministic split: the last `fraction` of samples by index is held out."""
    _check_real("fraction", fraction, "[0, 1)")
    n = labels.n_samples
    if len(features) != n:
        raise ValueError("features and labels disagree on sample count")
    n_train = n - int(n * fraction)
    train_labels = LabelMatrix(
        ids=labels.ids[:n_train],
        values=labels.values[:n_train],
        class_names=labels.class_names,
    )
    test_labels = LabelMatrix(
        ids=labels.ids[n_train:],
        values=labels.values[n_train:],
        class_names=labels.class_names,
    )
    return (features[:n_train], train_labels), (features[n_train:], test_labels)


def class_terciles(counts):
    """(tail, head) class index lists: smallest / largest third by count.

    Tercile size is C // 3 (at least 1); ties break by class index.
    """
    counts = _check_values("counts", counts, "[0, inf)", whole=True)
    c = counts.shape[0]
    k = max(1, c // 3)
    by_count = sorted(range(c), key=lambda j: (counts[j], j))
    tail = by_count[:k]
    by_count_desc = sorted(range(c), key=lambda j: (-counts[j], j))
    head = by_count_desc[:k]
    return tail, head


def evaluate_arm(model: LinearModel, features, labels: LabelMatrix, tercile_counts):
    """(summary, report): the macro report on `labels` and its all/tail/head class mAP.

    Each mAP is the mean AP over its classes, skipping those with no positives.
    """
    if np.shape(tercile_counts) != (labels.n_classes,):
        raise ValueError("tercile_counts needs one count per class")
    if len(features) != labels.n_samples:
        raise ValueError("features and labels disagree on sample count")
    probs = stable_sigmoid(forward(model, features))
    scores = ScoreMatrix(labels.ids, probs, "probabilities", labels.class_names)
    report = macro_report(scores, labels)
    ap = [report.per_class[name]["ap"] for name in labels.class_names]
    summary = {"map": report.macro["map"]}
    for key, classes in zip(("tail_map", "head_map"), class_terciles(tercile_counts)):
        summary[key] = _defined_mean(ap[j] for j in classes)
    return summary, report


def _difference(a, b):
    """a - b, or None when either mAP is undefined (no class of the tercile has a positive)."""
    return None if a is None or b is None else a - b


def run_comparison(
    spec: SynthSpec,
    learning_rate: float,
    epochs: int,
    batch_size: int,
    db_params: DbLossParams = None,
    sampler_cfg: SamplerConfig = None,
):
    """Two-arm experiment: db+cas versus plain BCE + uniform shuffle on one synthetic draw.

    Both arms share the data, the split, the learning rate, the epoch count and the sampler
    seed; bce_uniform trains under `PLAIN_BCE` at r_max 1.  Returns (summary, models,
    reports), the last two keyed by arm; each report is the arm's macro
    report on the held-out split.
    """
    if db_params is None:
        db_params = DbLossParams(alpha=0.5)
    if sampler_cfg is None:
        sampler_cfg = SamplerConfig(threshold=0.05, r_max=10.0, seed=spec.seed)
    cfg = TrainConfig(learning_rate, epochs, batch_size)
    setups = {"db_cas": (db_params, sampler_cfg), "bce_uniform": (PLAIN_BCE, _uniform(sampler_cfg))}
    features, labels = generate_synthetic(spec)
    (x_train, y_train), (x_test, y_test) = holdout_split(features, labels)
    tercile_counts = class_stats(labels).counts

    arms, models, reports = {}, {}, {}
    for name, (params, sampling) in setups.items():
        model, trace = train(x_train, y_train, cfg, params, sampling)
        arms[name], reports[name] = evaluate_arm(model, x_test, y_test, tercile_counts)
        arms[name]["final_train_loss"] = trace[-1]
        models[name] = model

    summary = {
        "spec": asdict(spec),
        "learning_rate": learning_rate,
        "epochs": epochs,
        "batch_size": batch_size,
        "arms": arms,
        "tail_gain": _difference(arms["db_cas"]["tail_map"], arms["bce_uniform"]["tail_map"]),
        "head_change": _difference(arms["db_cas"]["head_map"], arms["bce_uniform"]["head_map"]),
    }
    return summary, models, reports


def save_model(model: LinearModel, path) -> None:
    """Write ``model`` as JSON: ``class_names``, C x D ``weights`` and C ``bias``."""
    payload = {
        "class_names": list(model.class_names),
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
    }
    write_json(path, payload)


def load_model(path) -> LinearModel:
    path = Path(path)  # named as the embedding reader names it: `./m.json` as `m.json`
    payload = _read_json(path)
    try:
        weights, bias, names = payload["weights"], payload["bias"], payload["class_names"]
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise ValueError("class_names must be a list of strings")
        # json.loads takes the literals NaN and Infinity, and reads 1e400 as inf: LinearModel rejects them
        return LinearModel(weights, bias, names)
    except (KeyError, TypeError, ValueError) as exc:  # a missing field, a bad value or shape
        raise ValueError(f"{path}: not a model file: {exc!r}") from None
