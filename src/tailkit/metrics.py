"""Evaluation metrics: average precision, ROC AUC, F1, calibration error.

Conventions are pinned so results are reproducible and oracle-checkable:

* AP is the step AP over distinct scores, sum of (R_n - R_{n-1}) * P_n: tied
  scores count as one threshold, so AP does not depend on row order.  Without
  ties it is the mean precision at each positive's rank.
* AUC is the Mann-Whitney U over the (positive, negative) pairs: per run of
  tied scores, each positive beats every negative of a lower run and scores
  0.5 for each negative in its own run.
* F1 thresholds with ``score >= threshold`` and returns 0 when the
  denominator 2TP + FP + FN is 0.
* ECE uses equal-width bins on [0, 1], right-closed with bin 0 left-closed;
  empty bins contribute nothing.  Each bin is a run of the sorted scores, so
  its mean sums in sorted order and ECE does not depend on row order either.

Score rows are matched to label rows by id, as in the pipeline; a differing
id set or class order is an error.

Per-class metrics that are undefined (AP with no positives, AUC with a
single class present) are skipped and reported, never imputed as 0.
"""

from dataclasses import dataclass

import numpy as np

from .data import LabelMatrix, ScoreMatrix, _check_int, _check_real, _check_values
from .pipeline import _align_to


@dataclass
class EceConfig:
    n_bins: int = 15

    def __post_init__(self):
        _check_int("n_bins", self.n_bins, 1)
        if self.n_bins > 2**53:  # so n_bins is exact as a float64 and no bin index overflows int64
            raise ValueError(f"n_bins must be <= {2**53}")


@dataclass
class MetricReport:
    per_class: dict
    macro: dict
    skipped_classes: list


def _as_1d(scores, labels):
    scores = np.asarray(_check_values("scores", scores, "(-inf, inf)"), dtype=np.float64)
    labels = _check_values("labels", labels, "[0, 1]", whole=True)  # a 2 would otherwise count as a negative
    if scores.shape != labels.shape:  # compared before the ravel, so a 3x2 is not paired with a 2x3
        raise ValueError("scores and labels length mismatch")
    return scores.ravel(), labels.ravel()


def _tie_runs(sorted_keys, positive):
    """Cumulative int64 positives and rows up to the end of each run of equal sorted keys, in order
    (none when empty); ``np.diff(..., prepend=0)`` gives each run's own.  -0.0 ties 0.0."""
    ends = np.flatnonzero(np.append(sorted_keys[1:] != sorted_keys[:-1], sorted_keys.size > 0))
    return np.cumsum(positive)[ends], ends + 1


def _defined_mean(values):
    """Mean of the values that are not None; None when every one is."""
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def average_precision(scores, labels):
    """Step AP over distinct scores; None when the class has no positive labels."""
    scores, labels = _as_1d(scores, labels)
    positive = labels == 1
    n_pos = int(positive.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    cum_pos, cum_size = _tie_runs(scores[order], positive[order])
    run_pos = np.diff(cum_pos, prepend=0)
    # a run's positives share the precision at its end; tie-free, each term is 1 * (cum_pos / rank)
    hit = run_pos > 0
    return float((run_pos[hit] * (cum_pos[hit] / cum_size[hit])).sum() / n_pos)


def auc_roc(scores, labels):
    """Mann-Whitney AUC with 0.5 tie credit; None when one class is absent."""
    scores, labels = _as_1d(scores, labels)
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="stable")
    cum_pos, cum_size = _tie_runs(scores[order], positive[order])
    cum_neg = cum_size - cum_pos
    # U: each positive beats every negative of a lower run and scores 0.5 per negative of its own
    u = (np.diff(cum_pos, prepend=0) * (cum_neg - 0.5 * np.diff(cum_neg, prepend=0))).sum()
    return float(u / (n_pos * n_neg))


def f1_at_threshold(scores, labels, threshold: float) -> float:
    _check_real("threshold", threshold, "[-inf, inf]")
    scores, labels = _as_1d(scores, labels)
    predicted = scores >= threshold
    actual = labels == 1
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def ece(scores, labels, cfg: EceConfig) -> float:
    """Expected calibration error over equal-width confidence bins, summed in ascending bin order."""
    scores, labels = _as_1d(scores, labels)
    _check_values("scores", scores, "[0, 1]")
    order = np.argsort(scores, kind="stable")
    scores, positive = scores[order], labels[order] == 1
    # the bin index rises with the score, so each occupied bin is one run of the sorted
    # column; a score of 0 gives ceil(0) - 1 = -1, which the clip sends to bin 0
    bins = np.clip(np.ceil(scores * cfg.n_bins).astype(np.int64) - 1, 0, cfg.n_bins - 1)
    run_pos, run_size = (np.diff(cum, prepend=0) for cum in _tie_runs(bins, positive))
    total = 0.0
    start = 0
    for pos, size in zip(run_pos.tolist(), run_size.tolist()):
        total += (size / scores.size) * abs(scores[start : start + size].mean() - pos / size)
        start += size
    return float(total)


def macro_report(
    scores: ScoreMatrix,
    labels: LabelMatrix,
    threshold: float = 0.5,
    ece_cfg: EceConfig = None,
) -> MetricReport:
    """Per-class AP/AUC/F1/ECE plus macro means over the defined classes."""
    _check_real("threshold", threshold, "[-inf, inf]")
    if ece_cfg is None:
        ece_cfg = EceConfig()
    if scores.kind != "probabilities":
        raise ValueError("macro_report requires probability scores")
    values = _align_to(labels, scores)

    per_class = {}
    skipped = []
    for j, name in enumerate(labels.class_names):
        col_scores = values[:, j]
        col_labels = labels.values[:, j]
        ap = average_precision(col_scores, col_labels)
        auc = auc_roc(col_scores, col_labels)
        if ap is None:
            skipped.append({"class": name, "metric": "ap", "reason": "no positive labels"})
        if auc is None:
            skipped.append(
                {"class": name, "metric": "auc", "reason": "needs a positive and a negative"}
            )
        per_class[name] = {
            "ap": ap,
            "auc": auc,
            "f1": f1_at_threshold(col_scores, col_labels, threshold),
            "ece": ece(col_scores, col_labels, ece_cfg),
        }

    macro = {
        macro_key: _defined_mean(m[key] for m in per_class.values())
        for key, macro_key in (("ap", "map"), ("auc", "mauc"), ("f1", "mf1"), ("ece", "mece"))
    }
    return MetricReport(per_class=per_class, macro=macro, skipped_classes=skipped)
