"""Inference-time score refinement: TTA merge, ensembling, gating.

TTA views are merged in probability space (sigmoid first, then the
unweighted mean across views) -- do not "optimize" this into a logit mean,
it changes the result.  Ensembling is a convex combination with weights
normalized to sum 1.  Normal gating rescales every abnormal column of a
sample by (1 - p_normal)^exponent, which preserves the ranking among
abnormal findings.

Inputs are aligned by sample id, never by row order; a mismatched id set or
class order is a hard error.

Each stage works in blocks of ``_NORM_BLOCK_ROWS`` rows: beside its inputs it
holds its output matrix and at most one aligned copy of one input, and each
output cell goes through the float operations of the whole-matrix form, in
the same order.
"""

from dataclasses import dataclass

import numpy as np

from .data import _NORM_BLOCK_ROWS, LabelMatrix, ScoreMatrix, _check_int, _check_real, _check_values
from .loss import stable_sigmoid


@dataclass
class EnsembleSpec:
    member_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(_check_values("member weights", self.member_weights, "(0, inf)"), dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("need at least one member weight")
        with np.errstate(over="ignore"):
            total = w.sum()
        if not np.isfinite(total):
            raise ValueError("member weights must have a finite sum")
        self.member_weights = w

    @property
    def normalized_weights(self) -> np.ndarray:
        return self.member_weights / self.member_weights.sum()


@dataclass
class GateConfig:
    normal_class_index: int
    exponent: float = 0.5

    def __post_init__(self):
        _check_int("normal_class_index", self.normal_class_index, 0)
        _check_real("exponent", self.exponent, "[0, inf]")


def _align_to(reference: ScoreMatrix | LabelMatrix, other: ScoreMatrix) -> np.ndarray:
    """Rows of `other` reordered to match `reference` ids; class order must agree."""
    if other.class_names != reference.class_names:
        raise ValueError("class order misalignment")
    if other.ids == reference.ids:
        return other.values
    row_of = {sample_id: i for i, sample_id in enumerate(other.ids)}
    perm = [row_of.get(sample_id) for sample_id in reference.ids]
    # both id lists are unique, so equal lengths and no missing id mean the same id set
    if len(other.ids) != len(perm) or None in perm:
        raise ValueError("id misalignment: inputs cover different samples")
    return other.values[perm]


def _row_blocks(n: int):
    """Slices of ``_NORM_BLOCK_ROWS`` rows covering ``range(n)`` in order."""
    return (slice(start, start + _NORM_BLOCK_ROWS) for start in range(0, n, _NORM_BLOCK_ROWS))


def tta_merge(views) -> ScoreMatrix:
    """Mean of per-view sigmoids: one logit ScoreMatrix per augmentation view."""
    views = list(views)
    if not views:
        raise ValueError("need at least one TTA view")
    first = views[0]
    for v in views:
        if v.kind != "logits":
            raise ValueError("tta_merge expects logit views")
    total = np.zeros_like(first.values)
    for v in views:
        aligned = _align_to(first, v)
        for rows in _row_blocks(len(total)):
            total[rows] += stable_sigmoid(aligned[rows])
        del aligned  # before the next view's copy is made
    total /= len(views)
    return ScoreMatrix(
        ids=first.ids,
        values=total,
        kind="probabilities",
        class_names=first.class_names,
    )


def ensemble(members, spec: EnsembleSpec) -> ScoreMatrix:
    """Convex combination of probability matrices under normalized weights."""
    members = list(members)
    if not members:
        raise ValueError("need at least one ensemble member")
    if spec.normalized_weights.size != len(members):
        raise ValueError("need one weight per ensemble member")
    first = members[0]
    for mtx in members:
        if mtx.kind != "probabilities":
            raise ValueError("ensemble expects probability members")
    combined = np.zeros_like(first.values)
    for weight, mtx in zip(spec.normalized_weights, members):
        aligned = _align_to(first, mtx)
        for rows in _row_blocks(len(combined)):
            combined[rows] += weight * aligned[rows]
        del aligned  # before the next member's copy is made
    np.clip(combined, 0.0, 1.0, out=combined)
    return ScoreMatrix(
        ids=first.ids, values=combined, kind="probabilities", class_names=first.class_names
    )


def normal_gate(p: ScoreMatrix, cfg: GateConfig) -> ScoreMatrix:
    """Suppress abnormal columns by (1 - p_normal)^exponent; normal column unchanged."""
    if p.kind != "probabilities":
        raise ValueError("normal_gate expects probabilities")
    if cfg.normal_class_index >= len(p.class_names):
        raise ValueError("normal class index out of range")
    normal = cfg.normal_class_index
    values = p.values.copy()
    for rows in _row_blocks(len(values)):
        block = values[rows]
        factor = np.power(1.0 - block[:, normal], cfg.exponent)[:, None]
        block[:, :normal] *= factor
        block[:, normal + 1 :] *= factor
    return ScoreMatrix(
        ids=p.ids, values=values, kind="probabilities", class_names=p.class_names
    )
