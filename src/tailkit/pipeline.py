"""Inference-time score refinement: TTA merge, ensembling, gating.

TTA views are merged in probability space (sigmoid first, then the
unweighted mean across views) -- do not "optimize" this into a logit mean,
it changes the result.  Ensembling is a convex combination with weights
normalized to sum 1.  Normal gating rescales every abnormal column of a
sample by (1 - p_normal)^exponent, which preserves the ranking among
abnormal findings.

Inputs are aligned by sample id, never by row order; a mismatched id set or
class order is a hard error.
"""

from dataclasses import dataclass

import numpy as np

from .data import LabelMatrix, ScoreMatrix
from .loss import stable_sigmoid


@dataclass
class EnsembleSpec:
    member_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.member_weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("need at least one member weight")
        if not (np.isfinite(w) & (w > 0)).all():
            raise ValueError("member weights must be finite and strictly positive")
        self.member_weights = w

    @property
    def normalized_weights(self) -> np.ndarray:
        return self.member_weights / self.member_weights.sum()

    @classmethod
    def from_raw(cls, weights) -> "EnsembleSpec":
        return cls(member_weights=weights)


@dataclass
class GateConfig:
    normal_class_index: int
    exponent: float = 0.5

    def __post_init__(self):
        if not (self.exponent >= 0):
            raise ValueError("gate exponent must be >= 0")
        if self.normal_class_index < 0:
            raise ValueError("normal class index must be >= 0")


def _align_to(reference: ScoreMatrix | LabelMatrix, other: ScoreMatrix) -> np.ndarray:
    """Rows of `other` reordered to match `reference` ids; class order must agree."""
    if other.class_names != reference.class_names:
        raise ValueError("class order misalignment")
    if other.ids == reference.ids:
        return other.values
    row_of = {sample_id: i for i, sample_id in enumerate(other.ids)}
    if set(row_of) != set(reference.ids) or len(other.ids) != len(reference.ids):
        raise ValueError("id misalignment: inputs cover different samples")
    perm = [row_of[sample_id] for sample_id in reference.ids]
    return other.values[perm]


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
        total += stable_sigmoid(_align_to(first, v))
    return ScoreMatrix(
        ids=first.ids,
        values=total / len(views),
        kind="probabilities",
        class_names=first.class_names,
    )


def ensemble(members, spec: EnsembleSpec) -> ScoreMatrix:
    """Convex combination of probability matrices under normalized weights."""
    members = list(members)
    if not members:
        raise ValueError("need at least one ensemble member")
    if spec.normalized_weights.size != len(members):
        raise ValueError("weight count does not match member count")
    first = members[0]
    for mtx in members:
        if mtx.kind != "probabilities":
            raise ValueError("ensemble expects probability members")
    combined = np.zeros_like(first.values)
    for weight, mtx in zip(spec.normalized_weights, members):
        combined += weight * _align_to(first, mtx)
    combined = np.clip(combined, 0.0, 1.0)
    return ScoreMatrix(
        ids=first.ids, values=combined, kind="probabilities", class_names=first.class_names
    )


def normal_gate(p: ScoreMatrix, cfg: GateConfig) -> ScoreMatrix:
    """Suppress abnormal columns by (1 - p_normal)^exponent; normal column unchanged."""
    if p.kind != "probabilities":
        raise ValueError("normal_gate expects probabilities")
    if cfg.normal_class_index >= len(p.class_names):
        raise ValueError("normal class index out of range")
    values = p.values.copy()
    factor = np.power(1.0 - values[:, cfg.normal_class_index], cfg.exponent)
    abnormal = np.arange(values.shape[1]) != cfg.normal_class_index
    values[:, abnormal] *= factor[:, None]
    return ScoreMatrix(
        ids=p.ids, values=values, kind="probabilities", class_names=p.class_names
    )
