"""Repeat-factor class-aware sampling.

Oversamples images containing rare positive labels: class repeat factor
r(c) = max(1, sqrt(T / f_c)), sample repeat factor r_i = min(r_max,
max over positive classes of r(c)).  Fractional repeats materialize by
stochastic rounding per epoch (floor plus a Bernoulli extra), so the
expected multiplicity of sample i equals r_i exactly.

Epoch construction consumes the portable SplitMix64 stream in a documented
order: one ``next_float`` per sample index 0..N-1 to decide the Bernoulli
extra, then one Fisher-Yates shuffle of the expanded index list.  The
stream for epoch e under seed s starts at state (s + e * GOLDEN_GAMMA)
mod 2^64, so plans replicate across implementations.  For N samples and an
expanded list of M indices, the shuffle's M - 1 bounded draws (bounds M,
M - 1, ..., 2) start at state (s + (e + N) * GOLDEN_GAMMA) mod 2^64, so both
parts are drawn in bulk; only the sequential swaps run per index.
"""

from dataclasses import dataclass

import numpy as np

from .data import LabelMatrix, _check_int, _check_real, _check_values
from .rng import BLOCK_BOUND_LIMIT, GOLDEN_GAMMA, MASK64, bounded_block, float_block, splitmix64_block


@dataclass
class SamplerConfig:
    threshold: float = 0.001
    r_max: float = 10.0
    seed: int = 0

    def __post_init__(self):
        _check_real("threshold", self.threshold, "(0, 1]")
        _check_real("r_max", self.r_max, "[1, inf]")
        _check_int("seed", self.seed, 0)


@dataclass
class EpochPlan:
    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)

    @property
    def epoch_len(self) -> int:
        return int(self.indices.size)


def class_repeat_factors(frequencies, cfg: SamplerConfig) -> np.ndarray:
    """Uncapped per-class repeat factors; zero-frequency classes stay at 1."""
    f = np.asarray(_check_values("frequencies", frequencies, "[0, 1]"), dtype=np.float64)
    r = np.ones_like(f)
    nonzero = f > 0
    with np.errstate(over="ignore"):  # a subnormal frequency gives r = inf, which r_max caps
        r[nonzero] = np.maximum(1.0, np.sqrt(cfg.threshold / f[nonzero]))
    return r


def sample_repeat_factors(labels: LabelMatrix, r, cfg: SamplerConfig) -> np.ndarray:
    """Per-sample repeat factor from its rarest positive class, capped at r_max."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (labels.n_classes,):
        raise ValueError("class repeat factors do not match label classes")
    y = labels.values.astype(bool)
    # -inf, not 0, as the fill: it never exceeds a positive class's r, whatever r holds
    rarest = np.where(y, r, -np.inf).max(axis=1, initial=-np.inf)
    return np.where(y.any(axis=1), np.fmin(cfg.r_max, rarest), 1.0)


def build_epoch(repeat, cfg: SamplerConfig, epoch: int = 0) -> EpochPlan:
    """Materialize one epoch: floor(r_i) copies plus a seeded Bernoulli extra, shuffled."""
    repeat = np.asarray(_check_values("repeat factors", repeat, "[1, inf)"), dtype=np.float64)
    if repeat.ndim != 1:
        raise ValueError("repeat factors must be a 1-D array")
    _check_int("epoch", epoch, 0)
    state = (int(cfg.seed) + int(epoch) * GOLDEN_GAMMA) & MASK64
    whole = np.floor(repeat)
    copies = whole + (float_block(splitmix64_block(state, repeat.size)) < repeat - whole)
    with np.errstate(over="ignore"):  # factors near the float maximum sum to inf, still rejected
        total = copies.sum()
    if total >= BLOCK_BOUND_LIMIT:
        raise ValueError(f"epoch would need {total:.0f} indices; at most 2^32 - 1 are supported")
    length = int(total)
    indices = np.repeat(np.arange(repeat.size), copies.astype(np.int64)).tolist()
    draws = splitmix64_block(state + repeat.size * GOLDEN_GAMMA, max(length - 1, 0))
    swaps = bounded_block(draws, np.arange(length, 1, -1)).tolist()
    for i, j in zip(range(length - 1, 0, -1), swaps):
        indices[i], indices[j] = indices[j], indices[i]
    return EpochPlan(indices=indices)
