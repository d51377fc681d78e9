"""Distribution-balanced loss for long-tailed multi-label training.

Combines effective-number class reweighting with a positive-label margin on
the logits, over a numerically stable binary cross-entropy:

    eff_c  = (1 - beta) / (1 - beta^{n_c})
    w_c   propto eff_c^alpha,   rescaled to mean 1 over classes
    m_c    = kappa * ln(n_max / n_c)
    z'     = z - y * m_c
    loss   = mean_{i,c} w_c * bce(z'_{i,c}, y_{i,c})

The bce term uses the overflow-free form max(z,0) - z*y + log(1 + e^{-|z|}),
and the analytic gradient is (w_c / (N*C)) * (sigmoid(z') - y).
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class DbLossParams:
    beta: float = 0.9999
    alpha: float = 1.0
    margin_scale: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.margin_scale < 0:
            raise ValueError("margin_scale must be >= 0")


@dataclass
class DbLossResult:
    loss: float
    grad_z: np.ndarray


def stable_sigmoid(z):
    """Elementwise logistic function, overflow-free for |z| up to ~700."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def effective_numbers(counts, beta: float) -> np.ndarray:
    """eff_c = (1 - beta) / (1 - beta^{n_c}); rare classes get larger values."""
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 1).any():
        raise ValueError("zero-count class: drop or smooth it before weighting")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    if beta == 0.0:
        return np.ones(counts.shape, dtype=np.float64)
    return (1.0 - beta) / (1.0 - np.power(beta, counts.astype(np.float64)))


def class_weights(eff, alpha: float) -> np.ndarray:
    """w_c = eff_c^alpha rescaled so the class mean is exactly 1."""
    eff = np.asarray(eff, dtype=np.float64)
    if (eff <= 0).any():
        raise ValueError("effective numbers must be positive")
    raw = np.power(eff, alpha)
    return raw * (raw.size / raw.sum())


def margins(counts, kappa: float) -> np.ndarray:
    """m_c = kappa * ln(n_max / n_c); the most frequent class gets margin 0."""
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 1).any():
        raise ValueError("zero-count class has no defined margin")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    n_max = counts.max()
    return kappa * np.log(n_max / counts.astype(np.float64))


def db_loss(z, y, w, m) -> DbLossResult:
    """Weighted margin-adjusted BCE over an N x C batch, with exact gradient."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if z.ndim != 2 or z.shape != y.shape:
        raise ValueError("logits and labels must share an N x C shape")
    n, c = z.shape
    if w.shape != (c,) or m.shape != (c,):
        raise ValueError("weights and margins must have one entry per class")
    if not np.isfinite(z).all():
        raise ValueError("non-finite logit")
    if (w <= 0).any():
        raise ValueError("weights must be strictly positive")
    if (m < 0).any():
        raise ValueError("margins must be non-negative")

    z_adj = z - y * m
    bce = np.maximum(z_adj, 0.0) - z_adj * y + np.log1p(np.exp(-np.abs(z_adj)))
    loss = float(np.sum(w * bce) / (n * c))
    grad = (w / (n * c)) * (stable_sigmoid(z_adj) - y)
    return DbLossResult(loss=loss, grad_z=grad)
