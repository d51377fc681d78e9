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

`db_loss` is the checked entry point.  `db_loss_fused` is the unchecked
kernel behind it, which the trainer calls once per batch after checking the
weights and margins once per run.  It computes e = exp(-|z'|) once for the
bce term and the sigmoid, and 1 + e once for both branches of the sigmoid,
in caller-owned buffers.  Both give the same bits as the formulas above
evaluated in the order written, with the sigmoid as in `stable_sigmoid`.
"""

from dataclasses import dataclass

import numpy as np

from .data import _check_real, _check_values


@dataclass
class DbLossParams:
    beta: float = 0.9999
    alpha: float = 1.0
    margin_scale: float = 0.1

    def __post_init__(self):
        _check_real("beta", self.beta, "[0, 1)")
        _check_real("alpha", self.alpha, "[0, inf)")
        _check_real("margin_scale", self.margin_scale, "[0, inf)")


@dataclass
class DbLossResult:
    loss: float
    grad_z: np.ndarray


def stable_sigmoid(z):
    """Elementwise logistic function, overflow-free for |z| up to ~700, in `db_loss_fused`'s two arrays."""
    z = np.asarray(z, dtype=np.float64)
    e = np.abs(z, out=np.empty_like(z))  # out=, so that a 0-d z gives a 0-d array
    np.exp(np.negative(e, out=e), out=e)
    one_plus_e = e + 1.0
    np.putmask(e, z >= 0, 1.0)
    return np.divide(e, one_plus_e, out=e)


def effective_numbers(counts, beta: float) -> np.ndarray:
    """eff_c = (1 - beta) / (1 - beta^{n_c}); rare classes get larger values."""
    counts = _check_values("counts", counts, "[1, inf)", whole=True)
    _check_real("beta", beta, "[0, 1)")
    return (1.0 - beta) / (1.0 - np.power(beta, counts.astype(np.float64)))


def class_weights(eff, alpha: float) -> np.ndarray:
    """w_c = eff_c^alpha rescaled so the class mean is exactly 1."""
    eff = np.asarray(_check_values("effective numbers", eff, "(0, inf)"), dtype=np.float64)
    _check_real("alpha", alpha, "[0, inf)")
    with np.errstate(all="ignore"):  # a weight of 0 or inf fails below
        raw = np.power(eff, alpha)
        w = raw * (raw.size / raw.sum())
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError(f"alpha {alpha} takes a class weight to 0 or inf")
    return w


def margins(counts, kappa: float) -> np.ndarray:
    """m_c = kappa * ln(n_max / n_c); the most frequent class gets margin 0."""
    counts = _check_values("counts", counts, "[1, inf)", whole=True).astype(np.float64)
    _check_real("kappa", kappa, "[0, inf)")
    with np.errstate(over="ignore"):  # an infinite margin fails below
        m = kappa * np.log(counts.max() / counts)
    if not np.isfinite(m).all():
        raise ValueError(f"kappa {kappa} takes a margin to inf")
    return m


def db_loss(z, y, w, m) -> DbLossResult:
    """Weighted margin-adjusted BCE over an N x C batch, with exact gradient.

    Checks its inputs, then runs `db_loss_fused` on a copy of z.
    """
    z = np.array(_check_values("logits", z, "(-inf, inf)"), dtype=np.float64)  # a copy: the kernel overwrites it
    y = np.asarray(_check_values("labels", y, "[0, 1]", whole=True), dtype=np.float64)
    w = np.asarray(_check_values("weights", w, "(0, inf)"), dtype=np.float64)
    m = np.asarray(_check_values("margins", m, "[0, inf)"), dtype=np.float64)
    if z.ndim != 2 or z.shape != y.shape:
        raise ValueError("logits and labels must share an N x C shape")
    n, c = z.shape
    if w.shape != (c,) or m.shape != (c,):
        raise ValueError("weights and margins must have one entry per class")
    grad, work = np.empty_like(z), np.empty_like(z)
    loss = db_loss_fused(z, y, w, m, w / (n * c), grad, work, np.empty(z.shape, dtype=bool))
    return DbLossResult(loss=loss, grad_z=grad)


def db_loss_fused(z, y, w, m, scale, grad, work, mask) -> float:
    """Unchecked `db_loss` of an N x C batch, in caller-owned buffers.

    `z`, `y`, `grad` and `work` are float64 and `mask` is bool, all N x C and
    C-contiguous.  `w`, `m` and `scale` = w / (N*C) are per-class vectors,
    or the same tiled to N rows.  Returns the loss and writes the gradient
    into `grad`; `z`, `work` and `mask` are overwritten.  The caller has
    checked that z is finite, the weights in (0, inf) and the margins in
    [0, inf).
    """
    z_adj = np.subtract(z, np.multiply(y, m, out=work), out=z)
    np.greater_equal(z_adj, 0.0, out=mask)
    e = np.abs(z_adj, out=grad)
    np.negative(e, out=e)
    np.exp(e, out=e)
    bce = np.maximum(z_adj, 0.0, out=work)
    spare = np.multiply(z_adj, y, out=z_adj)  # the last read of z'
    bce -= spare
    bce += np.log1p(e, out=spare)
    bce *= w
    loss = float(np.sum(bce) / bce.size)
    one_plus_e = np.add(e, 1.0, out=spare)
    np.putmask(e, mask, 1.0)  # the sigmoid's numerator: 1 where z' >= 0, else e
    sig = np.divide(e, one_plus_e, out=grad)
    sig -= y
    sig *= scale
    return loss
