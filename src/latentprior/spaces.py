"""Latent representations and the maps between them.

Three coordinate systems appear throughout the package:

* W: the raw d-dimensional style space produced by the mapping network.
* V: the corrected space, image of W under lru, the package's one leaky
  ReLU, with slope 5.0. Every generator activation is lru with slope 0.2,
  so this undoes the mapping network's last one and makes the latent
  distribution approximately Gaussian, which is what the prior and the PCA
  analysis rely on.
* W+: a stack of s independent styles, one per synthesis scale.

Latents are plain float64 numpy arrays: shape (d,) for a single style,
(s, d) for a stack; inversion's (r, d) latent rows (r = 1 for W, s for W+)
become a stack by lift_rows. The prior energy over W+ is block-diagonal
(identical Gaussian per scale), so it is evaluated row-wise and summed
rather than by materializing the s*d x s*d Kronecker matrix. Latent rows
are stored in the .lat container, or its JSON twin, of formats.
"""

from __future__ import annotations

import numpy as np

from .gaussian import GaussianModel, mahalanobis_sq_batch

# Negative slopes of the two inverse leaky ReLUs. 0.2 * 5.0 is not exactly 1
# in binary floating point; round trips are exact to within 4 ulp.
SLOPE_W_TO_V = 5.0
SLOPE_V_TO_W = 0.2


def lru(x, slope: float, out=None, work=None) -> np.ndarray:
    """Elementwise leaky ReLU: x where x >= 0, slope * x otherwise.

    The larger of x and slope * x for slope < 1, the smaller for slope > 1:
    the bits of np.where(x >= 0, x, slope * x), NaN and signed zeros
    included. ``out`` (float64, may be x) takes the result in place;
    ``work`` (float64, x's shape) takes slope * x in place of a new
    temporary.
    """
    if slope <= 0:
        raise ValueError(f"slope must be positive, got {slope}")
    arr = np.asarray(x, dtype=np.float64)
    pick = np.maximum if slope < 1 else np.minimum
    return pick(arr, np.multiply(arr, slope, out=work), out=out)


def lru_deriv(x, slope: float) -> np.ndarray:
    """Derivative of lru; the subgradient at exactly 0 is 1 (positive branch).

    The bits of np.where(x >= 0, 1.0, slope), NaN included, at a fifth of
    its cost.
    """
    return (np.asarray(x) >= 0) * (1.0 - slope) + slope


def w_to_v(w) -> np.ndarray:
    """Map W to the corrected space V (slope 5.0)."""
    return lru(w, SLOPE_W_TO_V)


def v_to_w(v) -> np.ndarray:
    """Map V back to W (slope 0.2)."""
    return lru(v, SLOPE_V_TO_W)


def broadcast_style(w, scales: int) -> np.ndarray:
    """Stack one style into an (s, d) matrix of identical rows."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a single (d,) style, got shape {arr.shape}")
    if scales < 1:
        raise ValueError(f"scales must be >= 1, got {scales}")
    return lift_rows(arr[None], scales)


def lift_rows(rows, scales: int) -> np.ndarray:
    """Lift (..., r, d) latent rows to (..., s, d) stacks; a row spans s / r scales."""
    return np.repeat(rows, scales // rows.shape[-2], axis=-2)


def lift_rows_adjoint(stack_grad, rows: int) -> np.ndarray:
    """Adjoint of lift_rows for (..., s, d) gradients: the sum over each row's scales."""
    lead, d = stack_grad.shape[:-2], stack_grad.shape[-1]
    return stack_grad.reshape(lead + (rows, -1, d)).sum(axis=-2)


def mahalanobis_sq_plus(model: GaussianModel, stack) -> float:
    """Block-diagonal prior energy over a style stack.

    Equals the Mahalanobis energy under the Kronecker covariance
    I_s (x) cov, computed as the sum of per-row energies in V.
    """
    arr = np.asarray(stack, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.dim:
        raise ValueError(f"expected shape (s, {model.dim}), got {arr.shape}")
    return float(np.sum(mahalanobis_sq_batch(model, w_to_v(arr))))
