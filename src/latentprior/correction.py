"""Post-hoc latent correction: truncation and PC-space compression.

Truncation pulls a W latent linearly toward the empirical mean,
w' = psi * w + (1 - psi) * mean_w. Compression instead works in the
principal-component coordinates of the fitted V-space Gaussian: any
component whose magnitude exceeds tau * sigma_max is squashed
logarithmically while everything below the threshold is left untouched,
so typical latents pass through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianModel
from .spaces import v_to_w, w_to_v

METHOD_TRUNCATE = "truncation"
METHOD_COMPRESS = "compression"


@dataclass(frozen=True)
class CorrectionConfig:
    method: str = METHOD_COMPRESS
    psi: float = 0.7    # truncation strength, 1 is the identity
    tau: float = 0.5    # compression threshold in units of sigma_max

    def __post_init__(self):
        if self.method not in (METHOD_TRUNCATE, METHOD_COMPRESS):
            raise ValueError(f"unknown correction method {self.method!r}")
        if not 0 <= self.psi <= 1:
            raise ValueError(f"psi must be in [0, 1], got {self.psi}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


def truncate_rows(model: GaussianModel, rows, psi: float) -> np.ndarray:
    """Linear pull toward the W mean, row-wise."""
    arr = np.asarray(rows, dtype=np.float64)
    return psi * arr + (1.0 - psi) * model.mean_w


def to_pc(model: GaussianModel, v) -> np.ndarray:
    """V-space coordinates to principal-component coordinates (row-wise)."""
    arr = np.asarray(v, dtype=np.float64)
    return (arr - model.mean_v) @ model.eigvecs


def from_pc(model: GaussianModel, vp) -> np.ndarray:
    arr = np.asarray(vp, dtype=np.float64)
    return arr @ model.eigvecs.T + model.mean_v


def compression_threshold(model: GaussianModel, tau: float) -> float:
    return tau * model.sigma_max


def compress_values(values, threshold: float) -> np.ndarray:
    """Elementwise logarithmic squash of magnitudes beyond ``threshold``.

    Identity below the threshold; above it the magnitude m maps to
    threshold * (ln(m / threshold) + 1), which matches value and slope
    at the threshold, so the map is C1.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    arr = np.asarray(values, dtype=np.float64)
    mag = np.abs(arr)
    # ratio clipped to 1 keeps the log finite at 0; those entries take
    # the identity branch anyway.
    squashed = threshold * (np.log(np.maximum(mag, threshold) / threshold) + 1.0)
    return np.where(mag > threshold, np.sign(arr) * squashed, arr)


def compress_rows(model: GaussianModel, rows, tau: float) -> np.ndarray:
    """W rows -> V -> PC coordinates -> squash -> back to W."""
    vp = to_pc(model, w_to_v(rows))
    vp = compress_values(vp, compression_threshold(model, tau))
    return v_to_w(from_pc(model, vp))


def correct_rows(model: GaussianModel, rows, config: CorrectionConfig) -> np.ndarray:
    """Apply the configured correction to a batch of W rows."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.dim:
        raise ValueError(f"expected (n, {model.dim}) rows, got {arr.shape}")
    if config.method == METHOD_TRUNCATE:
        return truncate_rows(model, arr, config.psi)
    return compress_rows(model, arr, config.tau)

