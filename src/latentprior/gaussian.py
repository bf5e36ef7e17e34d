"""Gaussian model of the corrected latent distribution.

The distribution of latents in the corrected space V is modeled as a single
multivariate Gaussian with empirical mean and covariance. A model is stored
as its sufficient statistics: those two, the empirical W-space mean
(truncation blends toward it) and the sample count. from_statistics derives
the rest, for a fit and a load alike: the eigendecomposition of the
covariance (for principal-component work), a Cholesky factor L of the
regularized covariance (for sampling), and on first use its inverse L^{-1}
(for energies).

Energies and their gradients whiten by L^{-1}, computed once per model;
the covariance itself is never inverted.

A Gaussian is its sufficient statistics: moments() gives the (mean, cov)
pair that fit_gaussian fits from, and frechet_distance compares two such
pairs, so a Frechet feature distance needs no model.

model_to_json and model_from_json turn a model into model.json's text and
back; the JSON itself, and every file, is written and read by formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputFormatError
from .formats import json_array, json_object, json_text, read, write
from .seeding import STREAM_SAMPLES, rng_from

# Relative regularization added to the covariance diagonal before the
# Cholesky factorization: eps = EPS_SCALE * trace(cov) / dim.
EPS_SCALE = 1e-6
# Absolute floor so zero-variance data still yields a usable factor.
EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class GaussianModel:
    """Fitted Gaussian over V-space latents.

    model.json stores dim, mean_v, cov_v, mean_w and sample_count;
    eigvecs, eigvals, chol and epsilon are derived from them.

    Attributes:
        dim: latent dimensionality d.
        mean_v: (d,) empirical mean in V.
        cov_v: (d, d) empirical covariance in V (unbiased, symmetric PSD).
        eigvecs: (d, d) orthonormal eigenvectors of cov_v, columns sorted by
            descending eigenvalue, sign-fixed so each column's
            largest-magnitude entry is positive.
        eigvals: (d,) eigenvalues, descending, clamped to >= 0.
        chol: (d, d) lower Cholesky factor of cov_v + epsilon * I.
        mean_w: (d,) empirical mean of the same samples in W.
        sample_count: number of samples used for the fit.
        epsilon: diagonal regularization used for chol.
    """

    dim: int
    mean_v: np.ndarray
    cov_v: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray
    chol: np.ndarray
    mean_w: np.ndarray
    sample_count: int
    epsilon: float

    @property
    def sigma_max(self) -> float:
        """Largest per-component standard deviation, sqrt of eigvals[0]."""
        return float(np.sqrt(self.eigvals[0]))

    @cached_property
    def chol_inv(self) -> np.ndarray:
        """(d, d) lower-triangular L^{-1}, computed on first use."""
        return np.tril(np.linalg.inv(self.chol))


def _as_sample_matrix(samples, name: str) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def moments(samples):
    """(mean, cov) of (n, d) samples, n >= 2: the unbiased (n-1) covariance,
    symmetrized."""
    x = _as_sample_matrix(samples, "samples")
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples to fit, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    return mean, (cov + cov.T) / 2.0


def fit_gaussian(samples_v, samples_w) -> GaussianModel:
    """Fit mean/covariance in V (by moments) plus the empirical W mean.

    Rows of ``samples_v`` and ``samples_w`` must correspond: row i of
    ``samples_v`` is the V-map of row i of ``samples_w``.
    """
    sw = _as_sample_matrix(samples_w, "samples_w")
    if np.shape(samples_v) != sw.shape:
        raise ValueError(
            f"samples_v shape {np.shape(samples_v)} != samples_w shape {sw.shape}"
        )
    mean_v, cov = moments(samples_v)
    return from_statistics(mean_v, cov, sw.mean(axis=0), sw.shape[0])


def from_statistics(mean_v, cov, mean_w, sample_count: int) -> GaussianModel:
    """The model of the sufficient statistics: its PC basis, epsilon and
    Cholesky factor are derived here and nowhere else."""
    d = len(mean_v)
    trace = float(np.trace(cov))
    if not math.isfinite(trace):
        raise ValueError("cov_v overflows: its trace is not finite")
    eps = max(EPS_SCALE * trace / d, EPS_FLOOR)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals = np.clip(vals[order], 0.0, None)
    vecs = vecs[:, order]
    # Deterministic sign: largest-magnitude entry of each column positive.
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)]
    # C order: the last bits of to_pc depend on the basis's layout, and
    # every projection output was recorded with a C-ordered one
    vecs = np.ascontiguousarray(vecs * np.where(top < 0, -1.0, 1.0))
    return GaussianModel(
        dim=d,
        mean_v=mean_v,
        cov_v=cov,
        eigvecs=vecs,
        eigvals=vals,
        chol=np.linalg.cholesky(cov + eps * np.eye(d)),
        mean_w=mean_w,
        sample_count=sample_count,
        epsilon=eps,
    )


def _whiten(model: GaussianModel, vs) -> np.ndarray:
    """L^{-1} (v - mu) for every row of an (n, d) array, as (n, d) rows.

    Non-finite rows give non-finite energies, for the caller to judge.
    """
    arr = np.asarray(vs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.dim:
        raise ValueError(f"expected shape (n, {model.dim}), got {arr.shape}")
    return (arr - model.mean_v) @ model.chol_inv.T


def mahalanobis_sq_and_grad_batch(model: GaussianModel, vs):
    """Row-wise (n,) energies (v - mu)^T (cov + eps I)^{-1} (v - mu) and their
    (n, d) gradients 2 (cov + eps I)^{-1} (v - mu), from one whitening."""
    y = _whiten(model, vs)
    return np.einsum("ij,ij->i", y, y), 2.0 * y @ model.chol_inv


def mahalanobis_sq_batch(model: GaussianModel, vs) -> np.ndarray:
    """The (n,) energies of mahalanobis_sq_and_grad_batch."""
    return mahalanobis_sq_and_grad_batch(model, vs)[0]


def mahalanobis_sq_grad_batch(model: GaussianModel, vs) -> np.ndarray:
    """The (n, d) gradients of mahalanobis_sq_and_grad_batch."""
    return mahalanobis_sq_and_grad_batch(model, vs)[1]


def sample_latents(model: GaussianModel, seed, n: int) -> np.ndarray:
    """Draw n rows mu + chol @ xi with xi standard normal.

    ``seed`` is an integer (expanded through the package's stream splitting)
    or an existing numpy Generator.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = rng_from(seed, STREAM_SAMPLES)
    xi = rng.standard_normal((n, model.dim))
    return model.mean_v + xi @ model.chol.T


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root with negative eigenvalues clamped to zero."""
    sym = (mat + mat.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(g1, g2) -> float:
    """Frechet (Wasserstein-2) distance between two Gaussians given as
    (mean, cov) pairs, e.g. from moments().

    ||mu1 - mu2||^2 + Tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}).
    """
    (mu1, s1), (mu2, s2) = g1, g2
    if len(mu1) != len(mu2):
        raise ValueError(f"dimension mismatch: {len(mu1)} vs {len(mu2)}")
    # a metric is exactly zero on identical arguments; the trace formula
    # only gets there up to rounding, so short-circuit the exact case
    if np.array_equal(mu1, mu2) and np.array_equal(s1, s2):
        return 0.0
    diff = mu1 - mu2
    s1_half = _psd_sqrt(s1)
    cross = _psd_sqrt(s1_half @ s2 @ s1_half)
    val = float(diff @ diff + np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross))
    return max(val, 0.0)


def validate_model(model: GaussianModel) -> None:
    """Raise ValueError if the model violates its structural invariants.

    Reconstruction tolerances are relative to the largest entry of
    cov_v + eps I (absolute below 1), so fits of data at any scale pass; a
    NaN fails every check.
    """
    d = model.dim
    e, lam = model.eigvecs, model.eigvals
    if not (np.all(np.diff(lam) <= 0) and np.all(lam >= 0)):
        raise ValueError("eigvals must be nonnegative and non-increasing")
    if not np.max(np.abs(e.T @ e - np.eye(d))) <= 1e-10:
        raise ValueError("eigenvectors are not orthonormal")
    target = model.cov_v + model.epsilon * np.eye(d)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(target))))
    if not np.max(np.abs((e * lam) @ e.T - model.cov_v)) <= tol:
        raise ValueError("eigendecomposition does not reconstruct cov_v")
    if not np.max(np.abs(model.chol @ model.chol.T - target)) <= tol:
        raise ValueError("chol does not factor cov_v + eps I")


# --- serialization ---------------------------------------------------------
#
# model.json holds the sufficient statistics only, cov_v flat row-major; the
# loader derives the rest with from_statistics, as the fit does, and ignores
# other keys (older files also hold eigvals, eigvecs and epsilon).

_MODEL_KEYS = ("dim", "sample_count", "mean_v", "mean_w", "cov_v")


def model_to_json(model: GaussianModel) -> str:
    doc = {k: getattr(model, k) for k in _MODEL_KEYS}
    return json_text({**doc, "cov_v": model.cov_v.ravel()})


def model_from_json(data: str | bytes) -> GaussianModel:
    doc = json_object(data, "model")
    missing = [k for k in _MODEL_KEYS if k not in doc]
    if missing:
        raise InputFormatError(f"model JSON missing keys: {missing}")
    # np.linalg.LinAlgError (covariance not positive definite) is a ValueError
    try:
        d, sample_count = doc["dim"], doc["sample_count"]
        if not (type(d) is int and d >= 1 and type(sample_count) is int
                and sample_count >= 2):
            raise ValueError("dim must be an integer >= 1 and sample_count "
                             "an integer >= 2")
        mean_v, mean_w = (json_array(doc[k], d, k) for k in ("mean_v", "mean_w"))
        cov_v = json_array(doc["cov_v"], (d, d), "cov_v")
        if not all(np.all(np.isfinite(a)) for a in (mean_v, mean_w, cov_v)):
            raise ValueError("non-finite values")
        # values near the float limit overflow to inf or NaN, which fail
        # from_statistics's trace check or validate_model's checks; no
        # warning reaches stderr
        with np.errstate(over="ignore", invalid="ignore"):
            model = from_statistics(mean_v, cov_v, mean_w, sample_count)
            validate_model(model)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InputFormatError(f"malformed model: {exc}") from exc
    return model


def save_model(model: GaussianModel, path) -> None:
    write(path, model_to_json(model))


def load_model(path) -> GaussianModel:
    return model_from_json(read(path))
