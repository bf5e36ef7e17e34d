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
rather than by materializing the s*d x s*d Kronecker matrix.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import InputFormatError
from .gaussian import (GaussianModel, finite_output, json_array, json_text,
                       mahalanobis_sq_batch)

# Negative slopes of the two inverse leaky ReLUs. 0.2 * 5.0 is not exactly 1
# in binary floating point; round trips are exact to within 4 ulp.
SLOPE_W_TO_V = 5.0
SLOPE_V_TO_W = 0.2


def lru(x, slope: float, out=None) -> np.ndarray:
    """Elementwise leaky ReLU: x where x >= 0, slope * x otherwise.

    The larger of x and slope * x for slope < 1, the smaller for slope > 1:
    the bits of np.where(x >= 0, x, slope * x), NaN and signed zeros
    included. ``out`` (float64, may be x) takes the result in place.
    """
    if slope <= 0:
        raise ValueError(f"slope must be positive, got {slope}")
    arr = np.asarray(x, dtype=np.float64)
    pick = np.maximum if slope < 1 else np.minimum
    return pick(arr, slope * arr, out=out)


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


# --- latent container format ----------------------------------------------
#
# Binary: 16-byte header (magic "LATV", version u32, rows u32, dim u32, all
# little-endian) followed by rows*dim little-endian float64, row-major. The
# rows axis holds the scales of a W+ stack or the entries of a batch of
# single styles, depending on context. A JSON twin exists for inspection.

_MAGIC = b"LATV"
_VERSION = 1


def _as_rows(latents) -> np.ndarray:
    arr = np.asarray(latents, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"latents must be (d,) or (rows, d), got {arr.shape}")
    return arr


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise InputFormatError("latent container holds non-finite values")
    return arr


def latents_to_bytes(latents) -> bytes:
    arr = finite_output(_as_rows(latents))
    rows, dim = arr.shape
    header = _MAGIC + struct.pack("<III", _VERSION, rows, dim)
    return header + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def latents_from_bytes(data: bytes) -> np.ndarray:
    if len(data) < 16 or data[:4] != _MAGIC:
        raise InputFormatError("not a latent container (bad magic)")
    version, rows, dim = struct.unpack("<III", data[4:16])
    if version != _VERSION:
        raise InputFormatError(f"unsupported latent container version {version}")
    expected = 16 + rows * dim * 8
    if len(data) != expected:
        raise InputFormatError(
            f"latent container size {len(data)} != expected {expected}"
        )
    flat = np.frombuffer(data, dtype="<f8", offset=16)
    return _finite(flat.astype(np.float64).reshape(rows, dim))


def latents_to_json(latents) -> str:
    arr = _as_rows(latents)
    rows, dim = arr.shape
    return json_text({"rows": rows, "dim": dim, "values": arr.ravel()})


def latents_from_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
        rows, dim = doc["rows"], doc["dim"]
        if not all(type(n) is int and n >= 0 for n in (rows, dim)):
            raise ValueError("rows and dim must be non-negative integers")
        arr = json_array(doc["values"], (rows, dim), "values")
    except (json.JSONDecodeError, KeyError, ValueError, TypeError,
            OverflowError) as exc:
        raise InputFormatError(f"invalid latent JSON: {exc}") from exc
    return _finite(arr)


def write_latents(path, latents) -> None:
    """Write a latent container; '.json' paths get the JSON twin."""
    if str(path).endswith(".json"):
        with open(path, "w") as fh:
            fh.write(latents_to_json(latents))
    else:
        with open(path, "wb") as fh:
            fh.write(latents_to_bytes(latents))


def read_latents(path) -> np.ndarray:
    """Read a latent container, sniffing binary vs JSON. Returns (rows, d)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == _MAGIC:
        return latents_from_bytes(data)
    try:
        return latents_from_json(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputFormatError("not a latent container") from exc
