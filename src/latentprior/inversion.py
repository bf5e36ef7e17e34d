"""Latent inversion: recover the style that generated a target image.

Minimizes loss(G(latent), target) + weight * prior(latent) with ADAM over
W (one style at every scale) or W+ (one style per scale), as one case: a
latent is (r, d) rows, r = 1 for W and s for W+, that lift_rows turns into
the (s, d) stack; public latents are (d,) for W and (s, d) for W+. The
prior is the Gaussian energy in the corrected space V, summed over the
rows. The loss is built once per target, and each iteration makes one
synthesize_vjp_batch call: one forward pass, whose image feeds the loss,
then the backward pass. Optimization starts at the empirical W mean and,
following the usual projector recipe, perturbs the latent with ramped-down
Gaussian noise during the early iterations: the noise enters the forward
evaluation only, the update is applied to the clean latent.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import features
from .errors import NumericalFailure
from .gaussian import (
    GaussianModel,
    mahalanobis_sq_batch,
    mahalanobis_sq_grad_batch,
    sample_latents,
)
from .generator import (GeneratorBundle, GeneratorDims, synthesize_batch,
                        synthesize_vjp_batch)
from .seeding import STREAM_INVERT_NOISE, STREAM_W_STD, rng_from
from .spaces import (SLOPE_W_TO_V, lift_rows, lift_rows_adjoint, lru_deriv,
                     v_to_w, w_to_v)

SPACE_W = "w"
SPACE_WPLUS = "wplus"
LOSS_PIXEL = "pixel-mse"
LOSS_PROXY = "random-feature-proxy"

_DEFAULT_LR = {SPACE_W: 0.1, SPACE_WPLUS: 0.05}
_DEFAULT_ITERATIONS = {SPACE_W: 1000, SPACE_WPLUS: 10000}

# The per-coordinate std of W used to scale the noise ramp is estimated by
# sampling the fitted model; the estimate is a property of the model alone,
# so the seed and sample count are package constants.
_W_STD_SEED = 7919
_W_STD_SAMPLES = 4096


@dataclass(frozen=True)
class NoiseRamp:
    initial_std_factor: float = 0.05
    ramp_fraction: float = 0.75

    def __post_init__(self):
        if not 0 < self.ramp_fraction <= 1:
            raise ValueError(f"ramp_fraction must be in (0, 1], got {self.ramp_fraction}")
        if self.initial_std_factor < 0:
            raise ValueError("initial_std_factor must be nonnegative")


@dataclass(frozen=True)
class AdamParams:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class InversionConfig:
    """Everything invert() needs besides the target and the networks.

    learning_rate and iterations default to the per-space values
    (0.1 / 1000 for W, 0.05 / 10000 for W+) when left as None.
    """

    target_space: str = SPACE_W
    prior_weight: float = 1e-4
    learning_rate: float | None = None
    iterations: int | None = None
    noise_ramp: NoiseRamp = field(default_factory=NoiseRamp)
    adam: AdamParams = field(default_factory=AdamParams)
    loss_kind: str = LOSS_PIXEL
    seed: int = 0

    def __post_init__(self):
        if self.target_space not in (SPACE_W, SPACE_WPLUS):
            raise ValueError(f"unknown target_space {self.target_space!r}")
        if self.prior_weight < 0:
            raise ValueError("prior_weight must be nonnegative")
        if self.loss_kind not in (LOSS_PIXEL, LOSS_PROXY):
            raise ValueError(f"unknown loss_kind {self.loss_kind!r}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    @property
    def resolved_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return _DEFAULT_LR[self.target_space]

    @property
    def resolved_iterations(self) -> int:
        if self.iterations is not None:
            return self.iterations
        return _DEFAULT_ITERATIONS[self.target_space]


@dataclass(frozen=True)
class InversionResult:
    latent: np.ndarray        # (d,) for W, (s, d) for W+
    loss_trace: np.ndarray    # reconstruction loss per iteration
    prior_trace: np.ndarray   # prior energy per iteration (zeros when weight 0)
    final_image_error: float  # reconstruction loss at the returned latent
    iterations_run: int
    final_image: np.ndarray   # (pixels,) image of the returned latent


def latent_shape(space: str, dims: GeneratorDims) -> tuple[int, ...]:
    """Public shape of a latent: (d,) for W, (s, d) for W+."""
    if space == SPACE_WPLUS:
        return (dims.scales, dims.latent_dim)
    return (dims.latent_dim,)


def _pixel_embedding(images):
    """The pixel loss's embedding: the identity, with the identity pullback."""
    return images, lambda cotangents: cotangents


def _row_loss(targets: np.ndarray, loss_kind: str):
    """reconstruction_loss against fixed targets as ``loss_fn(images)``.

    The targets are embedded once, here; each call embeds its images and
    pulls the gradient back through that same pass.
    """
    if loss_kind == LOSS_PIXEL:
        embed_vjp = _pixel_embedding
    elif loss_kind == LOSS_PROXY:
        embed_vjp = partial(features.embed_vjp, features.proxy_net(targets.shape[1]))
    else:
        raise ValueError(f"unknown loss_kind {loss_kind!r}")
    target_feats, _ = embed_vjp(targets)

    def loss_fn(images):
        feats, pullback = embed_vjp(images)
        diff = feats - target_feats
        return np.mean(diff * diff, axis=1), pullback(2.0 * diff / diff.shape[1])

    return loss_fn


def reconstruction_loss(images, targets, loss_kind: str):
    """Row-wise losses and gradients for two (n, pixels) image batches.

    Returns (losses, grads): losses[i] compares images[i] with targets[i],
    and grads[i] is its gradient with respect to images[i]. pixel-mse is
    the mean squared pixel difference. The proxy loss is the mean squared
    difference of fixed random-network features, a stand-in for a
    perceptual distance.
    """
    a = np.asarray(images, dtype=np.float64)
    b = np.asarray(targets, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"image batch shape mismatch: {a.shape} vs {b.shape}")
    return _row_loss(b, loss_kind)(a)


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def fresh(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), 0)


def adam_step(state: AdamState, gradient, lr: float, beta1: float,
              beta2: float, eps: float):
    """One bias-corrected ADAM update. Returns (new state, parameter delta)."""
    g = np.asarray(gradient, dtype=np.float64)
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} != state shape {state.m.shape}")
    t = state.t + 1
    m = beta1 * state.m + (1 - beta1) * g
    v = beta2 * state.v + (1 - beta2) * g * g
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    delta = -lr * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(m, v, t), delta


def w_std_norm(model: GaussianModel) -> float:
    """Norm of the per-coordinate W std, estimated by sampling the model."""
    rng = rng_from(_W_STD_SEED, STREAM_W_STD)
    ws = v_to_w(sample_latents(model, rng, _W_STD_SAMPLES))
    return float(np.linalg.norm(ws.std(axis=0, ddof=1)))


def _eval_objective(loss_fn, bundle, model, prior_weight: float, rows):
    """Loss, prior energy, and total gradient at (r, d) latent rows (no noise)."""
    stacks = lift_rows(rows[None], bundle.dims.scales)
    _, losses, g_stacks = synthesize_vjp_batch(bundle, stacks, loss_fn)
    grad = lift_rows_adjoint(g_stacks[0], rows.shape[0])

    prior = 0.0
    if prior_weight > 0:
        vs = w_to_v(rows)
        prior = float(np.sum(mahalanobis_sq_batch(model, vs)))
        g_prior = mahalanobis_sq_grad_batch(model, vs) * lru_deriv(rows, SLOPE_W_TO_V)
        grad = grad + prior_weight * g_prior
    return float(losses[0]), prior, grad


def _rows_of(latent, shape: tuple[int, ...]) -> np.ndarray:
    """A copy of a latent of the public ``shape`` as (r, d) rows."""
    arr = np.array(latent, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"latent shape {arr.shape}, expected {shape}")
    return arr.reshape(-1, shape[-1])


def objective_and_gradient(target_image, bundle: GeneratorBundle,
                           model: GaussianModel, config: InversionConfig,
                           latent):
    """Total objective loss + weight * prior and its gradient at ``latent``."""
    shape = latent_shape(config.target_space, bundle.dims)
    target = np.asarray(target_image, dtype=np.float64)
    loss_fn = _row_loss(target[None], config.loss_kind)
    loss, prior, grad = _eval_objective(loss_fn, bundle, model, config.prior_weight,
                                        _rows_of(latent, shape))
    return loss + config.prior_weight * prior, grad.reshape(shape)


def invert(target_image, bundle: GeneratorBundle, model: GaussianModel,
           config: InversionConfig, init_latent=None) -> InversionResult:
    """Solve the inversion problem for one target image.

    ``init_latent`` overrides the default start at the empirical W mean
    (on every row); the override is what oracle-mode experiments use.
    """
    target = np.asarray(target_image, dtype=np.float64)
    if target.shape != (bundle.dims.pixels,):
        raise ValueError(
            f"target has shape {target.shape}, expected ({bundle.dims.pixels},)"
        )
    if model.dim != bundle.dims.latent_dim:
        raise ValueError(
            f"model dim {model.dim} != generator latent dim {bundle.dims.latent_dim}"
        )
    shape = latent_shape(config.target_space, bundle.dims)
    start = np.broadcast_to(model.mean_w, shape) if init_latent is None else init_latent
    rows = _rows_of(start, shape)
    loss_fn = _row_loss(target[None], config.loss_kind)

    iterations = config.resolved_iterations
    lr = config.resolved_learning_rate
    ramp = config.noise_ramp
    noise_rng = rng_from(config.seed, STREAM_INVERT_NOISE)
    sigma0 = ramp.initial_std_factor * w_std_norm(model) \
        if ramp.initial_std_factor > 0 else 0.0

    state = AdamState.fresh(rows.shape)
    loss_trace = np.zeros(iterations)
    prior_trace = np.zeros(iterations)

    for t in range(iterations):
        decay = max(0.0, 1.0 - t / (ramp.ramp_fraction * iterations)) ** 2
        std_t = sigma0 * decay
        if std_t > 0:
            eval_rows = rows + std_t * noise_rng.standard_normal(rows.shape)
        else:
            eval_rows = rows
        loss, prior, grad = _eval_objective(loss_fn, bundle, model,
                                            config.prior_weight, eval_rows)
        if not np.isfinite(loss) or not np.isfinite(prior):
            raise NumericalFailure(
                f"inversion diverged at iteration {t} (loss={loss}, prior={prior})",
                iteration=t,
            )
        loss_trace[t] = loss
        prior_trace[t] = prior
        state, delta = adam_step(state, grad, lr, config.adam.beta1,
                                 config.adam.beta2, config.adam.eps)
        rows = rows + delta

    final_image = synthesize_batch(bundle, lift_rows(rows[None], bundle.dims.scales))
    final_errors, _ = loss_fn(final_image)
    return InversionResult(
        latent=rows.reshape(shape),
        loss_trace=loss_trace,
        prior_trace=prior_trace,
        final_image_error=float(final_errors[0]),
        iterations_run=iterations,
        final_image=final_image[0],
    )


def result_to_json(result: InversionResult, config: InversionConfig) -> str:
    """Inversion result plus the full config, for provenance."""
    doc = {
        "config": asdict(config),
        "latent": np.asarray(result.latent).tolist(),
        "loss_trace": result.loss_trace.tolist(),
        "prior_trace": result.prior_trace.tolist(),
        "final_image_error": result.final_image_error,
        "iterations_run": result.iterations_run,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
