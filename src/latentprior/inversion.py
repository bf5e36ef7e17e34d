"""Latent inversion: recover the style that generated a target image.

Minimizes loss(G(latent), target) + weight * prior(latent) with ADAM over
W (one style at every scale) or W+ (one style per scale), as one case: a
latent is (r, d) rows, r = 1 for W and s for W+, that lift_rows turns into
the (s, d) stack; public latents are (d,) for W and (s, d) for W+. The
prior is the Gaussian energy in the corrected space V, summed over the
rows. Optimization starts at the empirical W mean and, following the
usual projector recipe, perturbs the latent with ramped-down Gaussian
noise during the early iterations: the noise enters the forward
evaluation only, the update is applied to the clean latent. The ramp's
scale is the norm of the per-coordinate W std, exact from the model's
moments (W is a leaky ReLU of the Gaussian V), with no draw.

invert_batch solves n such problems in lockstep over (n, r, d) rows. The
loss is built once for all n targets, and each iteration makes one
synthesize_vjp_batch call (one forward pass, whose images feed the loss,
then the backward pass), one prior whitening of the (n * r, d) rows and
one ADAM step on the batch state. Each problem has its own noise stream
and moments and reads nothing of the others; one that diverges is
frozen, with its update masked to zero. It returns one InversionResult
whose arrays hold every problem along axis 0. invert is the case n = 1,
and it alone raises NumericalFailure for a diverged problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import features
from .errors import NumericalFailure
from .formats import json_text
from .gaussian import GaussianModel, mahalanobis_sq_and_grad_batch
# not called here: the benchmark's tracer (perfbench/spans.py) wraps them
# under these names, and tests/test_benchmark_names.py pins them
from .gaussian import (mahalanobis_sq_batch, mahalanobis_sq_grad_batch,  # noqa: F401
                       sample_latents)
from .generator import (GeneratorBundle, GeneratorDims, synthesize_batch,
                        synthesize_vjp_batch)
from .seeding import STREAM_INVERT_NOISE, rng_from
from .spaces import (SLOPE_V_TO_W, SLOPE_W_TO_V, lift_rows, lift_rows_adjoint,
                     lru_deriv, w_to_v)

SPACE_W = "w"
SPACE_WPLUS = "wplus"
LOSS_PIXEL = "pixel-mse"
LOSS_PROXY = "random-feature-proxy"

_DEFAULT_LR = {SPACE_W: 0.1, SPACE_WPLUS: 0.05}
_DEFAULT_ITERATIONS = {SPACE_W: 1000, SPACE_WPLUS: 10000}

# ADAM moment decays and denominator guard, the usual defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    noise_initial_std: float = 0.05    # times the W std norm
    noise_ramp_fraction: float = 0.75  # of the iterations, over which it falls to 0
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
        if self.learning_rate is not None and self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.noise_initial_std < 0:
            raise ValueError("noise_initial_std must be nonnegative")
        if not 0 < self.noise_ramp_fraction <= 1:
            raise ValueError("noise_ramp_fraction must be in (0, 1], "
                             f"got {self.noise_ramp_fraction}")

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
    """n inversion problems solved together; axis 0 of each array is the problem."""

    # (n, d) for W, (n, s, d) for W+; a diverged row may be non-finite and
    # must never be written
    latents: np.ndarray
    loss_trace: np.ndarray          # (n, iterations) reconstruction loss
    prior_trace: np.ndarray         # (n, iterations) prior energy, 0 when weight 0
    final_image_errors: np.ndarray  # (n,) reconstruction loss at the returned latent
    final_images: np.ndarray        # (n, pixels) image of the returned latent
    # (n,) -1 for a solved problem, else its first iteration with a
    # non-finite loss or prior, or `iterations` when only the final loss is
    diverged_at: np.ndarray
    iterations_run: int  # kept as a field: perfbench's inversion work counter reads it


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


@dataclass
class AdamState:
    """ADAM moments and step count; adam_step updates them in place."""

    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def fresh(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), 0)


def adam_step(state: AdamState, gradient, lr: float):
    """One bias-corrected ADAM update of state in place, by the ADAM_* constants.

    Returns (state, parameter delta). The moments take the bits of
    beta * moment + (1 - beta) * ..., without a new array per step.
    """
    g = np.asarray(gradient, dtype=np.float64)
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} != state shape {state.m.shape}")
    state.t += 1
    m, v, t = state.m, state.v, state.t
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g * g
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    delta = -lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state, delta


def w_std_norm(model: GaussianModel) -> float:
    """Norm of the per-coordinate W std under the model, in closed form.

    Coordinate j of V is N(m, s^2), with s^2 from the diagonal of
    cov_v + eps I (= chol chol^T, what sample_latents draws from), and
    W = lru(V, a). With u = m / s, P = Phi(-u) and phi = phi(u):
    E[W] = m - (1 - a)(m P - s phi) and
    E[W^2] = m^2 + s^2 - (1 - a^2)((m^2 + s^2) P - m s phi).
    """
    a = SLOPE_V_TO_W
    m = model.mean_v
    var = np.diag(model.cov_v) + model.epsilon
    s = np.sqrt(var)
    u = m / s
    tail = np.array([0.5 * math.erfc(x / math.sqrt(2.0)) for x in u.tolist()])
    dens = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    mean_w = m - (1 - a) * (m * tail - s * dens)
    second = m * m + var - (1 - a * a) * ((m * m + var) * tail - m * s * dens)
    return float(np.linalg.norm(np.sqrt(second - mean_w * mean_w)))


def _eval_objective(loss_fn, bundle, model, prior_weight: float, rows):
    """Losses, prior energies and total gradients at (n, r, d) latent rows.

    Returns (n,) losses, (n,) priors (zeros when the weight is 0) and the
    (n, r, d) gradients; row i depends on problem i alone.
    """
    n, r, d = rows.shape
    stacks = lift_rows(rows, bundle.dims.scales)
    _, losses, g_stacks = synthesize_vjp_batch(bundle, stacks, loss_fn)
    grad = lift_rows_adjoint(g_stacks, r)

    priors = np.zeros(n)
    if prior_weight > 0:
        energies, g_prior = mahalanobis_sq_and_grad_batch(
            model, w_to_v(rows).reshape(n * r, d))
        priors = energies.reshape(n, r).sum(axis=1)
        g_prior = g_prior.reshape(n, r, d) * lru_deriv(rows, SLOPE_W_TO_V)
        grad = grad + prior_weight * g_prior
    return losses, priors, grad


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
    losses, priors, grads = _eval_objective(loss_fn, bundle, model,
                                            config.prior_weight,
                                            _rows_of(latent, shape)[None])
    return float(losses[0] + config.prior_weight * priors[0]), grads[0].reshape(shape)


# a diverging latent overflows on its way to a non-finite loss; the isfinite
# checks report that, so numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def invert_batch(targets, bundle: GeneratorBundle, model: GaussianModel,
                 config: InversionConfig, seeds, init_latents=None) -> InversionResult:
    """Solve one inversion problem per row of ``targets`` (n, pixels), in lockstep.

    Problem i draws its noise from ``seeds[i]`` (``config.seed`` is not read)
    and starts at ``init_latents[i]``, or at the empirical W mean on every
    row when ``init_latents`` is None. Every iteration evaluates the whole
    batch at once, but no problem reads another's numbers, so each row of
    the result agrees to rounding with a batch of that problem alone. From
    the first iteration with a non-finite loss or prior a problem's update
    is masked to zero, and the others run on unchanged.

    Returns one InversionResult whose rows are the problems; a problem
    diverged where its ``diverged_at`` is >= 0, and nothing is raised.
    """
    targets = np.asarray(targets, dtype=np.float64)
    pixels = bundle.dims.pixels
    if targets.ndim != 2 or targets.shape[0] < 1 or targets.shape[1] != pixels:
        raise ValueError(
            f"targets have shape {targets.shape}, expected (n, {pixels}), n >= 1"
        )
    n = targets.shape[0]
    if len(seeds) != n:
        raise ValueError(f"{len(seeds)} seeds for {n} targets")
    if model.dim != bundle.dims.latent_dim:
        raise ValueError(
            f"model dim {model.dim} != generator latent dim {bundle.dims.latent_dim}"
        )
    shape = latent_shape(config.target_space, bundle.dims)
    if init_latents is None:
        init_latents = [np.broadcast_to(model.mean_w, shape)] * n
    elif len(init_latents) != n:
        raise ValueError(f"{len(init_latents)} initial latents for {n} targets")
    rows = np.stack([_rows_of(latent, shape) for latent in init_latents])
    loss_fn = _row_loss(targets, config.loss_kind)

    iterations = config.resolved_iterations
    lr = config.resolved_learning_rate
    noise_rngs = [rng_from(seed, STREAM_INVERT_NOISE) for seed in seeds]
    noise = np.empty(rows.shape)  # C order: each draw fills its rows in order
    sigma0 = config.noise_initial_std * w_std_norm(model) \
        if config.noise_initial_std > 0 else 0.0

    state = AdamState.fresh(rows.shape)
    loss_trace = np.zeros((iterations, n))  # row t: every problem's iteration t
    prior_trace = np.zeros((iterations, n))
    diverged_at = np.full(n, -1)  # first non-finite iteration; -1 while running

    for t in range(iterations):
        decay = max(0.0, 1.0 - t / (config.noise_ramp_fraction * iterations)) ** 2
        std_t = sigma0 * decay
        if std_t > 0:
            for rng, out in zip(noise_rngs, noise):
                rng.standard_normal(out=out)
            eval_rows = rows + std_t * noise
        else:
            eval_rows = rows
        losses, priors, grad = _eval_objective(loss_fn, bundle, model,
                                               config.prior_weight, eval_rows)
        loss_trace[t] = losses
        prior_trace[t] = priors
        finite = np.isfinite(losses) & np.isfinite(priors)
        diverged_at[(diverged_at < 0) & ~finite] = t
        alive = diverged_at < 0
        if not alive.any():
            break
        state, delta = adam_step(state, grad, lr)
        rows = rows + np.where(alive[:, None, None], delta, 0.0)

    final_images = synthesize_batch(bundle, lift_rows(rows, bundle.dims.scales))
    final_errors, _ = loss_fn(final_images)
    diverged_at[(diverged_at < 0) & ~np.isfinite(final_errors)] = iterations
    return InversionResult(latents=rows.reshape((n,) + shape), loss_trace=loss_trace.T,
                           prior_trace=prior_trace.T, final_image_errors=final_errors,
                           final_images=final_images, diverged_at=diverged_at,
                           iterations_run=iterations)


def invert(target_image, bundle: GeneratorBundle, model: GaussianModel,
           config: InversionConfig) -> InversionResult:
    """Solve the inversion problem for one target image from the empirical
    W mean: invert_batch of that one target, with ``config.seed``.

    A start of one's own is per-problem data, given to invert_batch as
    ``init_latents``. Raises NumericalFailure when the problem diverges.
    """
    result = invert_batch([target_image], bundle, model, config, [config.seed])
    t = int(result.diverged_at[0])
    if t == result.iterations_run:
        raise NumericalFailure("inversion diverged in its last step (loss="
                               f"{float(result.final_image_errors[0])})")
    if t >= 0:
        raise NumericalFailure(f"inversion diverged at iteration {t} "
                               f"(loss={float(result.loss_trace[0, t])}, "
                               f"prior={float(result.prior_trace[0, t])})")
    return result


def result_to_json(result: InversionResult, config: InversionConfig) -> str:
    """Problem 0's latent, traces and final error, the iteration count and
    the config, for provenance."""
    return json_text({"config": config, "latent": result.latents[0],
                      "loss_trace": result.loss_trace[0],
                      "prior_trace": result.prior_trace[0],
                      "final_image_error": result.final_image_errors[0],
                      "iterations_run": result.iterations_run})
