"""Optimizer step, reconstruction losses, and the inversion loop."""

import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from latentprior import features, generator
from latentprior.errors import NumericalFailure
from latentprior.gaussian import (fit_gaussian, mahalanobis_sq_batch,
                                  mahalanobis_sq_grad_batch, sample_latents)
from latentprior.generator import sample_styles, synthesize_batch, synthesize_vjp_batch
from latentprior.inversion import (
    LOSS_PIXEL,
    LOSS_PROXY,
    SPACE_W,
    SPACE_WPLUS,
    AdamState,
    InversionConfig,
    adam_step,
    invert,
    invert_batch,
    latent_shape,
    objective_and_gradient,
    reconstruction_loss,
    result_to_json,
    w_std_norm,
)
from latentprior.seeding import STREAM_INVERT_NOISE, rng_from
from latentprior.spaces import (SLOPE_V_TO_W, SLOPE_W_TO_V, broadcast_style,
                                lift_rows, lru_deriv, v_to_w, w_to_v)


@pytest.fixture(scope="module")
def target(bundle):
    style = sample_styles(bundle, 31, 1)[0]
    stack = broadcast_style(style, bundle.dims.scales)
    image = synthesize_batch(bundle, stack[None])[0]
    return style, stack, image


class TestAdamStep:
    def test_fresh_state_is_zeroed(self):
        state = AdamState.fresh((3, 2))
        assert state.t == 0
        npt.assert_array_equal(state.m, np.zeros((3, 2)))
        npt.assert_array_equal(state.v, np.zeros((3, 2)))

    def test_first_step_closed_form(self):
        # with zero moments the bias corrections cancel exactly:
        # m_hat = g, v_hat = g*g, delta = -lr * g / (|g| + eps)
        g = np.array([0.5, -2.0, 1e-3])
        lr, eps = 0.1, 1e-8
        state, delta = adam_step(AdamState.fresh(g.shape), g, lr)
        npt.assert_allclose(delta, -lr * g / (np.abs(g) + eps), rtol=1e-14)
        npt.assert_allclose(state.m, 0.1 * g, rtol=1e-15)
        npt.assert_allclose(state.v, 0.001 * g * g, rtol=1e-12)
        assert state.t == 1

    def test_matches_reference_loop(self, rng):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        grads = rng.standard_normal((7, 4))
        state = AdamState.fresh(4)
        deltas = []
        for g in grads:
            state, delta = adam_step(state, g, lr)
            deltas.append(delta)

        # independent reference with explicit running moments
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            step = -lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            npt.assert_allclose(deltas[t - 1], step, rtol=1e-13)

    def test_moments_update_in_place_with_the_bits_of_the_formula(self, rng):
        b1, b2 = 0.9, 0.999
        state = AdamState.fresh((5, 3))
        m_buf, v_buf = state.m, state.v
        m, v = np.zeros((5, 3)), np.zeros((5, 3))
        for g in rng.standard_normal((6, 5, 3)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            state, _ = adam_step(state, g, 0.05)
        assert state.m is m_buf and state.v is v_buf and state.t == 6
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()

    def test_gradient_shape_mismatch(self):
        state = AdamState.fresh((2, 3))
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, np.zeros(6), 0.1)


def _loss(a, b, kind):
    """reconstruction_loss of two single images, as batches of one row."""
    losses, grads = reconstruction_loss(a[None], b[None], kind)
    return losses[0], grads[0]


class TestReconstructionLoss:
    def test_pixel_mse_hand_values(self):
        a = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        b = np.array([[0.0, 2.0, 5.0], [1.0, 1.0, 4.0]])
        losses, grads = reconstruction_loss(a, b, LOSS_PIXEL)
        npt.assert_allclose(losses, [5.0 / 3.0, 3.0], rtol=1e-15)
        npt.assert_allclose(grads, 2.0 * (a - b) / 3.0, rtol=1e-15)

    def test_pixel_gradient_matches_finite_differences(self, rng):
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        _, grad = _loss(a, b, LOSS_PIXEL)
        h = 1e-6
        for i in range(12):
            e = np.zeros(12)
            e[i] = h
            fd = (_loss(a + e, b, LOSS_PIXEL)[0]
                  - _loss(a - e, b, LOSS_PIXEL)[0]) / (2 * h)
            npt.assert_allclose(grad[i], fd, rtol=1e-7, atol=1e-12)

    def test_proxy_zero_for_identical_images(self, rng):
        a = rng.standard_normal(64)
        loss, grad = _loss(a, a.copy(), LOSS_PROXY)
        assert loss == 0.0
        npt.assert_array_equal(grad, np.zeros(64))

    def test_proxy_positive_for_different_images(self, rng):
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        loss, _ = _loss(a, b, LOSS_PROXY)
        assert loss > 0.0

    def test_proxy_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        net = features.proxy_net(64)
        # pick a probe comfortably away from the activation kinks
        a = b = None
        for _ in range(50):
            cand = rng.standard_normal(64)
            if features.min_preactivation_gap(net, cand) > 1e-3:
                a = cand
                b = rng.standard_normal(64)
                break
        assert a is not None
        _, grad = _loss(a, b, LOSS_PROXY)
        h = 1e-6
        for _ in range(5):
            d = rng.standard_normal(64)
            d /= np.linalg.norm(d)
            fd = (_loss(a + h * d, b, LOSS_PROXY)[0]
                  - _loss(a - h * d, b, LOSS_PROXY)[0]) / (2 * h)
            npt.assert_allclose(grad @ d, fd, rtol=1e-5, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            reconstruction_loss(np.zeros((1, 4)), np.zeros((1, 5)), LOSS_PIXEL)
        with pytest.raises(ValueError, match="mismatch"):
            reconstruction_loss(np.zeros(4), np.zeros(4), LOSS_PIXEL)

    def test_unknown_loss_kind_rejected(self):
        with pytest.raises(ValueError, match="loss_kind"):
            reconstruction_loss(np.zeros((1, 4)), np.zeros((1, 4)), "ssim")


class TestConfig:
    def test_per_space_defaults(self):
        cfg_w = InversionConfig(target_space=SPACE_W)
        cfg_p = InversionConfig(target_space=SPACE_WPLUS)
        assert (cfg_w.resolved_learning_rate, cfg_w.resolved_iterations) == (0.1, 1000)
        assert (cfg_p.resolved_learning_rate, cfg_p.resolved_iterations) == (0.05, 10000)

    def test_explicit_values_override_defaults(self):
        cfg = InversionConfig(target_space=SPACE_W, learning_rate=0.3, iterations=7)
        assert cfg.resolved_learning_rate == 0.3
        assert cfg.resolved_iterations == 7

    @pytest.mark.parametrize("kwargs", [
        {"target_space": "z"},
        {"prior_weight": -1e-3},
        {"loss_kind": "ssim"},
        {"iterations": 0},
        {"noise_ramp_fraction": 0.0},
        {"noise_ramp_fraction": 1.5},
        {"noise_initial_std": -0.1},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InversionConfig(**kwargs)


class TestWStdNorm:
    def test_deterministic_and_positive(self, fitted_model):
        a = w_std_norm(fitted_model)
        b = w_std_norm(fitted_model)
        assert a == b
        assert a > 0.0

    def test_matches_a_monte_carlo_oracle(self, fitted_model):
        # the squared norm is the total W variance; its estimate from n
        # draws is the mean of each row's squared deviation, whose
        # standard error is their std / sqrt(n)
        n = 200_000
        ws = v_to_w(sample_latents(fitted_model, 2024, n))
        sq_dev = np.sum((ws - ws.mean(axis=0)) ** 2, axis=1)
        total = sq_dev.sum() / (n - 1)
        stderr = sq_dev.std(ddof=1) / np.sqrt(n)
        assert abs(w_std_norm(fitted_model) ** 2 - total) <= 4.0 * stderr

    def test_zero_mean_hand_case(self):
        # m = 0: Var W = s^2 (1 + a^2) / 2 - s^2 (1 - a)^2 / (2 pi) per coordinate
        s2 = np.array([0.25, 1.0, 4.0])
        # a zero-mean fit, its covariance set so that cov_v + eps I = diag(s2)
        model = fit_gaussian(np.zeros((2, 3)), np.zeros((2, 3)))
        model = replace(model, cov_v=np.diag(s2) - model.epsilon * np.eye(3))
        a = SLOPE_V_TO_W
        var = s2 * (1 + a * a) / 2 - s2 * (1 - a) ** 2 / (2 * np.pi)
        assert w_std_norm(model) == pytest.approx(np.sqrt(var.sum()), rel=1e-14)


class TestObjective:
    def test_weight_zero_equals_reconstruction_loss(self, bundle, fitted_model, target):
        style, stack, image = target
        cfg = InversionConfig(target_space=SPACE_W, prior_weight=0.0)
        probe = style + 0.05
        total, _ = objective_and_gradient(image, bundle, fitted_model, cfg, probe)
        recon = synthesize_batch(
            bundle, broadcast_style(probe, bundle.dims.scales)[None])[0]
        loss, _ = _loss(recon, image, LOSS_PIXEL)
        assert total == loss

    def test_total_splits_into_loss_plus_prior(self, bundle, fitted_model, target):
        style, stack, image = target
        weight = 3e-4
        cfg = InversionConfig(target_space=SPACE_WPLUS, prior_weight=weight)
        probe = stack + 0.03
        total, _ = objective_and_gradient(image, bundle, fitted_model, cfg, probe)
        recon = synthesize_batch(bundle, probe[None])[0]
        loss, _ = _loss(recon, image, LOSS_PIXEL)
        prior = float(np.sum(mahalanobis_sq_batch(fitted_model, w_to_v(probe))))
        npt.assert_allclose(total, loss + weight * prior, rtol=1e-14)

    @pytest.mark.parametrize("space", [SPACE_W, SPACE_WPLUS])
    def test_gradient_matches_finite_differences(self, bundle, fitted_model,
                                                 target, space):
        _, stack, image = target
        cfg = InversionConfig(target_space=space, prior_weight=1e-4)
        rng = np.random.default_rng(5)
        shape = stack.shape if space == SPACE_WPLUS else stack.shape[1:]
        probe = (stack if space == SPACE_WPLUS else stack[0]) \
            + 0.1 * rng.standard_normal(shape)
        _, grad = objective_and_gradient(image, bundle, fitted_model, cfg, probe)
        h = 1e-6
        for _ in range(3):
            d = rng.standard_normal(shape)
            d /= np.linalg.norm(d)
            up, _ = objective_and_gradient(image, bundle, fitted_model, cfg,
                                           probe + h * d)
            dn, _ = objective_and_gradient(image, bundle, fitted_model, cfg,
                                           probe - h * d)
            npt.assert_allclose(np.sum(grad * d), (up - dn) / (2 * h),
                                rtol=1e-4, atol=1e-10)

    @pytest.mark.parametrize("loss_kind", [LOSS_PIXEL, LOSS_PROXY])
    def test_w_is_the_one_row_case_of_wplus(self, bundle, fitted_model, target,
                                            loss_kind):
        # a W latent drives the same stack as its broadcast W+ stack, so the
        # objectives agree bit for bit and the W gradient is the W+ gradient
        # summed over the scales
        style, _, image = target
        probe = style + 0.05
        cfg_w = InversionConfig(target_space=SPACE_W, prior_weight=0.0,
                                loss_kind=loss_kind)
        cfg_p = InversionConfig(target_space=SPACE_WPLUS, prior_weight=0.0,
                                loss_kind=loss_kind)
        total_w, grad_w = objective_and_gradient(image, bundle, fitted_model,
                                                 cfg_w, probe)
        total_p, grad_p = objective_and_gradient(
            image, bundle, fitted_model, cfg_p,
            broadcast_style(probe, bundle.dims.scales))
        npt.assert_array_equal(total_w, total_p)
        npt.assert_array_equal(grad_w, grad_p.sum(axis=0))

    def test_latent_shape_rejected(self, bundle, fitted_model, target):
        _, _, image = target
        cfg = InversionConfig(target_space=SPACE_W)
        with pytest.raises(ValueError, match="latent shape"):
            objective_and_gradient(image, bundle, fitted_model, cfg,
                                   np.zeros((2, bundle.dims.latent_dim)))


class TestInvert:
    def test_exact_optimum_is_a_fixed_point(self, bundle, fitted_model, target):
        # at the true latent the pixel gradient is exactly zero, so with the
        # noise ramp off the iterate must not move at all
        _, stack, image = target
        cfg = InversionConfig(
            target_space=SPACE_WPLUS, prior_weight=0.0, learning_rate=0.05,
            iterations=4, noise_initial_std=0.0,
        )
        (result,) = invert_batch([image], bundle, fitted_model, cfg, [0], [stack])
        npt.assert_array_equal(result.latent, stack)
        assert result.final_image_error == 0.0
        npt.assert_array_equal(result.loss_trace, np.zeros(4))

    def test_recovers_target_from_mean_start(self, bundle, fitted_model, target):
        _, stack, image = target
        mean_image = synthesize_batch(
            bundle, broadcast_style(fitted_model.mean_w, bundle.dims.scales)[None])[0]
        start_error, _ = _loss(mean_image, image, LOSS_PIXEL)
        cfg = InversionConfig(target_space=SPACE_W, prior_weight=0.0,
                              learning_rate=0.1, iterations=250, seed=3)
        result = invert(image, bundle, fitted_model, cfg)
        assert result.latent.shape == (bundle.dims.latent_dim,)
        assert result.final_image_error < 0.05 * start_error

    def test_trace_lengths_and_prior_trace(self, bundle, fitted_model, target):
        _, _, image = target
        cfg = InversionConfig(target_space=SPACE_W, prior_weight=0.0, iterations=6)
        result = invert(image, bundle, fitted_model, cfg)
        assert result.iterations_run == 6
        assert result.loss_trace.shape == (6,)
        npt.assert_array_equal(result.prior_trace, np.zeros(6))

        cfg_p = InversionConfig(target_space=SPACE_W, prior_weight=1e-4, iterations=6)
        with_prior = invert(image, bundle, fitted_model, cfg_p)
        assert np.all(with_prior.prior_trace > 0)

    @pytest.mark.parametrize("space", [SPACE_W, SPACE_WPLUS])
    def test_one_forward_pass_per_iteration(self, bundle, fitted_model, target,
                                            space, monkeypatch):
        # k iterations of forward + backward, then one forward for the
        # final image
        _, _, image = target
        calls = []
        forward = generator._forward

        def counting(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(generator, "_forward", counting)
        cfg = InversionConfig(target_space=space, iterations=5)
        invert(image, bundle, fitted_model, cfg)
        assert len(calls) == 5 + 1

    @pytest.mark.parametrize("space", [SPACE_W, SPACE_WPLUS])
    def test_proxy_target_is_embedded_once(self, bundle, fitted_model, target,
                                           space, monkeypatch):
        # one feature pass per iteration, one for the final image and one
        # for the fixed target
        _, _, image = target
        calls = []
        preactivations = features._preactivations

        def counting(*args, **kwargs):
            calls.append(1)
            return preactivations(*args, **kwargs)

        monkeypatch.setattr(features, "_preactivations", counting)
        cfg = InversionConfig(target_space=space, iterations=5, loss_kind=LOSS_PROXY)
        invert(image, bundle, fitted_model, cfg)
        assert len(calls) == 5 + 2

    @pytest.mark.parametrize("space", [SPACE_W, SPACE_WPLUS])
    def test_returns_the_image_of_its_latent(self, bundle, fitted_model, target,
                                             space):
        _, _, image = target
        cfg = InversionConfig(target_space=space, iterations=3)
        result = invert(image, bundle, fitted_model, cfg)
        latent = result.latent
        stack = latent if space == SPACE_WPLUS \
            else broadcast_style(latent, bundle.dims.scales)
        npt.assert_array_equal(result.final_image,
                               synthesize_batch(bundle, stack[None])[0])
        assert result.final_image_error == _loss(result.final_image, image,
                                                 LOSS_PIXEL)[0]

    def test_wplus_latent_shape(self, bundle, fitted_model, target):
        _, _, image = target
        cfg = InversionConfig(target_space=SPACE_WPLUS, iterations=3)
        result = invert(image, bundle, fitted_model, cfg)
        assert result.latent.shape == (bundle.dims.scales, bundle.dims.latent_dim)

    def test_divergence_raises_numerical_failure(self, bundle, fitted_model, target):
        # (prior weight, learning rate); with the prior on, the diverged
        # latent reaches the prior energy, which must not raise anything else
        _, _, image = target
        for weight, lr in ((0.0, 1e120), (1e-4, 1e308)):
            cfg = InversionConfig(
                target_space=SPACE_W, prior_weight=weight, learning_rate=lr,
                iterations=10, noise_initial_std=0.0,
            )
            with pytest.raises(NumericalFailure) as exc:
                invert(image, bundle, fitted_model, cfg)
            assert exc.value.iteration is not None
            assert exc.value.iteration >= 1

    @pytest.mark.parametrize("weight", [0.0, 1e-4])
    def test_divergence_in_the_last_step_raises(self, bundle, fitted_model, target,
                                                weight):
        # the one step is finite, the latent it lands on is not
        _, _, image = target
        cfg = InversionConfig(target_space=SPACE_W, prior_weight=weight,
                              learning_rate=1e308, iterations=1)
        with pytest.raises(NumericalFailure) as exc:
            invert(image, bundle, fitted_model, cfg)
        assert exc.value.iteration == 1

    def test_target_shape_rejected(self, bundle, fitted_model):
        cfg = InversionConfig(target_space=SPACE_W, iterations=1)
        with pytest.raises(ValueError, match="target"):
            invert(np.zeros(7), bundle, fitted_model, cfg)

    def test_model_dimension_mismatch_rejected(self, bundle, target):
        _, _, image = target
        rng = np.random.default_rng(0)
        vs = rng.standard_normal((50, 5))
        small = fit_gaussian(vs, vs)
        cfg = InversionConfig(target_space=SPACE_W, iterations=1)
        with pytest.raises(ValueError, match="dim"):
            invert(image, bundle, small, cfg)

    def test_init_latent_shape_rejected(self, bundle, fitted_model, target):
        _, _, image = target
        cfg = InversionConfig(target_space=SPACE_W, iterations=1)
        with pytest.raises(ValueError, match="latent shape"):
            invert_batch([image], bundle, fitted_model, cfg, [0],
                         [np.zeros((2, bundle.dims.latent_dim))])


def _lone_invert(target, bundle, model, cfg, init_latent=None):
    """The batch-1 loop that invert ran before it became invert_batch at
    n = 1, kept as the oracle of its bits. Returns (latent, loss trace,
    prior trace, final image, final image error)."""
    shape = latent_shape(cfg.target_space, bundle.dims)
    start = np.broadcast_to(model.mean_w, shape) if init_latent is None else init_latent
    rows = np.array(start, dtype=np.float64).reshape(-1, shape[-1])
    s = bundle.dims.scales

    def loss_fn(images):
        return reconstruction_loss(images, target[None], cfg.loss_kind)

    iterations = cfg.resolved_iterations
    noise_rng = rng_from(cfg.seed, STREAM_INVERT_NOISE)
    sigma0 = cfg.noise_initial_std * w_std_norm(model)
    state = AdamState.fresh(rows.shape)
    losses, priors = [], []
    for t in range(iterations):
        std_t = sigma0 * max(0.0, 1.0 - t / (cfg.noise_ramp_fraction * iterations)) ** 2
        eval_rows = rows
        if std_t > 0:
            eval_rows = rows + std_t * noise_rng.standard_normal(rows.shape)
        _, loss, g_stacks = synthesize_vjp_batch(bundle, lift_rows(eval_rows[None], s),
                                                 loss_fn)
        grad = g_stacks[0].reshape(rows.shape[0], -1, shape[-1]).sum(axis=1)
        prior = 0.0
        if cfg.prior_weight > 0:
            vs = w_to_v(eval_rows)
            prior = float(np.sum(mahalanobis_sq_batch(model, vs)))
            g_prior = mahalanobis_sq_grad_batch(model, vs) \
                * lru_deriv(eval_rows, SLOPE_W_TO_V)
            grad = grad + cfg.prior_weight * g_prior
        losses.append(loss[0])
        priors.append(prior)
        state, delta = adam_step(state, grad, cfg.resolved_learning_rate)
        rows = rows + delta
    image = synthesize_batch(bundle, lift_rows(rows[None], s))
    return (rows.reshape(shape), np.array(losses), np.array(priors), image[0],
            loss_fn(image)[0][0])


def _assert_bitwise(result, reference):
    latent, losses, priors, image, error = reference
    assert result.latent.tobytes() == latent.tobytes()
    assert result.loss_trace.tobytes() == losses.tobytes()
    assert result.prior_trace.tobytes() == priors.tobytes()
    assert result.final_image.tobytes() == image.tobytes()
    assert result.final_image_error == error


@pytest.fixture(scope="module")
def pool(bundle):
    """Five target images of mapped styles, one style at every scale."""
    styles = sample_styles(bundle, 41, 5)
    return synthesize_batch(bundle, lift_rows(styles[:, None, :], bundle.dims.scales))


class TestInvertBatch:
    @pytest.mark.parametrize("space", [SPACE_W, SPACE_WPLUS])
    @pytest.mark.parametrize("weight", [0.0, 1e-4])
    @pytest.mark.parametrize("loss_kind", [LOSS_PIXEL, LOSS_PROXY])
    def test_batch_of_one_is_the_lone_loop_bit_for_bit(self, bundle, fitted_model,
                                                       pool, space, weight, loss_kind):
        cfg = InversionConfig(target_space=space, prior_weight=weight,
                              loss_kind=loss_kind, iterations=8, seed=17)
        reference = _lone_invert(pool[0], bundle, fitted_model, cfg)
        (batched,) = invert_batch(pool[:1], bundle, fitted_model, cfg, [17])
        _assert_bitwise(batched, reference)
        _assert_bitwise(invert(pool[0], bundle, fitted_model, cfg), reference)

    @pytest.mark.parametrize("space", [SPACE_W, SPACE_WPLUS])
    def test_batch_of_one_with_a_start_is_the_lone_loop(self, bundle, fitted_model,
                                                        pool, space):
        cfg = InversionConfig(target_space=space, prior_weight=1e-4, iterations=8,
                              seed=5)
        shape = latent_shape(space, bundle.dims)
        start = fitted_model.mean_w + 0.1 * np.random.default_rng(9).standard_normal(shape)
        reference = _lone_invert(pool[1], bundle, fitted_model, cfg, start)
        (batched,) = invert_batch(pool[1:2], bundle, fitted_model, cfg, [5], [start])
        _assert_bitwise(batched, reference)

    @pytest.mark.parametrize("space", [SPACE_W, SPACE_WPLUS])
    @pytest.mark.parametrize("loss_kind", [LOSS_PIXEL, LOSS_PROXY])
    def test_batch_agrees_with_lone_inversions(self, bundle, fitted_model, pool,
                                               space, loss_kind):
        # BLAS rounds a batch of 5 differently from 5 batches of one, so
        # the problems agree to rounding, not bit for bit
        cfg = InversionConfig(target_space=space, prior_weight=1e-4,
                              loss_kind=loss_kind, iterations=30)
        seeds = [3, 1, 4, 1, 5]
        batched = invert_batch(pool, bundle, fitted_model, cfg, seeds)
        for target, seed, res in zip(pool, seeds, batched):
            lone = invert(target, bundle, fitted_model,
                          replace(cfg, seed=seed))
            npt.assert_allclose(res.final_image_error, lone.final_image_error,
                                rtol=1e-9)
            npt.assert_allclose(res.latent, lone.latent, rtol=1e-9)
            npt.assert_allclose(res.loss_trace, lone.loss_trace, rtol=1e-9)

    def test_each_problem_keeps_its_own_noise_stream(self, bundle, fitted_model, pool):
        # one target twice: the copies differ only by their seeds, and each
        # follows the lone inversion with its seed
        cfg = InversionConfig(target_space=SPACE_WPLUS, iterations=12)
        twice = np.stack([pool[2], pool[2]])
        a, b = invert_batch(twice, bundle, fitted_model, cfg, [7, 8])
        swapped = invert_batch(twice, bundle, fitted_model, cfg, [8, 7])
        assert np.max(np.abs(a.latent - b.latent)) > 1e-6
        for res, seed in ((a, 7), (b, 8), (swapped[1], 7), (swapped[0], 8)):
            lone = invert(pool[2], bundle, fitted_model, replace(cfg, seed=seed))
            npt.assert_allclose(res.latent, lone.latent, rtol=1e-9)

    @pytest.mark.parametrize("weight", [0.0, 1e-4])
    def test_a_diverged_problem_leaves_the_others_bit_for_bit(self, bundle,
                                                              fitted_model, pool,
                                                              weight):
        cfg = InversionConfig(target_space=SPACE_W, prior_weight=weight, iterations=10)
        seeds = [11, 12, 13, 14]
        benign = [fitted_model.mean_w + 0.01 * k for k in range(4)]
        blown = list(benign)
        blown[1] = np.full(bundle.dims.latent_dim, 1e200)
        reference = invert_batch(pool[:4], bundle, fitted_model, cfg, seeds, benign)
        results = invert_batch(pool[:4], bundle, fitted_model, cfg, seeds, blown)
        failure = results[1]
        assert isinstance(failure, NumericalFailure)
        assert failure.iteration == 0
        assert str(failure).startswith("inversion diverged at iteration 0 ")
        for i in (0, 2, 3):
            for name in ("latent", "loss_trace", "prior_trace", "final_image"):
                assert getattr(results[i], name).tobytes() == \
                    getattr(reference[i], name).tobytes()
            assert results[i].final_image_error == reference[i].final_image_error

    def test_every_problem_diverged_returns_every_failure(self, bundle, fitted_model,
                                                          pool):
        cfg = InversionConfig(target_space=SPACE_WPLUS, iterations=5)
        start = np.full(latent_shape(SPACE_WPLUS, bundle.dims), 1e200)
        results = invert_batch(pool[:2], bundle, fitted_model, cfg, [0, 1],
                               [start, start])
        assert [type(r) for r in results] == [NumericalFailure] * 2
        assert [r.iteration for r in results] == [0, 0]

    def test_a_last_step_divergence_fails_at_iteration_iterations(self, bundle,
                                                                  fitted_model, pool):
        # one enormous step leaves every latent finite but its image's loss nan
        cfg = InversionConfig(target_space=SPACE_W, iterations=1, learning_rate=1e308)
        last = (1, "inversion diverged in its last step (loss=nan)")
        results = invert_batch(pool[:3], bundle, fitted_model, cfg, [0, 1, 2])
        assert [type(r) for r in results] == [NumericalFailure] * 3
        assert [(r.iteration, str(r)) for r in results] == [last] * 3
        # beside a problem that diverges at its start
        starts = [fitted_model.mean_w] * 3
        starts[1] = np.full(bundle.dims.latent_dim, 1e200)
        results = invert_batch(pool[:3], bundle, fitted_model, cfg, [0, 1, 2], starts)
        assert [type(r) for r in results] == [NumericalFailure] * 3
        assert [(r.iteration, str(r)) for r in results] == [
            last, (0, "inversion diverged at iteration 0 (loss=nan, prior=inf)"), last]

    def test_lone_divergence_raises_its_one_line_message(self, bundle, fitted_model,
                                                         pool):
        # the first step lands every coordinate near the float limit
        cfg = InversionConfig(target_space=SPACE_W, iterations=5, learning_rate=1e308)
        with pytest.raises(NumericalFailure) as exc:
            invert(pool[0], bundle, fitted_model, cfg)
        assert str(exc.value) == \
            "inversion diverged at iteration 1 (loss=nan, prior=nan)"
        assert exc.value.iteration == 1

    def test_arguments_checked(self, bundle, fitted_model, pool):
        cfg = InversionConfig(target_space=SPACE_W, iterations=1)
        with pytest.raises(ValueError, match="targets have shape"):
            invert_batch(pool[:0], bundle, fitted_model, cfg, [])
        with pytest.raises(ValueError, match="seeds"):
            invert_batch(pool[:2], bundle, fitted_model, cfg, [0])
        with pytest.raises(ValueError, match="initial latents"):
            invert_batch(pool[:2], bundle, fitted_model, cfg, [0, 1],
                         [fitted_model.mean_w])
        with pytest.raises(ValueError, match="latent shape"):
            invert_batch(pool[:2], bundle, fitted_model, cfg, [0, 1],
                         [fitted_model.mean_w, fitted_model.mean_w[:3]])


class TestResultJson:
    def test_round_trip_fields(self, bundle, fitted_model, target):
        _, _, image = target
        cfg = InversionConfig(target_space=SPACE_WPLUS, prior_weight=1e-4,
                              iterations=3)
        result = invert(image, bundle, fitted_model, cfg)
        doc = json.loads(result_to_json(result, cfg))
        assert doc["config"]["target_space"] == SPACE_WPLUS
        assert doc["iterations_run"] == 3
        latent = np.asarray(doc["latent"])
        npt.assert_array_equal(latent, result.latent)
        assert len(doc["loss_trace"]) == 3
        assert doc["final_image_error"] == result.final_image_error
