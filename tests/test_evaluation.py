"""Interpolation experiment, feature metrics, profiles, and the tradeoff."""

import json
import sys

import numpy as np
import numpy.testing as npt
import pytest

from latentprior import evaluation
from latentprior.evaluation import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_T_GRID,
    InterpolationConfig,
    TradeoffConfig,
    condition_filename,
    condition_label,
    curve_csv,
    fid_tradeoff,
    interpolation_experiment,
    lambda_sweep,
    latent_error,
    mean_cosine,
    pc_magnitude_profile,
    profile_to_json,
    report_to_json,
    tail_probability,
    tradeoff_to_json,
)
from latentprior.features import FeatureNet, embed
from latentprior.gaussian import fit_gaussian, sample_latents
from latentprior.generator import GeneratorDims, init_generator
from latentprior.inversion import LOSS_PROXY, SPACE_W, SPACE_WPLUS, NoiseRamp
from latentprior.spaces import v_to_w


def quiet_config(**overrides):
    """A small, fast experiment config; overrides replace the defaults."""
    base = dict(
        spaces=(SPACE_W,),
        prior_weights=(0.0,),
        n_images=3,
        n_pairs=2,
        iterations=60,
        learning_rate=0.05,
        seed=0,
    )
    base.update(overrides)
    return InterpolationConfig(**base)


def _no_constant(name):
    """json.loads parse_constant hook: a report must hold no NaN or Infinity."""
    raise ValueError(f"report holds {name}")


class TestLabels:
    def test_condition_label_format(self):
        assert condition_label("w", 0.0) == "w:lambda=0"
        assert condition_label("wplus", 1e-4) == "wplus:lambda=0.0001"

    def test_condition_filename_is_path_safe(self):
        name = condition_filename("w:lambda=0.0001")
        assert name == "curve_w_lambda-0.0001.csv"
        assert ":" not in name and "=" not in name

    def test_default_grids(self):
        assert len(DEFAULT_T_GRID) == 11
        for needed in (0.0, 0.5, 1.0):
            assert needed in DEFAULT_T_GRID
        assert DEFAULT_LAMBDA_GRID[0] == 0.0
        assert list(DEFAULT_LAMBDA_GRID) == sorted(DEFAULT_LAMBDA_GRID)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"spaces": ()},
        {"spaces": ("z",)},
        {"prior_weights": ()},
        {"prior_weights": (-1e-4,)},
        {"n_images": 1},
        {"n_pairs": 0},
        {"loss_kind": "ssim"},
        {"t_grid": (0.0, 1.0)},            # midpoint missing
        {"t_grid": (0.0, 0.5, 1.0, 1.5)},  # outside [0, 1]
        {"prior_weights": (1e-5, 1.000001e-5)},  # one condition label
        {"prior_weights": (0.0, 0.0)},           # one condition label
        {"prior_weights": (0.0, -0.0)},  # -0.0 equals 0.0, labelled apart
        {"iterations": 0},
        {"learning_rate": -0.01},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            quiet_config(**kwargs)

    def test_each_condition_inverts_with_the_shared_settings(self):
        ramp = NoiseRamp(initial_std_factor=0.1)
        cfg = quiet_config(noise_ramp=ramp, loss_kind=LOSS_PROXY)
        inv = cfg.inversion_config(SPACE_WPLUS, 1e-4)
        assert (inv.target_space, inv.prior_weight) == (SPACE_WPLUS, 1e-4)
        assert (inv.learning_rate, inv.iterations) == (0.05, 60)
        assert (inv.noise_ramp, inv.loss_kind) == (ramp, LOSS_PROXY)

    def test_t_grid_normalized_to_floats(self):
        cfg = quiet_config(t_grid=(0, 0.5, 1))
        assert cfg.t_grid == (0.0, 0.5, 1.0)
        assert all(isinstance(t, float) for t in cfg.t_grid)


class TestLatentError:
    def test_euclidean_over_the_full_stack(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert latent_error(a, np.zeros((2, 2))) == 5.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            latent_error(np.zeros(3), np.zeros(4))


class TestOracleStart:
    def test_frozen_oracle_start_reproduces_the_truth(self, bundle, fitted_model):
        # a zero learning rate pins each estimate to its oracle start, so
        # the estimated latents equal the truth bit for bit and every
        # interpolation error vanishes; the per-target image error only has
        # to reach the rounding floor because the pool targets are
        # synthesized in one batch while the optimizer evaluates single
        # latents, which rounds a few pixels differently
        cfg = quiet_config(
            spaces=(SPACE_W, SPACE_WPLUS),
            n_images=4,
            n_pairs=3,
            iterations=1,
            learning_rate=0.0,
            noise_ramp=NoiseRamp(initial_std_factor=0.0),
            oracle_init=True,
            seed=3,
        )
        report = interpolation_experiment(bundle, fitted_model, cfg)
        for condition in report.conditions:
            rec = report.record(condition)
            assert rec.target_ok.all()
            npt.assert_array_equal(rec.latent_errors, np.zeros(4))
            assert np.all(rec.image_errors <= 1e-28)
            npt.assert_array_equal(rec.pair_errors, np.zeros((3, 11)))
            assert report.midpoint_error(condition) == 0.0
            assert report.endpoint_error(condition) == 0.0


@pytest.fixture(scope="module")
def report(bundle, fitted_model):
    cfg = quiet_config(prior_weights=(0.0, 1e-4))
    return interpolation_experiment(bundle, fitted_model, cfg)


class TestSmallExperiment:

    def test_conditions_and_records(self, report):
        assert report.conditions == ("w:lambda=0", "w:lambda=0.0001")
        assert set(report.records) == set(report.conditions)
        with pytest.raises(ValueError, match="condition"):
            report.record("w:lambda=1")

    def test_curve_shapes_and_error_at(self, report):
        for condition in report.conditions:
            mean, std = report.curve(condition)
            assert mean.shape == std.shape == (11,)
            assert report.error_at(condition, 0.5) == mean[5]
            with pytest.raises(ValueError, match="grid"):
                report.error_at(condition, 0.33)

    def test_aggregates_recompute_from_the_record(self, report):
        for condition in report.conditions:
            rec = report.record(condition)
            kept = rec.pair_errors[rec.pair_ok]
            mean, _ = report.curve(condition)
            npt.assert_array_equal(mean, kept.mean(axis=0))
            assert report.endpoint_error(condition) == \
                0.5 * (mean[0] + mean[10])
            assert report.median_latent_error(condition) == \
                np.median(rec.latent_errors[rec.target_ok])
            assert report.mean_image_error(condition) == \
                np.mean(rec.image_errors[rec.target_ok])

    def test_pair_indices_are_valid(self, report):
        for condition in report.conditions:
            rec = report.record(condition)
            assert rec.pair_indices.shape == (2, 2)
            assert rec.pair_indices.min() >= 0
            assert rec.pair_indices.max() < 3
            assert np.all(rec.pair_indices[:, 0] != rec.pair_indices[:, 1])

    def test_pairing_shares_targets_across_weights(self, report):
        a = report.record("w:lambda=0")
        b = report.record("w:lambda=0.0001")
        npt.assert_array_equal(a.pair_indices, b.pair_indices)

    def test_json_round_trip(self, report):
        doc = json.loads(report_to_json(report))
        assert doc["kind"] == "interpolation"
        assert doc["config"]["n_images"] == 3
        assert set(doc["curves"]) == set(report.conditions)
        for condition in report.conditions:
            summary = doc["summary"][condition]
            assert summary["midpoint_error"] == report.midpoint_error(condition)
            assert summary["failed_pairs"] == 0

    def test_curve_csv_layout(self, report, bundle, fitted_model):
        # a t with more than 6 significant digits parses back exactly too
        fine = interpolation_experiment(bundle, fitted_model, quiet_config(
            iterations=5, t_grid=(0.0, 0.1234567, 0.5, 1.0)))
        for rep in (report, fine):
            condition = rep.conditions[0]
            lines = curve_csv(rep, condition).strip().split("\n")
            assert lines[0] == "t,mean_error,std_error,condition"
            assert len(lines) == len(rep.t_grid) + 1
            mean, _ = rep.curve(condition)
            for row, t, m in zip(lines[1:], rep.t_grid, mean):
                cols = row.split(",")
                assert float(cols[0]) == t
                assert float(cols[1]) == m
                assert cols[3] == condition


class TestExperimentArguments:
    def test_config_sets_pairs_and_t_grid(self, bundle, fitted_model):
        cfg = quiet_config(iterations=5, oracle_init=True,
                           noise_ramp=NoiseRamp(initial_std_factor=0.0),
                           n_pairs=1, t_grid=(0.0, 0.5, 1.0))
        report = interpolation_experiment(bundle, fitted_model, cfg)
        assert report.t_grid == (0.0, 0.5, 1.0)
        rec = report.record(report.conditions[0])
        assert rec.pair_errors.shape == (1, 3)

    def test_model_dimension_mismatch_rejected(self, bundle):
        rng = np.random.default_rng(0)
        vs = rng.standard_normal((50, 5))
        small = fit_gaussian(vs, vs)
        with pytest.raises(ValueError, match="dim"):
            interpolation_experiment(bundle, small, quiet_config())

    def test_target_bundle_dims_must_match(self, bundle, fitted_model):
        other = init_generator(9, GeneratorDims(
            latent_dim=32, hidden_dim=64, mapping_layers=2,
            scales=2, channels=4, image_size=8,
        ))
        with pytest.raises(ValueError, match="dims"):
            interpolation_experiment(bundle, fitted_model, quiet_config(),
                                     target_bundle=other)

    def test_diverged_targets_are_masked(self, bundle, fitted_model):
        # every inversion diverges, with the prior on as well as off; the
        # experiment masks the targets instead of aborting
        cfg = quiet_config(prior_weights=(0.0, 1e-4), n_images=2, n_pairs=1,
                           iterations=5, learning_rate=1e308)
        report = interpolation_experiment(bundle, fitted_model, cfg)
        summary = json.loads(report_to_json(report), parse_constant=_no_constant)
        for condition in report.conditions:
            rec = report.record(condition)
            assert not rec.target_ok.any()
            assert rec.n_failed_pairs == 1
            assert report.median_latent_error(condition) is None
            assert report.mean_image_error(condition) is None
            assert report.curve(condition) is None
            assert report.endpoint_error(condition) is None
            assert report.midpoint_error(condition) is None
            assert summary["curves"][condition] is None
            assert summary["summary"][condition]["median_latent_error"] is None
            assert summary["summary"][condition]["mean_image_error"] is None

    def test_out_of_model_targets_run(self, bundle, fitted_model, other_bundle):
        cfg = quiet_config(n_images=2, n_pairs=1, iterations=30)
        report = interpolation_experiment(bundle, fitted_model, cfg,
                                          target_bundle=other_bundle)
        rec = report.record(report.conditions[0])
        assert rec.target_ok.all()
        assert np.all(rec.latent_errors > 0)


class TestLambdaSweep:
    def test_single_weight_equals_plain_experiment(self, bundle, fitted_model):
        grid = (0.0, 1e-4)
        sweep = lambda_sweep(bundle, fitted_model, quiet_config(prior_weights=grid))
        assert list(sweep) == list(grid)
        for lam in grid:
            plain = interpolation_experiment(
                bundle, fitted_model, quiet_config(prior_weights=(lam,)))
            assert report_to_json(sweep[lam]) == report_to_json(plain)

    def test_one_condition_per_weight(self, bundle, fitted_model):
        cfg = quiet_config(n_images=2, n_pairs=1, iterations=20,
                           prior_weights=(0.0, 1e-4))
        sweep = lambda_sweep(bundle, fitted_model, cfg)
        assert list(sweep) == [0.0, 1e-4]
        assert sweep[1e-4].conditions == ("w:lambda=0.0001",)


@pytest.fixture(scope="module")
def passthrough():
    # identity weights, zero biases: the embedding is lru(lru(x)),
    # the identity on nonnegative inputs and 0.04 x on negative ones
    eye = np.eye(4)
    return FeatureNet(w1=eye, b1=np.zeros(4), w2=eye, b2=np.zeros(4))


class TestIdentitySimilarity:
    # mean_cosine over batches of one row of passthrough features

    @staticmethod
    def similarity(a, b, net):
        return mean_cosine(embed(net, a[None]), embed(net, b[None]))

    def test_positive_scaling_keeps_similarity_one(self, passthrough):
        x = np.array([1.0, 2.0, 0.5, 3.0])
        sim = self.similarity(x, 3.0 * x, passthrough)
        assert sim >= 1.0 - 1e-12
        assert sim <= 1.0

    def test_negation_flips_to_minus_one(self, passthrough):
        x = np.array([1.0, 2.0, 0.5, 3.0])
        assert self.similarity(x, -x, passthrough) == -1.0

    def test_orthogonal_images_score_zero(self, passthrough):
        a = np.array([5.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 7.0, 0.0, 0.0])
        assert self.similarity(a, b, passthrough) == 0.0

    def test_zero_feature_norm_scores_zero(self, passthrough):
        a = np.zeros(4)
        b = np.array([1.0, 1.0, 1.0, 1.0])
        assert self.similarity(a, b, passthrough) == 0.0


class TestPcProfile:
    def test_samples_at_the_mean_are_never_flagged(self, fitted_model):
        w = v_to_w(np.tile(fitted_model.mean_v, (8, 1)))
        profile = pc_magnitude_profile(w, fitted_model, k=5, tau=0.5)
        assert profile.flagged.count == 0
        assert profile.unflagged.count == 8
        assert profile.flagged_fraction == 0.0
        npt.assert_array_equal(profile.flagged.mean, np.zeros(5))

    def test_constructed_tail_sample_is_flagged(self, fitted_model):
        sigma = fitted_model.sigma_max
        v_tail = fitted_model.mean_v + 5.0 * sigma * fitted_model.eigvecs[:, 0]
        w = v_to_w(np.stack([fitted_model.mean_v, v_tail]))
        profile = pc_magnitude_profile(w, fitted_model, k=3, tau=0.5)
        assert profile.flagged.count == 1
        assert profile.unflagged.count == 1
        npt.assert_allclose(profile.flagged.mean[0], 5.0 * sigma, rtol=1e-6)
        # population std of a single sample is zero
        npt.assert_array_equal(profile.flagged.std, np.zeros(3))
        assert profile.threshold == 0.5 * sigma

    def test_k_limits_the_reported_dimensions(self, fitted_model):
        w = v_to_w(np.tile(fitted_model.mean_v, (4, 1)))
        profile = pc_magnitude_profile(w, fitted_model, k=2)
        assert profile.flagged.mean.shape == (2,)
        assert profile.unflagged.mean.shape == (2,)

    @pytest.mark.parametrize("kwargs", [
        {"k": 0},
        {"k": 33},
        {"tau": 0.0},
    ])
    def test_parameter_validation(self, fitted_model, kwargs):
        w = v_to_w(fitted_model.mean_v[None])
        with pytest.raises(ValueError):
            pc_magnitude_profile(w, fitted_model, **{"k": 3, **kwargs})

    def test_shape_validation(self, fitted_model):
        with pytest.raises(ValueError, match="latents"):
            pc_magnitude_profile(np.zeros(32), fitted_model, k=3)
        with pytest.raises(ValueError, match="latents"):
            pc_magnitude_profile(np.zeros((4, 31)), fitted_model, k=3)
        with pytest.raises(ValueError, match="at least one"):
            pc_magnitude_profile(np.zeros((0, 32)), fitted_model, k=3)

    def test_flagged_fraction_matches_the_analytic_tail(self, fitted_model):
        # monte carlo check of the tail probability on model samples
        ws = v_to_w(sample_latents(fitted_model, 1001, 20000))
        for tau in (0.8, 1.2, 2.0):
            frac = pc_magnitude_profile(ws, fitted_model, k=1, tau=tau) \
                .flagged_fraction
            expected = tail_probability(fitted_model, tau)
            assert abs(frac - expected) < 0.02, (tau, frac, expected)

    def test_profile_json(self, fitted_model):
        w = v_to_w(np.tile(fitted_model.mean_v, (4, 1)))
        doc = json.loads(profile_to_json(pc_magnitude_profile(w, fitted_model, k=2)))
        assert doc["kind"] == "pc-profile"
        assert doc["n_samples"] == 4
        assert doc["flagged"]["count"] == 0
        assert len(doc["unflagged"]["mean"]) == 2


class TestTailProbability:
    def test_bounds_and_monotonicity(self, fitted_model):
        taus = (0.25, 0.5, 1.0, 2.0, 4.0)
        probs = [tail_probability(fitted_model, t) for t in taus]
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[0] > 0.9      # far below sigma_max nearly everything flags
        assert probs[-1] < 0.1

    def test_tau_must_be_positive(self, fitted_model):
        with pytest.raises(ValueError, match="tau"):
            tail_probability(fitted_model, 0.0)


@pytest.fixture(scope="module")
def small_report(bundle, fitted_model):
    cfg = TradeoffConfig(psis=(0.7,), n_samples=96, n_identity=32,
                         tau_lo=0.02, max_bisect=30, seed=0)
    return fid_tradeoff(bundle, fitted_model, cfg)


# three points whose bisections share their first steps
SHARED_BRACKET = dict(psis=(0.9, 0.7, 0.5), n_samples=96, n_identity=32,
                      tau_lo=0.02, max_bisect=30, seed=0)


@pytest.fixture(scope="module")
def shared_report(bundle, fitted_model):
    return fid_tradeoff(bundle, fitted_model, TradeoffConfig(**SHARED_BRACKET))


class TestTradeoff:

    def test_report_layout(self, small_report):
        assert small_report.fid_uncorrected > 0
        assert small_report.pixel_std_uncorrected > 0
        assert len(small_report.points) == 1
        p = small_report.points[0]
        assert p.psi == 0.7
        assert 0.02 <= p.tau <= 8.0
        assert p.fid_truncation > 0
        assert -1.0 <= p.identity_truncation <= 1.0
        assert -1.0 <= p.identity_compression <= 1.0

    def test_matched_points_meet_the_tolerance(self, small_report):
        p = small_report.points[0]
        assert p.matched
        assert abs(p.fid_compression - p.fid_truncation) \
            <= 0.05 * p.fid_truncation

    def test_corrections_reduce_diversity(self, small_report):
        p = small_report.points[0]
        assert p.pixel_std_truncation < small_report.pixel_std_uncorrected
        assert p.pixel_std_compression < small_report.pixel_std_uncorrected

    def test_deterministic_across_runs_and_threads(self, bundle, fitted_model,
                                                   shared_report):
        # concurrent points may both compute a tau the memo lacks; the
        # distance is a pure function of tau, so the bytes cannot change
        cfg = TradeoffConfig(**SHARED_BRACKET)
        assert all(p.matched for p in shared_report.points)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the points' memo reads and writes
        try:
            for threads in (2, 3):
                again = fid_tradeoff(bundle, fitted_model, cfg, threads=threads)
                assert tradeoff_to_json(again) == tradeoff_to_json(shared_report)
        finally:
            sys.setswitchinterval(interval)

    # descending, every final tau is new; ascending, the later points end
    # on taus the first point visited and synthesize them once more
    @pytest.mark.parametrize("order", [1, -1], ids=["descending", "ascending"])
    def test_revisited_taus_are_not_synthesized(self, bundle, fitted_model,
                                                monkeypatch, order):
        calls = []
        synthesize = evaluation._style_images
        monkeypatch.setattr(evaluation, "_style_images",
                            lambda b, ws: calls.append(len(ws)) or synthesize(b, ws))
        cfg = TradeoffConfig(**{**SHARED_BRACKET,
                                "psis": SHARED_BRACKET["psis"][::order]})
        report = fid_tradeoff(bundle, fitted_model, cfg)
        visited, final_revisits, steps = set(), 0, 0
        for p in report.points:
            final_revisits += p.tau in visited
            visited.update(tau for tau, _ in p.bisect_trace)
            steps += len(p.bisect_trace)
        # the sample and reference sets, one truncated set per psi, one
        # compressed set per distinct tau, and the images of a final tau
        # that an earlier point had already visited
        fixed = 2 + len(report.points)
        assert len(calls) == fixed + len(visited) + final_revisits
        assert len(calls) < fixed + steps

    def test_points_do_not_depend_on_psi_order(self, bundle, fitted_model,
                                               shared_report):
        cfg = TradeoffConfig(**{**SHARED_BRACKET,
                                "psis": SHARED_BRACKET["psis"][::-1]})
        reversed_report = fid_tradeoff(bundle, fitted_model, cfg)
        assert reversed_report.points == shared_report.points[::-1]

    def test_psi_one_matches_immediately(self, bundle, fitted_model):
        # truncation at psi = 1 changes nothing; the first bisection probe
        # sits far in the tail, so compression changes (almost) nothing
        # either and the match lands at once
        cfg = TradeoffConfig(psis=(1.0,), n_samples=64, n_identity=16,
                             tau_lo=0.02, max_bisect=10, seed=0)
        report = fid_tradeoff(bundle, fitted_model, cfg)
        p = report.points[0]
        assert p.matched
        assert p.fid_truncation == report.fid_uncorrected
        assert p.identity_truncation >= 1.0 - 1e-12
        assert p.identity_compression >= 1.0 - 1e-6

    def test_model_dimension_mismatch_rejected(self, bundle):
        rng = np.random.default_rng(0)
        vs = rng.standard_normal((50, 5))
        small = fit_gaussian(vs, vs)
        with pytest.raises(ValueError, match="dim"):
            fid_tradeoff(bundle, small, TradeoffConfig())

    @pytest.mark.parametrize("kwargs", [
        {"psis": ()},
        {"psis": (1.5,)},
        {"n_samples": 1},
        {"n_identity": 0},
        {"n_identity": 97},
        {"tau_lo": 0.0},
        {"tau_lo": 9.0},
        {"match_tol": 0.0},
        {"match_tol": 1.0},
        {"max_bisect": 0},
    ])
    def test_config_validation(self, kwargs):
        base = dict(psis=(0.7,), n_samples=96, n_identity=32)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TradeoffConfig(**base)

    def test_tradeoff_json(self, small_report):
        doc = json.loads(tradeoff_to_json(small_report))
        assert doc["kind"] == "fid-tradeoff"
        assert doc["config"]["n_samples"] == 96
        assert len(doc["points"]) == 1
        assert doc["points"][0]["psi"] == 0.7

    def test_bisect_trace_ends_at_the_point(self, small_report):
        p = small_report.points[0]
        assert 1 <= len(p.bisect_trace) <= 30  # the fixture's max_bisect
        assert p.bisect_trace[-1] == (p.tau, p.fid_compression)
        # every step is the midpoint of the bracket the earlier steps left
        lo, hi = 0.02, 8.0
        for tau, fid in p.bisect_trace:
            assert tau == 0.5 * (lo + hi)
            lo, hi = (tau, hi) if fid > p.fid_truncation else (lo, tau)
        doc = json.loads(tradeoff_to_json(small_report))
        assert doc["points"][0]["bisect_trace"] == [list(s) for s in p.bisect_trace]
