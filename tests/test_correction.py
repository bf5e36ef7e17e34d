"""Truncation and PC-space compression of latents."""

import numpy as np
import numpy.testing as npt
import pytest

from latentprior.correction import (
    METHOD_COMPRESS,
    METHOD_TRUNCATE,
    CorrectionConfig,
    compress_rows,
    compress_values,
    compression_threshold,
    correct_rows,
    from_pc,
    to_pc,
    truncate_rows,
)
from latentprior.gaussian import fit_gaussian, sample_latents
from latentprior.spaces import v_to_w, w_to_v


@pytest.fixture(scope="module")
def model():
    # correlated, non-centered V data with the real V -> W map, so the
    # pipeline tests exercise a consistent pair of spaces
    rng = np.random.default_rng(42)
    mix = rng.standard_normal((5, 5)) * 0.4 + np.eye(5)
    vs = rng.standard_normal((600, 5)) @ mix.T + np.array([0.5, -1.0, 0.2, 0.0, 2.0])
    return fit_gaussian(vs, v_to_w(vs))


@pytest.fixture(scope="module")
def rows(model):
    return v_to_w(sample_latents(model, 7, 40))


class TestConfig:
    def test_defaults(self):
        cfg = CorrectionConfig()
        assert cfg.method == METHOD_COMPRESS
        assert cfg.psi == 0.7
        assert cfg.tau == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"method": "clipping"},
        {"psi": -0.1},
        {"psi": 1.1},
        {"tau": 0.0},
        {"tau": -2.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CorrectionConfig(**kwargs)


class TestTruncation:
    def test_psi_one_is_the_identity(self, model, rows):
        npt.assert_array_equal(truncate_rows(model, rows, 1.0), rows)

    def test_psi_zero_collapses_to_the_mean(self, model, rows):
        out = truncate_rows(model, rows, 0.0)
        npt.assert_array_equal(out, np.tile(model.mean_w, (rows.shape[0], 1)))

    def test_zero_row_lands_at_scaled_mean(self, model):
        out = truncate_rows(model, np.zeros((1, model.dim)), 0.7)
        npt.assert_allclose(out[0], 0.3 * model.mean_w, rtol=1e-15)

    def test_mean_is_a_fixed_point(self, model):
        out = truncate_rows(model, model.mean_w[None], 0.7)
        npt.assert_allclose(out[0], model.mean_w, rtol=1e-15)

    def test_covariance_scales_quadratically(self, model):
        big = v_to_w(sample_latents(model, 11, 4000))
        out = truncate_rows(model, big, 0.6)
        npt.assert_allclose(np.cov(out.T), 0.36 * np.cov(big.T), rtol=1e-10)

    def test_mean_interpolates_linearly(self, model, rows):
        out = truncate_rows(model, rows, 0.8)
        expected = 0.8 * rows.mean(axis=0) + 0.2 * model.mean_w
        npt.assert_allclose(out.mean(axis=0), expected, rtol=1e-12)


class TestPcBasis:
    def test_round_trip(self, model, rng):
        v = model.mean_v + rng.standard_normal((30, model.dim))
        npt.assert_allclose(from_pc(model, to_pc(model, v)), v, rtol=1e-12)

    def test_mean_maps_to_origin(self, model):
        npt.assert_array_equal(to_pc(model, model.mean_v[None]),
                               np.zeros((1, model.dim)))

    def test_eigvec_offsets_hit_single_coordinates(self, model):
        for i in range(model.dim):
            vp = to_pc(model, model.mean_v + 2.5 * model.eigvecs[:, i])
            expected = np.zeros(model.dim)
            expected[i] = 2.5
            npt.assert_allclose(vp, expected, atol=1e-12)


class TestCompressValues:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="threshold"):
            compress_values(np.zeros(3), 0.0)

    def test_identity_at_and_below_threshold(self, rng):
        theta = 0.8
        vals = rng.uniform(-theta, theta, size=200)
        vals[0] = theta      # the boundary itself takes the identity branch
        vals[1] = -theta
        npt.assert_array_equal(compress_values(vals, theta), vals)

    def test_log_branch_hand_values(self):
        theta = 0.4
        # m = e * theta gives theta * (ln e + 1) = 2 theta
        npt.assert_allclose(compress_values(np.array([np.e * theta]), theta),
                            [2.0 * theta], rtol=1e-15)
        # m = 10 theta gives theta * (ln 10 + 1)
        npt.assert_allclose(compress_values(np.array([10.0 * theta]), theta),
                            [theta * (np.log(10.0) + 1.0)], rtol=1e-15)

    def test_odd_symmetry(self, rng):
        vals = rng.standard_normal(100) * 3.0
        npt.assert_array_equal(compress_values(-vals, 0.5),
                               -compress_values(vals, 0.5))

    def test_strictly_increasing(self, rng):
        vals = np.sort(np.concatenate([rng.standard_normal(200) * 4.0,
                                       [-0.5, 0.5]]))
        out = compress_values(vals, 0.5)
        assert np.all(np.diff(out) > 0)

    def test_contracts_toward_the_threshold(self, rng):
        theta = 0.3
        vals = np.concatenate([rng.uniform(theta, 50.0, 100),
                               rng.uniform(-50.0, -theta, 100)])
        out = compress_values(vals, theta)
        assert np.all(np.abs(out) <= np.abs(vals))
        assert np.all(np.abs(out) >= theta)

    def test_slope_is_continuous_at_the_threshold(self):
        theta = 0.7
        h = 1e-6 * theta
        lo = (compress_values(np.array([theta - h]), theta)[0]
              - compress_values(np.array([theta - 3 * h]), theta)[0]) / (2 * h)
        hi = (compress_values(np.array([theta + 3 * h]), theta)[0]
              - compress_values(np.array([theta + h]), theta)[0]) / (2 * h)
        straddle = (compress_values(np.array([theta + h]), theta)[0]
                    - compress_values(np.array([theta - h]), theta)[0]) / (2 * h)
        npt.assert_allclose(lo, 1.0, atol=1e-6)
        npt.assert_allclose(hi, 1.0, atol=1e-4)
        npt.assert_allclose(straddle, 1.0, atol=1e-4)


class TestCompressRows:
    def test_single_tail_coordinate_oracle(self, model):
        # one sample pushed 5 sigma along the leading component; tau = 0.5
        # squashes that coordinate to 0.5 sigma (ln 10 + 1), nothing else
        sigma = model.sigma_max
        v = model.mean_v + 5.0 * sigma * model.eigvecs[:, 0]
        out = compress_rows(model, v_to_w(v[None]), 0.5)
        squashed = 0.5 * sigma * (np.log(10.0) + 1.0)
        expected = v_to_w(model.mean_v + squashed * model.eigvecs[:, 0])
        npt.assert_allclose(out[0], expected, rtol=1e-9)

    def test_near_mean_rows_pass_through(self, model, rng):
        # perturbations well under the threshold take the identity branch;
        # only the basis round trip's float error remains
        v = model.mean_v + 0.05 * model.sigma_max * rng.standard_normal((20, model.dim))
        w = v_to_w(v)
        npt.assert_allclose(compress_rows(model, w, 0.5), w, rtol=1e-9, atol=1e-12)

    def test_caps_the_pc_magnitudes(self, model):
        big = v_to_w(sample_latents(model, 13, 2000))
        tau = 0.4
        before = np.abs(to_pc(model, w_to_v(big)))
        after = np.abs(to_pc(model, w_to_v(compress_rows(model, big, tau))))
        assert after.max() < before.max()
        # the squash is applied per coordinate, never expanding one
        assert np.all(after <= before * (1 + 1e-9) + 1e-12)


class TestDispatch:
    def test_correct_rows_matches_the_method_functions(self, model, rows):
        trunc = correct_rows(model, rows, CorrectionConfig(METHOD_TRUNCATE, psi=0.6))
        npt.assert_array_equal(trunc, truncate_rows(model, rows, 0.6))
        comp = correct_rows(model, rows, CorrectionConfig(METHOD_COMPRESS, tau=0.8))
        npt.assert_array_equal(comp, compress_rows(model, rows, 0.8))

    def test_correct_rows_shape_validation(self, model):
        cfg = CorrectionConfig()
        with pytest.raises(ValueError, match="rows"):
            correct_rows(model, np.zeros(model.dim), cfg)
        with pytest.raises(ValueError, match="rows"):
            correct_rows(model, np.zeros((3, model.dim + 1)), cfg)


class TestThreshold:
    def test_scales_with_tau_and_sigma_max(self, model):
        assert compression_threshold(model, 0.5) == 0.5 * model.sigma_max
        assert compression_threshold(model, 2.0) == 2.0 * model.sigma_max
