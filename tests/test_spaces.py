import json
import math

import numpy as np
import pytest

from latentprior import spaces
from latentprior.errors import InputFormatError
from latentprior.gaussian import fit_gaussian


def float_key(x):
    """Order-preserving integer key for a double; keys differ by ulp count."""
    i = int(np.float64(x).view(np.int64))
    return i if i >= 0 else -(i ^ -(2**63))


def ulp_diff(a, b):
    return abs(float_key(a) - float_key(b))


class TestLru:
    def test_positive_branch_identity(self):
        x = np.array([0.0, 1.0, 2.5, 1e300])
        assert np.array_equal(spaces.lru(x, 0.2), x)

    def test_negative_branch_scales(self):
        assert spaces.lru(-2.0, 0.2) == -0.4
        assert spaces.lru(-2.0, 5.0) == -10.0

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError):
            spaces.lru(1.0, 0.0)
        with pytest.raises(ValueError):
            spaces.lru(1.0, -1.0)

    def test_round_trip_within_4_ulp(self, rng):
        x = rng.standard_normal(10000) * 10.0
        back = spaces.lru(spaces.lru(x, 0.2), 5.0)
        assert np.max(np.abs(back - x)) <= 4 * np.spacing(np.abs(x)).max()
        for xi, bi in zip(x[:100], back[:100]):
            assert ulp_diff(xi, bi) <= 4

    def test_round_trip_boundaries(self):
        for val in (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300):
            back = spaces.lru(spaces.lru(val, 0.2), 5.0)
            assert ulp_diff(val, back) <= 4

    def test_deriv_branches(self):
        d = spaces.lru_deriv(np.array([-1.0, 0.0, 1.0]), 0.2)
        assert np.array_equal(d, [0.2, 1.0, 1.0])


class TestMaps:
    def test_w_to_v_to_w_round_trip(self, rng):
        w = rng.standard_normal((50, 8))
        back = spaces.v_to_w(spaces.w_to_v(w))
        np.testing.assert_allclose(back, w, rtol=1e-15, atol=0)

    def test_v_map_only_touches_negatives(self):
        w = np.array([1.5, -2.0])
        v = spaces.w_to_v(w)
        assert v[0] == 1.5 and v[1] == -10.0


class TestBroadcastStyle:
    def test_rows_identical(self, rng):
        w = rng.standard_normal(6)
        stack = spaces.broadcast_style(w, 5)
        assert stack.shape == (5, 6)
        assert np.array_equal(stack, np.tile(w, (5, 1)))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spaces.broadcast_style(np.zeros((2, 3)), 4)
        with pytest.raises(ValueError):
            spaces.broadcast_style(np.zeros(3), 0)


class TestStackEnergy:
    def test_matches_explicit_kronecker(self, rng):
        # Small-case oracle: build the s*d x s*d block covariance explicitly
        # and compare quadratic forms.
        s, d, n = 2, 3, 200
        samples_w = rng.standard_normal((500, d))
        model = fit_gaussian(spaces.w_to_v(samples_w), samples_w)
        reg = model.cov_v + model.epsilon * np.eye(d)
        big = np.kron(np.eye(s), reg)
        big_inv = np.linalg.inv(big)
        mu = np.tile(model.mean_v, s)
        for _ in range(n):
            stack = rng.standard_normal((s, d)) * 2.0
            got = spaces.mahalanobis_sq_plus(model, stack)
            diff = spaces.w_to_v(stack).ravel() - mu
            want = diff @ big_inv @ diff
            assert got == pytest.approx(want, rel=1e-10)

    def test_rejects_wrong_width(self, rng):
        samples_w = rng.standard_normal((100, 4))
        model = fit_gaussian(spaces.w_to_v(samples_w), samples_w)
        with pytest.raises(ValueError):
            spaces.mahalanobis_sq_plus(model, np.zeros((2, 5)))


class TestLatentContainers:
    def test_binary_round_trip(self, rng):
        arr = rng.standard_normal((7, 16))
        back = spaces.latents_from_bytes(spaces.latents_to_bytes(arr))
        assert np.array_equal(back, arr)

    def test_single_latent_becomes_row(self, rng):
        arr = rng.standard_normal(9)
        back = spaces.latents_from_bytes(spaces.latents_to_bytes(arr))
        assert back.shape == (1, 9)
        assert np.array_equal(back[0], arr)

    def test_json_round_trip_exact(self, rng):
        arr = rng.standard_normal((3, 5)) * 1e-7
        back = spaces.latents_from_json(spaces.latents_to_json(arr))
        assert np.array_equal(back, arr)

    def test_bad_magic_rejected(self):
        with pytest.raises(InputFormatError):
            spaces.latents_from_bytes(b"NOPE" + b"\0" * 20)

    def test_truncated_payload_rejected(self, rng):
        data = spaces.latents_to_bytes(rng.standard_normal((2, 4)))
        with pytest.raises(InputFormatError):
            spaces.latents_from_bytes(data[:-8])

    def test_bad_json_rejected(self):
        with pytest.raises(InputFormatError):
            spaces.latents_from_json('{"rows": 2}')

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, rng, bad):
        arr = rng.standard_normal((2, 4))
        arr[1, 2] = bad
        # the writer refuses arr, so the header comes from a finite twin
        data = (spaces.latents_to_bytes(np.zeros_like(arr))[:16]
                + arr.astype("<f8").tobytes())
        with pytest.raises(InputFormatError, match="non-finite"):
            spaces.latents_from_bytes(data)
        # json.dumps writes NaN and Infinity, which json.loads reads back
        text = json.dumps({"rows": 2, "dim": 4, "values": arr.ravel().tolist()})
        with pytest.raises(InputFormatError, match="non-finite"):
            spaces.latents_from_json(text)

    def test_file_round_trip_both_formats(self, tmp_path, rng):
        arr = rng.standard_normal((4, 6))
        for name in ("latents.lat", "latents.json"):
            path = tmp_path / name
            spaces.write_latents(path, arr)
            assert np.array_equal(spaces.read_latents(path), arr)


def test_infinity_survives_json():
    # the containers are for finite latents, but a finite extreme must
    # survive.
    arr = np.array([[1e308, -1e308]])
    back = spaces.latents_from_json(spaces.latents_to_json(arr))
    assert np.array_equal(back, arr)


def test_slope_product_exact_but_round_trip_is_not():
    # 0.2 * 5.0 == 1.0 in doubles, yet (x * 0.2) * 5.0 can land 1 ulp off
    # because the inner product rounds first. Hence the 4 ulp budget.
    assert 0.2 * 5.0 == 1.0
    x = -0.1
    back = spaces.lru(spaces.lru(x, 0.2), 5.0)
    assert back != x
    assert math.isclose(back, x, rel_tol=1e-15)
