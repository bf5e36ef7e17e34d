import json
from dataclasses import asdict, dataclass, fields

import numpy as np
import pytest

from latentprior import formats, gaussian
from latentprior.errors import InputFormatError, NumericalFailure
from latentprior.inversion import InversionConfig


@pytest.fixture(scope="module")
def small_model():
    rng = np.random.default_rng(5)
    # Correlated, non-centered data so nothing is trivially diagonal.
    raw = rng.standard_normal((600, 5))
    mix = rng.standard_normal((5, 5))
    samples = raw @ mix + np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    return gaussian.fit_gaussian(samples, samples * 0.5), samples


class TestFit:
    def test_moments_match_numpy(self, small_model):
        model, samples = small_model
        np.testing.assert_allclose(model.mean_v, samples.mean(axis=0))
        np.testing.assert_allclose(model.cov_v,
                                   np.cov(samples, rowvar=False), rtol=1e-12)
        np.testing.assert_allclose(model.mean_w, 0.5 * samples.mean(axis=0))
        assert model.sample_count == 600

    def test_structural_invariants(self, small_model):
        gaussian.validate_model(small_model[0])

    @pytest.mark.parametrize("std", [1e-6, 1.0, 1e4, 1e8])
    def test_invariants_hold_at_any_data_scale(self, std):
        # the reconstruction tolerances scale with the covariance
        rng = np.random.default_rng(7)
        for _ in range(20):
            samples = rng.standard_normal((50, 32)) * std
            gaussian.validate_model(gaussian.fit_gaussian(samples, samples))

    def test_validate_catches_corruption(self, small_model):
        model, _ = small_model
        from dataclasses import replace
        bad = replace(model, eigvals=model.eigvals[::-1].copy())
        with pytest.raises(ValueError):
            gaussian.validate_model(bad)

    def test_eigvals_descending_nonnegative(self, small_model):
        vals = small_model[0].eigvals
        assert np.all(np.diff(vals) <= 0) and np.all(vals >= 0)

    def test_eigvec_sign_makes_the_largest_entry_positive(self, small_model):
        for col in small_model[0].eigvecs.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_sigma_max_is_sqrt_top_eigval(self, small_model):
        model, _ = small_model
        assert model.sigma_max == np.sqrt(model.eigvals[0])

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            gaussian.fit_gaussian(np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            gaussian.fit_gaussian(np.full((5, 3), np.nan), np.zeros((5, 3)))
        with pytest.raises(ValueError):
            gaussian.fit_gaussian(np.zeros((5, 3)), np.zeros((5, 4)))

    def test_constant_data_still_factors(self):
        samples = np.ones((10, 3))
        model = gaussian.fit_gaussian(samples, samples)
        # eps floor keeps the Cholesky factor usable on zero covariance
        assert np.all(np.isfinite(model.chol))
        assert gaussian.mahalanobis_sq_batch(model, np.ones((1, 3)))[0] == 0.0


class TestMahalanobis:
    def test_matches_explicit_inverse(self, small_model):
        model, _ = small_model
        rng = np.random.default_rng(6)
        reg_inv = np.linalg.inv(model.cov_v + model.epsilon * np.eye(model.dim))
        for _ in range(50):
            v = rng.standard_normal(model.dim) * 4.0
            want = (v - model.mean_v) @ reg_inv @ (v - model.mean_v)
            assert gaussian.mahalanobis_sq_batch(model, v[None])[0] == \
                pytest.approx(want, rel=1e-10)

    def test_zero_at_mean(self, small_model):
        model, _ = small_model
        assert gaussian.mahalanobis_sq_batch(model, model.mean_v[None])[0] == 0.0

    def test_batch_matches_scalar(self, small_model):
        model, _ = small_model
        rng = np.random.default_rng(7)
        vs = rng.standard_normal((20, model.dim))
        batch = gaussian.mahalanobis_sq_batch(model, vs)
        for i in range(len(vs)):
            alone = gaussian.mahalanobis_sq_batch(model, vs[i:i + 1])[0]
            assert batch[i] == pytest.approx(alone, rel=1e-12)

    def test_gradient_matches_fd(self, small_model):
        model, _ = small_model
        rng = np.random.default_rng(8)
        v = rng.standard_normal((1, model.dim))
        grad = gaussian.mahalanobis_sq_grad_batch(model, v)[0]
        h = 1e-6
        for i in range(model.dim):
            e = np.zeros((1, model.dim))
            e[0, i] = h
            fd = (gaussian.mahalanobis_sq_batch(model, v + e)[0]
                  - gaussian.mahalanobis_sq_batch(model, v - e)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_grad_batch_matches_scalar(self, small_model):
        model, _ = small_model
        rng = np.random.default_rng(9)
        vs = rng.standard_normal((10, model.dim))
        batch = gaussian.mahalanobis_sq_grad_batch(model, vs)
        for i in range(len(vs)):
            np.testing.assert_allclose(
                batch[i], gaussian.mahalanobis_sq_grad_batch(model, vs[i:i + 1])[0],
                rtol=1e-12)

    def test_non_finite_rows_give_non_finite_energies(self, small_model):
        # a diverged inversion must see its non-finite latent, never a number
        model, _ = small_model
        vs = np.zeros((4, model.dim))
        vs[1, 2], vs[2, 0], vs[3, 4] = np.nan, np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            energy = gaussian.mahalanobis_sq_batch(model, vs)
            grad = gaussian.mahalanobis_sq_grad_batch(model, vs)
        assert np.isfinite(energy).tolist() == [True, False, False, False]
        assert np.isfinite(grad).all(axis=1).tolist() == [True, False, False, False]

    def test_shape_errors(self, small_model):
        model, _ = small_model
        with pytest.raises(ValueError):
            gaussian.mahalanobis_sq_batch(model, np.zeros(model.dim))
        with pytest.raises(ValueError):
            gaussian.mahalanobis_sq_grad_batch(model, np.zeros((3, model.dim + 1)))
        with pytest.raises(ValueError):
            gaussian.mahalanobis_sq_batch(model, np.zeros((3, model.dim + 1)))


class TestSampling:
    def test_deterministic_given_seed(self, small_model):
        model, _ = small_model
        a = gaussian.sample_latents(model, 123, 50)
        b = gaussian.sample_latents(model, 123, 50)
        assert np.array_equal(a, b)

    def test_moments_recover_model(self, small_model):
        model, _ = small_model
        xs = gaussian.sample_latents(model, 3, 60000)
        np.testing.assert_allclose(xs.mean(axis=0), model.mean_v, atol=0.05)
        np.testing.assert_allclose(np.cov(xs, rowvar=False), model.cov_v,
                                   atol=0.15)

    def test_generator_argument_advances_stream(self, small_model):
        model, _ = small_model
        rng = np.random.default_rng(0)
        a = gaussian.sample_latents(model, rng, 5)
        b = gaussian.sample_latents(model, rng, 5)
        assert not np.array_equal(a, b)

    def test_rejects_nonpositive_n(self, small_model):
        with pytest.raises(ValueError):
            gaussian.sample_latents(small_model[0], 0, 0)


class TestMoments:
    def test_equal_to_the_fit_bit_for_bit(self, small_model):
        # the tradeoff's distances read moments() where they read the fit
        model, samples = small_model
        again = gaussian.fit_gaussian(samples, samples)
        mean, cov = gaussian.moments(samples)
        assert np.array_equal(mean, again.mean_v) and np.array_equal(cov, again.cov_v)
        assert np.array_equal(mean, model.mean_v) and np.array_equal(cov, model.cov_v)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            gaussian.moments(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            gaussian.moments(np.zeros(4))
        with pytest.raises(ValueError):
            gaussian.moments(np.full((5, 3), np.inf))


def _moments_of(model):
    return model.mean_v, model.cov_v


class TestFrechet:
    def test_identical_models_zero(self, small_model):
        g = _moments_of(small_model[0])
        assert gaussian.frechet_distance(g, g) == 0.0

    def test_one_dimensional_closed_form(self):
        rng = np.random.default_rng(11)
        a = rng.normal(2.0, 1.5, (3000, 1))
        b = rng.normal(-1.0, 0.5, (3000, 1))
        (mu_a, cov_a), (mu_b, cov_b) = gaussian.moments(a), gaussian.moments(b)
        want = ((mu_a[0] - mu_b[0]) ** 2
                + (np.sqrt(cov_a[0, 0]) - np.sqrt(cov_b[0, 0])) ** 2)
        assert gaussian.frechet_distance((mu_a, cov_a), (mu_b, cov_b)) \
            == pytest.approx(want, abs=1e-10)

    def test_symmetric(self, small_model):
        g = _moments_of(small_model[0])
        rng = np.random.default_rng(12)
        other = gaussian.moments(rng.standard_normal((300, len(g[0]))))
        d1 = gaussian.frechet_distance(g, other)
        d2 = gaussian.frechet_distance(other, g)
        assert d1 == pytest.approx(d2, abs=1e-8)
        assert d1 > 0

    def test_mean_shift_only(self):
        # Identical covariances: distance reduces to the squared mean gap.
        rng = np.random.default_rng(13)
        xs = rng.standard_normal((2000, 3))
        ga = gaussian.moments(xs)
        gb = gaussian.moments(xs + np.array([1.0, 0.0, -2.0]))
        assert gaussian.frechet_distance(ga, gb) == pytest.approx(5.0,
                                                                  rel=1e-6)

    def test_dimension_mismatch(self, small_model):
        rng = np.random.default_rng(14)
        other = gaussian.moments(rng.standard_normal((100, 2)))
        with pytest.raises(ValueError):
            gaussian.frechet_distance(_moments_of(small_model[0]), other)


class TestSerialization:
    def test_round_trip_is_exact(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "model.json"
        gaussian.save_model(model, path)
        back = gaussian.load_model(path)
        for name in ("mean_v", "mean_w", "cov_v", "eigvals", "eigvecs"):
            assert np.array_equal(getattr(back, name), getattr(model, name)), name
        assert back.dim == model.dim
        assert back.epsilon == model.epsilon
        assert back.sample_count == model.sample_count
        # chol is rebuilt, not stored; same inputs give the same factor
        assert np.array_equal(back.chol, model.chol)

    def test_round_trip_keeps_the_sign_of_zero(self, tmp_path):
        samples = np.random.default_rng(0).standard_normal((50, 3))
        samples[:, 1] = 1.5  # a constant column gives -0.0 eigenvector entries
        model = gaussian.fit_gaussian(samples, samples)
        assert np.any((model.eigvecs == 0) & np.signbit(model.eigvecs))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        gaussian.save_model(model, first)
        back = gaussian.load_model(first)
        gaussian.save_model(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert np.array_equal(np.signbit(back.eigvecs), np.signbit(model.eigvecs))

    def test_missing_key_rejected(self, small_model):
        doc = json.loads(gaussian.model_to_json(small_model[0]))
        del doc["cov_v"]
        with pytest.raises(InputFormatError):
            gaussian.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["mean_v", "mean_w", "cov_v"])
    def test_non_finite_values_rejected(self, small_model, key):
        doc = json.loads(gaussian.model_to_json(small_model[0]))
        doc[key][0] = float("inf")
        with pytest.raises(InputFormatError, match="non-finite"):
            gaussian.model_from_json(json.dumps(doc))

    def test_stores_the_sufficient_statistics_only(self, small_model):
        doc = json.loads(gaussian.model_to_json(small_model[0]))
        assert sorted(doc) == ["cov_v", "dim", "mean_v", "mean_w", "sample_count"]
        assert len(doc["cov_v"]) == small_model[0].dim ** 2

    def test_retired_keys_are_ignored(self, small_model):
        # older files also stored the derived eigvals, eigvecs and epsilon;
        # they are not read, so even corrupted ones change nothing
        model = small_model[0]
        text = gaussian.model_to_json(model)
        older = {**json.loads(text), "eigvals": [-1.0] * model.dim,
                 "eigvecs": [0.0] * model.dim ** 2, "epsilon": "abc"}
        back, old = (gaussian.model_from_json(t) for t in (text, json.dumps(older)))
        for f in fields(gaussian.GaussianModel):
            a, b = getattr(back, f.name), getattr(old, f.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name

    def test_garbage_rejected(self):
        with pytest.raises(InputFormatError):
            gaussian.model_from_json("not json at all {")


@dataclass(frozen=True)
class _Inner:
    flag: np.bool_
    values: np.ndarray


@dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    pairs: tuple


class TestWriters:
    def test_json_numpy_scalars_are_python_values(self):
        text = formats.json_text({"b": np.bool_(True), "i": np.int64(3),
                                   "f": np.float64(0.1), "z": -0.0})
        assert text == '{\n  "b": true,\n  "f": 0.1,\n  "i": 3,\n  "z": -0.0\n}\n'

    def test_json_ndarray_nests_as_lists(self):
        arr = np.array([[1.0, -0.0], [2.5, 1e-310]])
        assert json.loads(formats.json_text({"a": arr}))["a"] == arr.tolist()
        assert formats.json_text(np.arange(2)) == "[\n  0,\n  1\n]\n"

    def test_json_dataclass_is_its_fields_nested(self):
        rec = _Outer("x", _Inner(np.bool_(False), np.array([0.5, 2.0])), ((1, 0.25),))
        assert json.loads(formats.json_text(rec)) == {
            "name": "x", "inner": {"flag": False, "values": [0.5, 2.0]},
            "pairs": [[1, 0.25]]}
        # same text as the asdict route the writers took before
        cfg = InversionConfig(learning_rate=0.3)
        assert formats.json_text({"config": cfg}) == json.dumps(
            {"config": asdict(cfg)}, indent=2, sort_keys=True) + "\n"

    def test_json_refuses_other_objects(self):
        with pytest.raises(TypeError, match="dataclass"):
            formats.json_text({"s": {1, 2}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf,
                                     np.float64("nan"), np.array([1.0, np.nan]),
                                     _Inner(np.bool_(True), np.array([np.inf]))])
    def test_json_non_finite_is_numerical_failure(self, bad):
        with pytest.raises(NumericalFailure, match="non-finite") as info:
            formats.json_text({"ok": 1.0, "deep": [{"bad": bad}]})
        assert "\n" not in str(info.value)

    def test_csv_cells(self):
        text = formats.csv_text(
            ("s", "b", "nb", "i", "ni", "f", "nf", "z"),
            [("w:lambda=0", True, np.bool_(False), 7, np.int64(-2), 0.1,
              np.float64(2.5e-300), -0.0)])
        assert text == "s,b,nb,i,ni,f,nf,z\nw:lambda=0,1,0,7,-2,0.1,2.5e-300,-0.0\n"

    def test_csv_with_no_rows_is_its_header(self):
        assert formats.csv_text(["a", "b"], []) == "a,b\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64(-np.inf)])
    def test_csv_non_finite_is_numerical_failure(self, bad):
        with pytest.raises(NumericalFailure, match="non-finite"):
            formats.csv_text(["a", "b"], [(1.0, 2.0), (3.0, bad)])
