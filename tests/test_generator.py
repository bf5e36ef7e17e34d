import numpy as np
import pytest

from latentprior import generator
from latentprior.errors import InputFormatError
from latentprior.generator import GeneratorDims


class TestDims:
    def test_defaults_consistent(self):
        dims = GeneratorDims()
        assert dims.base_size << (dims.scales - 1) == dims.image_size
        assert dims.pixels == dims.image_size ** 2 * 3
        assert dims.image_shape == (16, 16, 3)

    def test_unreachable_image_size_rejected(self):
        with pytest.raises(ValueError):
            GeneratorDims(image_size=12, scales=4)

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ValueError):
            GeneratorDims(latent_dim=0)


class TestInit:
    def test_same_seed_same_weights(self):
        a = generator.init_generator(7)
        b = generator.init_generator(7)
        assert np.array_equal(a.synthesis.out_proj, b.synthesis.out_proj)
        assert np.array_equal(a.mapping.weights[0], b.mapping.weights[0])

    def test_different_seeds_differ(self):
        a = generator.init_generator(7)
        b = generator.init_generator(8)
        assert not np.array_equal(a.synthesis.out_proj, b.synthesis.out_proj)

    def test_shapes(self, bundle):
        dims = bundle.dims
        assert bundle.synthesis.base.shape == (dims.base_size, dims.base_size,
                                               dims.channels)
        assert len(bundle.synthesis.noises) == dims.scales
        for k, noise in enumerate(bundle.synthesis.noises):
            r = dims.base_size << k
            assert noise.shape == (r, r, dims.channels)
        assert bundle.synthesis.out_proj.shape == (3, dims.channels)


class TestSampling:
    def test_sample_z_unit_norm(self):
        z = generator.sample_z(3, 16)
        assert np.linalg.norm(z) == pytest.approx(1.0, rel=1e-12)

    def test_sample_z_deterministic(self):
        assert np.array_equal(generator.sample_z(3, 16),
                              generator.sample_z(3, 16))

    def test_sample_styles_matches_map_of_z(self, bundle):
        from latentprior.seeding import STREAM_Z, rng_from
        ws = generator.sample_styles(bundle, 12, 3)
        rng = rng_from(12, STREAM_Z)
        zs = np.stack([generator.sample_z(rng, bundle.dims.latent_dim)
                       for _ in range(3)])
        assert np.array_equal(ws, generator.map_latents(bundle, zs))

    def test_map_latent_single_equals_batch(self, bundle):
        # row i of a batch equals that row mapped alone, as a batch of one
        zs = np.stack([generator.sample_z(5 + i, bundle.dims.latent_dim)
                       for i in range(3)])
        batch = generator.map_latents(bundle, zs)
        for i in range(3):
            np.testing.assert_allclose(
                batch[i], generator.map_latents(bundle, zs[i:i + 1])[0],
                rtol=1e-12, atol=1e-14)


class TestSynthesis:
    def test_batch_matches_single(self, bundle, rng):
        # matmul kernels round differently depending on the batch shape, so
        # batched and single synthesis agree to rounding, not bit for bit
        stacks = rng.standard_normal((4, bundle.dims.scales,
                                      bundle.dims.latent_dim))
        batch = generator.synthesize_batch(bundle, stacks)
        for i in range(4):
            np.testing.assert_allclose(batch[i],
                                       generator.synthesize(bundle, stacks[i]),
                                       rtol=1e-12, atol=1e-13)

    def test_output_shape(self, bundle, rng):
        stack = rng.standard_normal((bundle.dims.scales,
                                     bundle.dims.latent_dim))
        assert generator.synthesize(bundle, stack).shape == (bundle.dims.pixels,)

    def test_style_actually_matters(self, bundle, rng):
        a = rng.standard_normal((bundle.dims.scales, bundle.dims.latent_dim))
        b = a.copy()
        b[1] += 0.5
        assert not np.array_equal(generator.synthesize(bundle, a),
                                  generator.synthesize(bundle, b))

    def test_shape_errors(self, bundle):
        with pytest.raises(ValueError):
            generator.synthesize(bundle, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            generator.synthesize_batch(bundle, np.zeros((1, 2, 2)))


def _vjp(bundle, stacks, cots):
    """Style gradients of the linear losses <image_i, cot_i>."""
    cots = np.asarray(cots)
    return generator.synthesize_vjp_batch(
        bundle, stacks, lambda images: (np.sum(images * cots, axis=1), cots))[2]


class TestVjp:
    def test_matches_finite_differences(self, bundle, rng):
        s, d = bundle.dims.scales, bundle.dims.latent_dim
        h = 1e-6
        for _ in range(3):
            stack = rng.standard_normal((s, d)) * 0.5
            if generator.min_preactivation_gap(bundle, stack) < 1e-3:
                continue
            cot = rng.standard_normal(bundle.dims.pixels)
            grad = _vjp(bundle, stack[None], cot[None])[0]
            u = rng.standard_normal((s, d))
            u /= np.linalg.norm(u)
            f = lambda x: float(generator.synthesize(bundle, x) @ cot)
            fd = (f(stack + h * u) - f(stack - h * u)) / (2 * h)
            assert float(np.sum(grad * u)) == pytest.approx(fd, rel=1e-6)

    def test_batch_matches_single(self, bundle, rng):
        s, d = bundle.dims.scales, bundle.dims.latent_dim
        stacks = rng.standard_normal((3, s, d))
        cots = rng.standard_normal((3, bundle.dims.pixels))
        batch = _vjp(bundle, stacks, cots)
        for i in range(3):
            single = _vjp(bundle, stacks[i:i + 1], cots[i:i + 1])[0]
            np.testing.assert_allclose(batch[i], single, rtol=1e-12)

    def test_returns_the_images_and_losses_of_its_pass(self, bundle, rng):
        stacks = rng.standard_normal((2, bundle.dims.scales,
                                      bundle.dims.latent_dim))
        images, losses, grads = generator.synthesize_vjp_batch(
            bundle, stacks, lambda im: (im.sum(axis=1), np.zeros_like(im)))
        assert np.array_equal(images, generator.synthesize_batch(bundle, stacks))
        assert np.array_equal(losses, images.sum(axis=1))
        assert np.array_equal(grads, np.zeros_like(stacks))

    def test_cotangent_shape_checked(self, bundle, rng):
        s, d = bundle.dims.scales, bundle.dims.latent_dim
        with pytest.raises(ValueError):
            _vjp(bundle, rng.standard_normal((1, s, d)), rng.standard_normal((1, 5)))


class TestBundleSerialization:
    def test_round_trip_regenerates_identical_generator(self, bundle, rng):
        back = generator.bundle_from_json(generator.bundle_to_json(bundle))
        stack = rng.standard_normal((bundle.dims.scales,
                                     bundle.dims.latent_dim))
        assert np.array_equal(generator.synthesize(bundle, stack),
                              generator.synthesize(back, stack))

    def test_file_round_trip(self, bundle, tmp_path):
        path = tmp_path / "bundle.json"
        generator.save_bundle(bundle, path)
        back = generator.load_bundle(path)
        assert back.seed == bundle.seed and back.dims == bundle.dims

    def test_bad_json_rejected(self):
        with pytest.raises(InputFormatError):
            generator.bundle_from_json('{"seed": 1}')
        with pytest.raises(InputFormatError):
            generator.bundle_from_json("nope")


class TestImageFiles:
    def test_f64_round_trip(self, tmp_path, rng):
        img = rng.standard_normal(48)
        path = tmp_path / "img.f64"
        generator.write_image_f64(path, img)
        assert np.array_equal(generator.read_image_f64(path, 48), img)

    def test_f64_length_check(self, tmp_path, rng):
        path = tmp_path / "img.f64"
        generator.write_image_f64(path, rng.standard_normal(48))
        with pytest.raises(InputFormatError):
            generator.read_image_f64(path, 47)
        with open(path, "ab") as fh:
            fh.write(b"xyz")
        with pytest.raises(InputFormatError):
            generator.read_image_f64(path)

    def test_ppm_header_and_scaling(self):
        img = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0,
                        0.5, 0.5, 0.5, 0.25, 0.25, 0.25])
        data = generator.ppm_bytes(img, (2, 2, 3))
        header, rest = data.split(b"\n", 1)
        assert header == b"P6"
        dims_line, rest = rest.split(b"\n", 1)
        assert dims_line == b"2 2"
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"255"
        values = np.frombuffer(pixels, dtype=np.uint8)
        # Affine map of the [0, 1] range onto [0, 255].
        assert list(values[:3]) == [0, 0, 0]
        assert list(values[3:6]) == [255, 255, 255]
        assert list(values[6:9]) == [128, 128, 128]

    def test_ppm_constant_image(self):
        data = generator.ppm_bytes(np.ones(12), (2, 2, 3))
        values = np.frombuffer(data.split(b"\n255\n", 1)[1], dtype=np.uint8)
        assert np.all(values == 0)
