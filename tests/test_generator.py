import json
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest

from latentprior import formats, generator
from latentprior.errors import InputFormatError
from latentprior.generator import (DIM_LIMITS, MAP_BLOCK_ROWS, SYNTH_BLOCK_BYTES,
                                   GeneratorDims)
from latentprior.spaces import SLOPE_V_TO_W, SLOPE_W_TO_V, lru, lru_deriv


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

    def test_every_field_has_a_limit(self):
        assert list(DIM_LIMITS) == [f.name for f in fields(GeneratorDims)]
        defaults = asdict(GeneratorDims())
        assert all(1 <= defaults[k] <= limit for k, limit in DIM_LIMITS.items())

    @pytest.mark.parametrize("name", list(DIM_LIMITS))
    def test_field_above_its_limit_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be in"):
            GeneratorDims(**{name: DIM_LIMITS[name] + 1})


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


class _FixedStream:
    """standard_normal that hands out a fixed value sequence in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.used = 0

    def standard_normal(self, shape):
        size = int(np.prod(shape))
        out = self.values[self.used:self.used + size]
        self.used += size
        return out.reshape(shape)


class TestSampling:
    def test_sample_z_unit_norm(self):
        zs = generator.sample_z(np.random.default_rng(3), 5, 16)
        assert zs.shape == (5, 16)
        np.testing.assert_allclose(np.linalg.norm(zs, axis=1), 1.0, rtol=1e-12)

    def test_sample_z_deterministic(self):
        assert np.array_equal(generator.sample_z(np.random.default_rng(3), 4, 16),
                              generator.sample_z(np.random.default_rng(3), 4, 16))

    def test_sample_z_equals_one_row_draws(self):
        # one (n, d) draw is bitwise n sequential one-row draws, and leaves
        # the stream where they leave it
        batch_rng, row_rng = np.random.default_rng(8), np.random.default_rng(8)
        zs = generator.sample_z(batch_rng, 200, 32)
        rows = np.concatenate([generator.sample_z(row_rng, 1, 32) for _ in range(200)])
        assert np.array_equal(zs, rows)
        ref = np.random.default_rng(8)  # the one-row loop sample_z replaced
        for z in zs:
            r = ref.standard_normal(32)
            assert np.array_equal(z, r / np.linalg.norm(r))
        assert batch_rng.standard_normal() == row_rng.standard_normal()

    @pytest.mark.parametrize("zero_row", [0, 1])
    def test_sample_z_redraws_a_zero_row_in_stream_order(self, zero_row):
        d = 6
        values = np.random.default_rng(4).standard_normal((5, d))
        values[zero_row] = 0.0
        stream = _FixedStream(values)
        zs = generator.sample_z(stream, 3, d)
        kept = np.delete(values, zero_row, axis=0)[:3]
        assert np.array_equal(zs, np.stack([k / np.linalg.norm(k) for k in kept]))
        assert stream.used == 4 * d  # three kept rows and the dropped one
        one_row = _FixedStream(values)
        rows = np.concatenate([generator.sample_z(one_row, 1, d) for _ in range(3)])
        assert np.array_equal(zs, rows) and one_row.used == stream.used

    @staticmethod
    def _loop_sample_z(stream, n, d):
        """The per-row loop sample_z once ran, the oracle of its bits."""
        kept = []
        while n > 0:
            zs = stream.standard_normal((n, d))
            norms = np.array([np.sqrt(z @ z) for z in zs])
            ok = norms > 1e-12
            kept.append(zs[ok] / norms[ok, None])
            n -= int(np.count_nonzero(ok))
        return np.concatenate(kept)

    @pytest.mark.parametrize("n,d", [(100000, 32), (7, 32), (1000, 1),
                                     (3000, 17), (50, 512)])
    def test_sample_z_keeps_the_bits_of_the_row_loop(self, n, d):
        zs = generator.sample_z(np.random.default_rng(21), n, d)
        ref = self._loop_sample_z(np.random.default_rng(21), n, d)
        assert zs.tobytes() == ref.tobytes()

    def test_sample_z_rejection_keeps_the_bits_of_the_row_loop(self):
        d = 9
        values = np.random.default_rng(22).standard_normal((12, d))
        values[[2, 5]] = 0.0
        zs = generator.sample_z(_FixedStream(values), 10, d)
        ref = self._loop_sample_z(_FixedStream(values), 10, d)
        assert zs.tobytes() == ref.tobytes()

    def test_sample_z_rejects_empty_shapes(self, rng):
        for n, d in ((0, 4), (3, 0)):
            with pytest.raises(ValueError, match="must be >= 1"):
                generator.sample_z(rng, n, d)

    def test_sample_styles_matches_map_of_z(self, bundle):
        from latentprior.seeding import STREAM_Z, rng_from
        ws = generator.sample_styles(bundle, 12, 3)
        zs = generator.sample_z(rng_from(12, STREAM_Z), 3, bundle.dims.latent_dim)
        assert np.array_equal(ws, generator.map_latents(bundle, zs))

    def test_map_latent_single_equals_batch(self, bundle):
        # row i of a batch equals that row mapped alone, as a batch of one
        zs = generator.sample_z(np.random.default_rng(5), 3, bundle.dims.latent_dim)
        batch = generator.map_latents(bundle, zs)
        for i in range(3):
            np.testing.assert_allclose(
                batch[i], generator.map_latents(bundle, zs[i:i + 1])[0],
                rtol=1e-12, atol=1e-14)


def _map_whole_batch(bundle, zs):
    """The mapping forward pass as a plain per-layer loop over every row."""
    a = zs
    for w, b in zip(bundle.mapping.weights, bundle.mapping.biases):
        pre = a @ w.T + b
        a = np.where(pre >= 0, pre, SLOPE_V_TO_W * pre)
    return a


class TestBlockedMapping:
    N = 3 * MAP_BLOCK_ROWS + 1  # three blocks, split unevenly

    @pytest.fixture(scope="class")
    def zs(self, bundle):
        return generator.sample_z(np.random.default_rng(6), self.N,
                                  bundle.dims.latent_dim)

    def test_matches_the_whole_batch_loop(self, bundle, zs):
        # bitwise equal on OpenBLAS; whether a block rounds as the whole
        # batch does depends on the BLAS kernel, so allow a few ulp
        want = _map_whole_batch(bundle, zs)
        got = generator.map_latents(bundle, zs)
        ulp = np.finfo(np.float64).eps * np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=8 * ulp)

    def test_two_runs_are_bitwise_equal(self, bundle, zs):
        assert generator.map_latents(bundle, zs).tobytes() == \
            generator.map_latents(bundle, zs).tobytes()

    def test_no_block_is_short(self, bundle, zs, monkeypatch):
        splits = []
        split = generator._row_blocks

        def spy(a):
            blocks = split(a)
            splits.append([len(block) for block in blocks])
            return blocks

        monkeypatch.setattr(generator, "_row_blocks", spy)
        generator.map_latents(bundle, zs)
        assert splits  # the inputs and the output, split alike
        assert all(s == [MAP_BLOCK_ROWS + 1] + [MAP_BLOCK_ROWS] * 2 for s in splits)

    @pytest.mark.parametrize("n, count", [
        (0, 1), (1, 1), (MAP_BLOCK_ROWS - 1, 1), (2 * MAP_BLOCK_ROWS - 1, 1),
        (2 * MAP_BLOCK_ROWS, 2), (5 * MAP_BLOCK_ROWS + 3, 5)])
    def test_row_blocks_are_near_equal(self, n, count):
        sizes = [len(block) for block in generator._row_blocks(np.empty((n, 1)))]
        assert len(sizes) == count and sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert count == 1 or min(sizes) >= MAP_BLOCK_ROWS

    @pytest.mark.parametrize("n", [
        2048, 20000, 2 * MAP_BLOCK_ROWS - 1, 2 * MAP_BLOCK_ROWS, 3 * MAP_BLOCK_ROWS + 1])
    def test_block_size_keeps_the_bits_of_4096_row_blocks(self, bundle, monkeypatch, n):
        # 2048 rows is the tradeoff batch, 20000 the benchmark's set-up fit
        zs = generator.sample_z(np.random.default_rng(n), n, bundle.dims.latent_dim)
        got = generator.map_latents(bundle, zs)
        monkeypatch.setattr(generator, "MAP_BLOCK_ROWS", 4096)
        assert got.tobytes() == generator.map_latents(bundle, zs).tobytes()

    @pytest.mark.parametrize("n", [511, 512, 1023, 1024, 1025, 1536, 5000])
    def test_workers_keep_the_bits_of_the_inline_pass(self, bundle, n):
        # from one block, where 8 workers exceed the blocks, to nine blocks
        zs = generator.sample_z(np.random.default_rng(n), n, bundle.dims.latent_dim)
        inline = generator.map_latents(bundle, zs).tobytes()
        for threads in (1, 2, 3, 8):
            assert generator.map_latents(bundle, zs, threads).tobytes() == inline

    def test_peak_allocation_stays_under_four_block_buffers(self, bundle):
        n = 20000
        zs = generator.sample_z(np.random.default_rng(7), n, bundle.dims.latent_dim)
        tracemalloc.start()
        try:
            generator.map_latents(bundle, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (n, d) output, two reused (block, hidden) buffers and the
        # activation's temporary
        row = bundle.dims.hidden_dim * 8
        block = len(generator._row_blocks(zs)[0]) * row
        assert block <= 2 * 2**20 + row  # a core's 2 MiB L2, to one row
        assert peak < zs.nbytes + 4 * block

    @pytest.mark.parametrize("threads", [1, 2])
    def test_workers_allocate_nothing(self, bundle, threads):
        zs = generator.sample_z(np.random.default_rng(7), 20000, bundle.dims.latent_dim)
        tracemalloc.start()
        try:
            generator.map_latents(bundle, zs, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and each worker's two block buffers and chunk buffer;
        # a temporary of a block in a worker would exceed the half-block
        # margin, which covers the pool's own Python objects
        block = len(generator._row_blocks(zs)[0]) * bundle.dims.hidden_dim * 8
        buffers = threads * (2 * block + generator.MAP_CHUNK_BYTES)
        assert peak < zs.nbytes + buffers + block // 2


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


def _forward_upsample_first(bundle, stacks, keep_cache):
    """The synthesis forward in its first order: upsample, modulate, mix."""
    syn, dims = bundle.synthesis, bundle.dims
    n, c = stacks.shape[0], dims.channels
    x = np.broadcast_to(syn.base, (n,) + syn.base.shape)
    cache = []
    for k in range(dims.scales):
        if k > 0:
            x = x.repeat(2, axis=1).repeat(2, axis=2)
        mod = stacks[:, k, :] @ syn.style_affines[k].T
        scale = 1.0 + mod[:, :c]
        bias = mod[:, c:]
        m = x * scale[:, None, None, :] + bias[:, None, None, :]
        z = m @ syn.mixers[k].T + syn.noises[k]
        if keep_cache:
            cache.append((x, scale, z))
        x = np.where(z >= 0, z, SLOPE_V_TO_W * z)
    return (x @ syn.out_proj.T).reshape(n, -1), cache


def _forward_stacked(bundle, stacks):
    """The synthesis forward as one pass over the whole batch, each channel
    product a stacked (n, h, w, c) @ (c, c') matmul: the oracle of the flat
    GEMMs, bit for bit."""
    syn, dims = bundle.synthesis, bundle.dims
    n, c = stacks.shape[0], dims.channels
    x = np.broadcast_to(syn.base, (n,) + syn.base.shape)
    for k in range(dims.scales):
        mod = stacks[:, k, :] @ syn.style_affines[k].T
        m = x * (1.0 + mod[:, None, None, :c]) + mod[:, None, None, c:]
        z = m @ syn.mixers[k].T
        if k > 0:
            z = z.repeat(2, axis=1).repeat(2, axis=2)
        z = z + syn.noises[k]
        x = np.where(z >= 0, z, SLOPE_V_TO_W * z)
    return (x @ syn.out_proj.T).reshape(n, -1)


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


def _vjp_full_resolution(bundle, stacks, cots):
    """Style gradients of <image_i, cot_i> by the backward pass in its first
    order: from the upsample-first cache, the channel work runs on the
    upsampled pixels and each scale ends with the sum-pool. The oracle of
    synthesize_vjp_batch, which pools first, to rounding."""
    syn, dims = bundle.synthesis, bundle.dims
    n, c, hw = stacks.shape[0], dims.channels, dims.image_size
    _, cache = _forward_upsample_first(bundle, stacks, True)
    g = np.asarray(cots).reshape(n, hw, hw, 3) @ syn.out_proj
    g_stacks = np.zeros_like(stacks)
    for k in reversed(range(dims.scales)):
        u, scale, z = cache[k]
        gm = (g * np.where(z >= 0, 1.0, SLOPE_V_TO_W)) @ syn.mixers[k]
        g_scale = np.einsum("nhwc,nhwc->nc", gm, u)
        g_bias = gm.sum(axis=(1, 2))
        g_stacks[:, k, :] = np.concatenate([g_scale, g_bias], axis=1) \
            @ syn.style_affines[k]
        if k > 0:
            gu = gm * scale[:, None, None, :]
            half = u.shape[1] // 2
            g = gu.reshape(n, half, 2, half, 2, c).sum(axis=(2, 4))
    return g_stacks


class TestForwardOrder:
    """Channel work before upsampling gives the upsample-first bits exactly;
    the backward, which sum-pools before its channel work, agrees with the
    full-resolution one to rounding."""

    DIMS = [GeneratorDims(), GeneratorDims(scales=3, channels=5, image_size=12),
            GeneratorDims(scales=1)]
    IDS = ["default", "3x5x12", "one-scale"]

    @pytest.mark.parametrize("dims", DIMS, ids=IDS)
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_bitwise_equal_to_upsample_first(self, dims, n):
        bundle = generator.init_generator(5, dims)
        stacks = np.random.default_rng(n).standard_normal(
            (n, dims.scales, dims.latent_dim))
        want, want_cache = _forward_upsample_first(bundle, stacks, True)
        for keep_cache in (False, True):
            images, cache = generator._forward(bundle, stacks, keep_cache)
            assert _same_bits(images, want)
        assert len(cache) == len(want_cache) == dims.scales
        for k, ((x, scale, z), (u, want_scale, want_z)) in enumerate(
                zip(cache, want_cache)):
            # the cache keeps each scale's input before its upsample
            assert _same_bits(generator._upsample(x) if k > 0 else x, u)
            assert _same_bits(scale, want_scale) and _same_bits(z, want_z)

    # a one-pixel base map (image_size=8) joins the backward comparison
    @pytest.mark.parametrize("dims", DIMS + [GeneratorDims(image_size=8)],
                             ids=IDS + ["one-pixel-base"])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_vjp_agrees_with_the_full_resolution_backward(self, dims, n):
        bundle = generator.init_generator(5, dims)
        rng = np.random.default_rng(n)
        stacks = rng.standard_normal((n, dims.scales, dims.latent_dim))
        cots = rng.standard_normal((n, dims.pixels))
        want = _vjp_full_resolution(bundle, stacks, cots)
        # an entry that is small by cancellation carries the rounding of the
        # terms it sums, hence the atol on the scale of the largest entry;
        # the worst case seen is 8.2e-16 of it
        np.testing.assert_allclose(_vjp(bundle, stacks, cots), want, rtol=1e-12,
                                   atol=1e-14 * np.abs(want).max())

    def test_backward_mask_is_the_where_mask_bit_for_bit(self):
        # the one leaky ReLU and its derivative against their np.where forms,
        # at the generator's slope and the V map's, on planted special values
        rng = np.random.default_rng(0)
        z = rng.standard_normal(100_000)
        z[::7] = 0.0
        z[3::7] = -0.0
        z[5::11] = np.nan
        z[6::11] = -np.nan
        z[2::13] = np.inf
        z[4::13] = -np.inf
        z[8::17] = -5e-324 * rng.integers(1, 1 << 40, len(z[8::17]))
        for slope in (SLOPE_V_TO_W, SLOPE_W_TO_V):
            want = np.where(z >= 0, z, slope * z)
            assert _same_bits(lru(z, slope), want)
            inplace = z.copy()
            assert lru(inplace, slope, out=inplace) is inplace
            assert _same_bits(inplace, want)
            assert _same_bits(lru_deriv(z, slope), np.where(z >= 0, 1.0, slope))

    def test_one_pixel_base_agrees_to_rounding(self):
        # mixing a 1x1 map is a vector-matrix product, which numpy hands to
        # another BLAS kernel than the 2x2 map of the upsample-first order
        dims = GeneratorDims(image_size=8)
        bundle = generator.init_generator(5, dims)
        stacks = np.random.default_rng(3).standard_normal((7, dims.scales,
                                                           dims.latent_dim))
        want, _ = _forward_upsample_first(bundle, stacks, False)
        np.testing.assert_allclose(generator.synthesize_batch(bundle, stacks),
                                   want, rtol=1e-12, atol=1e-13)

    # the flat-GEMM exceptions: one-pixel maps, and more channels than
    # FLAT_GEMM_MAX_CHANNELS
    EDGE_DIMS = DIMS + [GeneratorDims(image_size=8),
                        GeneratorDims(scales=1, image_size=1, channels=2),
                        GeneratorDims(scales=2, channels=32, image_size=8)]
    EDGE_IDS = IDS + ["one-pixel-base", "one-pixel-image", "wide"]

    @pytest.mark.parametrize("dims", EDGE_DIMS, ids=EDGE_IDS)
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_flat_products_keep_the_stacked_bits(self, dims, n):
        bundle = generator.init_generator(5, dims)
        stacks = np.random.default_rng(n).standard_normal(
            (n, dims.scales, dims.latent_dim))
        want = _forward_stacked(bundle, stacks)
        assert _same_bits(generator.synthesize_batch(bundle, stacks), want)
        assert _same_bits(generator._forward(bundle, stacks, True)[0], want)

    @pytest.mark.parametrize("dims", EDGE_DIMS, ids=EDGE_IDS)
    def test_blocks_keep_the_whole_batch_bits(self, dims):
        bundle = generator.init_generator(5, dims)
        rows = max(1, SYNTH_BLOCK_BYTES // (8 * dims.image_size ** 2 * dims.channels))
        assert generator._block_rows(dims) == rows
        rng = np.random.default_rng(0)
        for n in sorted({1, rows - 1, rows, rows + 1, 2 * rows + 3} - {0}):
            stacks = rng.standard_normal((n, dims.scales, dims.latent_dim))
            want, _ = generator._forward(bundle, stacks, True)
            assert _same_bits(generator.synthesize_batch(bundle, stacks), want), n

    def test_peak_allocation_stays_under_one_whole_batch_map(self, bundle):
        dims = bundle.dims
        n = 16 * generator._block_rows(dims)
        stacks = np.random.default_rng(8).standard_normal(
            (n, dims.scales, dims.latent_dim))
        tracemalloc.start()
        try:
            generator.synthesize_batch(bundle, stacks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and a few block-sized maps, where the whole batch at
        # once held two full-resolution maps beside the output
        output = n * dims.pixels * 8
        one_map = n * dims.image_size ** 2 * dims.channels * 8
        assert peak < output + one_map

    def test_nan_propagates_as_before(self, bundle):
        stacks = np.zeros((2, bundle.dims.scales, bundle.dims.latent_dim))
        stacks[1, 2, 0] = np.nan
        images = generator.synthesize_batch(bundle, stacks)
        want, _ = _forward_upsample_first(bundle, stacks, False)
        assert _same_bits(np.isnan(images), np.isnan(want))
        assert _same_bits(images[0], want[0]) and np.all(np.isnan(images[1]))


class TestBundleSerialization:
    def test_round_trip_regenerates_identical_generator(self, bundle, rng):
        back = generator.bundle_from_json(generator.bundle_to_json(bundle))
        stack = rng.standard_normal((bundle.dims.scales,
                                     bundle.dims.latent_dim))
        assert np.array_equal(generator.synthesize(bundle, stack),
                              generator.synthesize(back, stack))

    def test_file_round_trip(self, bundle, tmp_path):
        path = tmp_path / "bundle.json"
        formats.write(path, generator.bundle_to_json(bundle))
        back = generator.bundle_from_json(formats.read(path))
        assert back.seed == bundle.seed and back.dims == bundle.dims

    def test_bad_json_rejected(self):
        with pytest.raises(InputFormatError):
            generator.bundle_from_json('{"seed": 1}')
        with pytest.raises(InputFormatError):
            generator.bundle_from_json("nope")

    @pytest.mark.parametrize("dims", [
        {}, {"latent_dim": 32},
        {**asdict(GeneratorDims()), "extra": 1}], ids=["empty", "partial", "extra"])
    def test_dims_must_name_every_field(self, dims):
        with pytest.raises(InputFormatError, match="dims must hold exactly"):
            generator.bundle_from_json(json.dumps({"seed": 3, "dims": dims}))

    @pytest.mark.parametrize("name", list(DIM_LIMITS))
    @pytest.mark.parametrize("value", ["limit", 10**18])
    def test_oversized_dims_rejected_before_allocating(self, name, value):
        dims = {**asdict(GeneratorDims()),
                name: DIM_LIMITS[name] + 1 if value == "limit" else value}
        text = json.dumps({"seed": 3, "dims": dims})
        tracemalloc.start()
        try:
            with pytest.raises(InputFormatError, match=f"{name} must be in"):
                generator.bundle_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestImageFiles:
    def test_f64_round_trip(self, tmp_path, rng):
        img = rng.standard_normal(48)
        path = tmp_path / "img.f64"
        formats.write_image_f64(path, img)
        back = formats.image_from_f64_bytes(formats.read(path), 48)
        assert np.array_equal(back, img)

    def test_f64_length_check(self, tmp_path, rng):
        path = tmp_path / "img.f64"
        formats.write_image_f64(path, rng.standard_normal(48))
        with pytest.raises(InputFormatError):
            formats.image_from_f64_bytes(formats.read(path), 47)
        with open(path, "ab") as fh:
            fh.write(b"xyz")
        with pytest.raises(InputFormatError):
            formats.image_from_f64_bytes(formats.read(path), 48)

    def test_ppm_header_and_scaling(self):
        img = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0,
                        0.5, 0.5, 0.5, 0.25, 0.25, 0.25])
        data = formats.ppm_bytes(img, (2, 2, 3))
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
        data = formats.ppm_bytes(np.ones(12), (2, 2, 3))
        values = np.frombuffer(data.split(b"\n255\n", 1)[1], dtype=np.uint8)
        assert np.all(values == 0)
