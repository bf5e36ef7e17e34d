"""Deterministic toy style-based generator with analytic gradients.

Two stages, mirroring the usual style-based pipeline at desk scale:

* mapping network M: a chain of affine layers with leaky-ReLU
  activations, the final activation included. Every activation here and
  in G is spaces.lru with slope SLOPE_V_TO_W, the inverse of the V map's
  slope, so V (spaces.w_to_v of W) recovers the final pre-activation to
  within 4 ulp. map_latents runs M over near-equal row blocks of at least
  MAP_BLOCK_ROWS (512) rows, one block below twice that, which its
  workers share. Each worker maps its blocks through two (block rows,
  hidden_dim) buffers and one MAP_CHUNK_BYTES chunk buffer, which the
  caller allocates and every layer and block reuse, so memory does not
  grow with the batch beyond the (n, d) input and output. On OpenBLAS
  such blocks give the same bits as mapping the whole batch at once, at
  any worker count; batches of 37 rows or fewer round differently, which
  is why no block is short.
* synthesis network G: starts from a learned constant feature map and runs
  one stage per scale. Each stage upsamples by 2 (except the first),
  modulates features with a per-channel scale and bias computed from that
  scale's style by a learned affine map, applies fixed channel-mixing
  weights standing in for convolution, adds a fixed seeded noise field, and
  applies a leaky ReLU. A final linear projection produces the RGB image.
  There is no output nonlinearity. Nearest-neighbour upsampling commutes
  with the per-pixel modulation and mixing, so the forward pass does that
  channel work at the resolution before upsampling (4x fewer pixels) and
  upsamples once, into the buffer the noise is added to. Every output bit
  is the same as in the upsample-first order, except where the base map is
  a single pixel: its scale-1 mixing is then a vector-matrix product,
  which numpy hands to another BLAS kernel that rounds differently.
  The mixing and the output projection run as one flat GEMM over every
  pixel, which keeps the bits of the per-image products, except on
  one-pixel maps and sums over more than FLAT_GEMM_MAX_CHANNELS channels;
  those stay per-image products. Each scale's style affine is one product
  over the whole batch, because on OpenBLAS its bits differ between 64
  rows or fewer and larger batches. synthesize_batch then runs the
  per-pixel work over row blocks whose full-resolution map is about
  SYNTH_BLOCK_BYTES (64 rows at default dims), so each block's maps stay
  in a core's L2 cache and memory beyond the output stays a few blocks at
  any n. The block size never changes a bit.

Everything is regenerated bit-exactly from (seed, dims); weights are never
serialized. bundle_to_json and bundle_from_json turn a bundle into
bundle.json's text, (seed, dims), and back; the image formats, and every
file read and write, live in formats. All evaluation is batched over
(n, s, d) style stacks: synthesize_batch runs the forward pass, and
synthesize_vjp_batch runs that same pass once, evaluates a caller's
row-wise loss on the images it made, and pulls the loss gradient back
through the cached pass, so one optimization step costs one forward and
one backward pass. The backward mirrors the forward's order: the adjoint
of each 2x upsample is a 2x2 sum-pool, so it pools the cotangent once per
scale and does the mixer transpose, the style gradients and the scale
product at the lower resolution. That sums in another order than pooling
last, so its bits differ from the full-resolution backward's in the last
places.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError
from .formats import json_object, json_text
# not used here: the benchmark's cli workload imports it from this module,
# and tests/test_benchmark_names.py pins that name
from .formats import write_image_f64  # noqa: F401
from .seeding import STREAM_WEIGHTS, STREAM_Z, rng_from
from .spaces import SLOPE_V_TO_W, lru, lru_deriv

# Std of mapping-network bias draws; gives W a nonzero mean without
# dominating the pre-activations.
BIAS_STD = 0.1
# Std of the fixed per-scale noise fields.
NOISE_STD = 0.25
# Gain on the output projection. Keeps pixel magnitudes small, which sets
# the reconstruction-loss scale relative to the latent prior so the default
# prior weights sit in their useful range.
OUT_GAIN = 0.5
# Fewest rows in one block of the mapping forward pass: one (512, 512)
# float64 hidden block is 2 MiB, a core's L2. No block may be short: on
# OpenBLAS, 37 rows or fewer round differently from the same rows inside a
# larger product, while blocks this size give the whole batch's bits.
MAP_BLOCK_ROWS = 512
# Bytes of one row chunk of the mapping's bias add and activation (64 rows
# at default dims): the chunk stays in cache between the two passes.
MAP_CHUNK_BYTES = 1 << 18
# Bytes of one full-resolution feature map in a block of synthesize_batch
# (64 rows at default dims), so that a block's maps stay in a 2 MiB L2.
# Any block size gives the same bits.
SYNTH_BLOCK_BYTES = 1 << 20
# Widest channel sum the synthesis runs as one flat GEMM over all pixels.
# On OpenBLAS a flat GEMM summing 32 or more terms rounds differently from
# the per-image products, and differently at different row counts.
FLAT_GEMM_MAX_CHANNELS = 31
# Largest value of each GeneratorDims field. (seed, dims) is all a bundle
# file holds, so these bound what one can make init_generator allocate:
# under 0.5 GB of weights, most of it 8 mapping layers of 2048 x 2048.
DIM_LIMITS = {"latent_dim": 1024, "hidden_dim": 2048, "mapping_layers": 8,
              "scales": 8, "channels": 64, "image_size": 512}


@dataclass(frozen=True)
class GeneratorDims:
    """Architecture record; (seed, dims) fully determines a generator."""

    latent_dim: int = 32
    hidden_dim: int = 512
    mapping_layers: int = 3
    scales: int = 4
    channels: int = 8
    image_size: int = 16

    def __post_init__(self):
        for name, limit in DIM_LIMITS.items():
            if not 1 <= getattr(self, name) <= limit:
                raise ValueError(f"{name} must be in [1, {limit}]")
        if self.image_size % (1 << (self.scales - 1)) != 0:
            raise ValueError(
                f"image_size {self.image_size} not reachable from "
                f"{self.scales} scales of 2x upsampling"
            )

    @property
    def base_size(self) -> int:
        return self.image_size >> (self.scales - 1)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return (self.image_size, self.image_size, 3)

    @property
    def pixels(self) -> int:
        return self.image_size * self.image_size * 3


@dataclass(frozen=True)
class MappingNetwork:
    weights: tuple  # (fan_out, fan_in) matrices
    biases: tuple   # (fan_out,) vectors


@dataclass(frozen=True)
class SynthesisNetwork:
    base: np.ndarray          # (b, b, c) learned constant
    style_affines: tuple      # per scale: (2c, d), rows = scale then bias
    mixers: tuple             # per scale: (c, c) fixed mixing weights
    noises: tuple             # per scale: (r, r, c) fixed noise field
    out_proj: np.ndarray      # (3, c) image projection


@dataclass(frozen=True)
class GeneratorBundle:
    dims: GeneratorDims
    seed: int
    mapping: MappingNetwork
    synthesis: SynthesisNetwork


def init_generator(seed: int, dims: GeneratorDims | None = None) -> GeneratorBundle:
    """Draw all weights for (seed, dims); same arguments give identical bundles.

    Weights use scaled normal initialization with std sqrt(2 / fan_in);
    mapping biases are small normals, the base feature map is standard
    normal, and noise fields are normals scaled by NOISE_STD. Draw order is
    fixed: mapping layers first, then base, then per-scale affine/mixer/
    noise, then the output projection.
    """
    if dims is None:
        dims = GeneratorDims()
    rng = rng_from(seed, STREAM_WEIGHTS)
    d, h, c = dims.latent_dim, dims.hidden_dim, dims.channels

    widths = [d] + [h] * dims.mapping_layers + [d]
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in))
        biases.append(rng.standard_normal(fan_out) * BIAS_STD)

    b = dims.base_size
    base = rng.standard_normal((b, b, c))
    affines, mixers, noises = [], [], []
    for k in range(dims.scales):
        r = b << k
        affines.append(rng.standard_normal((2 * c, d)) * np.sqrt(2.0 / d))
        mixers.append(rng.standard_normal((c, c)) * np.sqrt(2.0 / c))
        noises.append(rng.standard_normal((r, r, c)) * NOISE_STD)
    out_proj = rng.standard_normal((3, c)) * (OUT_GAIN * np.sqrt(2.0 / c))

    return GeneratorBundle(
        dims=dims,
        seed=seed,
        mapping=MappingNetwork(tuple(weights), tuple(biases)),
        synthesis=SynthesisNetwork(base, tuple(affines), tuple(mixers),
                                   tuple(noises), out_proj),
    )


def sample_z(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n uniform draws from the unit hypersphere: normalized standard normals.

    Returns (n, d) rows from one (n, d) draw. A row with norm <= 1e-12 is
    dropped and rows are drawn again until there are n; the kept rows stay
    in stream order, so the result equals n sequential one-row draws.
    """
    if n < 1 or d < 1:
        raise ValueError(f"n and d must be >= 1, got n={n}, d={d}")
    kept = []
    while n > 0:
        zs = rng.standard_normal((n, d))
        # each row's 1 x d by d x 1 product goes to the same BLAS dot as
        # z @ z on that row, so the norms keep its bits; np.linalg.norm
        # and einsum sum in another order
        norms = np.sqrt((zs[:, None, :] @ zs[:, :, None])[:, 0, 0])
        ok = norms > 1e-12
        kept.append(zs[ok] / norms[ok, None])
        n -= int(np.count_nonzero(ok))
    return np.concatenate(kept)


def sample_styles(bundle: GeneratorBundle, seed, n: int, threads: int = 1) -> np.ndarray:
    """n mapped styles from fresh z draws; seed is an int or a Generator.
    ``threads`` workers run the mapping (map_latents)."""
    rng = seed if isinstance(seed, np.random.Generator) else rng_from(seed, STREAM_Z)
    return map_latents(bundle, sample_z(rng, n, bundle.dims.latent_dim), threads)


def pmap(fn, items, threads: int) -> list:
    """Ordered map over a pool of ``threads`` worker threads; results match
    input order. One item or one thread runs inline, with no pool."""
    items = list(items)
    if threads > 1 and len(items) > 1:
        # imported here, so that importing the package loads no concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _row_blocks(a: np.ndarray) -> list:
    """Near-equal row blocks of a, none shorter than MAP_BLOCK_ROWS.

    Fewer than 2 * MAP_BLOCK_ROWS rows, an empty input included, stay one
    block, shorter than MAP_BLOCK_ROWS if a is.
    """
    return np.array_split(a, max(1, len(a) // MAP_BLOCK_ROWS))


def _bias_lru(y: np.ndarray, b: np.ndarray, work: np.ndarray) -> None:
    """y += b, then the activation in place, over row chunks of y that fit
    the flat ``work`` buffer, which takes lru's slope * y: each chunk stays
    in cache between the passes, and no pass allocates."""
    rows = max(1, work.size // y.shape[1])
    for j in range(0, len(y), rows):
        chunk = y[j:j + rows]
        chunk += b
        lru(chunk, SLOPE_V_TO_W, out=chunk,
            work=work[:chunk.size].reshape(chunk.shape))


def map_latents(bundle: GeneratorBundle, zs, threads: int = 1) -> np.ndarray:
    """Batched mapping-network forward pass: (n, d) -> (n, d) styles.

    Runs over row blocks (see _row_blocks), which ``threads`` workers
    (pmap) take one at a time, never more workers than blocks; one block
    or one worker runs inline. A block computes the same whichever worker
    maps it, so the result has the same bits at any thread count. Each
    worker has two (block rows, hidden_dim) buffers and one
    MAP_CHUNK_BYTES buffer, all allocated here, once per call: each hidden
    layer writes its product into one buffer, adds the bias and applies
    the activation in place, chunk by chunk through the chunk buffer
    (_bias_lru), and the next layer reads it and writes the other. The
    last layer writes into the output. The workers allocate nothing, so
    memory beyond the input and the output stays those buffers, about
    4.25 MiB per worker at default dims, at any n.
    """
    a = np.asarray(zs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != bundle.dims.latent_dim:
        raise ValueError(
            f"expected (n, {bundle.dims.latent_dim}) inputs, got {a.shape}"
        )
    out = np.empty(a.shape)
    layers = list(zip(bundle.mapping.weights, bundle.mapping.biases))
    blocks = list(zip(_row_blocks(a), _row_blocks(out)))
    workers = max(1, min(threads, len(blocks)))
    width = max(bundle.dims.hidden_dim, bundle.dims.latent_dim)
    bufs = np.empty((workers, 2, len(blocks[0][0]), bundle.dims.hidden_dim))
    works = np.empty((workers, max(width, MAP_CHUNK_BYTES // 8)))
    todo, lock = iter(blocks), threading.Lock()

    def run(k):
        # worker k maps the next block left until there is none, so a
        # worker slowed by another process takes fewer blocks
        while True:
            with lock:
                x, dst = next(todo, (None, None))
            if x is None:
                return
            for i, (w, b) in enumerate(layers):
                # a row slice of a buffer or of out is contiguous, so
                # np.matmul calls the BLAS kernel that x @ w.T does, with
                # the same bits
                y = bufs[k, i % 2, :len(x)] if i < len(layers) - 1 else dst
                np.matmul(x, w.T, out=y)
                _bias_lru(y, b, works[k])
                x = y

    pmap(run, range(workers), workers)
    return out


def _check_stacks(bundle: GeneratorBundle, stacks) -> np.ndarray:
    arr = np.asarray(stacks, dtype=np.float64)
    s, d = bundle.dims.scales, bundle.dims.latent_dim
    if arr.ndim != 3 or arr.shape[1:] != (s, d):
        raise ValueError(f"expected stacks of shape (n, {s}, {d}), got {arr.shape}")
    return arr


def _upsample(a: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x upsampling of (n, h, w, c) maps, as a new array."""
    n, h, w, c = a.shape
    out = np.empty((n, h, 2, w, 2, c))
    out[...] = a[:, :, None, :, None, :]
    return out.reshape(n, 2 * h, 2 * w, c)


def _block_rows(dims: GeneratorDims) -> int:
    """Rows of one block of the uncached forward: SYNTH_BLOCK_BYTES of one
    full-resolution feature map, and at least one row."""
    return max(1, SYNTH_BLOCK_BYTES // (8 * dims.image_size ** 2 * dims.channels))


def _per_pixel(a: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """The channel product a @ w of every pixel of (n, h, w, c) maps.

    One flat (n·h·w, c) GEMM, which has the bits of the stacked product
    and runs as one BLAS call instead of n·h small ones. Two cases stay
    stacked, because a flat GEMM does not reproduce their bits: a
    one-pixel map, which numpy sends to the vector-matrix kernel, and a
    sum over more than FLAT_GEMM_MAX_CHANNELS channels.
    """
    shape = a.shape[:3] + w.shape[1:]
    if out is not None:
        out = out.reshape(shape)  # a view: out is a contiguous row block
    if shape[1] * shape[2] == 1 or a.shape[3] > FLAT_GEMM_MAX_CHANNELS:
        return np.matmul(a, w, out=out)
    flat = np.matmul(a.reshape(-1, a.shape[3]), w,
                     out=None if out is None else out.reshape(-1, shape[3]))
    return flat.reshape(shape)


def _synthesis_rows(syn: SynthesisNetwork, mods: list, keep_cache: bool,
                    out: np.ndarray) -> list:
    """The synthesis pass of the rows whose style affine outputs mods holds.
    Writes their flat images into out and returns the per-scale cache (see
    _forward)."""
    n, c = mods[0].shape[0], syn.base.shape[-1]
    x = np.broadcast_to(syn.base, (n,) + syn.base.shape)
    cache = []
    for k, mod in enumerate(mods):
        scale = 1.0 + mod[:, :c]
        m = x * scale[:, None, None, :]
        m += mod[:, None, None, c:]
        y = _per_pixel(m, syn.mixers[k].T)
        z = _upsample(y) if k > 0 else y
        z += syn.noises[k]
        if keep_cache:
            cache.append((x, scale, z))
        x = lru(z, SLOPE_V_TO_W, out=None if keep_cache else z)
    _per_pixel(x, syn.out_proj.T, out)
    return cache


def _forward(bundle: GeneratorBundle, stacks: np.ndarray, keep_cache: bool):
    """Shared forward pass. Returns ((n, pixels) images, per-scale cache).

    At each scale the modulation and the channel mixing run on the previous
    scale's output, before upsampling: both act on each pixel alone, so
    they commute with nearest-neighbour upsampling, bit for bit. The mixed
    features are then upsampled into a new buffer and the noise field is
    added in place. The mixing and the output projection are flat GEMMs
    over every pixel of the rows at hand (_per_pixel).

    Each scale's style affine is one product over the whole batch. Without
    a cache, the rest runs over blocks of _block_rows rows, each
    writing its rows of the one output: a block's maps stay in cache, where
    whole-batch maps stream through memory at every step and the batch's
    memory grows by a full-resolution map per live temporary. Every product
    inside a block keeps its bits at any row count, so the images are the
    same as from one pass over the whole batch, which is what the cached
    pass runs.

    Cache entries are (pre-modulation features before the upsample,
    per-sample channel scales, full-resolution pre-activation values), as
    needed by the backward pass. Without a cache the activation overwrites
    its input. The upsample-first order stays the test oracle: of the
    forward bit for bit, and of the backward to rounding.
    """
    syn = bundle.synthesis
    n = stacks.shape[0]
    # (n, 2c) per scale: channel scales minus one, then channel biases. One
    # product over the whole batch, never per block: on OpenBLAS it rounds
    # differently at 64 rows or fewer than in a larger batch.
    mods = [stacks[:, k, :] @ a.T for k, a in enumerate(syn.style_affines)]
    images = np.empty((n, bundle.dims.pixels))
    if keep_cache:
        return images, _synthesis_rows(syn, mods, True, images)
    step = _block_rows(bundle.dims)
    for i in range(0, n, step):
        _synthesis_rows(syn, [m[i:i + step] for m in mods], False,
                        images[i:i + step])
    return images, []


def synthesize_batch(bundle: GeneratorBundle, stacks) -> np.ndarray:
    """Generate flat images for (n, s, d) style stacks. Returns (n, pixels).

    Runs _forward without a cache, in row blocks; the block size never
    changes a bit of the result.
    """
    arr = _check_stacks(bundle, stacks)
    images, _ = _forward(bundle, arr, keep_cache=False)
    return images


def synthesize(bundle: GeneratorBundle, stack) -> np.ndarray:
    """Generate one flat image (height * width * 3,) from an (s, d) stack."""
    arr = np.asarray(stack, dtype=np.float64)
    s, d = bundle.dims.scales, bundle.dims.latent_dim
    if arr.shape != (s, d):
        raise ValueError(f"expected stack of shape ({s}, {d}), got {arr.shape}")
    return synthesize_batch(bundle, arr[None])[0]


def synthesize_vjp_batch(bundle: GeneratorBundle, stacks, loss_fn):
    """Images, per-row losses and exact style gradients from one forward pass.

    ``loss_fn(images) -> (losses, cotangents)`` is evaluated on the (n, pixels)
    images the pass produced; the cotangents (dloss/dimages, shape (n, pixels))
    are pulled back through the cached pass. Returns (images, losses,
    style_grads), the gradients having the stacks' shape. The leaky-ReLU
    subgradient at exactly 0 uses the positive branch.
    """
    arr = _check_stacks(bundle, stacks)
    syn = bundle.synthesis
    dims = bundle.dims
    n = arr.shape[0]

    images, cache = _forward(bundle, arr, keep_cache=True)
    losses, cotangents = loss_fn(images)
    cot = np.asarray(cotangents, dtype=np.float64)
    if cot.shape != (n, dims.pixels):
        raise ValueError(
            f"expected cotangents of shape ({n}, {dims.pixels}), got {cot.shape}"
        )
    hw = dims.image_size
    g = cot.reshape(n, hw, hw, 3) @ syn.out_proj
    g_stacks = np.zeros_like(arr)
    for k in reversed(range(dims.scales)):
        x, scale, z = cache[k]
        gz = g * lru_deriv(z, SLOPE_V_TO_W)
        if k > 0:
            # adjoint of the 2x nearest upsample: a 2x2 sum-pool
            gz = (gz[:, 0::2, 0::2] + gz[:, 1::2, 0::2]
                  + gz[:, 0::2, 1::2] + gz[:, 1::2, 1::2])
        gm = gz @ syn.mixers[k]
        g_scale = np.einsum("nhwc,nhwc->nc", gm, x)
        g_bias = gm.sum(axis=(1, 2))
        g_stacks[:, k, :] = np.concatenate([g_scale, g_bias], axis=1) @ syn.style_affines[k]
        if k > 0:
            g = gm * scale[:, None, None, :]
    return images, losses, g_stacks


def min_preactivation_gap(bundle: GeneratorBundle, stack) -> float:
    """Smallest |pre-activation| in the synthesis pass for this stack.

    Finite-difference gradient checks are only trustworthy away from the
    leaky-ReLU kinks; this reports how close the nearest unit sits.
    """
    arr = np.asarray(stack, dtype=np.float64)
    _, cache = _forward(bundle, arr[None], keep_cache=True)
    return min(float(np.min(np.abs(z))) for _, _, z in cache)


# --- persistence ------------------------------------------------------------


def bundle_to_json(bundle: GeneratorBundle) -> str:
    return json_text({"seed": bundle.seed, "dims": bundle.dims})


def bundle_from_json(data: str | bytes) -> GeneratorBundle:
    doc = json_object(data, "bundle")
    try:
        seed, fields = doc["seed"], doc["dims"]
        if not (type(seed) is int and seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        if not (isinstance(fields, dict)
                and all(type(v) is int for v in fields.values())):
            raise ValueError("dims must be an object of integers")
        if fields.keys() != DIM_LIMITS.keys():
            raise ValueError(f"dims must hold exactly {sorted(DIM_LIMITS)}")
        dims = GeneratorDims(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"invalid bundle JSON: {exc}") from exc
    return init_generator(seed, dims)
