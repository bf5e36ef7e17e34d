"""Deterministic toy style-based generator with analytic gradients.

Two stages, mirroring the usual style-based pipeline at desk scale:

* mapping network M: a chain of affine layers with leaky-ReLU (slope 0.2)
  activations, the final activation included, so that the corrected space V
  (leaky ReLU with slope 5.0 applied to W) recovers the final pre-activation
  exactly.
* synthesis network G: starts from a learned constant feature map and runs
  one stage per scale. Each stage upsamples by 2 (except the first),
  modulates features with a per-channel scale and bias computed from that
  scale's style by a learned affine map, applies fixed channel-mixing
  weights standing in for convolution, adds a fixed seeded noise field, and
  applies a leaky ReLU. A final linear projection produces the RGB image.
  There is no output nonlinearity.

Everything is regenerated bit-exactly from (seed, dims); weights are never
serialized. All evaluation is batched over (n, s, d) style stacks:
synthesize_batch runs the forward pass, and synthesize_vjp_batch runs that
same pass once, evaluates a caller's row-wise loss on the images it made,
and pulls the loss gradient back through the cached pass, so one
optimization step costs one forward and one backward pass.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputFormatError
from .seeding import STREAM_WEIGHTS, STREAM_Z, rng_from

# Slope of every activation in the generator. Must stay at 0.2 so the V map
# (slope 5.0) undoes the mapping network's final nonlinearity.
ACT_SLOPE = 0.2
# Std of mapping-network bias draws; gives W a nonzero mean without
# dominating the pre-activations.
BIAS_STD = 0.1
# Std of the fixed per-scale noise fields.
NOISE_STD = 0.25
# Gain on the output projection. Keeps pixel magnitudes small, which sets
# the reconstruction-loss scale relative to the latent prior so the default
# prior weights sit in their useful range.
OUT_GAIN = 0.5


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
        for name in ("latent_dim", "hidden_dim", "mapping_layers", "scales",
                     "channels", "image_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
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
        # the 1-D norm of each row; axis-wise norms round differently
        norms = np.array([np.sqrt(z @ z) for z in zs])
        ok = norms > 1e-12
        kept.append(zs[ok] / norms[ok, None])
        n -= int(np.count_nonzero(ok))
    return np.concatenate(kept)


def sample_styles(bundle: GeneratorBundle, seed, n: int) -> np.ndarray:
    """n mapped styles from fresh z draws; seed is an int or a Generator."""
    rng = seed if isinstance(seed, np.random.Generator) else rng_from(seed, STREAM_Z)
    return map_latents(bundle, sample_z(rng, n, bundle.dims.latent_dim))


def map_latents(bundle: GeneratorBundle, zs) -> np.ndarray:
    """Batched mapping-network forward pass: (n, d) -> (n, d) styles."""
    a = np.asarray(zs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != bundle.dims.latent_dim:
        raise ValueError(
            f"expected (n, {bundle.dims.latent_dim}) inputs, got {a.shape}"
        )
    for w, b in zip(bundle.mapping.weights, bundle.mapping.biases):
        pre = a @ w.T + b
        a = np.where(pre >= 0, pre, ACT_SLOPE * pre)
    return a


def _check_stacks(bundle: GeneratorBundle, stacks) -> np.ndarray:
    arr = np.asarray(stacks, dtype=np.float64)
    s, d = bundle.dims.scales, bundle.dims.latent_dim
    if arr.ndim != 3 or arr.shape[1:] != (s, d):
        raise ValueError(f"expected stacks of shape (n, {s}, {d}), got {arr.shape}")
    return arr


def _forward(bundle: GeneratorBundle, stacks: np.ndarray, keep_cache: bool):
    """Shared forward pass. Returns (flat images, per-scale cache).

    Cache entries are (pre-modulation features, per-sample channel scales,
    pre-activation values) as needed by the backward pass.
    """
    syn = bundle.synthesis
    dims = bundle.dims
    n = stacks.shape[0]
    c = dims.channels

    x = np.broadcast_to(syn.base, (n,) + syn.base.shape)
    cache = []
    for k in range(dims.scales):
        if k > 0:
            x = x.repeat(2, axis=1).repeat(2, axis=2)
        mod = stacks[:, k, :] @ syn.style_affines[k].T
        scale = 1.0 + mod[:, :c]
        bias = mod[:, c:]
        m = x * scale[:, None, None, :] + bias[:, None, None, :]
        y = m @ syn.mixers[k].T
        z = y + syn.noises[k]
        if keep_cache:
            cache.append((x, scale, z))
        x = np.where(z >= 0, z, ACT_SLOPE * z)
    images = x @ syn.out_proj.T
    return images.reshape(n, -1), cache


def synthesize_batch(bundle: GeneratorBundle, stacks) -> np.ndarray:
    """Generate flat images for (n, s, d) style stacks. Returns (n, pixels)."""
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
    c = dims.channels

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
        u, scale, z = cache[k]
        gm = (g * np.where(z >= 0, 1.0, ACT_SLOPE)) @ syn.mixers[k]
        g_scale = np.einsum("nhwc,nhwc->nc", gm, u)
        g_bias = gm.sum(axis=(1, 2))
        g_stacks[:, k, :] = np.concatenate([g_scale, g_bias], axis=1) @ syn.style_affines[k]
        if k > 0:
            gu = gm * scale[:, None, None, :]
            half = u.shape[1] // 2
            g = gu.reshape(n, half, 2, half, 2, c).sum(axis=(2, 4))
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
    doc = {"seed": bundle.seed, "dims": asdict(bundle.dims)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def bundle_from_json(text: str) -> GeneratorBundle:
    try:
        doc = json.loads(text)
        seed = int(doc["seed"])
        dims = GeneratorDims(**doc["dims"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"invalid bundle JSON: {exc}") from exc
    return init_generator(seed, dims)


def save_bundle(bundle: GeneratorBundle, path) -> None:
    with open(path, "w") as fh:
        fh.write(bundle_to_json(bundle))


def load_bundle(path) -> GeneratorBundle:
    with open(path) as fh:
        return bundle_from_json(fh.read())


# --- image files ------------------------------------------------------------
#
# Exact pipelines use raw little-endian float64 (no header); PPM (P6, 8-bit)
# is for eyeballing, with values mapped affinely from a [lo, hi] range that
# defaults to the empirical range of the batch being written.


def image_to_f64_bytes(image) -> bytes:
    return np.ascontiguousarray(np.asarray(image, dtype=np.float64).ravel(),
                                dtype="<f8").tobytes()


def image_from_f64_bytes(data: bytes, pixels: int | None = None) -> np.ndarray:
    if len(data) % 8 != 0:
        raise InputFormatError("raw image length is not a multiple of 8")
    flat = np.frombuffer(data, dtype="<f8").astype(np.float64)
    if pixels is not None and flat.size != pixels:
        raise InputFormatError(
            f"raw image has {flat.size} values, expected {pixels}"
        )
    return flat


def write_image_f64(path, image) -> None:
    with open(path, "wb") as fh:
        fh.write(image_to_f64_bytes(image))


def read_image_f64(path, pixels: int | None = None) -> np.ndarray:
    with open(path, "rb") as fh:
        return image_from_f64_bytes(fh.read(), pixels)


def ppm_bytes(image, shape: tuple[int, int, int], lo: float | None = None,
              hi: float | None = None) -> bytes:
    img = np.asarray(image, dtype=np.float64).reshape(shape)
    if lo is None:
        lo = float(img.min())
    if hi is None:
        hi = float(img.max())
    if hi > lo:
        scaled = (img - lo) / (hi - lo) * 255.0
    else:
        scaled = np.zeros_like(img)
    data = np.clip(np.rint(scaled), 0, 255).astype(np.uint8)
    header = f"P6\n{shape[1]} {shape[0]}\n255\n".encode("ascii")
    return header + data.tobytes()


def write_ppm(path, image, shape: tuple[int, int, int],
              lo: float | None = None, hi: float | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(ppm_bytes(image, shape, lo, hi))
