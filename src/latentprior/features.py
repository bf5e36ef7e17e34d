"""Fixed random feature embeddings.

A FeatureNet is a seeded two-layer network mapping flat images to a
k-vector, both activations spaces.lru with slope SLOPE. Instances stand in
for the pretrained embeddings the full pipeline would use: a perceptual
loss proxy during inversion, the Frechet feature map, and the identity
embedding. Each role gets its own fixed seed; weights are never trained.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .seeding import STREAM_FEATURES, rng_from
from .spaces import lru, lru_deriv

SLOPE = 0.2
# Fixed seed of the reconstruction-loss proxy network; part of the loss
# definition, not a tunable.
PROXY_SEED = 101
DEFAULT_HIDDEN = 128
DEFAULT_FEATURES = 64


@dataclass(frozen=True)
class FeatureNet:
    w1: np.ndarray  # (hidden, n_in)
    b1: np.ndarray
    w2: np.ndarray  # (k, hidden)
    b2: np.ndarray

    @property
    def n_in(self) -> int:
        return self.w1.shape[1]


def init_feature_net(seed: int, n_in: int, hidden: int = DEFAULT_HIDDEN,
                     k: int = DEFAULT_FEATURES) -> FeatureNet:
    rng = rng_from(seed, STREAM_FEATURES)
    w1 = rng.standard_normal((hidden, n_in)) * np.sqrt(2.0 / n_in)
    b1 = rng.standard_normal(hidden) * 0.1
    w2 = rng.standard_normal((k, hidden)) * np.sqrt(2.0 / hidden)
    b2 = rng.standard_normal(k) * 0.1
    return FeatureNet(w1, b1, w2, b2)


@lru_cache(maxsize=8)
def proxy_net(n_in: int) -> FeatureNet:
    """The loss-proxy network for a given image size (cached, fixed seed)."""
    return init_feature_net(PROXY_SEED, n_in)


def _preactivations(net: FeatureNet, images: np.ndarray):
    """Hidden and output pre-activations of an (n, n_in) batch."""
    h_pre = images @ net.w1.T + net.b1
    return h_pre, lru(h_pre, SLOPE) @ net.w2.T + net.b2


def embed(net: FeatureNet, images) -> np.ndarray:
    """Embed (n, n_in) images into (n, n_out) features."""
    return embed_vjp(net, images)[0]


def embed_vjp(net: FeatureNet, images):
    """Features of (n, n_in) images and the pullback of their row-wise VJP.

    Returns (features, pullback), both from one forward pass: ``features``
    equals embed(net, images), and ``pullback(cotangents)`` maps (n, n_out)
    feature cotangents to the (n, n_in) gradient of <features, cotangents>
    with respect to the images, row i pulled back through image row i.
    """
    x = np.asarray(images, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.n_in:
        raise ValueError(f"expected (n, {net.n_in}) images, got {x.shape}")
    h_pre, f_pre = _preactivations(net, x)

    def pullback(feature_cotangents) -> np.ndarray:
        cot = np.asarray(feature_cotangents, dtype=np.float64)
        if cot.shape != f_pre.shape:
            raise ValueError(
                f"expected cotangents of shape {f_pre.shape}, got {cot.shape}"
            )
        g_fpre = cot * lru_deriv(f_pre, SLOPE)
        g_hpre = (g_fpre @ net.w2) * lru_deriv(h_pre, SLOPE)
        return g_hpre @ net.w1

    return lru(f_pre, SLOPE), pullback


def min_preactivation_gap(net: FeatureNet, image) -> float:
    """Smallest |pre-activation| for one image; see the generator twin."""
    h_pre, f_pre = _preactivations(net, np.asarray(image, dtype=np.float64)[None])
    return float(min(np.min(np.abs(h_pre)), np.min(np.abs(f_pre))))
