"""Desk-scale experiment protocols.

Four experiments, all deterministic given a seed:

- interpolation_experiment: invert a pool of generated targets with and
  without the prior, then compare images synthesized along interpolations
  of the estimated latents against the ground-truth interpolations.
- lambda_sweep: the interpolation experiment split into one report per
  prior weight, which sweep_to_json summarizes.
- fid_tradeoff: match truncation and compression operating points by a
  Frechet feature distance, then compare identity preservation and
  per-pixel diversity at the matched points.
- pc_magnitude_profile: principal-component magnitude statistics of a
  latent batch, split into in-threshold and tail samples.

The interpolation experiment inverts each (space, prior weight)
condition's target pool with one invert_batch call, on the calling
thread: a batched step costs a flat 44-49 us per problem-iteration from
20 to 80 problems (W+, one BLAS thread on a 2-core CPU), bound by
arithmetic and memory traffic, and two threads over a 20-problem
backward pass ran only 1.01-1.18x faster. Only fid_tradeoff's operating
points use a thread pool, whose worker count never changes a result.
Report aggregates (curves, medians) are plain functions of the stored
raw records.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .correction import (CorrectionConfig, compress_rows, compression_threshold,
                         truncate_rows, w_to_pc)
from .errors import NumericalFailure
from .features import embed, init_feature_net
from .formats import csv_text, json_text, record_fields
from .gaussian import GaussianModel, frechet_distance, moments
# not called here: perfbench wraps evaluation.fit_gaussian (name pinned in tests)
from .gaussian import fit_gaussian  # noqa: F401
from .generator import (
    GeneratorBundle,
    map_latents,
    sample_styles,
    sample_z,
    synthesize_batch,
)
from .inversion import (
    LOSS_PIXEL,
    SPACE_W,
    SPACE_WPLUS,
    InversionConfig,
    invert,  # noqa: F401  perfbench wraps evaluation.invert (name pinned in tests)
    invert_batch,
    latent_shape,
    reconstruction_loss,
)
from .seeding import (
    STREAM_PAIRS,
    STREAM_TARGETS,
    STREAM_TASKS,
    STREAM_Z,
    child_seed,
    rng_from,
)
from .spaces import lift_rows

# Fixed seeds for the two stand-in feature networks: one plays the role of
# the distribution-distance features, one the role of the identity embedding.
FID_FEATURE_SEED = 202
IDENTITY_FEATURE_SEED = 303

DEFAULT_T_GRID = tuple(i / 10 for i in range(11))
DEFAULT_LAMBDA_GRID = (0.0, 1e-5, 1e-4, 1e-3)


def _pmap(fn, items, threads: int) -> list:
    """Ordered map, optionally over a thread pool. Results match input order."""
    items = list(items)
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def condition_label(space: str, prior_weight: float) -> str:
    return f"{space}:lambda={prior_weight:g}"


# --- interpolation experiment ----------------------------------------------


@dataclass(frozen=True)
class InterpolationConfig:
    """Protocol parameters for the interpolation-error experiment.

    One condition is run per (space, prior weight) combination. Within a
    space, every prior weight sees the same targets, the same pairs, and
    the same per-target noise seeds, so prior-on vs prior-off is a paired
    comparison. iterations / learning_rate of None fall back to the
    inversion defaults for the space; the experiment defaults run longer
    at a smaller step than a single-shot inversion because interpolation
    quality hinges on fully settled endpoints, and they still keep a full
    sweep in the minutes range at desk scale.
    """

    spaces: tuple[str, ...] = (SPACE_W, SPACE_WPLUS)
    prior_weights: tuple[float, ...] = (0.0, 1e-4)
    n_images: int = 20
    n_pairs: int = 40
    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    iterations: int | None = 3000
    learning_rate: float | None = 0.02
    loss_kind: str = LOSS_PIXEL
    noise_initial_std: float = InversionConfig.noise_initial_std
    noise_ramp_fraction: float = InversionConfig.noise_ramp_fraction
    oracle_init: bool = False
    seed: int = 0

    def __post_init__(self):
        if not self.spaces:
            raise ValueError("at least one space is required")
        if not self.prior_weights:
            raise ValueError("prior weights must be nonempty")
        # copysign refuses -0.0 too: it equals 0.0 but has its own label
        if any(math.copysign(1.0, w) < 0 for w in self.prior_weights):
            raise ValueError("prior weights must be nonnegative")
        for sp in self.spaces:  # InversionConfig checks the inversion settings
            for w in self.prior_weights:
                self.inversion_config(sp, w)
        labels = {condition_label(sp, w)
                  for sp in self.spaces for w in self.prior_weights}
        if len(labels) != len(self.spaces) * len(self.prior_weights):
            raise ValueError("repeated spaces or prior weights, or weights alike "
                             "under %g, would share condition labels")
        if self.n_images < 2:
            raise ValueError("n_images must be >= 2")
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        grid = tuple(float(t) for t in self.t_grid)
        if any(t < 0 or t > 1 for t in grid):
            raise ValueError("t_grid values must lie in [0, 1]")
        for needed in (0.0, 0.5, 1.0):
            if needed not in grid:
                raise ValueError(f"t_grid must contain {needed}")
        object.__setattr__(self, "t_grid", grid)

    def inversion_config(self, space: str, prior_weight: float) -> InversionConfig:
        """The settings every target of one condition is inverted with."""
        return InversionConfig(space, prior_weight, learning_rate=self.learning_rate,
                               iterations=self.iterations, loss_kind=self.loss_kind,
                               noise_initial_std=self.noise_initial_std,
                               noise_ramp_fraction=self.noise_ramp_fraction)


@dataclass(frozen=True)
class ConditionRecord:
    """Raw per-sample results for one (space, prior weight) condition.

    Entries of targets that failed to invert carry zeros and are masked
    out by target_ok; pairs touching a failed target are masked by
    pair_ok and excluded from every aggregate.
    """

    space: str
    prior_weight: float
    target_ok: np.ndarray      # (n_images,) bool
    latent_errors: np.ndarray  # (n_images,) L2 error vs the true latent
    image_errors: np.ndarray   # (n_images,) final reconstruction error
    pair_indices: np.ndarray   # (n_pairs, 2) indices into the target pool
    pair_ok: np.ndarray        # (n_pairs,) bool
    pair_errors: np.ndarray    # (n_pairs, n_t) per-t interpolation error

    @property
    def n_failed_pairs(self) -> int:
        return int(np.sum(~self.pair_ok))


@dataclass(frozen=True)
class ExperimentReport:
    """One ConditionRecord per condition, keyed by its label in run order;
    the conditions are the keys, and every aggregate is read from them."""

    t_grid: tuple[float, ...]
    records: dict[str, ConditionRecord]
    config: dict

    @property
    def conditions(self) -> tuple[str, ...]:
        return tuple(self.records)

    def record(self, condition: str) -> ConditionRecord:
        if condition not in self.records:
            raise ValueError(f"no condition {condition!r} in report")
        return self.records[condition]

    def curve(self, condition: str):
        """Per-t (mean, std) of the interpolation error over kept pairs;
        None when no pair was kept."""
        rec = self.record(condition)
        kept = rec.pair_errors[rec.pair_ok]
        if kept.shape[0] == 0:
            return None
        mean = kept.mean(axis=0)
        std = kept.std(axis=0, ddof=1) if kept.shape[0] >= 2 else np.zeros_like(mean)
        return mean, std

    def error_at(self, condition: str, t: float) -> float | None:
        try:
            ti = self.t_grid.index(float(t))
        except ValueError:
            raise ValueError(f"t = {t} is not on the grid {self.t_grid}") from None
        curve = self.curve(condition)
        return None if curve is None else float(curve[0][ti])

    def midpoint_error(self, condition: str) -> float | None:
        return self.error_at(condition, 0.5)

    def endpoint_error(self, condition: str) -> float | None:
        start, end = self.error_at(condition, 0.0), self.error_at(condition, 1.0)
        return None if start is None else 0.5 * (start + end)

    def median_latent_error(self, condition: str) -> float | None:
        """Median over the inverted targets; None when every target failed."""
        rec = self.record(condition)
        if not rec.target_ok.any():
            return None
        return float(np.median(rec.latent_errors[rec.target_ok]))

    def mean_image_error(self, condition: str) -> float | None:
        """Mean over the inverted targets; None when every target failed."""
        rec = self.record(condition)
        if not rec.target_ok.any():
            return None
        return float(np.mean(rec.image_errors[rec.target_ok]))


def latent_error(estimate, truth) -> float:
    """Euclidean distance between two latents (full stack for W+)."""
    a = np.asarray(estimate, dtype=np.float64)
    b = np.asarray(truth, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm((a - b).ravel()))


def _ground_truth(bundle: GeneratorBundle, config: InterpolationConfig,
                  space_idx: int, space: str):
    """Sample true latents and their images for one condition's target pool.

    Each image draws as many z's as a latent of the space has rows: one
    style for W, one per scale for W+.
    """
    s, d = bundle.dims.scales, bundle.dims.latent_dim
    rng = rng_from(config.seed, STREAM_TARGETS, space_idx)
    latents = np.empty((config.n_images,) + latent_shape(space, bundle.dims))
    rows = latents.reshape(config.n_images, -1, d)  # an (n, r, d) view
    zs = sample_z(rng, rows.shape[0] * rows.shape[1], d).reshape(rows.shape)
    # mapped one image at a time: a larger batch rounds differently
    for i in range(config.n_images):
        rows[i] = map_latents(bundle, zs[i])
    stacks = lift_rows(rows, s)
    return latents, stacks, synthesize_batch(bundle, stacks)


def _invert_pool(bundle, model, config: InterpolationConfig, space: str,
                 weight: float, space_idx: int, targets: np.ndarray,
                 truth_latents: np.ndarray):
    """Invert every target of a pool as one batch; failures are masked, not raised."""
    n = config.n_images
    cfg = config.inversion_config(space, weight)
    seeds = [child_seed(config.seed, STREAM_TASKS, space_idx, i) for i in range(n)]
    init = truth_latents if config.oracle_init else None
    results = invert_batch(targets, bundle, model, cfg, seeds, init_latents=init)
    est = np.zeros_like(truth_latents)
    ok = np.zeros(n, dtype=bool)
    lat_err = np.zeros(n)
    img_err = np.zeros(n)
    for i, res in enumerate(results):
        if isinstance(res, NumericalFailure):
            continue
        ok[i] = True
        est[i] = res.latent
        lat_err[i] = latent_error(res.latent, truth_latents[i])
        img_err[i] = res.final_image_error
    return est, ok, lat_err, img_err


def interpolation_experiment(bundle: GeneratorBundle, model: GaussianModel,
                             config: InterpolationConfig,
                             target_bundle: GeneratorBundle | None = None
                             ) -> ExperimentReport:
    """Run the interpolation-error protocol for every configured condition.

    ``target_bundle``, when given, generates the targets instead of
    ``bundle`` (out-of-model targets); latent errors are then relative
    numbers against the target generator's latents.
    """
    if model.dim != bundle.dims.latent_dim:
        raise ValueError(
            f"model dim {model.dim} != generator latent dim {bundle.dims.latent_dim}"
        )
    truth_gen = bundle if target_bundle is None else target_bundle
    if truth_gen.dims != bundle.dims:
        raise ValueError("target generator dims must match the inverted generator")

    records: dict[str, ConditionRecord] = {}
    n_t = len(config.t_grid)
    d, s = bundle.dims.latent_dim, bundle.dims.scales
    for space_idx, space in enumerate(config.spaces):
        truth_latents, truth_stacks, targets = _ground_truth(
            truth_gen, config, space_idx, space
        )
        pair_rng = rng_from(config.seed, STREAM_PAIRS, space_idx)
        pairs = np.empty((config.n_pairs, 2), dtype=np.int64)
        for p in range(config.n_pairs):
            pairs[p] = pair_rng.choice(config.n_images, size=2, replace=False)
        # Ground-truth interpolation images are shared by all prior weights.
        true_imgs = [
            synthesize_batch(truth_gen, (1 - t) * truth_stacks[pairs[:, 0]]
                             + t * truth_stacks[pairs[:, 1]])
            for t in config.t_grid
        ]
        for weight in config.prior_weights:
            est, ok, lat_err, img_err = _invert_pool(
                bundle, model, config, space, weight, space_idx,
                targets, truth_latents)
            est_stacks = lift_rows(est.reshape(len(est), -1, d), s)
            pair_ok = ok[pairs[:, 0]] & ok[pairs[:, 1]]
            pair_errors = np.zeros((config.n_pairs, n_t))
            for ti, t in enumerate(config.t_grid):
                est_imgs = synthesize_batch(
                    bundle,
                    (1 - t) * est_stacks[pairs[:, 0]] + t * est_stacks[pairs[:, 1]],
                )
                pair_errors[:, ti], _ = reconstruction_loss(
                    est_imgs, true_imgs[ti], config.loss_kind)
            records[condition_label(space, weight)] = ConditionRecord(
                space=space,
                prior_weight=float(weight),
                target_ok=ok,
                latent_errors=lat_err,
                image_errors=img_err,
                pair_indices=pairs,
                pair_ok=pair_ok,
                pair_errors=pair_errors,
            )
    return ExperimentReport(
        t_grid=config.t_grid,
        records=records,
        config=asdict(config),
    )


def lambda_sweep(bundle: GeneratorBundle, model: GaussianModel,
                 config: InterpolationConfig) -> dict[float, ExperimentReport]:
    """The interpolation experiment, split into one report per prior weight.

    One experiment runs every weight, so all share one target pool and one
    set of true interpolations; each weight's report, keyed by the weight in
    grid order, equals a single-weight experiment's (config included).
    """
    full = interpolation_experiment(bundle, model, config)
    return {lam: ExperimentReport(
        t_grid=full.t_grid,
        records={c: rec for c, rec in full.records.items() if rec.prior_weight == lam},
        config=asdict(replace(config, prior_weights=(lam,))),
    ) for lam in config.prior_weights}


# --- feature-space metrics --------------------------------------------------


def mean_cosine(feats_a, feats_b) -> float:
    """Mean row-wise cosine of two (n, k) feature batches; 0 on zero norm."""
    na = np.linalg.norm(feats_a, axis=1)
    nb = np.linalg.norm(feats_b, axis=1)
    ok = (na > 0) & (nb > 0)
    cos = np.zeros(feats_a.shape[0])
    cos[ok] = np.sum(feats_a[ok] * feats_b[ok], axis=1) / (na[ok] * nb[ok])
    return float(np.mean(np.clip(cos, -1.0, 1.0)))


# --- principal-component magnitude profile ----------------------------------


@dataclass(frozen=True)
class ProfileGroup:
    count: int
    mean: np.ndarray  # (k,) mean |v^p_i|; zeros when the group is empty
    std: np.ndarray   # (k,) population std of |v^p_i|


@dataclass(frozen=True)
class MagnitudeProfile:
    k: int
    tau: float
    threshold: float
    n_samples: int
    flagged: ProfileGroup
    unflagged: ProfileGroup

    @property
    def flagged_fraction(self) -> float:
        return self.flagged.count / self.n_samples


def pc_magnitude_profile(latents_w, model: GaussianModel, k: int,
                         tau: float = CorrectionConfig.tau) -> MagnitudeProfile:
    """Per-dimension |v^p| statistics of a W batch, split by tail flag.

    A sample is tail-flagged iff any of its principal-component
    coordinates exceeds tau * sigma_max in magnitude; statistics cover
    the first k dimensions of each group.
    """
    arr = np.asarray(latents_w, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.dim:
        raise ValueError(f"expected (n, {model.dim}) latents, got {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("at least one latent is required")
    if not 1 <= k <= model.dim:
        raise ValueError(f"k must be in [1, {model.dim}], got {k}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    vp = w_to_pc(model, arr)
    threshold = compression_threshold(model, tau)
    flags = np.max(np.abs(vp), axis=1) > threshold
    mags = np.abs(vp[:, :k])

    def group(mask: np.ndarray) -> ProfileGroup:
        sub = mags[mask]
        if sub.shape[0] == 0:
            return ProfileGroup(0, np.zeros(k), np.zeros(k))
        return ProfileGroup(sub.shape[0], sub.mean(axis=0), sub.std(axis=0))

    return MagnitudeProfile(
        k=k,
        tau=float(tau),
        threshold=threshold,
        n_samples=arr.shape[0],
        flagged=group(flags),
        unflagged=group(~flags),
    )


def tail_probability(model: GaussianModel, tau: float) -> float:
    """Analytic P(max_i |v^p_i| > tau * sigma_max) under the fitted Gaussian.

    PC coordinates are independent with variances eigvals, so the tail
    probability is 1 minus the product of the per-dimension interior
    probabilities 2 Phi(threshold / sqrt(eigval)) - 1 = erf(threshold /
    sqrt(2 eigval)).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    threshold = compression_threshold(model, tau)
    inside = np.array([math.erf(threshold / math.sqrt(2.0 * lam)) if lam > 0 else 1.0
                       for lam in model.eigvals.tolist()])
    return float(1.0 - np.prod(inside))


# --- truncation vs compression tradeoff --------------------------------------


@dataclass(frozen=True)
class TradeoffConfig:
    """Operating points and sample sizes for the matched-FID comparison."""

    psis: tuple[float, ...] = (0.85, 0.7, 0.55)
    n_samples: int = 2048
    n_identity: int = 512
    tau_lo: float = 0.05
    tau_hi: float = 8.0
    match_tol: float = 0.05
    max_bisect: int = 40
    seed: int = 0

    def __post_init__(self):
        if not self.psis:
            raise ValueError("at least one psi is required")
        if any(not 0 <= p <= 1 for p in self.psis):
            raise ValueError("psi values must lie in [0, 1]")
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not 1 <= self.n_identity <= self.n_samples:
            raise ValueError("n_identity must be in [1, n_samples]")
        if not 0 < self.tau_lo < self.tau_hi:
            raise ValueError("need 0 < tau_lo < tau_hi")
        if not 0 < self.match_tol < 1:
            raise ValueError("match_tol must be in (0, 1)")
        if self.max_bisect < 1:
            raise ValueError("max_bisect must be >= 1")


@dataclass(frozen=True)
class OperatingPoint:
    psi: float
    tau: float                 # bisected compression threshold factor
    fid_truncation: float      # matching target
    fid_compression: float     # achieved at tau
    matched: bool              # within match_tol of the target
    identity_truncation: float
    identity_compression: float
    pixel_std_truncation: float
    pixel_std_compression: float
    bisect_trace: tuple        # (tau, fid_compression) per step, in visit order


@dataclass(frozen=True)
class TradeoffReport:
    fid_uncorrected: float
    pixel_std_uncorrected: float
    points: tuple[OperatingPoint, ...]
    config: dict


def _style_images(bundle: GeneratorBundle, ws: np.ndarray) -> np.ndarray:
    return synthesize_batch(bundle, lift_rows(ws[:, None, :], bundle.dims.scales))


def _pixel_std(images: np.ndarray) -> float:
    return float(images.std(axis=0).mean())


def fid_tradeoff(bundle: GeneratorBundle, model: GaussianModel,
                 config: TradeoffConfig, threads: int = 1) -> TradeoffReport:
    """Compare correction methods at FID-matched operating points.

    For each psi, the truncated batch's feature distance to a disjoint
    reference batch is the matching target; tau is bisected (the distance
    is decreasing in tau) until the compressed batch matches within
    match_tol. Each point keeps the (tau, distance) of every bisection step
    in visit order; the last tau is the point's. Every point bisects from
    the same bracket, so the points share one tau -> distance memo: a step
    whose tau an earlier step visited reuses its distance and synthesizes
    nothing, and a point whose last step was such a hit synthesizes its
    tau's images once more for identity and diversity. The memo holds
    floats only. Identity similarity is measured per sample against the
    uncorrected image; diversity is the mean per-pixel std of the batch.
    ``threads`` workers run the operating points; two of them may compute
    the same tau at once, but the distance is a pure function of tau, so
    results are identical for any value.
    """
    if model.dim != bundle.dims.latent_dim:
        raise ValueError(
            f"model dim {model.dim} != generator latent dim {bundle.dims.latent_dim}"
        )
    pixels = bundle.dims.pixels
    fid_net = init_feature_net(FID_FEATURE_SEED, pixels)
    id_net = init_feature_net(IDENTITY_FEATURE_SEED, pixels)

    ws = sample_styles(bundle, rng_from(config.seed, STREAM_Z, 0), config.n_samples)
    ref_ws = sample_styles(bundle, rng_from(config.seed, STREAM_Z, 1),
                           config.n_samples)
    images = _style_images(bundle, ws)
    ref_feats = embed(fid_net, _style_images(bundle, ref_ws))
    ref = moments(ref_feats)

    def fid_of(imgs: np.ndarray) -> float:
        return frechet_distance(ref, moments(embed(fid_net, imgs)))

    id_feats_raw = embed(id_net, images[:config.n_identity])

    def compressed(tau: float) -> np.ndarray:
        return _style_images(bundle, compress_rows(model, ws, tau))

    fid_at = {}  # tau -> compression distance, shared by the points

    def point(psi: float) -> OperatingPoint:
        trunc_imgs = _style_images(bundle, truncate_rows(model, ws, psi))
        fid_t = fid_of(trunc_imgs)
        lo, hi = config.tau_lo, config.tau_hi
        matched = False
        trace = []
        for _ in range(config.max_bisect):
            tau = 0.5 * (lo + hi)
            comp_imgs = None
            fid_c = fid_at.get(tau)
            if fid_c is None:
                comp_imgs = compressed(tau)
                fid_c = fid_at[tau] = fid_of(comp_imgs)
            trace.append((float(tau), float(fid_c)))
            if abs(fid_c - fid_t) <= config.match_tol * fid_t:
                matched = True
                break
            if fid_c > fid_t:
                lo = tau  # over-squashed: raise the threshold
            else:
                hi = tau
        if comp_imgs is None:
            comp_imgs = compressed(tau)
        n_id = config.n_identity
        return OperatingPoint(
            psi=float(psi),
            tau=float(tau),
            fid_truncation=fid_t,
            fid_compression=float(fid_c),
            matched=matched,
            identity_truncation=mean_cosine(
                id_feats_raw, embed(id_net, trunc_imgs[:n_id])),
            identity_compression=mean_cosine(
                id_feats_raw, embed(id_net, comp_imgs[:n_id])),
            pixel_std_truncation=_pixel_std(trunc_imgs),
            pixel_std_compression=_pixel_std(comp_imgs),
            bisect_trace=tuple(trace),
        )

    points = tuple(_pmap(point, config.psis, threads))
    return TradeoffReport(
        fid_uncorrected=fid_of(images),
        pixel_std_uncorrected=_pixel_std(images),
        points=points,
        config=asdict(config),
    )


# --- report serialization ----------------------------------------------------


def report_to_json(report: ExperimentReport) -> str:
    """The config, then per condition its curve, summary and record fields."""
    curves = {c: report.curve(c) for c in report.conditions}
    return json_text({
        "kind": "interpolation",
        "config": report.config,
        "t_grid": report.t_grid,
        "conditions": report.conditions,
        "curves": {c: None if curve is None else {"mean": curve[0], "std": curve[1]}
                   for c, curve in curves.items()},
        "summary": {c: {
            "median_latent_error": report.median_latent_error(c),
            "mean_image_error": report.mean_image_error(c),
            "endpoint_error": report.endpoint_error(c),
            "midpoint_error": report.midpoint_error(c),
            "failed_pairs": report.record(c).n_failed_pairs,
        } for c in report.conditions},
        "records": report.records,
    })


def sweep_to_json(reports: dict[float, ExperimentReport]) -> str:
    """The grid, the spaces and each space's endpoint and midpoint errors."""
    summary = {}
    for report in reports.values():
        for c, rec in report.records.items():
            errors = summary.setdefault(rec.space, {"endpoint": [], "midpoint": []})
            errors["endpoint"].append(report.endpoint_error(c))
            errors["midpoint"].append(report.midpoint_error(c))
    return json_text({"kind": "lambda-sweep", "grid": list(reports),
                      "spaces": list(summary), "summary": summary})


def curve_csv(report: ExperimentReport, condition: str) -> str:
    """One curve as CSV: t, mean_error, std_error, condition; only the
    header when no pair was kept."""
    curve = report.curve(condition)
    rows = [] if curve is None else [(float(t), m, s, condition)
                                     for t, m, s in zip(report.t_grid, *curve)]
    return csv_text(("t", "mean_error", "std_error", "condition"), rows)


def condition_filename(condition: str) -> str:
    return "curve_" + condition.replace(":", "_").replace("=", "-") + ".csv"


def profile_to_json(profile: MagnitudeProfile) -> str:
    """The profile's fields, both groups nested, and its flagged fraction."""
    return json_text({"kind": "pc-profile", **record_fields(profile),
                      "flagged_fraction": profile.flagged_fraction})


def profile_csv(profile: MagnitudeProfile) -> str:
    """One row per leading component: its mean and std |v^p| in each group."""
    f, u = profile.flagged, profile.unflagged
    return csv_text(("dim", "flagged_mean", "flagged_std",
                     "unflagged_mean", "unflagged_std"),
                    zip(range(profile.k), f.mean, f.std, u.mean, u.std))


def tradeoff_to_json(report: TradeoffReport) -> str:
    """The report's fields; each point with every field, bisect_trace included."""
    return json_text({"kind": "fid-tradeoff", **record_fields(report)})


def points_csv(report: TradeoffReport) -> str:
    """Each operating point's scalar fields; bisect_trace is in tradeoff.json."""
    columns = [f.name for f in fields(OperatingPoint) if f.name != "bisect_trace"]
    return csv_text(columns, ([getattr(p, c) for c in columns] for p in report.points))
