"""Acceptance gate: the shipped guarantees, one test per claim.

Each test prints a single PASS/FAIL line with the numbers it measured.
Inversions run on the calling thread; only the tradeoff's operating
points use worker threads, and results are thread-count invariant (the
last test proves it).
"""

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from latentprior import cli
from latentprior.correction import (
    compress_values,
    compression_threshold,
    truncate_rows,
)
from latentprior.evaluation import (
    DEFAULT_LAMBDA_GRID,
    InterpolationConfig,
    TradeoffConfig,
    condition_label,
    fid_tradeoff,
    interpolation_experiment,
    lambda_sweep,
)
from latentprior.formats import write_image_f64
from latentprior.gaussian import fit_gaussian, frechet_distance, moments, sample_latents
from latentprior.generator import (
    init_generator,
    map_latents,
    min_preactivation_gap,
    sample_styles,
    sample_z,
    synthesize,
    synthesize_batch,
)
from latentprior.inversion import (
    SPACE_W,
    SPACE_WPLUS,
    InversionConfig,
    invert_batch,
    objective_and_gradient,
)
from latentprior.seeding import STREAM_TASKS, child_seed, rng_from
from latentprior.spaces import broadcast_style, lru, mahalanobis_sq_plus, w_to_v

THREADS = 8


@pytest.fixture(scope="module")
def bundle():
    return init_generator(0)


@pytest.fixture(scope="module")
def model(bundle):
    ws = sample_styles(bundle, 1, 20000)
    return fit_gaussian(w_to_v(ws), ws)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, detail


def _ulp_keys(x: np.ndarray) -> np.ndarray:
    """Order-preserving int64 keys; key distance counts representable doubles."""
    i = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
    return np.where(i >= 0, i, np.int64(-(2**63)) - i)


def test_criterion_01_round_trip_ulp():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    x = rng.standard_normal(10**6) * 10.0 ** rng.uniform(-300, 300, 10**6)
    x = np.concatenate([x, [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]])
    back = lru(lru(x, 0.2), 5.0)
    worst = int(np.max(np.abs(_ulp_keys(back) - _ulp_keys(x))))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 4 and elapsed < 1.0,
            f"worst round-trip drift {worst} ulp over 1e6 values "
            f"plus boundaries, {elapsed:.2f}s")


def test_criterion_02_corrected_space_is_more_gaussian(bundle):
    start = time.perf_counter()
    ws = sample_styles(bundle, 7, 50000)
    vs = w_to_v(ws)
    skew_w = float(np.mean(np.abs(stats.skew(ws, axis=0))))
    skew_v = float(np.mean(np.abs(stats.skew(vs, axis=0))))
    kurt_v = stats.kurtosis(vs, axis=0)
    elapsed = time.perf_counter() - start
    ok = (skew_v < skew_w
          and float(kurt_v.min()) >= -0.7 and float(kurt_v.max()) <= 0.7
          and elapsed < 30.0)
    _report(2, ok,
            f"mean |skew| {skew_v:.3f} (corrected) vs {skew_w:.3f} (raw), "
            f"excess kurtosis in [{kurt_v.min():.2f}, {kurt_v.max():.2f}], "
            f"{elapsed:.1f}s")


def test_criterion_03_objective_gradient_matches_fd(bundle, model):
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    s, d = bundle.dims.scales, bundle.dims.latent_dim
    h = 1e-6
    worst = 0.0
    checked = 0
    for space in (SPACE_W, SPACE_WPLUS):
        for loss in ("pixel-mse", "random-feature-proxy"):
            cfg = InversionConfig(target_space=space, prior_weight=1e-4,
                                  loss_kind=loss)
            probes = 0
            while probes < 25:
                w_rows = sample_styles(bundle, rng, s)
                target_stack = map_latents(bundle, sample_z(rng, s, d))
                target = synthesize(bundle, target_stack)
                latent = w_rows[0] if space == SPACE_W else w_rows
                stack = (broadcast_style(latent, s)
                         if space == SPACE_W else latent)
                # FD is only trustworthy away from the activation kinks.
                if min_preactivation_gap(bundle, stack) < 1e-3:
                    continue
                if np.min(np.abs(latent)) < 1e-4:
                    continue
                u = rng.standard_normal(latent.shape)
                u /= np.linalg.norm(u)
                _, grad = objective_and_gradient(target, bundle, model, cfg,
                                                 latent)
                f_hi, _ = objective_and_gradient(target, bundle, model, cfg,
                                                 latent + h * u)
                f_lo, _ = objective_and_gradient(target, bundle, model, cfg,
                                                 latent - h * u)
                fd = (f_hi - f_lo) / (2 * h)
                analytic = float(np.sum(grad * u))
                rel = abs(analytic - fd) / max(abs(fd), 1e-12)
                worst = max(worst, rel)
                probes += 1
                checked += 1
    elapsed = time.perf_counter() - start
    _report(3, worst <= 1e-4 and checked == 100 and elapsed < 60.0,
            f"worst relative gradient error {worst:.2e} over {checked} "
            f"probes, {elapsed:.1f}s")


def test_criterion_04_stack_energy_equals_kronecker_form():
    rng = np.random.default_rng(4)
    s, d = 2, 3
    samples_w = rng.standard_normal((400, d))
    model = fit_gaussian(w_to_v(samples_w), samples_w)
    reg = model.cov_v + model.epsilon * np.eye(d)
    big_inv = np.linalg.inv(np.kron(np.eye(s), reg))
    mu = np.tile(model.mean_v, s)
    worst = 0.0
    for _ in range(1000):
        stack = rng.standard_normal((s, d)) * 3.0
        got = mahalanobis_sq_plus(model, stack)
        diff = w_to_v(stack).ravel() - mu
        want = float(diff @ big_inv @ diff)
        worst = max(worst, abs(got - want) / abs(want))
    _report(4, worst <= 1e-10,
            f"worst relative deviation from the explicit block form "
            f"{worst:.2e} over 1000 stacks")


def _invert_pool(bundle, model, targets, truths, space, weight, iterations):
    cfg = InversionConfig(target_space=space, prior_weight=weight,
                          iterations=iterations)
    seeds = [child_seed(0, STREAM_TASKS, 0 if space == SPACE_W else 1, i)
             for i in range(len(targets))]
    result = invert_batch(targets, bundle, model, cfg, seeds)
    # a diverged row may be non-finite, so none may enter the median
    assert (result.diverged_at < 0).all(), f"diverged at {result.diverged_at}"
    return np.array([float(np.linalg.norm((latent - truth).ravel()))
                     for latent, truth in zip(result.latents, truths)])


def test_criterion_05_prior_improves_latent_recovery(bundle, model):
    start = time.perf_counter()
    s, d = bundle.dims.scales, bundle.dims.latent_dim
    medians = {}
    for space, iterations, seed in ((SPACE_W, 300, 11), (SPACE_WPLUS, 600, 12)):
        rng = rng_from(seed, STREAM_TASKS)
        if space == SPACE_W:
            truths = sample_styles(bundle, rng, 20)
            stacks = np.repeat(truths[:, None, :], s, axis=1)
        else:
            truths = np.stack([map_latents(bundle, sample_z(rng, s, d))
                               for _ in range(20)])
            stacks = truths
        targets = synthesize_batch(bundle, stacks)
        for weight in (1e-4, 0.0):
            errs = _invert_pool(bundle, model, targets, truths, space,
                                weight, iterations)
            medians[(space, weight)] = float(np.median(errs))
    elapsed = time.perf_counter() - start
    ok = (medians[(SPACE_W, 1e-4)] < medians[(SPACE_W, 0.0)]
          and medians[(SPACE_WPLUS, 1e-4)] < medians[(SPACE_WPLUS, 0.0)]
          and elapsed < 600.0)
    _report(5, ok,
            "median latent error with/without prior: "
            f"single-style {medians[(SPACE_W, 1e-4)]:.3f}/"
            f"{medians[(SPACE_W, 0.0)]:.3f}, "
            f"per-scale {medians[(SPACE_WPLUS, 1e-4)]:.3f}/"
            f"{medians[(SPACE_WPLUS, 0.0)]:.3f}, {elapsed:.0f}s")


def test_criterion_06_prior_helps_midpoint_interpolation(bundle, model):
    start = time.perf_counter()
    config = InterpolationConfig(spaces=(SPACE_WPLUS,),
                                 prior_weights=(0.0, 1e-4),
                                 n_images=20, n_pairs=40, seed=0)
    report = interpolation_experiment(bundle, model, config)
    off = condition_label(SPACE_WPLUS, 0.0)
    on = condition_label(SPACE_WPLUS, 1e-4)
    mid_on, mid_off = report.midpoint_error(on), report.midpoint_error(off)
    end_on, end_off = report.endpoint_error(on), report.endpoint_error(off)
    elapsed = time.perf_counter() - start
    _report(6, mid_on < mid_off and elapsed < 1200.0,
            f"midpoint image error {mid_on:.2e} (prior) < {mid_off:.2e} "
            f"(no prior); endpoints {end_on:.2e} vs {end_off:.2e}, "
            f"{elapsed:.0f}s")


def test_criterion_07_correction_formulas_exact(model):
    rng = np.random.default_rng(77)
    rows = sample_latents(model, rng, 4000)
    psi = 0.65
    truncated = truncate_rows(model, rows, psi)
    cov_in = np.cov(rows, rowvar=False)
    cov_out = np.cov(truncated, rowvar=False)
    cov_dev = float(np.max(np.abs(cov_out - psi**2 * cov_in))
                    / np.max(np.abs(psi**2 * cov_in)))

    theta = compression_threshold(model, 0.5)
    inside = rng.uniform(-theta, theta, 1000)
    identity_ok = bool(np.array_equal(compress_values(inside, theta), inside))
    hand = float(compress_values(np.array([np.e * theta]), theta)[0])
    hand_dev = abs(hand - 2 * theta) / (2 * theta)
    h = 1e-6 * theta
    fd_below = float((compress_values(np.array([theta - h]), theta)
                      - compress_values(np.array([theta - 3 * h]), theta))[0]
                     / (2 * h))
    fd_above = float((compress_values(np.array([theta + 3 * h]), theta)
                      - compress_values(np.array([theta + h]), theta))[0]
                     / (2 * h))
    ok = (cov_dev <= 1e-10 and identity_ok and hand_dev <= 1e-12
          and abs(fd_below - 1.0) <= 1e-4 and abs(fd_above - 1.0) <= 1e-4)
    _report(7, ok,
            f"truncation covariance deviation {cov_dev:.2e}, in-threshold "
            f"identity {identity_ok}, e*threshold -> "
            f"{hand / theta:.12f}*threshold, straddling slopes "
            f"{fd_below:.6f}/{fd_above:.6f}")


def test_criterion_08_compression_beats_truncation_at_matched_fid(bundle, model):
    start = time.perf_counter()
    report = fid_tradeoff(bundle, model, TradeoffConfig(), threads=THREADS)
    matched = all(p.matched for p in report.points)
    id_ok = all(p.identity_compression >= p.identity_truncation
                for p in report.points)
    std_ok = all(p.pixel_std_compression >= p.pixel_std_truncation
                 for p in report.points)
    elapsed = time.perf_counter() - start
    detail = "; ".join(
        f"psi={p.psi:g}: fid {p.fid_truncation:.3f}/{p.fid_compression:.3f}, "
        f"id {p.identity_truncation:.4f}/{p.identity_compression:.4f}, "
        f"std {p.pixel_std_truncation:.4f}/{p.pixel_std_compression:.4f}"
        for p in report.points)
    _report(8, matched and id_ok and std_ok and elapsed < 600.0,
            f"{detail} (truncation/compression), {elapsed:.0f}s")


def test_criterion_09_weight_sweep_trends(bundle, model):
    start = time.perf_counter()
    config = InterpolationConfig(spaces=(SPACE_WPLUS,),
                                 prior_weights=DEFAULT_LAMBDA_GRID,
                                 n_images=20, n_pairs=40, seed=0)
    reports = lambda_sweep(bundle, model, config)
    ends, mids = [], []
    for lam in DEFAULT_LAMBDA_GRID:
        label = condition_label(SPACE_WPLUS, lam)
        ends.append(reports[lam].endpoint_error(label))
        mids.append(reports[lam].midpoint_error(label))
    mono = all(ends[i] <= ends[i + 1] for i in range(len(ends) - 1))
    argmin = int(np.argmin(mids))
    interior = 0 < argmin < len(mids) - 1
    elapsed = time.perf_counter() - start
    _report(9, mono and interior and elapsed < 1800.0,
            "endpoint errors " + "/".join(f"{e:.2e}" for e in ends)
            + f" non-decreasing={mono}; midpoint errors "
            + "/".join(f"{m:.2e}" for m in mids)
            + f" minimized at grid index {argmin}, {elapsed:.0f}s")


def test_criterion_10_frechet_distance_unit_suite():
    rng = np.random.default_rng(10)
    xs = rng.standard_normal((500, 6)) @ rng.standard_normal((6, 6))
    m = moments(xs)
    zero = frechet_distance(m, m)

    a = rng.normal(1.0, 2.0, (4000, 1))
    b = rng.normal(-0.5, 3.5, (4000, 1))
    ma, mb = moments(a), moments(b)
    got = frechet_distance(ma, mb)
    (mean_a, cov_a), (mean_b, cov_b) = ma, mb
    mu_a, sd_a = float(mean_a[0]), float(np.sqrt(cov_a[0, 0]))
    mu_b, sd_b = float(mean_b[0]), float(np.sqrt(cov_b[0, 0]))
    want = (mu_a - mu_b) ** 2 + (sd_a - sd_b) ** 2
    one_d_dev = abs(got - want)

    ys = rng.standard_normal((500, 6)) * 2.0 + 1.0
    m2 = moments(ys)
    sym_dev = abs(frechet_distance(m, m2) - frechet_distance(m2, m))
    ok = zero == 0.0 and one_d_dev <= 1e-8 and sym_dev <= 1e-8
    _report(10, ok,
            f"identical-model distance {zero}, 1-D closed-form deviation "
            f"{one_d_dev:.2e}, symmetry deviation {sym_dev:.2e}")


def _run_cli(argv) -> None:
    code = cli.main(argv)
    assert code == 0, f"command {argv} exited {code}"


def _outputs_of(out_dir: Path) -> dict[str, bytes]:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    blobs = {"manifest.json": (out_dir / "manifest.json").read_bytes()}
    for name in manifest["outputs"]:
        blobs[name] = (out_dir / name).read_bytes()
    return blobs


def test_criterion_11_manifest_replay_is_byte_identical(tmp_path):
    start = time.perf_counter()
    root = tmp_path
    bundle_dir, model_dir = root / "gan", root / "prior"
    _run_cli(["init-gan", "--seed", "3", "--out", str(bundle_dir)])
    _run_cli(["fit-prior", "--bundle", str(bundle_dir / "bundle.json"),
              "--samples", "4000", "--out", str(model_dir)])

    bundle = init_generator(3)
    target = synthesize(
        bundle, broadcast_style(sample_styles(bundle, 99, 1)[0],
                                bundle.dims.scales))
    write_image_f64(root / "target.f64", target)

    common = ["--bundle", str(bundle_dir / "bundle.json"),
              "--model", str(model_dir / "model.json")]
    runs = {
        "invert": ["invert"] + common + [
            "--target", str(root / "target.f64"), "--space", "wplus",
            "--iterations", "150", "--out", str(root / "invert")],
        "correct": None,  # filled in below, needs the inverted latent
        "interpolation": ["experiment", "interpolation"] + common + [
            "--images", "5", "--pairs", "4", "--iters", "60",
            "--out", str(root / "interp")],
        "lambda-sweep": ["experiment", "lambda-sweep"] + common + [
            "--images", "4", "--pairs", "3", "--iters", "50",
            "--grid", "0,1e-4", "--out", str(root / "sweep")],
        "fid-tradeoff": ["experiment", "fid-tradeoff"] + common + [
            "--samples", "128", "--identity-samples", "32", "--psis", "0.7",
            "--max-bisect", "12", "--out", str(root / "tradeoff")],
        "pc-profile": ["experiment", "pc-profile",
                       "--model", str(model_dir / "model.json"),
                       "--samples", "500", "--k", "10",
                       "--out", str(root / "profile")],
    }
    _run_cli(runs.pop("invert"))
    runs["correct"] = ["correct", "--model", str(model_dir / "model.json"),
                       "--latents", str(root / "invert" / "latent.lat"),
                       "--method", "compression", "--tau", "0.4",
                       "--out", str(root / "correct")]
    for argv in runs.values():
        _run_cli(argv)

    dirs = [bundle_dir, model_dir, root / "invert", root / "correct",
            root / "interp", root / "sweep", root / "tradeoff",
            root / "profile"]
    mismatches = []
    for out_dir in dirs:
        want = _outputs_of(out_dir)
        for threads in (1, 8):
            replay_dir = root / f"replay-{out_dir.name}-{threads}"
            cli.replay_manifest(out_dir / "manifest.json", replay_dir,
                                threads=threads)
            got = _outputs_of(replay_dir)
            if got != want:
                diff = sorted(k for k in want if got.get(k) != want[k])
                mismatches.append(f"{out_dir.name}@{threads}: {diff}")
            shutil.rmtree(replay_dir)
    elapsed = time.perf_counter() - start
    _report(11, not mismatches,
            f"8 commands replayed at 1 and 8 threads, "
            f"{'all byte-identical' if not mismatches else mismatches}, "
            f"{elapsed:.0f}s")
