"""The benchmark's three workloads and the checks on their outputs.

sweep     ``experiment lambda-sweep`` in W+ over the grid 0,1e-5,1e-4,1e-3,
          run in-process through ``latentprior.cli.main`` with
          ``--threads 1``: many small batch-1 inversions, the inversion hot
          path. (At ``--threads 2`` on two cores the wall time spread 15%
          between runs, against 3.5% at one thread.)
tradeoff  ``experiment fid-tradeoff`` at its default config (2048 samples,
          3 psis, bisection), in-process, ``--threads 1``: large-batch
          synthesis, feature embedding, Gaussian fit + Frechet, compression.
          No VJP and no ADAM.
cli       the user's command chain, one fresh ``python -m latentprior.cli``
          process per command, one at a time: init-gan, fit-prior,
          invert --space w, invert --space wplus, correct,
          experiment pc-profile. Per-process set-up and file I/O.

Every workload inverts or samples the same generator (``init-gan --seed 3``).
The workload seed draws the prior model (``fit-prior --seed``) on ``sweep``
and ``cli``; the inversions keep their default noise seed. The problem sets
are fixed: the sweep's target pools, the tradeoff's sample sets and the cli
target do not change with the seed, so every seed does the same amount of
work and ``recon_err`` compares like with like. On ``tradeoff`` the fitted
model stays fixed as well, because the bisection path (and so the work)
moves with it; there the seed only permutes the order of the psis.

A run goes over the workload's cases in passes until ``--seconds`` have
passed, at least one pass. Repeats of a case must reproduce its output
digest exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

GENERATOR_SEED = 3
SETUP_REPS = 5
# Model size of the sweep and tradeoff set-up; the acceptance suite fits on
# the same number of samples.
SETUP_FIT_SAMPLES = 20000
COMMAND_TIMEOUT_S = 120
# A run stops starting new repetitions after this long, whatever --seconds
# says, so that it always ends within three minutes.
HARD_STOP_S = 120

SWEEP_GRID = (0.0, 1e-5, 1e-4, 1e-3)
SWEEP_CASES = (0, 1)  # experiment seeds: the fixed target pools
SWEEP_ARGS = ["--spaces", "wplus", "--grid", ",".join(f"{g:g}" for g in SWEEP_GRID),
              "--images", "8", "--pairs", "8", "--iters", "300"]

TRADEOFF_CASES = (0, 1, 2)
TRADEOFF_MODEL_SEED = 0
TRADEOFF_PSIS = (0.85, 0.7, 0.55)  # the command's default psis

CLI_TARGET_SEED = 102  # style seed of the fixed target image
CLI_WPLUS_ITERATIONS = 3000


class CheckError(Exception):
    """An output of the program is missing, malformed or not finite."""


# --- output checks -------------------------------------------------------------


def _reject_constant(token):
    raise CheckError(f"non-finite number {token} in JSON output")


def _finite_json(path: Path):
    try:
        doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name}: invalid JSON ({exc})") from exc
    return doc


def _finite_csv(path: Path) -> None:
    for line in path.read_text().splitlines()[1:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise CheckError(f"{path.name}: non-finite value {field!r}")


def _finite_f64(data: bytes, name: str) -> None:
    for (value,) in struct.iter_unpack("<d", data):
        if not math.isfinite(value):
            raise CheckError(f"{name}: non-finite value {value}")


def check_outputs(out: Path) -> dict:
    """Check one command's outputs; returns {file name: bytes} for the digest.

    The manifest must list outputs that all exist, and every number in
    them must be finite. timing.json is wall-clock data and is left out.
    """
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        raise CheckError(f"{out}: no manifest.json")
    manifest = _finite_json(manifest_path)
    blobs = {"manifest.json": manifest_path.read_bytes()}
    for name in manifest.get("outputs", []):
        path = out / name
        if not path.is_file():
            raise CheckError(f"{out}: manifest output {name} is missing")
        data = path.read_bytes()
        if name.endswith(".json"):
            _finite_json(path)
        elif name.endswith(".csv"):
            _finite_csv(path)
        elif name.endswith(".lat"):
            _finite_f64(data[16:], name)
        elif name.endswith(".f64"):
            _finite_f64(data, name)
        blobs[name] = data
    return blobs


def digest(blobs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(blobs):
        h.update(name.encode() + b"\0" + hashlib.sha256(blobs[name]).digest())
    return h.hexdigest()


def bisect_steps(tau: float, lo: float, hi: float, max_bisect: int):
    """Steps fid-tradeoff's bisection took to stop at ``tau``.

    Replays the midpoints the bisection visits, steering toward ``tau``;
    the step whose midpoint equals ``tau`` exactly is the last one.
    """
    for step in range(1, max_bisect + 1):
        mid = 0.5 * (lo + hi)
        if mid == tau:
            return step
        if tau > mid:
            lo = mid
        else:
            hi = mid
    return None


def synth_flops_per_row(dims: dict) -> int:
    """Computed floating-point operations of one synthesis forward pass."""
    c, d = dims["channels"], dims["latent_dim"]
    base = dims["image_size"] >> (dims["scales"] - 1)
    flops = 0
    for k in range(dims["scales"]):
        px = (base << k) ** 2
        flops += 2 * (2 * c) * d      # style affine
        flops += 2 * px * c           # modulation scale and bias
        flops += 2 * px * c * c       # channel mixing
        flops += 2 * px * c           # noise and activation
    flops += 2 * dims["image_size"] ** 2 * c * 3  # RGB projection
    return flops


# --- session ---------------------------------------------------------------------


class Session:
    """One benchmark run: its directory, counters and optional tracer."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int,
                 child_env: dict):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.child_env = child_env
        self.tracer = spans.Tracer()
        self.attempted = 0
        self.problems = []
        self.warnings = []
        self.digests = {}
        self.overheads = []  # command wall minus timing.json duration, traced passes

    def fail(self, message: str) -> None:
        self.problems.append(message)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def rel(self, *parts) -> str:
        return str((self.work / Path(*parts)).relative_to(self.root))

    def command(self, argv: list, out: str, fresh_process: bool = False,
                traced: bool = False):
        """Run one latentprior command into ``out``.

        Returns (wall seconds, outputs), outputs None when the command failed
        or its outputs do not pass the checks; each failure is recorded.
        """
        from latentprior import cli

        self.attempted += 1
        out_path = self.root / out
        shutil.rmtree(out_path, ignore_errors=True)
        full = list(argv) + ["--out", out]
        span = self.tracer.open("cli.command") if traced else None
        start = time.perf_counter()
        try:
            if fresh_process:
                code = self._spawn(full, traced, span)
            else:
                code = cli.main(full)
        except Exception:  # a crash of the program is a failed operation
            code = None
            self.fail(f"{' '.join(argv[:2])}: {traceback.format_exc(limit=3)}")
        wall = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span)
        if code != 0:
            if code is not None:
                self.fail(f"{' '.join(full)} exited {code}")
            return wall, None
        try:
            blobs = check_outputs(out_path)
            timing = _finite_json(out_path / "timing.json")
        except CheckError as exc:
            self.fail(f"{' '.join(argv[:2])}: {exc}")
            return wall, None
        if traced:
            self.overheads.append(wall - float(timing["duration_seconds"]))
        return wall, blobs

    def _spawn(self, argv: list, traced: bool, span) -> int | None:
        env = dict(self.child_env)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        if traced:
            spans_path = self.work / "child-spans.jsonl"
            cmd = [sys.executable, str(Path(__file__).with_name("tracechild.py")),
                   str(spans_path)] + argv
        else:
            cmd = [sys.executable, "-m", "latentprior.cli"] + argv
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(f"{' '.join(argv)} timed out after {COMMAND_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        if traced:
            self.tracer.adopt(spans.load_spans(spans_path), span[0])
            spans_path.unlink()
        return proc.returncode

    def check_digest(self, case, blobs: dict) -> None:
        """Record a case's digest; a repeat with other bytes is a failure."""
        value = digest(blobs)
        seen = self.digests.setdefault(str(case), value)
        if seen != value:
            self.fail(f"case {case}: output digest {value[:12]} differs from "
                      f"an earlier repeat {seen[:12]}")


# --- shared set-up: the generator and prior model -------------------------------


def _setup_generator_and_model(s: Session, fit_seed: int):
    """Run init-gan and fit-prior, each a fresh process, SETUP_REPS times.

    Returns the set-up medians and the bundle and model paths. Repeats
    must write identical bytes.
    """
    gan, prior = s.rel("gan"), s.rel("prior")
    totals, inits, fits = [], [], []
    for _ in range(SETUP_REPS):
        w_init, b_init = s.command(["init-gan", "--seed", str(GENERATOR_SEED)],
                                      gan, fresh_process=True)
        w_fit, b_fit = s.command(
            ["fit-prior", "--bundle", f"{gan}/bundle.json", "--seed", str(fit_seed),
             "--samples", str(SETUP_FIT_SAMPLES)], prior, fresh_process=True)
        inits.append(w_init)
        fits.append(w_fit)
        totals.append(w_init + w_fit)
        if b_init is not None and b_fit is not None:
            s.check_digest("setup", {**{f"gan/{k}": v for k, v in b_init.items()},
                                     **{f"prior/{k}": v for k, v in b_fit.items()}})
    medians = {"setup": statistics.median(totals),
               "cmd_light_s": statistics.median(inits),
               "cmd_fit_prior_s": statistics.median(fits)}
    return medians, f"{gan}/bundle.json", f"{prior}/model.json"


# --- workloads -------------------------------------------------------------------


class Workload:
    """Cases repeated round-robin; subclasses fill in set-up and one case."""

    name = ""
    work_span = "inversion"  # the layer whose traced work count "work" equals

    def setup(self, s: Session) -> dict:
        raise NotImplementedError

    def cases(self, s: Session) -> list:
        raise NotImplementedError

    def run_case(self, s: Session, case, traced: bool) -> dict:
        """Run one case; returns {"wall", "work", "quality", ...} or None."""
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"

    def setup(self, s):
        medians, self.bundle, self.model = _setup_generator_and_model(s, s.seed)
        return medians

    def cases(self, s):
        return list(SWEEP_CASES)

    def run_case(self, s, case, traced):
        out = s.rel(f"sweep-{case}")
        argv = (["experiment", "lambda-sweep", "--bundle", self.bundle,
                 "--model", self.model] + SWEEP_ARGS
                + ["--seed", str(case), "--threads", "1"])
        wall, blobs = s.command(argv, out, traced=traced)
        if blobs is None:
            return None
        s.check_digest(case, blobs)
        config = json.loads(blobs["manifest.json"])["config"]
        errors, failed_pairs = [], 0
        for name in blobs:
            if not name.startswith("report_"):
                continue
            report = json.loads(blobs[name])
            for cond, rec in report["records"].items():
                s.attempted += len(rec["target_ok"])
                for i, ok in enumerate(rec["target_ok"]):
                    if not ok:
                        s.fail(f"sweep case {case} {cond}: target {i} masked")
                errors += [e for e, ok in zip(rec["image_errors"], rec["target_ok"]) if ok]
                failed_pairs += report["summary"][cond]["failed_pairs"]
        iters = (config["images"] * config["iters"] * len(config["grid"])
                 * len(config["spaces"]))
        return {"wall": wall, "work": iters, "quality": errors,
                "failed_pairs": failed_pairs, "bisect_steps": 0}


class Tradeoff(Workload):
    name = "tradeoff"
    work_span = "generator.synthesize"

    def setup(self, s):
        medians, self.bundle, self.model = \
            _setup_generator_and_model(s, TRADEOFF_MODEL_SEED)
        orders = list(itertools.permutations(TRADEOFF_PSIS))
        self.psis = ",".join(f"{p:g}" for p in orders[s.seed % len(orders)])
        return medians

    def cases(self, s):
        return list(TRADEOFF_CASES)

    def run_case(self, s, case, traced):
        out = s.rel(f"tradeoff-{case}")
        argv = ["experiment", "fid-tradeoff", "--bundle", self.bundle,
                "--model", self.model, "--psis", self.psis, "--seed", str(case),
                "--threads", "1"]
        wall, blobs = s.command(argv, out, traced=traced)
        if blobs is None:
            return None
        s.check_digest(case, blobs)
        config = json.loads(blobs["manifest.json"])["config"]
        report = json.loads(blobs["tradeoff.json"])
        steps, identity = 0, []
        for p in report["points"]:
            s.attempted += 1
            if not p["matched"]:
                s.fail(f"tradeoff case {case}: psi {p['psi']} not matched")
            n = bisect_steps(p["tau"], config["tau-lo"], config["tau-hi"],
                             config["max-bisect"])
            if n is None:
                s.fail(f"tradeoff case {case}: tau {p['tau']!r} is not a bisection midpoint")
                n = config["max-bisect"]
            steps += n
            identity.append(p["identity_compression"])
        # reference and sample sets, one truncated set per psi, one
        # compressed set per bisection step
        images = config["samples"] * (2 + len(report["points"]) + steps)
        return {"wall": wall, "work": images, "quality": [1.0 - x for x in identity],
                "failed_pairs": 0, "bisect_steps": steps}


class Chain(Workload):
    name = "cli"

    def setup(self, s):
        from latentprior.generator import (init_generator, sample_styles,
                                           synthesize, write_image_f64)
        from latentprior.spaces import broadcast_style

        self.target = s.rel("target.f64")
        self.chain_dir = s.rel("chain")
        self.bundle = f"{self.chain_dir}/gan/bundle.json"
        times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            bundle = init_generator(GENERATOR_SEED)
            style = sample_styles(bundle, CLI_TARGET_SEED, 1)[0]
            write_image_f64(s.root / self.target,
                            synthesize(bundle, broadcast_style(style, bundle.dims.scales)))
            times.append(time.perf_counter() - start)
        return {"setup": statistics.median(times)}

    def cases(self, s):
        return [s.seed]

    def run_case(self, s, case, traced):
        seed = str(case)
        d = self.chain_dir
        gan, prior = f"{d}/gan", f"{d}/prior"
        bundle, model = self.bundle, f"{prior}/model.json"
        steps = [
            ("init-gan", ["init-gan", "--seed", str(GENERATOR_SEED)], gan),
            ("fit-prior", ["fit-prior", "--bundle", bundle, "--seed", seed], prior),
            ("invert-w", ["invert", "--bundle", bundle, "--model", model,
                          "--target", self.target, "--space", "w"], f"{d}/invert-w"),
            ("invert-wplus", ["invert", "--bundle", bundle, "--model", model,
                              "--target", self.target, "--space", "wplus",
                              "--iterations", str(CLI_WPLUS_ITERATIONS)],
             f"{d}/invert-wplus"),
            ("correct", ["correct", "--model", model,
                         "--latents", f"{d}/invert-wplus/latent.lat"], f"{d}/correct"),
            ("pc-profile", ["experiment", "pc-profile", "--model", model,
                            "--latents", f"{d}/correct/latents.lat", "--seed", seed],
             f"{d}/profile"),
        ]
        walls, blobs_all, iters, errors = {}, {}, 0, {}
        start = time.perf_counter()
        for label, argv, out in steps:
            wall, blobs = s.command(argv, out, fresh_process=True, traced=traced)
            walls[label] = wall
            if blobs is None:
                return None  # later commands read this one's outputs
            blobs_all.update({f"{label}/{k}": v for k, v in blobs.items()})
            if label.startswith("invert"):
                s.attempted += 1
                result = json.loads(blobs["result.json"])
                iters += result["iterations_run"]
                errors[label] = result["final_image_error"]
        chain_wall = time.perf_counter() - start
        s.check_digest(case, blobs_all)
        invert_wall = walls["invert-w"] + walls["invert-wplus"]
        return {"wall": chain_wall, "work": iters, "work_wall": invert_wall,
                # the default invert's fit; the wplus fit is checked, not scored
                "quality": [errors["invert-w"]],
                "cmd_fit_prior_s": walls["fit-prior"],
                "cmd_light_s": walls["init-gan"] + walls["correct"] + walls["pc-profile"],
                "failed_pairs": 0, "bisect_steps": 0}


WORKLOADS = {w.name: w for w in (Sweep, Tradeoff, Chain)}
