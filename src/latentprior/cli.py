"""Command-line entry point.

Subcommands: init-gan, fit-prior, invert, correct, and
experiment {interpolation, fid-tradeoff, pc-profile, lambda-sweep}.

Every command writes its artifacts plus a manifest.json into --out. The
manifest holds the command name, the fully resolved configuration, the
input paths, and the output file names; it contains no timestamps or
thread counts, so re-running a command from its manifest (replay_manifest)
reproduces every output byte for byte at any --threads value. Wall-clock
duration goes to a separate timing.json. A --config JSON file may supply
any subset of a command's settings, with explicit flags taking precedence.

Exit codes: 0 success, 2 bad arguments, 3 input-format error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .correction import (
    METHOD_COMPRESS,
    METHOD_TRUNCATE,
    CorrectionConfig,
    compression_threshold,
    correct_rows,
)
from .errors import InputFormatError, NumericalFailure
from .evaluation import (
    DEFAULT_LAMBDA_GRID,
    InterpolationConfig,
    TradeoffConfig,
    condition_filename,
    condition_label,
    curve_csv,
    fid_tradeoff,
    interpolation_experiment,
    lambda_sweep,
    pc_magnitude_profile,
    profile_to_json,
    report_to_json,
    tail_probability,
    tradeoff_to_json,
)
from .gaussian import fit_gaussian, load_model, sample_latents, save_model
from .generator import (
    GeneratorDims,
    init_generator,
    load_bundle,
    read_image_f64,
    sample_styles,
    save_bundle,
    write_image_f64,
    write_ppm,
)
from .inversion import (
    LOSS_PIXEL,
    LOSS_PROXY,
    SPACE_W,
    SPACE_WPLUS,
    InversionConfig,
    NoiseRamp,
    invert,
    result_to_json,
)
from .seeding import STREAM_FIT, STREAM_SAMPLES, rng_from
from .spaces import read_latents, v_to_w, w_to_v, write_latents

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

MANIFEST_NAME = "manifest.json"
TIMING_NAME = "timing.json"


class UsageError(Exception):
    """Bad or missing command-line arguments (exit code 2)."""


# --- flag specification -------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """One configurable setting, addressable as --<name> or a config key."""

    name: str            # kebab-case
    kind: str            # int | float | str | floats | strs | bool
    default: object
    choices: tuple | None = None
    help: str = ""


@dataclass(frozen=True)
class Command:
    name: str
    flags: tuple[Flag, ...]
    required_inputs: tuple[str, ...]
    optional_inputs: tuple[str, ...]
    runner: object  # fn(config, inputs, out: Path, threads) -> (outputs, derived)
    help: str = ""


def _dest(name: str) -> str:
    return name.replace("-", "_")


def _parse_value(flag: Flag, value):
    """Normalize a flag/config value to its JSON-friendly resolved form."""
    if value is None:
        return None
    try:
        if flag.kind == "int":
            return int(value)
        if flag.kind == "float":
            return float(value)
        if flag.kind == "str":
            value = str(value)
        if flag.kind == "bool":
            if isinstance(value, bool):
                return value
            raise ValueError(f"expected a boolean for {flag.name}")
        if flag.kind == "floats":
            if isinstance(value, str):
                value = [v for v in value.split(",") if v != ""]
            return [float(v) for v in value]
        if flag.kind == "strs":
            if isinstance(value, str):
                value = [v for v in value.split(",") if v != ""]
            value = [str(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid value for {flag.name}: {value!r} ({exc})") from exc
    if flag.choices is not None:
        items = value if isinstance(value, list) else [value]
        for item in items:
            if item not in flag.choices:
                raise UsageError(
                    f"invalid value {item!r} for {flag.name}; "
                    f"choices are {list(flag.choices)}"
                )
    return value


def _resolve(cmd: Command, args: argparse.Namespace):
    """Merge flags over an optional --config file over defaults."""
    doc = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"invalid config JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InputFormatError("config file must hold a JSON object")
        known = {f.name for f in cmd.flags}
        known |= set(cmd.required_inputs) | set(cmd.optional_inputs)
        unknown = sorted(set(doc) - known)
        if unknown:
            raise UsageError(f"unknown config keys for {cmd.name}: {unknown}")

    config = {}
    for flag in cmd.flags:
        value = getattr(args, _dest(flag.name))
        if value is None:
            value = doc.get(flag.name, flag.default)
        config[flag.name] = _parse_value(flag, value)

    inputs = {}
    for name in cmd.required_inputs + cmd.optional_inputs:
        value = getattr(args, _dest(name), None)
        if value is None:
            value = doc.get(name)
        if value is None:
            if name in cmd.required_inputs:
                raise UsageError(f"{cmd.name} requires --{name}")
            continue
        inputs[name] = str(value)
    return config, inputs


def _execute(cmd: Command, config: dict, inputs: dict, out: Path,
             threads: int) -> None:
    if threads < 1:
        raise UsageError(f"--threads must be >= 1, got {threads}")
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    outputs, derived = cmd.runner(config, inputs, out, threads)
    duration = time.perf_counter() - start
    manifest = {
        "command": cmd.name,
        "version": __version__,
        "config": config,
        "inputs": inputs,
        "outputs": list(outputs),
        "derived": derived,
    }
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (out / TIMING_NAME).write_text(
        json.dumps({"command": cmd.name, "duration_seconds": duration}) + "\n")


def replay_manifest(manifest_path, out_dir, threads: int = 1) -> None:
    """Re-execute the command a manifest records, writing into ``out_dir``."""
    try:
        with open(manifest_path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid manifest JSON: {exc}") from exc
    for key in ("command", "config", "inputs"):
        if key not in doc:
            raise InputFormatError(f"manifest is missing the {key!r} field")
    cmd = _COMMANDS.get(doc["command"])
    if cmd is None:
        raise InputFormatError(f"manifest names unknown command {doc['command']!r}")
    _execute(cmd, doc["config"], doc["inputs"], Path(out_dir), threads)


# --- runners ------------------------------------------------------------------


def _run_init_gan(config, inputs, out: Path, threads):
    dims = GeneratorDims(**{f.name: config[f.name.replace("_", "-")]
                            for f in fields(GeneratorDims)})
    bundle = init_generator(config["seed"], dims)
    save_bundle(bundle, out / "bundle.json")
    return ["bundle.json"], {}


def _run_fit_prior(config, inputs, out: Path, threads):
    bundle = load_bundle(inputs["bundle"])
    n = config["samples"]
    if n < 2:
        raise UsageError(f"--samples must be >= 2 to fit a covariance, got {n}")
    ws = sample_styles(bundle, rng_from(config["seed"], STREAM_FIT), n)
    model = fit_gaussian(w_to_v(ws), ws)
    save_model(model, out / "model.json")
    return ["model.json"], {}


def _run_invert(config, inputs, out: Path, threads):
    bundle = load_bundle(inputs["bundle"])
    model = load_model(inputs["model"])
    target = read_image_f64(inputs["target"], bundle.dims.pixels)
    cfg = InversionConfig(
        target_space=config["space"],
        prior_weight=config["lambda"],
        learning_rate=config["learning-rate"],
        iterations=config["iterations"],
        noise_ramp=NoiseRamp(
            initial_std_factor=config["noise-initial-std"],
            ramp_fraction=config["noise-ramp-fraction"],
        ),
        loss_kind=config["loss"],
        seed=config["seed"],
    )
    result = invert(target, bundle, model, cfg)
    (out / "result.json").write_text(result_to_json(result, cfg))
    write_latents(out / "latent.lat", result.latent.reshape(-1, bundle.dims.latent_dim))
    write_image_f64(out / "recon.f64", result.final_image)
    write_ppm(out / "recon.ppm", result.final_image, bundle.dims.image_shape)
    return (["result.json", "latent.lat", "recon.f64", "recon.ppm"],
            {"final_image_error": result.final_image_error})


def _read_model_latents(path, model):
    """A latents file whose rows have the model's width."""
    rows = read_latents(path)
    if rows.shape[1] != model.dim:
        raise InputFormatError(f"latents in {path} have width {rows.shape[1]}, "
                               f"the model has dim {model.dim}")
    return rows


def _run_correct(config, inputs, out: Path, threads):
    model = load_model(inputs["model"])
    rows = _read_model_latents(inputs["latents"], model)
    cfg = CorrectionConfig(method=config["method"], psi=config["psi"],
                           tau=config["tau"])
    write_latents(out / "latents.lat", correct_rows(model, rows, cfg))
    derived = {"rows": int(rows.shape[0])}
    if cfg.method == METHOD_COMPRESS:
        derived["threshold"] = compression_threshold(model, cfg.tau)
    return ["latents.lat"], derived


def _interp_config(config) -> InterpolationConfig:
    return InterpolationConfig(
        spaces=tuple(config["spaces"]),
        prior_weights=tuple(config["lambdas"]),
        n_images=config["images"],
        n_pairs=config["pairs"],
        iterations=config["iters"],
        learning_rate=config["learning-rate"],
        loss_kind=config["loss"],
        oracle_init=config["oracle-init"],
        seed=config["seed"],
    )


def _run_interpolation(config, inputs, out: Path, threads):
    bundle = load_bundle(inputs["bundle"])
    model = load_model(inputs["model"])
    target_bundle = (load_bundle(inputs["target-bundle"])
                     if "target-bundle" in inputs else None)
    report = interpolation_experiment(bundle, model, _interp_config(config),
                                      target_bundle=target_bundle,
                                      threads=threads)
    outputs = ["report.json"]
    (out / "report.json").write_text(report_to_json(report))
    for c in report.conditions:
        name = condition_filename(c)
        (out / name).write_text(curve_csv(report, c))
        outputs.append(name)
    return outputs, {}


def _run_lambda_sweep(config, inputs, out: Path, threads):
    bundle = load_bundle(inputs["bundle"])
    model = load_model(inputs["model"])
    grid = config["grid"]
    base = _interp_config({**config, "lambdas": grid})
    reports = lambda_sweep(bundle, model, base, grid, threads=threads)
    outputs = []
    summary = {space: {"endpoint": [], "midpoint": []}
               for space in base.spaces}
    for lam, report in reports.items():
        name = f"report_lambda-{lam:g}.json"
        (out / name).write_text(report_to_json(report))
        outputs.append(name)
        for c in report.conditions:
            cname = condition_filename(c)
            (out / cname).write_text(curve_csv(report, c))
            outputs.append(cname)
        for space in base.spaces:
            label = condition_label(space, lam)
            summary[space]["endpoint"].append(report.endpoint_error(label))
            summary[space]["midpoint"].append(report.midpoint_error(label))
    sweep = {"kind": "lambda-sweep", "grid": list(grid),
             "spaces": list(base.spaces), "summary": summary}
    (out / "sweep.json").write_text(json.dumps(sweep, indent=2, sort_keys=True) + "\n")
    outputs.append("sweep.json")
    return outputs, {}


def _run_fid_tradeoff(config, inputs, out: Path, threads):
    bundle = load_bundle(inputs["bundle"])
    model = load_model(inputs["model"])
    cfg = TradeoffConfig(
        psis=tuple(config["psis"]),
        n_samples=config["samples"],
        n_identity=config["identity-samples"],
        tau_lo=config["tau-lo"],
        tau_hi=config["tau-hi"],
        match_tol=config["match-tol"],
        max_bisect=config["max-bisect"],
        seed=config["seed"],
    )
    report = fid_tradeoff(bundle, model, cfg, threads=threads)
    (out / "tradeoff.json").write_text(tradeoff_to_json(report))
    lines = ["psi,tau,fid_truncation,fid_compression,matched,"
             "identity_truncation,identity_compression,"
             "pixel_std_truncation,pixel_std_compression"]
    for p in report.points:
        lines.append(
            f"{p.psi:g},{p.tau!r},{p.fid_truncation!r},{p.fid_compression!r},"
            f"{int(p.matched)},{p.identity_truncation!r},"
            f"{p.identity_compression!r},{p.pixel_std_truncation!r},"
            f"{p.pixel_std_compression!r}"
        )
    (out / "points.csv").write_text("\n".join(lines) + "\n")
    return (["tradeoff.json", "points.csv"],
            {"fid_uncorrected": report.fid_uncorrected,
             "all_matched": all(p.matched for p in report.points)})


def _run_pc_profile(config, inputs, out: Path, threads):
    model = load_model(inputs["model"])
    if "latents" in inputs:
        ws = _read_model_latents(inputs["latents"], model)
    else:
        vs = sample_latents(model, rng_from(config["seed"], STREAM_SAMPLES),
                            config["samples"])
        ws = v_to_w(vs)
    k = config["k"] if config["k"] is not None else min(30, model.dim)
    config["k"] = k
    profile = pc_magnitude_profile(ws, model, k, config["tau"])
    (out / "profile.json").write_text(profile_to_json(profile))
    lines = ["dim,flagged_mean,flagged_std,unflagged_mean,unflagged_std"]
    for i in range(k):
        lines.append(
            f"{i},{float(profile.flagged.mean[i])!r},"
            f"{float(profile.flagged.std[i])!r},"
            f"{float(profile.unflagged.mean[i])!r},"
            f"{float(profile.unflagged.std[i])!r}"
        )
    (out / "profile.csv").write_text("\n".join(lines) + "\n")
    return (["profile.json", "profile.csv"],
            {"flagged_fraction": profile.flagged_fraction,
             "tail_probability_analytic": tail_probability(model, config["tau"])})


# --- command registry ---------------------------------------------------------


def _seed_flag() -> Flag:
    return Flag("seed", "int", 0, help="base seed; all streams derive from it")


_COMMANDS = {}


def _register(cmd: Command) -> None:
    _COMMANDS[cmd.name] = cmd


_register(Command(
    name="init-gan",
    flags=(
        _seed_flag(),
        *(Flag(f.name.replace("_", "-"), "int", f.default)
          for f in fields(GeneratorDims)),
    ),
    required_inputs=(),
    optional_inputs=(),
    runner=_run_init_gan,
    help="create a generator bundle from a seed",
))

_register(Command(
    name="fit-prior",
    flags=(
        _seed_flag(),
        Flag("samples", "int", 100000, help="number of mapped styles to fit on"),
    ),
    required_inputs=("bundle",),
    optional_inputs=(),
    runner=_run_fit_prior,
    help="fit the Gaussian model of the corrected latent space",
))

_register(Command(
    name="invert",
    flags=(
        _seed_flag(),
        Flag("space", "str", InversionConfig.target_space,
             choices=(SPACE_W, SPACE_WPLUS)),
        Flag("lambda", "float", InversionConfig.prior_weight, help="prior weight"),
        Flag("learning-rate", "float", InversionConfig.learning_rate),
        Flag("iterations", "int", InversionConfig.iterations),
        Flag("loss", "str", InversionConfig.loss_kind,
             choices=(LOSS_PIXEL, LOSS_PROXY)),
        Flag("noise-initial-std", "float", NoiseRamp.initial_std_factor),
        Flag("noise-ramp-fraction", "float", NoiseRamp.ramp_fraction),
    ),
    required_inputs=("bundle", "model", "target"),
    optional_inputs=(),
    runner=_run_invert,
    help="recover the latent behind a target image",
))

_register(Command(
    name="correct",
    flags=(
        Flag("method", "str", CorrectionConfig.method,
             choices=(METHOD_TRUNCATE, METHOD_COMPRESS)),
        Flag("psi", "float", CorrectionConfig.psi),
        Flag("tau", "float", CorrectionConfig.tau),
    ),
    required_inputs=("model", "latents"),
    optional_inputs=(),
    runner=_run_correct,
    help="apply truncation or compression to a latent file",
))

_INTERP_FLAGS = (
    _seed_flag(),
    Flag("spaces", "strs", InterpolationConfig.spaces,
         choices=(SPACE_W, SPACE_WPLUS)),
    Flag("images", "int", InterpolationConfig.n_images, help="target pool size"),
    Flag("pairs", "int", InterpolationConfig.n_pairs),
    Flag("iters", "int", InterpolationConfig.iterations,
         help="inversion iterations per target"),
    Flag("learning-rate", "float", InterpolationConfig.learning_rate),
    Flag("loss", "str", InterpolationConfig.loss_kind,
         choices=(LOSS_PIXEL, LOSS_PROXY)),
    Flag("oracle-init", "bool", InterpolationConfig.oracle_init,
         help="start each inversion at the true latent"),
)

_register(Command(
    name="experiment interpolation",
    flags=_INTERP_FLAGS + (
        Flag("lambdas", "floats", InterpolationConfig.prior_weights,
             help="prior weights to compare"),
    ),
    required_inputs=("bundle", "model"),
    optional_inputs=("target-bundle",),
    runner=_run_interpolation,
    help="interpolation-error curves with and without the prior",
))

_register(Command(
    name="experiment lambda-sweep",
    flags=tuple(f for f in _INTERP_FLAGS if f.name != "spaces") + (
        Flag("spaces", "strs", [SPACE_WPLUS], choices=(SPACE_W, SPACE_WPLUS)),
        Flag("grid", "floats", DEFAULT_LAMBDA_GRID),
    ),
    required_inputs=("bundle", "model"),
    optional_inputs=(),
    runner=_run_lambda_sweep,
    help="interpolation experiment over a grid of prior weights",
))

_register(Command(
    name="experiment fid-tradeoff",
    flags=(
        _seed_flag(),
        Flag("psis", "floats", TradeoffConfig.psis),
        Flag("samples", "int", TradeoffConfig.n_samples),
        Flag("identity-samples", "int", TradeoffConfig.n_identity),
        Flag("tau-lo", "float", TradeoffConfig.tau_lo),
        Flag("tau-hi", "float", TradeoffConfig.tau_hi),
        Flag("match-tol", "float", TradeoffConfig.match_tol),
        Flag("max-bisect", "int", TradeoffConfig.max_bisect),
    ),
    required_inputs=("bundle", "model"),
    optional_inputs=(),
    runner=_run_fid_tradeoff,
    help="truncation vs compression at matched feature distance",
))

_register(Command(
    name="experiment pc-profile",
    flags=(
        _seed_flag(),
        Flag("samples", "int", 10000,
             help="model samples to profile when no --latents file is given"),
        Flag("k", "int", None, help="leading components to report (default 30)"),
        Flag("tau", "float", 0.5),
    ),
    required_inputs=("model",),
    optional_inputs=("latents",),
    runner=_run_pc_profile,
    help="principal-component magnitudes split by tail flag",
))


# --- argparse wiring ----------------------------------------------------------


def _add_flags(parser: argparse.ArgumentParser, cmd: Command) -> None:
    for flag in cmd.flags:
        name = f"--{flag.name}"
        if flag.kind == "bool":
            parser.add_argument(name, action=argparse.BooleanOptionalAction,
                                default=None, help=flag.help)
        elif flag.kind in ("floats", "strs"):
            parser.add_argument(name, type=str, default=None,
                                help=flag.help or "comma-separated list")
        elif flag.kind == "int":
            parser.add_argument(name, type=int, default=None, help=flag.help)
        elif flag.kind == "float":
            parser.add_argument(name, type=float, default=None, help=flag.help)
        else:
            parser.add_argument(name, type=str, default=None, help=flag.help)
    for name in cmd.required_inputs + cmd.optional_inputs:
        required = "" if name in cmd.required_inputs else " (optional)"
        parser.add_argument(f"--{name}", type=str, default=None,
                            help=f"input path{required}")
    parser.add_argument("--out", type=str, required=True,
                        help="output directory")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file supplying any subset of settings")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads (does not affect results)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentprior",
        description="Gaussian latent priors for inversion and artifact "
                    "correction on a toy style-based generator.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    top = parser.add_subparsers(dest="command", required=True)
    experiment = None
    for key, cmd in _COMMANDS.items():
        parts = key.split(" ")
        if len(parts) == 1:
            sub = top.add_parser(parts[0], help=cmd.help)
        else:
            if experiment is None:
                exp = top.add_parser("experiment",
                                     help="reproduce one of the experiments")
                experiment = exp.add_subparsers(dest="subcommand", required=True)
            sub = experiment.add_parser(parts[1], help=cmd.help)
        _add_flags(sub, cmd)
        sub.set_defaults(command_key=key)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cmd = _COMMANDS[args.command_key]
    try:
        config, inputs = _resolve(cmd, args)
        _execute(cmd, config, inputs, Path(args.out), args.threads)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
