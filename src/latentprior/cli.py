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
Flags, --config and a replayed manifest are checked by one resolver, and
the runners get their input files already loaded and checked to fit.

Exit codes: 0 success, 2 bad arguments, 3 input-format error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
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
    runner: object  # fn(config, loaded inputs, out: Path, threads) -> (outputs, derived)
    required_inputs: tuple[str, ...] = ()
    optional_inputs: tuple[str, ...] = ()
    help: str = ""


def integer(value) -> int:
    """An int, a string of digits or an integral float; never a bool."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError("expected an integer")
    return int(value)


def finite(value) -> float:
    """A number or numeric string as a float; nan, inf and bools are refused."""
    if isinstance(value, bool):
        raise ValueError("expected a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("expected a finite number")
    return number


def floats(value) -> list:
    """A comma-separated string or a list, as finite floats."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v != ""]
    return [finite(v) for v in value]


def strs(value) -> list:
    """A comma-separated string or a list, as strings."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v != ""]
    return [str(v) for v in value]


def _boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    raise ValueError("expected a boolean")


# Flag.kind -> the one function that parses a flag, --config or manifest value
_KINDS = {"int": integer, "float": finite, "str": str, "floats": floats,
          "strs": strs, "bool": _boolean}


def _parse_value(flag: Flag, value):
    """Normalize a flag/config value to its JSON-friendly resolved form."""
    if value is None and flag.default is None:
        return None
    try:
        value = _KINDS[flag.kind](value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"invalid value for {flag.name}: {value!r} ({exc})") from exc
    for item in value if isinstance(value, list) else [value]:
        if flag.choices is not None and item not in flag.choices:
            raise UsageError(f"invalid value {item!r} for {flag.name}; "
                             f"choices are {list(flag.choices)}")
    return value


def _read_object(path, what: str) -> dict:
    """The JSON object a settings file holds."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"invalid {what} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError(f"{what} file must hold a JSON object")
    return doc


def _resolve(cmd: Command, given: dict, doc: dict):
    """Merge given flag values over a settings document over the defaults."""
    names = cmd.required_inputs + cmd.optional_inputs
    unknown = sorted(set(doc) - {f.name for f in cmd.flags} - set(names))
    if unknown:
        raise UsageError(f"unknown config keys for {cmd.name}: {unknown}")

    def pick(name, default=None):
        value = given.get(name)
        return doc.get(name, default) if value is None else value

    config = {f.name: _parse_value(f, pick(f.name, f.default)) for f in cmd.flags}
    inputs = {name: str(path) for name in names if (path := pick(name)) is not None}
    for name in cmd.required_inputs:
        if name not in inputs:
            raise UsageError(f"{cmd.name} requires --{name}")
    return config, inputs


def _load(inputs: dict) -> dict:
    """Read each input file by its name and check once that they fit together."""
    readers = {"bundle": load_bundle, "target-bundle": load_bundle,
               "model": load_model, "latents": read_latents}
    loaded = {name: readers[name](path) for name, path in inputs.items()
              if name != "target"}
    bundle, model = loaded.get("bundle"), loaded.get("model")
    if "target" in inputs:
        loaded["target"] = read_image_f64(inputs["target"], bundle.dims.pixels)
    if bundle is not None and model is not None \
            and model.dim != bundle.dims.latent_dim:
        raise InputFormatError(
            f"the model in {inputs['model']} has dim {model.dim}, the generator "
            f"in {inputs['bundle']} has latent dim {bundle.dims.latent_dim}")
    if "target-bundle" in loaded and loaded["target-bundle"].dims != bundle.dims:
        raise InputFormatError(
            f"the generator in {inputs['target-bundle']} has other dims than "
            f"the one in {inputs['bundle']}")
    if "latents" in loaded and loaded["latents"].shape[1] != model.dim:
        raise InputFormatError(
            f"latents in {inputs['latents']} have width "
            f"{loaded['latents'].shape[1]}, the model has dim {model.dim}")
    return loaded


def _execute(cmd: Command, config: dict, inputs: dict, out: Path,
             threads: int) -> None:
    if threads < 1:
        raise UsageError(f"--threads must be >= 1, got {threads}")
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    outputs, derived = cmd.runner(config, _load(inputs), out, threads)
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
    doc = _read_object(manifest_path, "manifest")
    for key in ("command", "config", "inputs"):
        if key not in doc:
            raise InputFormatError(f"manifest is missing the {key!r} field")
    cmd = _COMMANDS.get(str(doc["command"]))
    if cmd is None:
        raise InputFormatError(f"manifest names unknown command {doc['command']!r}")
    if doc.get("version") != __version__:
        raise InputFormatError(f"manifest has version {doc.get('version')!r}, "
                               f"not {__version__!r}")
    config, inputs = doc["config"], doc["inputs"]
    if not (isinstance(config, dict) and isinstance(inputs, dict)):
        raise InputFormatError("manifest config and inputs must be JSON objects")
    missing = [f.name for f in cmd.flags if f.name not in config]
    if missing:
        raise InputFormatError(f"manifest config lacks the settings {missing}")
    try:
        config, inputs = _resolve(cmd, {}, {**config, **inputs})
    except UsageError as exc:
        raise InputFormatError(f"manifest: {exc}") from exc
    _execute(cmd, config, inputs, Path(out_dir), threads)


# --- runners ------------------------------------------------------------------


def _run_init_gan(config, inputs, out: Path, threads):
    dims = GeneratorDims(**{f.name: config[f.name.replace("_", "-")]
                            for f in fields(GeneratorDims)})
    bundle = init_generator(config["seed"], dims)
    save_bundle(bundle, out / "bundle.json")
    return ["bundle.json"], {}


def _run_fit_prior(config, inputs, out: Path, threads):
    n = config["samples"]
    if n < 2:
        raise UsageError(f"--samples must be >= 2 to fit a covariance, got {n}")
    ws = sample_styles(inputs["bundle"], rng_from(config["seed"], STREAM_FIT), n)
    model = fit_gaussian(w_to_v(ws), ws)
    save_model(model, out / "model.json")
    return ["model.json"], {}


def _run_invert(config, inputs, out: Path, threads):
    bundle = inputs["bundle"]
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
    result = invert(inputs["target"], bundle, inputs["model"], cfg)
    (out / "result.json").write_text(result_to_json(result, cfg))
    write_latents(out / "latent.lat", result.latent.reshape(-1, bundle.dims.latent_dim))
    write_image_f64(out / "recon.f64", result.final_image)
    write_ppm(out / "recon.ppm", result.final_image, bundle.dims.image_shape)
    return (["result.json", "latent.lat", "recon.f64", "recon.ppm"],
            {"final_image_error": result.final_image_error})


def _run_correct(config, inputs, out: Path, threads):
    model, rows = inputs["model"], inputs["latents"]
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


def _write_report(out: Path, name: str, report) -> list:
    """The report and one curve CSV per condition; returns their file names."""
    (out / name).write_text(report_to_json(report))
    names = [name]
    for c in report.conditions:
        names.append(condition_filename(c))
        (out / names[-1]).write_text(curve_csv(report, c))
    return names


def _run_interpolation(config, inputs, out: Path, threads):
    report = interpolation_experiment(inputs["bundle"], inputs["model"],
                                      _interp_config(config),
                                      target_bundle=inputs.get("target-bundle"))
    return _write_report(out, "report.json", report), {}


def _run_lambda_sweep(config, inputs, out: Path, threads):
    grid = config["grid"]
    base = _interp_config({**config, "lambdas": grid})
    reports = lambda_sweep(inputs["bundle"], inputs["model"], base, grid)
    outputs = []
    summary = {space: {"endpoint": [], "midpoint": []}
               for space in base.spaces}
    for lam, report in reports.items():
        outputs += _write_report(out, f"report_lambda-{lam:g}.json", report)
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
    report = fid_tradeoff(inputs["bundle"], inputs["model"], cfg, threads=threads)
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
    model = inputs["model"]
    ws = inputs.get("latents")
    if ws is None:
        ws = v_to_w(sample_latents(model, rng_from(config["seed"], STREAM_SAMPLES),
                                   config["samples"]))
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


_SEED = Flag("seed", "int", 0, help="base seed; all streams derive from it")


_COMMANDS = {}


def _register(cmd: Command) -> None:
    _COMMANDS[cmd.name] = cmd


_register(Command(
    name="init-gan",
    flags=(
        _SEED,
        *(Flag(f.name.replace("_", "-"), "int", f.default)
          for f in fields(GeneratorDims)),
    ),
    runner=_run_init_gan,
    help="create a generator bundle from a seed",
))

_register(Command(
    name="fit-prior",
    flags=(
        _SEED,
        Flag("samples", "int", 100000, help="number of mapped styles to fit on"),
    ),
    required_inputs=("bundle",),
    runner=_run_fit_prior,
    help="fit the Gaussian model of the corrected latent space",
))

_register(Command(
    name="invert",
    flags=(
        _SEED,
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
    runner=_run_correct,
    help="apply truncation or compression to a latent file",
))

_INTERP_FLAGS = (
    _SEED,
    Flag("spaces", "strs", InterpolationConfig.spaces,
         choices=(SPACE_W, SPACE_WPLUS), help="comma-separated list"),
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
        Flag("spaces", "strs", [SPACE_WPLUS], choices=(SPACE_W, SPACE_WPLUS),
             help="comma-separated list"),
        Flag("grid", "floats", DEFAULT_LAMBDA_GRID, help="comma-separated list"),
    ),
    required_inputs=("bundle", "model"),
    runner=_run_lambda_sweep,
    help="interpolation experiment over a grid of prior weights",
))

_register(Command(
    name="experiment fid-tradeoff",
    flags=(
        _SEED,
        Flag("psis", "floats", TradeoffConfig.psis, help="comma-separated list"),
        Flag("samples", "int", TradeoffConfig.n_samples),
        Flag("identity-samples", "int", TradeoffConfig.n_identity),
        Flag("tau-lo", "float", TradeoffConfig.tau_lo),
        Flag("tau-hi", "float", TradeoffConfig.tau_hi),
        Flag("match-tol", "float", TradeoffConfig.match_tol),
        Flag("max-bisect", "int", TradeoffConfig.max_bisect),
    ),
    required_inputs=("bundle", "model"),
    runner=_run_fid_tradeoff,
    help="truncation vs compression at matched feature distance",
))

_register(Command(
    name="experiment pc-profile",
    flags=(
        _SEED,
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


class _Parser(argparse.ArgumentParser):
    """Flags spelled in full only; a bad command line prints one line."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _add_flags(parser: argparse.ArgumentParser, cmd: Command) -> None:
    for flag in cmd.flags:
        parse = ({"action": argparse.BooleanOptionalAction} if flag.kind == "bool"
                 else {"type": _KINDS[flag.kind]})
        parser.add_argument(f"--{flag.name}", dest=flag.name, default=None,
                            help=flag.help, **parse)
    for name in cmd.required_inputs + cmd.optional_inputs:
        required = "" if name in cmd.required_inputs else " (optional)"
        parser.add_argument(f"--{name}", dest=name, type=str, default=None,
                            help=f"input path{required}")
    parser.add_argument("--out", type=str, required=True,
                        help="output directory")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file supplying any subset of settings")
    parser.add_argument("--threads", type=int, default=1,
                        help="fid-tradeoff worker threads; never changes results")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    args = build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command_key]
    try:
        doc = _read_object(args.config, "config") if args.config else {}
        config, inputs = _resolve(cmd, vars(args), doc)
        _execute(cmd, config, inputs, Path(args.out), args.threads)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
