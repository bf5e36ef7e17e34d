"""Command-line entry point.

Subcommands: init-gan, fit-prior, invert, correct, and
experiment {interpolation, fid-tradeoff, pc-profile, lambda-sweep}.

Every command writes its artifacts plus a manifest.json into --out. A
runner returns its files' contents, and _execute forms the manifest before
it writes any file, so a failed run writes none. The manifest holds the
command name, the fully resolved configuration, the input paths, and the
output file names; it contains no timestamps or thread counts, so
re-running a command from its manifest (replay_manifest) reproduces every
output byte for byte at any --threads value. Wall-clock duration goes to a
separate timing.json. A --config JSON file may supply any subset of a
command's settings, with explicit flags taking precedence. Flags, --config
and a replayed manifest are checked by one resolver, the runners get their
input files already loaded and checked to fit, and one helper (_settings)
builds each command's config dataclass from its resolved settings.

Exit codes: 0 success, 2 bad arguments (a setting too large for memory
included), 3 input-format error, 4 numerical failure (a non-finite number
bound for an output included).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields, replace
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
    curve_csv,
    fid_tradeoff,
    interpolation_experiment,
    lambda_sweep,
    pc_magnitude_profile,
    points_csv,
    profile_csv,
    profile_to_json,
    report_to_json,
    sweep_to_json,
    tail_probability,
    tradeoff_to_json,
)
from .formats import (image_from_f64_bytes, image_to_f64_bytes, json_object,
                      json_text, latents_to_bytes, ppm_bytes, read, read_latents,
                      write)
# not called here: the benchmark's tracer (perfbench/spans.py) wraps them
# under these names, and tests/test_benchmark_names.py pins them
from .formats import write_latents  # noqa: F401
from .gaussian import fit_gaussian, load_model, model_to_json, sample_latents
from .gaussian import save_model  # noqa: F401
from .generator import (
    GeneratorDims,
    bundle_from_json,
    bundle_to_json,
    init_generator,
    sample_styles,
)
from .inversion import (
    LOSS_PIXEL,
    LOSS_PROXY,
    SPACE_W,
    SPACE_WPLUS,
    InversionConfig,
    invert,
    result_to_json,
)
from .seeding import STREAM_FIT, STREAM_SAMPLES, rng_from
from .spaces import v_to_w, w_to_v

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
    runner: object  # fn(config, loaded inputs, threads) -> ({name: str | bytes}, derived)
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
    def read_bundle(path):
        return bundle_from_json(read(path))

    readers = {"bundle": read_bundle, "target-bundle": read_bundle,
               "model": load_model, "latents": read_latents}
    loaded = {name: readers[name](path) for name, path in inputs.items()
              if name != "target"}
    bundle, model = loaded.get("bundle"), loaded.get("model")
    if "target" in inputs:
        loaded["target"] = image_from_f64_bytes(read(inputs["target"]),
                                                bundle.dims.pixels)
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
    start = time.perf_counter()
    files, derived = cmd.runner(config, _load(inputs), threads)
    # formed before any file is written, so a non-finite derived value
    # fails the run like any error and leaves no file or directory
    manifest = json_text({"command": cmd.name, "version": __version__,
                          "config": config, "inputs": inputs,
                          "outputs": list(files), "derived": derived})
    out.mkdir(parents=True, exist_ok=True)
    for name, data in {**files, MANIFEST_NAME: manifest}.items():
        write(out / name, data)
    write(out / TIMING_NAME, json_text(
        {"command": cmd.name, "duration_seconds": time.perf_counter() - start}))


def replay_manifest(manifest_path, out_dir, threads: int = 1) -> None:
    """Re-execute the command a manifest records, writing into ``out_dir``."""
    doc = json_object(read(manifest_path), "manifest")
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


# flag -> the config field it sets, where the two names differ; any other
# flag sets the field named by its snake_case spelling
_FIELDS = {"space": "target_space", "lambda": "prior_weight", "loss": "loss_kind",
           "lambdas": "prior_weights", "grid": "prior_weights", "images": "n_images",
           "pairs": "n_pairs", "iters": "iterations", "samples": "n_samples",
           "identity-samples": "n_identity"}


def _settings(cls, config: dict, **given):
    """A ``cls`` from the resolved settings that name its fields, lists as
    tuples; ``given`` fields are passed as they are."""
    names = {f.name for f in fields(cls)}
    for flag, value in config.items():
        name = _FIELDS.get(flag, flag.replace("-", "_"))
        if name in names and name not in given:
            given[name] = tuple(value) if isinstance(value, list) else value
    return cls(**given)


def _run_init_gan(config, inputs, threads):
    bundle = init_generator(config["seed"], _settings(GeneratorDims, config))
    return {"bundle.json": bundle_to_json(bundle)}, {}


def _run_fit_prior(config, inputs, threads):
    n = config["samples"]
    if n < 2:
        raise UsageError(f"--samples must be >= 2 to fit a covariance, got {n}")
    ws = sample_styles(inputs["bundle"], rng_from(config["seed"], STREAM_FIT), n)
    return {"model.json": model_to_json(fit_gaussian(w_to_v(ws), ws))}, {}


def _run_invert(config, inputs, threads):
    bundle = inputs["bundle"]
    cfg = _settings(InversionConfig, config)
    result = invert(inputs["target"], bundle, inputs["model"], cfg)
    image = result.final_image
    return ({"result.json": result_to_json(result, cfg),
             "latent.lat": latents_to_bytes(
                 result.latent.reshape(-1, bundle.dims.latent_dim)),
             "recon.f64": image_to_f64_bytes(image),
             "recon.ppm": ppm_bytes(image, bundle.dims.image_shape)},
            {"final_image_error": result.final_image_error})


def _run_correct(config, inputs, threads):
    model, rows = inputs["model"], inputs["latents"]
    cfg = _settings(CorrectionConfig, config)
    derived = {"rows": int(rows.shape[0])}
    if cfg.method == METHOD_COMPRESS:
        if model.sigma_max == 0:
            raise InputFormatError("the model's largest PC std is 0, so "
                                   "compression has no threshold")
        derived["threshold"] = compression_threshold(model, cfg.tau)
        if derived["threshold"] == 0:
            raise UsageError(f"--tau {cfg.tau} times the model's largest PC std "
                             f"{model.sigma_max} underflows to 0")
    files = {"latents.lat": latents_to_bytes(correct_rows(model, rows, cfg))}
    return files, derived


def _report_files(name: str, report) -> dict:
    """The report and one curve CSV per condition, by file name."""
    return {name: report_to_json(report),
            **{condition_filename(c): curve_csv(report, c) for c in report.conditions}}


def _run_interpolation(config, inputs, threads):
    report = interpolation_experiment(inputs["bundle"], inputs["model"],
                                      _settings(InterpolationConfig, config),
                                      target_bundle=inputs.get("target-bundle"))
    return _report_files("report.json", report), {}


def _run_lambda_sweep(config, inputs, threads):
    reports = lambda_sweep(inputs["bundle"], inputs["model"],
                           _settings(InterpolationConfig, config))
    files = {}
    for lam, report in reports.items():
        files.update(_report_files(f"report_lambda-{lam:g}.json", report))
    files["sweep.json"] = sweep_to_json(reports)
    return files, {}


def _run_fid_tradeoff(config, inputs, threads):
    report = fid_tradeoff(inputs["bundle"], inputs["model"],
                          _settings(TradeoffConfig, config), threads=threads)
    return ({"tradeoff.json": tradeoff_to_json(report),
             "points.csv": points_csv(report)},
            {"fid_uncorrected": report.fid_uncorrected,
             "all_matched": all(p.matched for p in report.points)})


def _run_pc_profile(config, inputs, threads):
    model = inputs["model"]
    ws = inputs.get("latents")
    if ws is None:
        ws = v_to_w(sample_latents(model, rng_from(config["seed"], STREAM_SAMPLES),
                                   config["samples"]))
    elif ws.shape[0] == 0:
        raise InputFormatError("the --latents file holds no rows")
    k = config["k"] if config["k"] is not None else min(30, model.dim)
    config["k"] = k
    profile = pc_magnitude_profile(ws, model, k, config["tau"])
    return ({"profile.json": profile_to_json(profile),
             "profile.csv": profile_csv(profile)},
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
        Flag("noise-initial-std", "float", InversionConfig.noise_initial_std),
        Flag("noise-ramp-fraction", "float", InversionConfig.noise_ramp_fraction),
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
_SPACES = Flag("spaces", "strs", InterpolationConfig.spaces,
               choices=(SPACE_W, SPACE_WPLUS), help="comma-separated list")

_register(Command(
    name="experiment interpolation",
    flags=_INTERP_FLAGS + (
        _SPACES,
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
    flags=_INTERP_FLAGS + (
        replace(_SPACES, default=[SPACE_WPLUS]),
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
        Flag("k", "int", None,
             help="leading components to report (default min(30, model dim))"),
        Flag("tau", "float", CorrectionConfig.tau),
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
        doc = json_object(read(args.config), "config") if args.config else {}
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
    except MemoryError as exc:  # a size or count setting too large to hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
