"""Command-line interface: exit codes, config merging, and manifests."""

import json
import os
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import latentprior
from latentprior import cli, evaluation, generator
from latentprior.cli import (
    _COMMANDS,
    _FIELDS,
    MANIFEST_NAME,
    TIMING_NAME,
    _resolve,
    main,
    replay_manifest,
)
from latentprior.errors import InputFormatError
from latentprior.formats import (latents_to_bytes, read, read_latents,
                                 write_image_f64, write_latents)
from latentprior.gaussian import load_model
from latentprior.generator import bundle_from_json, sample_styles, synthesize
from latentprior.spaces import broadcast_style


def run(*args) -> int:
    return main([str(a) for a in args])


def run_process(*args) -> tuple[int, str]:
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    src = str(Path(latentprior.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "latentprior.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stderr


def manifest_of(out: Path) -> dict:
    return json.loads((out / MANIFEST_NAME).read_text())


def _moved_off_diagonal(doc) -> list:
    """cov_v with its (0, 1) entry moved by its largest value, so the
    matrix is no longer symmetric."""
    cov = list(doc["cov_v"])
    cov[1] += max(cov)
    return cov


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A workspace with a generator, a fitted model, a target, and latents."""
    root = tmp_path_factory.mktemp("cli")
    assert run("init-gan", "--seed", 3, "--out", root / "gan") == 0
    bundle_path = root / "gan" / "bundle.json"
    assert run("fit-prior", "--bundle", bundle_path, "--samples", 3000,
               "--out", root / "prior") == 0
    model_path = root / "prior" / "model.json"

    bundle = bundle_from_json(read(bundle_path))
    style = sample_styles(bundle, 99, 1)[0]
    image = synthesize(bundle, broadcast_style(style, bundle.dims.scales))
    target_path = root / "target.f64"
    write_image_f64(target_path, image)

    latents_path = root / "latents.lat"
    write_latents(latents_path, sample_styles(bundle, 55, 6))
    assert run("init-gan", "--latent-dim", 16, "--out", root / "gan16") == 0
    return {
        "root": root,
        "bundle": bundle_path,
        "model": model_path,
        "target": target_path,
        "latents": latents_path,
        "bundle16": root / "gan16" / "bundle.json",
    }


class TestManifests:
    def test_init_gan_manifest_and_outputs(self, ws):
        out = ws["root"] / "gan"
        doc = manifest_of(out)
        assert doc["command"] == "init-gan"
        assert doc["config"]["seed"] == 3
        assert doc["config"]["latent-dim"] == 32
        assert doc["inputs"] == {}
        for name in doc["outputs"]:
            assert (out / name).is_file()
        assert (out / TIMING_NAME).is_file()
        assert MANIFEST_NAME not in doc["outputs"]

    def test_fit_prior_wrote_a_loadable_model(self, ws):
        model = load_model(ws["model"])
        assert model.dim == 32
        assert model.sample_count == 3000

    def test_timing_stays_out_of_the_manifest(self, ws):
        doc = manifest_of(ws["root"] / "gan")
        assert "duration" not in json.dumps(doc)
        timing = json.loads((ws["root"] / "gan" / TIMING_NAME).read_text())
        assert timing["duration_seconds"] >= 0


class TestFitPriorMapping:
    SAMPLES = 20000  # the benchmark's set-up fit

    def test_model_keeps_its_bytes_at_4096_row_blocks(self, ws, tmp_path, monkeypatch):
        args = ("fit-prior", "--bundle", ws["bundle"], "--samples", self.SAMPLES, "--out")
        assert run(*args, tmp_path / "blocked") == 0
        monkeypatch.setattr(generator, "MAP_BLOCK_ROWS", 4096)
        assert run(*args, tmp_path / "wide") == 0
        assert (tmp_path / "blocked" / "model.json").read_bytes() == \
            (tmp_path / "wide" / "model.json").read_bytes()

    def test_peak_allocation_stays_under_three_sample_arrays(self, ws):
        bundle = bundle_from_json(read(ws["bundle"]))
        tracemalloc.start()
        try:
            cli._run_fit_prior({"samples": self.SAMPLES, "seed": 0},
                               {"bundle": bundle}, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # at most three (n, d) arrays live at once (z and W while mapping;
        # W, V and the V map's temporary; W, V and V centered), and the
        # mapping adds its block buffers and the activation's temporary
        d, hidden = bundle.dims.latent_dim, bundle.dims.hidden_dim
        rows = len(generator._row_blocks(np.empty((self.SAMPLES, 0)))[0])
        assert peak < 3 * self.SAMPLES * d * 8 + 4 * rows * hidden * 8


class TestInvert:
    def test_small_inversion_outputs(self, ws):
        out = ws["root"] / "inv"
        rc = run("invert", "--bundle", ws["bundle"], "--model", ws["model"],
                 "--target", ws["target"], "--space", "w", "--lambda", 0,
                 "--iterations", 30, "--out", out)
        assert rc == 0
        doc = manifest_of(out)
        result = json.loads((out / "result.json").read_text())
        assert doc["derived"]["final_image_error"] == result["final_image_error"]
        assert read_latents(out / "latent.lat").shape == (1, 32)
        assert (out / "recon.ppm").read_bytes().startswith(b"P6\n")
        assert len((out / "recon.f64").read_bytes()) == 16 * 16 * 3 * 8

    def test_noise_settings_are_flat_config_keys(self, ws, tmp_path):
        out = tmp_path / "inv"
        assert run("invert", "--bundle", ws["bundle"], "--model", ws["model"],
                   "--target", ws["target"], "--iterations", 4,
                   "--noise-initial-std", 0.1, "--noise-ramp-fraction", 0.5,
                   "--out", out) == 0
        config = json.loads((out / "result.json").read_text())["config"]
        assert "noise_ramp" not in config
        assert (config["noise_initial_std"], config["noise_ramp_fraction"]) == \
            (0.1, 0.5)
        manifest = manifest_of(out)["config"]
        assert (manifest["noise-initial-std"], manifest["noise-ramp-fraction"]) == \
            (0.1, 0.5)


class TestCorrect:
    def test_truncation_psi_one_is_byte_identical(self, ws):
        out = ws["root"] / "corr_id"
        rc = run("correct", "--model", ws["model"], "--latents", ws["latents"],
                 "--method", "truncation", "--psi", 1.0, "--out", out)
        assert rc == 0
        assert (out / "latents.lat").read_bytes() == ws["latents"].read_bytes()

    def test_compression_reports_the_threshold(self, ws):
        out = ws["root"] / "corr_comp"
        rc = run("correct", "--model", ws["model"], "--latents", ws["latents"],
                 "--method", "compression", "--tau", 0.4, "--out", out)
        assert rc == 0
        doc = manifest_of(out)
        model = load_model(ws["model"])
        assert doc["derived"]["threshold"] == 0.4 * model.sigma_max
        assert doc["derived"]["rows"] == 6


class TestExitCodes:
    def test_bad_choice_is_usage(self, ws, tmp_path):
        rc = run("invert", "--bundle", ws["bundle"], "--model", ws["model"],
                 "--target", ws["target"], "--space", "zspace",
                 "--out", tmp_path / "o")
        assert rc == 2

    def test_missing_required_input_is_usage(self, tmp_path):
        assert run("fit-prior", "--out", tmp_path / "o") == 2

    def test_nonexistent_input_file_is_input_error(self, tmp_path):
        rc = run("fit-prior", "--bundle", tmp_path / "missing.json",
                 "--out", tmp_path / "o")
        assert rc == 3

    def test_corrupt_bundle_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run("fit-prior", "--bundle", bad, "--out", tmp_path / "o") == 3

    @pytest.mark.parametrize("corrupt", [
        lambda doc: {**doc, "cov_v": [-x for x in doc["cov_v"]]},
        lambda doc: {**doc, "dim": "abc"},
        lambda doc: {**doc, "sample_count": "abc"},
        lambda doc: 5,
        lambda doc: {**doc, "mean_v": [float("nan")] + doc["mean_v"][1:]},
        # 1e400 in a JSON file reads as inf, as Infinity does
        lambda doc: {**doc, "sample_count": float("inf")},
        lambda doc: {**doc, "dim": float("inf")},
        lambda doc: {**doc, "sample_count": 2.7},
        lambda doc: {**doc, "sample_count": -5},
        lambda doc: {**doc, "dim": str(doc["dim"])},
        lambda doc: {**doc, "mean_v": [True] + doc["mean_v"][1:]},
        lambda doc: {**doc, "cov_v": doc["cov_v"][:-1] + ["0.5"]},
    ], ids=["cov-not-positive-definite", "dim", "sample-count",
            "not-an-object", "nan-mean", "infinite-sample-count",
            "infinite-dim", "fractional-sample-count", "negative-sample-count",
            "dim-as-text", "boolean-mean", "covariance-as-text"])
    def test_malformed_model_is_input_error(self, ws, tmp_path, capsys, corrupt):
        doc = corrupt(json.loads(ws["model"].read_text()))
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run("correct", "--model", bad, "--latents", ws["latents"],
                 "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("input error: ") and err.count("\n") == 1

    # well-formed arrays that break the model's invariants
    @pytest.mark.parametrize("corrupt, cause", [
        (lambda doc: {**doc, "cov_v": [1.7e308] * len(doc["cov_v"])},
         "cov_v overflows: its trace is not finite"),
        (lambda doc: {**doc, "cov_v": _moved_off_diagonal(doc)},
         "eigendecomposition does not reconstruct cov_v"),
    ], ids=["overflowing-covariance", "asymmetric-covariance"])
    def test_broken_model_invariant_names_its_cause(self, ws, tmp_path, capsys,
                                                   corrupt, cause):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(corrupt(json.loads(ws["model"].read_text()))))
        capsys.readouterr()
        rc = run("correct", "--model", bad, "--latents", ws["latents"],
                 "--out", tmp_path / "o")
        assert rc == 3
        assert capsys.readouterr().err == f"input error: malformed model: {cause}\n"

    def test_pc_profile_of_an_empty_latents_file_is_input_error(self, ws, tmp_path,
                                                                 capsys):
        empty = tmp_path / "empty.lat"
        empty.write_bytes(latents_to_bytes(np.zeros((0, 32))))
        capsys.readouterr()
        rc = run("experiment", "pc-profile", "--model", ws["model"],
                 "--latents", empty, "--out", tmp_path / "o")
        assert rc == 3
        assert capsys.readouterr().err == \
            "input error: the --latents file holds no rows\n"
        assert not (tmp_path / "o").exists()

    def test_compression_under_a_zero_covariance_model_is_input_error(
            self, ws, tmp_path, capsys):
        doc = json.loads(ws["model"].read_text())
        flat = tmp_path / "model.json"
        flat.write_text(json.dumps({**doc, "cov_v": [0.0] * len(doc["cov_v"])}))
        capsys.readouterr()
        rc = run("correct", "--model", flat, "--latents", ws["latents"],
                 "--method", "compression", "--out", tmp_path / "o")
        assert rc == 3
        assert capsys.readouterr().err == ("input error: the model's largest PC "
                                           "std is 0, so compression has no "
                                           "threshold\n")
        # truncation and the profile need no threshold above zero
        assert run("correct", "--model", flat, "--latents", ws["latents"],
                   "--method", "truncation", "--out", tmp_path / "trunc") == 0
        assert run("experiment", "pc-profile", "--model", flat, "--samples", 10,
                   "--out", tmp_path / "profile") == 0

    def test_a_tau_whose_threshold_underflows_is_usage(self, ws, tmp_path, capsys):
        sigma_max = load_model(ws["model"]).sigma_max
        capsys.readouterr()
        rc = run("correct", "--model", ws["model"], "--latents", ws["latents"],
                 "--tau", 5e-324, "--out", tmp_path / "o")
        assert rc == 2
        assert capsys.readouterr().err == (f"error: --tau 5e-324 times the model's "
                                           f"largest PC std {sigma_max} "
                                           f"underflows to 0\n")

    @pytest.mark.parametrize("corrupt", [
        lambda doc: {**doc, "seed": float("inf")},
        lambda doc: {**doc, "seed": -1},
        lambda doc: {**doc, "seed": 2.7},
        lambda doc: {**doc, "dims": {**doc["dims"], "latent_dim": 2.5}},
        lambda doc: {**doc, "dims": {**doc["dims"], "scales": True}},
        lambda doc: {**doc, "dims": {}},
        lambda doc: {**doc, "dims": {k: v for k, v in doc["dims"].items()
                                     if k != "channels"}},
        lambda doc: {**doc, "dims": {**doc["dims"], "hidden_dim": 10**12}},
        lambda doc: {**doc, "dims": {**doc["dims"], "image_size": 1 << 20}},
    ], ids=["infinite-seed", "negative-seed", "fractional-seed",
            "fractional-latent-dim", "boolean-scales", "empty-dims",
            "missing-channels", "huge-hidden-dim", "huge-image-size"])
    def test_malformed_bundle_is_input_error(self, ws, tmp_path, capsys, corrupt):
        bad = tmp_path / "bundle.json"
        bad.write_text(json.dumps(corrupt(json.loads(ws["bundle"].read_text()))))
        capsys.readouterr()
        rc = run("fit-prior", "--bundle", bad, "--samples", 10, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_wrong_size_target_is_input_error(self, ws, tmp_path):
        short = tmp_path / "short.f64"
        short.write_bytes(b"\x00" * 80)
        rc = run("invert", "--bundle", ws["bundle"], "--model", ws["model"],
                 "--target", short, "--out", tmp_path / "o")
        assert rc == 3

    def test_divergence_is_numeric_error(self, ws, tmp_path):
        rc = run("invert", "--bundle", ws["bundle"], "--model", ws["model"],
                 "--target", ws["target"], "--learning-rate", 1e120,
                 "--iterations", 8, "--noise-initial-std", 0,
                 "--out", tmp_path / "o")
        assert rc == 4

    def test_divergence_with_the_prior_is_numeric_error(self, ws, tmp_path, capsys):
        capsys.readouterr()
        rc = run("invert", "--bundle", ws["bundle"], "--model", ws["model"],
                 "--target", ws["target"], "--lambda", 1e-4,
                 "--learning-rate", 1e308, "--iterations", 20,
                 "--out", tmp_path / "o")
        assert rc == 4
        assert capsys.readouterr().err.startswith("numerical failure: ")

    @pytest.mark.parametrize("weight", [0, 1e-4])
    def test_divergence_prints_one_line(self, ws, tmp_path, weight):
        # in a fresh process, so numpy warnings would reach stderr as a user
        # sees them
        rc, err = run_process("invert", "--bundle", ws["bundle"],
                              "--model", ws["model"], "--target", ws["target"],
                              "--lambda", weight, "--learning-rate", 1e308,
                              "--iterations", 20, "--out", tmp_path / "o")
        assert rc == 4
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_divergence_in_the_last_step_is_numeric_error(self, ws, tmp_path):
        # one finite step onto a non-finite latent: nothing may be written
        out = tmp_path / "o"
        rc = run("invert", "--bundle", ws["bundle"], "--model", ws["model"],
                 "--target", ws["target"], "--learning-rate", 1e308,
                 "--iterations", 1, "--out", out)
        assert rc == 4
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("command", ["correct", "experiment pc-profile"])
    @pytest.mark.parametrize("name", ["nan.lat", "nan.json"])
    def test_non_finite_latents_are_input_error(self, ws, tmp_path, capsys,
                                                command, name):
        bad = tmp_path / name
        rows = np.full((3, 32), np.nan)
        if name.endswith(".json"):  # json.dumps writes NaN, json.loads reads it
            bad.write_text(json.dumps({"rows": 3, "dim": 32,
                                       "values": rows.ravel().tolist()}))
        else:  # write_latents refuses rows, so the header comes from a finite twin
            bad.write_bytes(latents_to_bytes(np.zeros_like(rows))[:16]
                            + rows.astype("<f8").tobytes())
        capsys.readouterr()
        rc = run(*command.split(), "--model", ws["model"], "--latents", bad,
                 "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["correct --method compression",
                                         "experiment pc-profile",
                                         "correct --method truncation"])
    def test_latents_whose_v_map_overflows(self, ws, tmp_path, command):
        # finite rows, so read_latents takes them, but 5 * -1e308 overflows;
        # a fresh process, so numpy warnings would reach stderr
        huge = tmp_path / "huge.lat"
        write_latents(huge, np.where(np.arange(96).reshape(3, 32) % 2, 1e308, -1e308))
        out = tmp_path / "o"
        rc, err = run_process(*command.split(), "--model", ws["model"],
                              "--latents", huge, "--out", out)
        if command.endswith("truncation"):  # never leaves W
            assert (rc, err) == (0, "")
            assert np.all(np.isfinite(read_latents(out / "latents.lat")))
        else:
            assert rc == 4
            assert err.startswith("numerical failure: ") and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("command", ["correct", "experiment pc-profile"])
    @pytest.mark.parametrize("element", ["1.5", True, None])
    def test_latents_element_that_is_not_a_number_is_input_error(
            self, ws, tmp_path, capsys, command, element):
        bad = tmp_path / "latents.json"
        bad.write_text(json.dumps({"rows": 1, "dim": 32,
                                   "values": [element] + [0.5] * 31}))
        capsys.readouterr()
        rc = run(*command.split(), "--model", ws["model"], "--latents", bad,
                 "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "JSON numbers" in err

    @pytest.mark.parametrize("command", ["correct", "experiment pc-profile"])
    def test_latents_of_the_wrong_width_are_input_error(self, ws, tmp_path, capsys,
                                                        command):
        bad = tmp_path / "narrow.lat"
        write_latents(bad, np.ones((4, 31)))
        capsys.readouterr()
        rc = run(*command.split(), "--model", ws["model"], "--latents", bad,
                 "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "width 31" in err

    @pytest.mark.parametrize("command, labels", [
        ("interpolation", ["--spaces", "w", "--lambdas", "1e-5,1.000001e-5"]),
        ("lambda-sweep", ["--spaces", "w", "--grid", "1e-5,1.000001e-5"]),
        ("interpolation", ["--spaces", "w", "--lambdas", "0,0"]),
        ("lambda-sweep", ["--spaces", "w", "--grid", "0,0"]),
        ("interpolation", ["--spaces", "w,w"]),
    ], ids=["interpolation", "lambda-sweep", "repeated-lambda", "repeated-grid",
            "repeated-space"])
    def test_weights_sharing_a_condition_label_are_usage(self, ws, tmp_path, capsys,
                                                         command, labels):
        capsys.readouterr()
        rc = run("experiment", command, "--bundle", ws["bundle"],
                 "--model", ws["model"], *labels, "--images", 2, "--pairs", 1,
                 "--iters", 2, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "condition labels" in err

    @pytest.mark.parametrize("argv", [
        ["invert", "--target", "target"],
        ["experiment", "interpolation", "--images", "2", "--pairs", "1"],
        ["experiment", "lambda-sweep", "--images", "2", "--pairs", "1"],
    ], ids=["invert", "interpolation", "lambda-sweep"])
    def test_negative_learning_rate_is_usage(self, ws, tmp_path, capsys, argv):
        capsys.readouterr()
        rc = run(*[ws.get(a, a) for a in argv], "--learning-rate=-0.1",
                 "--bundle", ws["bundle"], "--model", ws["model"],
                 "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "learning_rate must be nonnegative" in err

    def test_out_of_memory_is_usage(self, tmp_path, capsys, monkeypatch):
        def runner(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array with "
                              "shape (100000000000,) and data type float64")
        monkeypatch.setitem(_COMMANDS, "init-gan",
                            replace(_COMMANDS["init-gan"], runner=runner))
        capsys.readouterr()
        rc = run("init-gan", "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [float("nan"), np.float64(-np.inf),
                                       np.array([0.5, np.nan])])
    def test_non_finite_derived_value_is_numeric_error(self, tmp_path, capsys,
                                                       monkeypatch, value):
        def runner(*args):
            return [], {"fine": 1.0, "bad": value}
        monkeypatch.setitem(_COMMANDS, "init-gan",
                            replace(_COMMANDS["init-gan"], runner=runner))
        capsys.readouterr()
        rc = run("init-gan", "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "non-finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_zero_iterations_are_refused_before_any_work(self, ws, tmp_path, capsys,
                                                         monkeypatch):
        def no_targets(*args):
            raise AssertionError("targets synthesized")
        monkeypatch.setattr(evaluation, "_ground_truth", no_targets)
        capsys.readouterr()
        rc = run("experiment", "interpolation", "--bundle", ws["bundle"],
                 "--model", ws["model"], "--iters", 0, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "iterations must be >= 1" in err

    def test_thread_count_must_be_positive(self, ws, tmp_path):
        rc = run("fit-prior", "--bundle", ws["bundle"], "--threads", 0,
                 "--out", tmp_path / "o")
        assert rc == 2

    def test_too_few_samples_is_usage(self, ws, tmp_path):
        rc = run("fit-prior", "--bundle", ws["bundle"], "--samples", 1,
                 "--out", tmp_path / "o")
        assert rc == 2

    def test_unreachable_image_size_is_usage(self, tmp_path):
        assert run("init-gan", "--image-size", 10, "--out", tmp_path / "o") == 2

    def test_dims_above_their_limit_are_usage(self, tmp_path, capsys):
        capsys.readouterr()
        rc = run("init-gan", "--hidden-dim", 4096, "--out", tmp_path / "o")
        assert rc == 2
        assert capsys.readouterr().err == "error: hidden_dim must be in [1, 2048]\n"

    @pytest.mark.parametrize("command", [
        ["invert", "--target", "TARGET"],
        ["experiment", "interpolation"],
        ["experiment", "lambda-sweep"],
        ["experiment", "fid-tradeoff"],
    ], ids=["invert", "interpolation", "lambda-sweep", "fid-tradeoff"])
    def test_model_of_another_dim_is_input_error(self, ws, tmp_path, capsys, command):
        # the model is fitted on a 32-dim generator, the bundle has 16 dims
        argv = [ws["target"] if a == "TARGET" else a for a in command]
        capsys.readouterr()
        rc = run(*argv, "--bundle", ws["bundle16"], "--model", ws["model"],
                 "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "dim 32" in err and "latent dim 16" in err

    def test_target_bundle_of_other_dims_is_input_error(self, ws, tmp_path, capsys):
        capsys.readouterr()
        rc = run("experiment", "interpolation", "--bundle", ws["bundle"],
                 "--model", ws["model"], "--target-bundle", ws["bundle16"],
                 "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_non_finite_target_is_input_error(self, ws, tmp_path, capsys):
        bad = tmp_path / "nan.f64"
        bad.write_bytes(np.full(16 * 16 * 3, np.nan).astype("<f8").tobytes())
        capsys.readouterr()
        rc = run("invert", "--bundle", ws["bundle"], "--model", ws["model"],
                 "--target", bad, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--bundle", "--model", "--config"])
    def test_binary_file_where_json_is_expected_is_input_error(self, ws, tmp_path,
                                                               capsys, flag):
        paths = {"--bundle": ws["bundle"], "--model": ws["model"]}
        paths[flag] = ws["target"]  # raw float64 bytes
        capsys.readouterr()
        rc = run("experiment", "fid-tradeoff", *(x for item in paths.items() for x in item),
                 "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_abbreviated_flag_is_rejected(self, ws, tmp_path, capsys):
        # --target is an invert flag; it must not run as --target-bundle
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("experiment", "interpolation", "--bundle", ws["bundle"],
                "--model", ws["model"], "--target", ws["bundle"],
                "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_flag_value_prints_one_line(self, tmp_path):
        rc, err = run_process("init-gan", "--latent-dim", "many",
                              "--out", tmp_path / "o")
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--latent-dim" in err

    @pytest.mark.parametrize("argv", [
        ["invert", "--target", "target", "--lambda", "nan"],
        ["experiment", "lambda-sweep", "--grid", "0,inf"],
    ])
    def test_non_finite_flag_value_is_usage(self, ws, tmp_path, argv):
        rc, err = run_process(*[ws.get(a, a) for a in argv], "--bundle", ws["bundle"],
                              "--model", ws["model"], "--out", tmp_path / "o")
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert argv[-2] in err
        assert not (tmp_path / "o").exists()

    def test_argparse_failures_exit_with_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("init-gan", "--latent-dim", "many", "--out", tmp_path / "o")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0

    FAILING_RUNS = {  # name: (exit code, message prefix, argv)
        "tau-lo-above-tau-hi": (2, "error: ", ["fid-tradeoff", "--bundle", "bundle",
                                               "--tau-lo", "9"]),
        "missing-bundle": (3, "i/o error: ", ["fid-tradeoff",
                                              "--bundle", "missing.json"]),
        "repeated-lambda": (2, "error: ", ["interpolation", "--bundle", "bundle",
                                           "--spaces", "w", "--lambdas", "0,0"]),
    }

    def failing_run(self, ws, tmp_path, capsys, name, out):
        code, prefix, argv = self.FAILING_RUNS[name]
        paths = {**ws, "missing.json": tmp_path / "missing.json"}
        capsys.readouterr()
        rc = run("experiment", *[paths.get(a, a) for a in argv],
                 "--model", ws["model"], "--out", out)
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith(prefix) and err.count("\n") == 1

    @pytest.mark.parametrize("name", list(FAILING_RUNS))
    def test_failed_run_leaves_no_new_directory(self, ws, tmp_path, capsys, name):
        self.failing_run(ws, tmp_path, capsys, name, tmp_path / "new" / "o")
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_an_existing_out_directory(self, ws, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("kept\n")
        self.failing_run(ws, tmp_path, capsys, "tau-lo-above-tau-hi", out)
        assert list(out.iterdir()) == [out / "keep.txt"]
        assert (out / "keep.txt").read_text() == "kept\n"


class TestConfigFile:
    def test_flags_beat_config_beat_defaults(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"psi": 0.25, "method": "truncation"}))
        out = tmp_path / "o"
        rc = run("correct", "--model", ws["model"], "--latents", ws["latents"],
                 "--config", cfg, "--psi", 0.5, "--out", out)
        assert rc == 0
        doc = manifest_of(out)
        assert doc["config"]["psi"] == 0.5        # flag wins
        assert doc["config"]["method"] == "truncation"  # config file
        assert doc["config"]["tau"] == 0.5        # untouched default

    def test_config_may_supply_input_paths(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bundle": str(ws["bundle"]), "samples": 500}))
        out = tmp_path / "o"
        assert run("fit-prior", "--config", cfg, "--out", out) == 0
        doc = manifest_of(out)
        assert doc["inputs"]["bundle"] == str(ws["bundle"])
        assert doc["config"]["samples"] == 500

    def test_unknown_config_key_is_usage(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampels": 10}))
        rc = run("fit-prior", "--bundle", ws["bundle"], "--config", cfg,
                 "--out", tmp_path / "o")
        assert rc == 2

    def test_corrupt_config_is_input_error(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2")
        rc = run("fit-prior", "--bundle", ws["bundle"], "--config", cfg,
                 "--out", tmp_path / "o")
        assert rc == 3

    def test_non_object_config_is_input_error(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc = run("fit-prior", "--bundle", ws["bundle"], "--config", cfg,
                 "--out", tmp_path / "o")
        assert rc == 3

    def test_wrongly_typed_config_value_is_usage(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        for doc in ({"samples": "many"}, {"samples": None},
                    {"samples": float("inf")}, {"samples": 2.7},
                    {"samples": 500, "seed": True}):
            cfg.write_text(json.dumps(doc))
            rc = run("fit-prior", "--bundle", ws["bundle"], "--config", cfg,
                     "--out", tmp_path / "o")
            assert rc == 2
            assert not (tmp_path / "o").exists()

    def test_integral_config_values_are_ints(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 500.0, "seed": "7"}))
        out = tmp_path / "o"
        assert run("fit-prior", "--bundle", ws["bundle"], "--config", cfg,
                   "--out", out) == 0
        config = manifest_of(out)["config"]
        assert config == {"samples": 500, "seed": 7}

    @pytest.mark.parametrize("command, text", [
        (["invert", "--bundle", "bundle", "--target", "target"], '{"lambda": NaN}'),
        (["experiment", "lambda-sweep", "--bundle", "bundle"],
         '{"grid": [0, Infinity]}'),
        (["correct", "--latents", "latents"], '{"psi": -Infinity}'),
        (["correct", "--latents", "latents"], '{"psi": true}'),
    ])
    def test_bad_config_number_is_usage(self, ws, tmp_path, capsys,
                                        command, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        capsys.readouterr()
        rc = run(*[ws.get(a, a) for a in command], "--model", ws["model"],
                 "--config", cfg, "--out", tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "expected a" in err
        assert not (tmp_path / "o").exists()

    def test_bool_config_value_must_be_boolean(self, ws, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle-init": "yes"}))
        rc = run("experiment", "interpolation", "--bundle", ws["bundle"],
                 "--model", ws["model"], "--config", cfg,
                 "--out", tmp_path / "o")
        assert rc == 2


class TestExperimentCommands:
    def test_interpolation_with_every_target_failed(self, ws, tmp_path):
        out = tmp_path / "interp"
        rc, err = run_process("experiment", "interpolation", "--bundle", ws["bundle"],
                              "--model", ws["model"], "--spaces", "w", "--lambdas", 0,
                              "--images", 3, "--pairs", 2, "--iters", 20,
                              "--learning-rate", 1e308, "--out", out)
        assert (rc, err) == (0, "")

        def no_constant(name):
            raise ValueError(f"report.json holds {name}")

        report = json.loads((out / "report.json").read_text(),
                            parse_constant=no_constant)
        summary = report["summary"]["w:lambda=0"]
        assert summary["median_latent_error"] is None
        assert summary["mean_image_error"] is None
        # no pair was kept: no curve, no errors, and no zeros that read as perfect
        assert report["curves"]["w:lambda=0"] is None
        assert summary["endpoint_error"] is None
        assert summary["midpoint_error"] is None
        assert (out / "curve_w_lambda-0.csv").read_text() == \
            "t,mean_error,std_error,condition\n"

        sweep_out = tmp_path / "sweep"
        assert run("experiment", "lambda-sweep", "--bundle", ws["bundle"],
                   "--model", ws["model"], "--spaces", "w", "--grid", 0,
                   "--images", 3, "--pairs", 2, "--iters", 20,
                   "--learning-rate", 1e308, "--out", sweep_out) == 0
        sweep = json.loads((sweep_out / "sweep.json").read_text(),
                           parse_constant=no_constant)
        assert sweep["summary"]["w"] == {"endpoint": [None], "midpoint": [None]}

    def test_interpolation_outputs(self, ws, tmp_path):
        out = tmp_path / "interp"
        rc = run("experiment", "interpolation", "--bundle", ws["bundle"],
                 "--model", ws["model"], "--spaces", "w", "--lambdas", 0,
                 "--images", 2, "--pairs", 1, "--iters", 2,
                 "--learning-rate", 0.0, "--oracle-init", "--out", out)
        assert rc == 0
        doc = manifest_of(out)
        assert doc["config"]["oracle-init"] is True
        assert doc["config"]["lambdas"] == [0.0]
        assert "curve_w_lambda-0.csv" in doc["outputs"]
        curve = (out / "curve_w_lambda-0.csv").read_text().strip().split("\n")
        assert len(curve) == 12
        # a record serializes from its own fields
        record = json.loads((out / "report.json").read_text())["records"]["w:lambda=0"]
        assert sorted(record) == sorted(f.name for f in fields(evaluation.ConditionRecord))

    def test_lambda_sweep_outputs(self, ws, tmp_path):
        grid = [0.1, 0.0, 0.001]  # unsorted, so grid order is not sorted order
        out = tmp_path / "sweep"
        rc = run("experiment", "lambda-sweep", "--bundle", ws["bundle"],
                 "--model", ws["model"], "--spaces", "w,wplus",
                 "--grid", ",".join(map(str, grid)), "--images", 2, "--pairs", 1,
                 "--iters", 5, "--out", out)
        assert rc == 0
        reports = [f"report_lambda-{lam:g}.json" for lam in grid]
        assert manifest_of(out)["outputs"] == [
            name for lam, report in zip(grid, reports)
            for name in (report, f"curve_w_lambda-{lam:g}.csv",
                         f"curve_wplus_lambda-{lam:g}.csv")] + ["sweep.json"]
        # sweep.json restates each per-weight report's summary, in grid order
        sweep = json.loads((out / "sweep.json").read_text())
        assert (sweep["grid"], sweep["spaces"]) == (grid, ["w", "wplus"])
        summaries = [json.loads((out / name).read_text())["summary"]
                     for name in reports]
        for space in ("w", "wplus"):
            for kind in ("endpoint", "midpoint"):
                assert sweep["summary"][space][kind] == [
                    summary[f"{space}:lambda={lam:g}"][f"{kind}_error"]
                    for lam, summary in zip(grid, summaries)]
            # the weights' errors differ, so a list out of grid order would show
            assert len(set(sweep["summary"][space]["endpoint"])) == len(grid)

    def test_the_interpolation_commands_differ_in_weights_and_spaces_default(self):
        interp = {f.name: f for f in _COMMANDS["experiment interpolation"].flags}
        sweep = {f.name: f for f in _COMMANDS["experiment lambda-sweep"].flags}
        del interp["lambdas"], sweep["grid"]
        assert _FIELDS["lambdas"] == _FIELDS["grid"] == "prior_weights"
        assert sweep.pop("spaces") == replace(interp.pop("spaces"),
                                              default=["wplus"])
        assert sweep == interp

    def test_fid_tradeoff_parses_comma_lists(self, ws, tmp_path):
        out = tmp_path / "tradeoff"
        rc = run("experiment", "fid-tradeoff", "--bundle", ws["bundle"],
                 "--model", ws["model"], "--psis", "0.9,0.7123456789", "--samples", 48,
                 "--identity-samples", 16, "--tau-lo", 0.02,
                 "--max-bisect", 4, "--out", out)
        assert rc == 0
        doc = manifest_of(out)
        assert doc["config"]["psis"] == [0.9, 0.7123456789]
        assert isinstance(doc["derived"]["all_matched"], bool)
        assert "fid_uncorrected" in doc["derived"]
        points = (out / "points.csv").read_text().strip().split("\n")
        assert points[0].split(",") == [f.name for f in fields(evaluation.OperatingPoint)
                                        if f.name != "bisect_trace"]
        # psi parses back exactly, like every other CSV float
        assert [float(row.split(",")[0]) for row in points[1:]] == [0.9, 0.7123456789]

    @pytest.mark.parametrize("command", [
        ["correct", "--model", "model", "--latents", "latents", "--tau", 1e-310],
        ["experiment", "fid-tradeoff", "--bundle", "bundle", "--model", "model",
         "--tau-lo", 1e-320, "--tau-hi", 1e-310, "--samples", 48,
         "--identity-samples", 16, "--max-bisect", 4]])
    def test_tiny_compression_threshold_stays_finite(self, ws, tmp_path, command):
        # m / threshold overflows at such a tau; no warning may reach stderr
        out = tmp_path / "o"
        argv = [ws.get(a, a) if isinstance(a, str) else a for a in command]
        assert run_process(*argv, "--out", out) == (0, "")
        for name in manifest_of(out)["outputs"]:
            assert np.all(np.isfinite(_numbers_in(out / name))), name
        if command[0] == "correct":
            assert np.all(np.isfinite(read_latents(out / "latents.lat")))

    def test_pc_profile_defaults_k_into_the_manifest(self, ws, tmp_path):
        out = tmp_path / "profile"
        rc = run("experiment", "pc-profile", "--model", ws["model"],
                 "--samples", 400, "--out", out)
        assert rc == 0
        doc = manifest_of(out)
        assert doc["config"]["k"] == 30
        profile = (out / "profile.csv").read_text().strip().split("\n")
        assert len(profile) == 31
        assert 0.0 <= doc["derived"]["flagged_fraction"] <= 1.0
        assert 0.0 <= doc["derived"]["tail_probability_analytic"] <= 1.0

    def test_pc_profile_accepts_a_latents_file(self, ws, tmp_path):
        out = tmp_path / "profile_lat"
        rc = run("experiment", "pc-profile", "--model", ws["model"],
                 "--latents", ws["latents"], "--k", 4, "--out", out)
        assert rc == 0
        doc = manifest_of(out)
        assert doc["inputs"]["latents"] == str(ws["latents"])
        assert json.loads((out / "profile.json").read_text())["n_samples"] == 6


class PoolStarted(Exception):
    pass


class TestThreads:
    @staticmethod
    def outputs_at(ws, tmp_path, threads, *argv) -> dict:
        """Every output of one experiment run, manifest included, as bytes."""
        out = tmp_path / f"threads-{threads}"
        assert run("experiment", *argv, "--bundle", ws["bundle"],
                   "--model", ws["model"], "--threads", threads, "--out", out) == 0
        names = [MANIFEST_NAME] + manifest_of(out)["outputs"]
        return {name: (out / name).read_bytes() for name in names}

    def test_thread_count_does_not_change_results(self, ws, tmp_path):
        argv = ["interpolation", "--spaces", "w", "--lambdas", "0,1e-4",
                "--images", 3, "--pairs", 2, "--iters", 60,
                "--learning-rate", 0.05, "--seed", 0]
        assert self.outputs_at(ws, tmp_path, 4, *argv) == \
            self.outputs_at(ws, tmp_path, 1, *argv)

    def test_tradeoff_pool_does_not_change_results(self, ws, tmp_path):
        argv = ["fid-tradeoff", "--psis", "0.9,0.7,0.5", "--samples", 48,
                "--identity-samples", 16, "--tau-lo", 0.02, "--max-bisect", 4]
        assert self.outputs_at(ws, tmp_path, 2, *argv) == \
            self.outputs_at(ws, tmp_path, 1, *argv)

    def test_only_fid_tradeoff_starts_a_pool(self, ws, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise PoolStarted

        monkeypatch.setattr(evaluation, "ThreadPoolExecutor", no_pool)
        bundle, model = bundle_from_json(read(ws["bundle"])), load_model(ws["model"])
        config = evaluation.InterpolationConfig(
            spaces=("w", "wplus"), prior_weights=(0.0, 1e-4), n_images=3,
            n_pairs=2, iterations=2)
        evaluation.interpolation_experiment(bundle, model, config)
        assert run("experiment", "lambda-sweep", "--bundle", ws["bundle"],
                   "--model", ws["model"], "--grid", "0,1e-4", "--images", 3,
                   "--pairs", 2, "--iters", 2, "--threads", 8,
                   "--out", tmp_path / "sweep") == 0
        tradeoff = evaluation.TradeoffConfig(psis=(0.9, 0.7), n_samples=32,
                                             n_identity=8, max_bisect=2)
        with pytest.raises(PoolStarted):
            evaluation.fid_tradeoff(bundle, model, tradeoff, threads=2)

    def test_importing_the_cli_loads_no_scipy(self):
        src = str(Path(latentprior.__file__).resolve().parents[1])
        code = ("import sys, latentprior.cli; "
                "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src},
                              timeout=300)
        assert (proc.returncode, proc.stdout) == (0, "False\n")


class TestReplay:
    def test_replay_reproduces_bytes(self, ws, tmp_path):
        src = ws["root"] / "corr_comp"
        replay = tmp_path / "replay"
        replay_manifest(src / MANIFEST_NAME, replay)
        doc = manifest_of(src)
        assert manifest_of(replay) == doc
        for name in doc["outputs"]:
            assert (replay / name).read_bytes() == (src / name).read_bytes()

    def test_replay_validates_the_manifest(self, ws, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{nope")
        with pytest.raises(InputFormatError, match="JSON"):
            replay_manifest(bad, tmp_path / "o")
        bad.write_text(json.dumps({"config": {}, "inputs": {}}))
        with pytest.raises(InputFormatError, match="command"):
            replay_manifest(bad, tmp_path / "o")
        bad.write_text(json.dumps(
            {"command": "frobnicate", "config": {}, "inputs": {}}))
        with pytest.raises(InputFormatError, match="unknown command"):
            replay_manifest(bad, tmp_path / "o")

        assert run("correct", "--model", ws["model"], "--latents", ws["latents"],
                   "--out", tmp_path / "good") == 0
        good = manifest_of(tmp_path / "good")
        config = good["config"]
        faults = {
            "JSON": b"\xff\xfe\x00\x01" * 8,
            "lacks": {**good, "config": {"psi": 0.5, "tau": 0.5}},
            "version": {**good, "version": "99.0"},
            "unknown config keys": {**good, "config": {**config, "sampels": 1}},
            "tau": {**good, "config": {**config, "tau": "abc"}},
            "finite": {**good, "config": {**config, "psi": float("nan")}},
            "choices": {**good, "config": {**config, "method": "nope"}},
            "object": 5,
            "config and inputs": {**good, "config": [1, 2]},
            "requires --latents": {**good, "inputs": {"model": str(ws["model"])}},
        }
        for match, doc in faults.items():
            if isinstance(doc, bytes):
                bad.write_bytes(doc)
            else:
                bad.write_text(json.dumps(doc))
            with pytest.raises(InputFormatError, match=match):
                replay_manifest(bad, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [2.7, True])
    def test_replay_rejects_a_non_integer_count(self, ws, tmp_path, value):
        doc = manifest_of(ws["root"] / "prior")
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({**doc, "config": {**doc["config"],
                                                     "samples": value}}))
        with pytest.raises(InputFormatError, match="expected an integer"):
            replay_manifest(bad, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    RUNS = {
        "init-gan": ["--seed", 4, "--channels", 4],
        "fit-prior": ["--bundle", "bundle", "--samples", 200],
        "invert": ["--bundle", "bundle", "--model", "model", "--target", "target",
                   "--iterations", 2],
        "correct": ["--model", "model", "--latents", "latents", "--psi", 0.5],
        "experiment interpolation": [
            "--bundle", "bundle", "--model", "model", "--spaces", "w,wplus",
            "--lambdas", "0,1e-4", "--images", 2, "--pairs", 1, "--iters", 2,
            "--oracle-init"],
        "experiment lambda-sweep": [
            "--bundle", "bundle", "--model", "model", "--grid", "0,1e-3",
            "--images", 2, "--pairs", 1, "--iters", 2],
        "experiment fid-tradeoff": [
            "--bundle", "bundle", "--model", "model", "--psis", 0.8,
            "--samples", 32, "--identity-samples", 8, "--max-bisect", 2],
        "experiment pc-profile": ["--model", "model", "--latents", "latents"],
    }

    def test_every_command_is_run_below(self):
        assert set(self.RUNS) == set(_COMMANDS)

    @pytest.mark.parametrize("command", list(RUNS))
    def test_manifest_config_resolves_to_itself(self, ws, tmp_path, command):
        argv = [ws.get(a, a) if isinstance(a, str) else a for a in self.RUNS[command]]
        assert run(*command.split(), *argv, "--out", tmp_path / "o") == 0
        doc = manifest_of(tmp_path / "o")
        resolved = _resolve(_COMMANDS[command], {}, {**doc["config"], **doc["inputs"]})
        assert resolved == (doc["config"], doc["inputs"])


class TestSettingsMap:
    # the settings a runner reads itself instead of building a config from them
    READ_BY_RUNNER = {"init-gan": {"seed"}, "fit-prior": {"seed", "samples"},
                      "experiment pc-profile": {"seed", "samples", "k", "tau"}}

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_every_flag_sets_a_field_of_a_config_its_runner_builds(
            self, monkeypatch, command):
        built, settings = [], cli._settings

        def spy(cls, config, **given):
            built.append(cls)
            return settings(cls, config, **given)

        monkeypatch.setattr(cli, "_settings", spy)
        cmd = _COMMANDS[command]
        config, _ = _resolve(cmd, {}, dict.fromkeys(cmd.required_inputs, "path"))
        try:  # with no inputs loaded, a runner fails after building its configs
            cmd.runner(config, defaultdict(lambda: None), 1)
        except AttributeError:
            pass
        names = {f.name for cls in built for f in fields(cls)}
        unset = [f.name for f in cmd.flags
                 if f.name not in self.READ_BY_RUNNER.get(command, ())
                 and _FIELDS.get(f.name, f.name.replace("-", "_")) not in names]
        assert not unset, f"{command} builds {built}; nothing takes {unset}"

    def test_every_table_entry_is_a_flag(self):
        flags = {f.name for cmd in _COMMANDS.values() for f in cmd.flags}
        assert set(_FIELDS) <= flags


def _numbers_in(path: Path) -> np.ndarray:
    """Every number one output file holds, read by the file's format."""
    if path.suffix == ".json":
        numbers = []

        def constant(name):
            raise AssertionError(f"{path.name} holds {name}")

        def number(text):
            numbers.append(float(text))  # 1e400 reads as inf
            return numbers[-1]

        json.loads(path.read_text(), parse_constant=constant, parse_float=number)
        return np.array(numbers)
    if path.suffix == ".csv":
        numbers = []
        for field in path.read_text().replace("\n", ",").split(","):
            try:
                numbers.append(float(field))  # takes nan, inf, NaN, Infinity
            except ValueError:
                pass  # a header or a condition label
        return np.array(numbers)
    if path.suffix == ".f64":
        return np.frombuffer(path.read_bytes(), dtype="<f8")
    if path.suffix == ".lat":
        return np.frombuffer(path.read_bytes(), dtype="<f8", offset=16)
    assert path.suffix == ".ppm", f"unexpected output file {path.name}"
    return np.array([])  # 8-bit pixels


# every command, and the two experiments again with every inversion diverging
FINITE_RUNS = {**TestReplay.RUNS, **{
    f"{command} diverging": [*TestReplay.RUNS[command][:4], "--spaces", "w",
                             "--images", 3, "--pairs", 2, "--iters", 20,
                             "--learning-rate", 1e308, *weights]
    for command, weights in [("experiment interpolation", ["--lambdas", "0,1e-4"]),
                             ("experiment lambda-sweep", ["--grid", "0,1e-4"])]}}


@pytest.mark.parametrize("run_name", list(FINITE_RUNS))
def test_no_output_file_holds_a_non_finite_number(ws, tmp_path, run_name):
    argv = [ws.get(a, a) if isinstance(a, str) else a for a in FINITE_RUNS[run_name]]
    command = run_name.removesuffix(" diverging").split()
    out = tmp_path / "o"
    assert run(*command, *argv, "--out", out) == 0
    paths = sorted(p for p in out.rglob("*") if p.is_file())
    assert len(paths) >= 3  # the manifest, timing.json and an output
    # the manifest lists every file written, each once
    assert sorted(str(p.relative_to(out)) for p in paths) == \
        sorted([*manifest_of(out)["outputs"], MANIFEST_NAME, "timing.json"])
    for path in paths:
        assert np.all(np.isfinite(_numbers_in(path))), path.relative_to(out)
