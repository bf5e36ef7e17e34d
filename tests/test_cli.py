"""Command-line interface: exit codes, config merging, and manifests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentprior
from latentprior import evaluation
from latentprior.cli import (
    _COMMANDS,
    MANIFEST_NAME,
    TIMING_NAME,
    _resolve,
    main,
    replay_manifest,
)
from latentprior.errors import InputFormatError
from latentprior.gaussian import load_model
from latentprior.generator import (
    load_bundle,
    sample_styles,
    synthesize,
    write_image_f64,
)
from latentprior.spaces import broadcast_style, read_latents, write_latents


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


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A workspace with a generator, a fitted model, a target, and latents."""
    root = tmp_path_factory.mktemp("cli")
    assert run("init-gan", "--seed", 3, "--out", root / "gan") == 0
    bundle_path = root / "gan" / "bundle.json"
    assert run("fit-prior", "--bundle", bundle_path, "--samples", 3000,
               "--out", root / "prior") == 0
    model_path = root / "prior" / "model.json"

    bundle = load_bundle(bundle_path)
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
        lambda doc: {**doc, "epsilon": "abc"},
        lambda doc: {**doc, "sample_count": "abc"},
        lambda doc: 5,
        lambda doc: {**doc, "mean_v": [float("nan")] + doc["mean_v"][1:]},
        lambda doc: {**doc, "eigvals": [float("inf")] + doc["eigvals"][1:]},
    ], ids=["cov-not-positive-definite", "dim", "epsilon", "sample-count",
            "not-an-object", "nan-mean", "infinite-eigval"])
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
        else:
            write_latents(bad, rows)
        capsys.readouterr()
        rc = run(*command.split(), "--model", ws["model"], "--latents", bad,
                 "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("input error: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("command, weights", [
        (["experiment", "interpolation", "--spaces", "w"], "--lambdas"),
        (["experiment", "lambda-sweep", "--spaces", "w"], "--grid"),
    ], ids=["interpolation", "lambda-sweep"])
    def test_weights_sharing_a_condition_label_are_usage(self, ws, tmp_path, capsys,
                                                         command, weights):
        capsys.readouterr()
        rc = run(*command, "--bundle", ws["bundle"], "--model", ws["model"],
                 weights, "1e-5,1.000001e-5", "--images", 2, "--pairs", 1,
                 "--iters", 2, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "condition labels" in err

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
        write_image_f64(bad, np.full(16 * 16 * 3, np.nan))
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

    def test_lambda_sweep_outputs(self, ws, tmp_path):
        out = tmp_path / "sweep"
        rc = run("experiment", "lambda-sweep", "--bundle", ws["bundle"],
                 "--model", ws["model"], "--spaces", "w", "--grid", "0,0.0001",
                 "--images", 2, "--pairs", 1, "--iters", 2,
                 "--learning-rate", 0.0, "--out", out)
        assert rc == 0
        doc = manifest_of(out)
        for name in doc["outputs"]:
            assert (out / name).is_file()
        sweep = json.loads((out / "sweep.json").read_text())
        assert sweep["grid"] == [0.0, 0.0001]
        assert len(sweep["summary"]["w"]["endpoint"]) == 2

    def test_fid_tradeoff_parses_comma_lists(self, ws, tmp_path):
        out = tmp_path / "tradeoff"
        rc = run("experiment", "fid-tradeoff", "--bundle", ws["bundle"],
                 "--model", ws["model"], "--psis", "0.9,0.7", "--samples", 48,
                 "--identity-samples", 16, "--tau-lo", 0.02,
                 "--max-bisect", 4, "--out", out)
        assert rc == 0
        doc = manifest_of(out)
        assert doc["config"]["psis"] == [0.9, 0.7]
        assert isinstance(doc["derived"]["all_matched"], bool)
        assert "fid_uncorrected" in doc["derived"]
        points = (out / "points.csv").read_text().strip().split("\n")
        assert len(points) == 3

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
        bundle, model = load_bundle(ws["bundle"]), load_model(ws["model"])
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

    def test_importing_the_cli_leaves_scipy_stats_out(self):
        src = str(Path(latentprior.__file__).resolve().parents[1])
        code = "import sys, latentprior.cli; print('scipy.stats' in sys.modules)"
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
