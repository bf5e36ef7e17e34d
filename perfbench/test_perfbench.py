"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

The last three tests start the benchmark itself (about half a minute).
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(sid, start, end, parent=None, name="x", thread=1, work=0):
    return [sid, name, start, end, parent, thread, work, False]


def test_self_times_subtract_the_union_of_children():
    tree = [
        _span(1, 0.0, 10.0),                    # root
        _span(2, 1.0, 4.0, parent=1),           # child
        _span(3, 3.0, 6.0, parent=1, thread=2),  # overlaps child 2 (another thread)
        _span(4, 2.0, 3.0, parent=2),           # grandchild
        _span(5, 8.0, 12.0, parent=1),          # runs past the root's end
        _span(6, 20.0, 21.0),                   # second root
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))  # [1,6] and [8,10]
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(4.0)
    assert selfs[6] == pytest.approx(1.0)
    totals = spans.layer_totals(tree)
    assert totals["x"]["calls"] == 6
    assert totals["x"]["self_s"] == pytest.approx(sum(selfs.values()))
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_adopted_spans_hang_under_the_given_parent():
    tracer = spans.Tracer()
    with tracer.span("cli.command") as outer:
        pass
    tracer.adopt([_span(1, 0.0, 1.0), _span(2, 0.2, 0.5, parent=1)], outer[0])
    by_name_start = {(s[1], s[2]): s for s in tracer.spans}
    child_top = by_name_start[("x", 0.0)]
    grandchild = by_name_start[("x", 0.2)]
    assert child_top[4] == outer[0]
    assert grandchild[4] == child_top[0]
    assert len({s[0] for s in tracer.spans}) == 3


def _patched_attributes(skip=()):
    names = [t for targets, _ in spans.WRAPS.values() for t in targets]
    found = {}
    for target in names + ["evaluation._pmap"]:
        if target not in skip:
            mod_name, attr = target.rsplit(".", 1)
            mod = importlib.import_module(f"latentprior.{mod_name}")
            found[target] = getattr(mod, attr)
    return found


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from latentprior import cli

    before = _patched_attributes()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert _patched_attributes()["inversion.synthesize_batch"] \
            is not before["inversion.synthesize_batch"]
        assert cli.main(["init-gan", "--seed", "3", "--out", str(tmp_path / "gan")]) == 0
        assert cli.main(["fit-prior", "--bundle", str(tmp_path / "gan/bundle.json"),
                         "--samples", "200", "--out", str(tmp_path / "prior")]) == 0
        assert cli.main(["experiment", "lambda-sweep",
                         "--bundle", str(tmp_path / "gan/bundle.json"),
                         "--model", str(tmp_path / "prior/model.json"),
                         "--images", "2", "--pairs", "1", "--iters", "5",
                         "--grid", "0,1e-4", "--threads", "2",
                         "--out", str(tmp_path / "sweep")]) == 0
    after = _patched_attributes()
    assert all(after[k] is before[k] for k in before)
    totals = spans.layer_totals(tracer.spans)
    assert totals["inversion"]["calls"] == 4
    assert totals["inversion"]["work"] == 4 * 5
    assert totals["generator.vjp"]["calls"] == 4 * 5
    assert totals[spans.POOL_TASK]["calls"] == 4
    tasks = [s for s in tracer.spans if s[1] == spans.POOL_TASK]
    pools = {s[0] for s in tracer.spans if s[1] == spans.POOL}
    assert all(t[4] in pools for t in tasks)


def test_names_missing_from_the_package_are_skipped(monkeypatch):
    from latentprior import evaluation

    monkeypatch.delattr(evaluation, "sample_z")
    before = _patched_attributes(skip={"evaluation.sample_z"})
    tracer = spans.Tracer()
    with spans.installed(tracer):
        pass
    assert tracer.missing == {"evaluation.sample_z"}
    assert not hasattr(evaluation, "sample_z")
    assert _patched_attributes(skip={"evaluation.sample_z"}) == before


def test_bisection_replay_counts_the_steps():
    lo, hi, target = 0.05, 8.0, 1.234
    taus = []
    for _ in range(40):
        tau = 0.5 * (lo + hi)
        taus.append(tau)
        if abs(tau - target) < 0.01:
            break
        if tau < target:
            lo = tau
        else:
            hi = tau
    assert workloads.bisect_steps(taus[-1], 0.05, 8.0, 40) == len(taus)
    assert workloads.bisect_steps(1.0, 0.05, 8.0, 40) is None


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _run_benchmark(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload,trace", [("sweep", "0"), ("cli", "1")])
def test_printed_metrics_match_benchmark_json(workload, trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = doc["per_layer"] if trace == "1" else doc["end_to_end"]
    code, lines = _run_benchmark(ROOT, "--workload", workload, "--seed", "0",
                                 "--seconds", "1", "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    assert "machine" in json.loads(lines[-2])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = _run_benchmark(tmp_path, "--workload", "sweep", "--seed", "0",
                                 "--seconds", "1", "--trace", "0")
    assert code != 0
    assert not lines
