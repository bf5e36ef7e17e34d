"""Benchmark of latentprior: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload {sweep,tradeoff,cli} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` beside this
directory, and all outputs go to ``.perfbench_work/`` at the repository
root. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``. The
line before it records the machine. A full record of the run, with every
repetition's wall time and the output digests, is written to
``.perfbench_work/results/``. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "recon_err": "err",
    "cmd_fit_prior_s": "s",
    "cmd_light_s": "s",
}

# Per-layer metric -> (span name, field of spans.layer_totals, unit).
SPAN_METRICS = {
    "generator.synthesize.calls": ("generator.synthesize", "calls", "count"),
    "generator.synthesize.rows": ("generator.synthesize", "work", "count"),
    "generator.synthesize.self_s": ("generator.synthesize", "self_s", "s"),
    "generator.vjp.calls": ("generator.vjp", "calls", "count"),
    "generator.vjp.self_s": ("generator.vjp", "self_s", "s"),
    "generator.map.rows": ("generator.map", "work", "count"),
    "generator.map.self_s": ("generator.map", "self_s", "s"),
    "generator.sample_z.calls": ("generator.sample_z", "calls", "count"),
    "generator.sample_z.self_s": ("generator.sample_z", "self_s", "s"),
    "gaussian.energy.calls": ("gaussian.energy", "calls", "count"),
    "gaussian.energy.self_s": ("gaussian.energy", "self_s", "s"),
    "gaussian.fit.calls": ("gaussian.fit", "calls", "count"),
    "gaussian.fit.self_s": ("gaussian.fit", "self_s", "s"),
    "gaussian.frechet.calls": ("gaussian.frechet", "calls", "count"),
    "gaussian.frechet.self_s": ("gaussian.frechet", "self_s", "s"),
    "gaussian.sample.rows": ("gaussian.sample", "work", "count"),
    "gaussian.sample.self_s": ("gaussian.sample", "self_s", "s"),
    "gaussian.io.self_s": ("gaussian.io", "self_s", "s"),
    "inversion.problems": ("inversion", "calls", "count"),
    "inversion.iters": ("inversion", "work", "count"),
    "inversion.self_s": ("inversion", "self_s", "s"),
    "inversion.failed": ("inversion", "failed", "count"),
    "inversion.adam.self_s": ("inversion.adam", "self_s", "s"),
    "inversion.w_std_norm.calls": ("inversion.w_std_norm", "calls", "count"),
    "inversion.w_std_norm.self_s": ("inversion.w_std_norm", "self_s", "s"),
    "correction.compress.rows": ("correction.compress", "work", "count"),
    "correction.compress.self_s": ("correction.compress", "self_s", "s"),
    "features.embed.rows": ("features.embed", "work", "count"),
    "features.embed.self_s": ("features.embed", "self_s", "s"),
    "spaces.latents_io.bytes": ("spaces.latents_io", "work", "bytes"),
    "spaces.latents_io.self_s": ("spaces.latents_io", "self_s", "s"),
    "seeding.rng_from.calls": ("seeding.rng_from", "calls", "count"),
}

# Per-layer metrics derived from several spans or from the outputs.
DERIVED_METRICS = {
    "generator.synthesize.gflop_s": "calc_GFLOP/s",
    "inversion.us_per_iter": "us",
    "evaluation.self_s": "s",
    "evaluation.bisect_steps": "count",
    "evaluation.failed_pairs": "count",
    "evaluation.pool.busy_frac": "ratio",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_coverage": "ratio",
}

PER_LAYER = {**{k: v[2] for k, v in SPAN_METRICS.items()}, **DERIVED_METRICS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "tradeoff", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


# --- machine record ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes():
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        if size > 0:
            return size
    except (ValueError, OSError):
        pass
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        return int(text.rstrip("K")) * 1024 if text.endswith("K") else int(text)
    except (OSError, ValueError):
        return None


def _blas() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(*dirs) -> str:
    """sha256 over the Python sources under ``dirs``: a code version, git or not."""
    h = hashlib.sha256()
    for path in sorted(p for d in dirs for p in d.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(child_env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "child_thread_env": {k: child_env.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(ROOT / "src" / "latentprior"),
    }


# --- the run ---------------------------------------------------------------------


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_reps(workload, session, cases, traced, deadline):
    """One pass over the cases; returns [(case, start, end, result or None)]."""
    done = []
    for case in cases:
        if time.perf_counter() > deadline:
            break
        start = time.perf_counter()
        if traced:
            with spans.installed(session.tracer):
                result = workload.run_case(session, case, traced=True)
        else:
            result = workload.run_case(session, case, traced=False)
        done.append((case, start, time.perf_counter(), result))
    return done


def end_to_end(session, setup, import_s, reps) -> dict:
    """End-to-end metrics of the untraced repetitions.

    Cases of one workload differ in size, so times are taken per case (the
    median over its repetitions) and then combined, which keeps the result
    independent of how many repetitions of each case fitted in the run.
    """
    by_case = {}
    for case, _, _, r in reps:
        if r is not None:
            by_case.setdefault(case, []).append(r)
    walls = [statistics.median([r["wall"] for r in rs]) for rs in by_case.values()]
    work_walls = [statistics.median([r.get("work_wall", r["wall"]) for r in rs])
                  for rs in by_case.values()]
    quality = [q for rs in by_case.values() for q in rs[0]["quality"]]
    ok = [r for rs in by_case.values() for r in rs]

    def command_s(name):
        return setup[name] if name in setup else statistics.median([r[name] for r in ok])

    return {
        "wall_s": sum(walls) / len(walls),
        "setup_s": import_s + setup["setup"],
        "work_per_s": sum(rs[0]["work"] for rs in by_case.values()) / sum(work_walls),
        "peak_rss_mb": _peak_rss_mb(),
        "recon_err": sum(quality) / len(quality),
        "cmd_fit_prior_s": command_s("cmd_fit_prior_s"),
        "cmd_light_s": command_s("cmd_light_s"),
    }


def per_layer(session, workload, passes, flops_per_row) -> dict:
    """Per-layer metrics, per pass over the cases, from the traced passes.

    The traced work count of the workload's main layer should equal the
    work derived from the outputs; a mismatch means the wrappers miss calls
    and is reported as a warning.
    """
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    totals = spans.layer_totals(session.tracer.spans)

    def field(name, key):
        return totals.get(name, {}).get(key, 0)

    values = {m: field(span, key) / n for m, (span, key, _) in SPAN_METRICS.items()}
    synth_self = field("generator.synthesize", "self_s")
    values["generator.synthesize.gflop_s"] = (
        field("generator.synthesize", "work") * flops_per_row / synth_self / 1e9
        if synth_self > 0 else 0.0)
    iters = field("inversion", "work")
    values["inversion.us_per_iter"] = (
        field("inversion", "total_s") / iters * 1e6 if iters else 0.0)
    values["evaluation.self_s"] = sum(
        field(name, "self_s") for name in ("evaluation", spans.POOL, spans.POOL_TASK)) / n
    results = [r for p in traced for _, _, _, r in p["reps"] if r is not None]
    counted = field(workload.work_span, "work")
    expected = sum(r["work"] for r in results)
    if counted != expected:
        session.warnings.append(f"traced {workload.work_span} work {counted} != "
                                f"{expected} derived from the outputs")
    if session.tracer.missing:
        session.warnings.append("not traced, missing from the package: "
                                + ", ".join(sorted(session.tracer.missing)))
    values["evaluation.bisect_steps"] = sum(r["bisect_steps"] for r in results) / n
    values["evaluation.failed_pairs"] = sum(r["failed_pairs"] for r in results) / n
    pool_capacity = sum((s[3] - s[2]) * s[6] for s in session.tracer.spans
                        if s[1] == spans.POOL)
    values["evaluation.pool.busy_frac"] = (
        field(spans.POOL_TASK, "total_s") / pool_capacity if pool_capacity else 0.0)
    values["cli.overhead_s"] = sum(session.overheads) / n

    def rep_wall(group):
        walls = [end - start for p in group for _, start, end, _ in p["reps"]]
        return sum(walls) / len(walls)

    values["trace.overhead_s"] = rep_wall(traced) - rep_wall(plain)
    intervals = [(start, end) for p in traced for _, start, end, _ in p["reps"]]
    commands = {s[0] for s in session.tracer.spans if s[1] == "cli.command"}
    below = [s for s in session.tracer.spans if s[4] in commands]
    covered = sum(spans.union_length(
        [(max(s[2], a), min(s[3], b)) for s in below if s[3] > a and s[2] < b])
        for a, b in intervals)
    values["trace.layer_coverage"] = covered / sum(b - a for a, b in intervals)
    return values


def check_digests_across_runs(session) -> None:
    """Same code and seed must give the same outputs in every run.

    The code is the package and the benchmark: both decide the outputs.
    """
    code_sha = source_digest(ROOT / "src" / "latentprior", HERE)
    path = ROOT / WORK_DIR / "digests.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        store = {}
    for case, value in session.digests.items():
        key = f"{code_sha}/{session.workload}/seed{session.seed}/{case}"
        seen = store.setdefault(key, value)
        if seen != value:
            session.fail(f"case {case}: digest differs from an earlier run "
                         f"of the same code and seed")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "latentprior" / "__init__.py").is_file():
        print(f"error: no latentprior package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # In-process workloads run single-threaded BLAS, so the benchmark process
    # has exactly the threads the workload asks for. The cli workload's
    # commands get the caller's environment, as a user's shell would.
    child_env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import latentprior.cli  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - start
    import latentprior
    if Path(latentprior.__file__).resolve().parent != ROOT / "src" / "latentprior":
        print(f"error: imported latentprior from {latentprior.__file__}", file=sys.stderr)
        return 2

    work = ROOT / WORK_DIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (ROOT / WORK_DIR / "results").mkdir(exist_ok=True)
    machine = machine_record(child_env)
    session = workloads.Session(ROOT, work, args.workload, args.seed, child_env)
    workload = workloads.WORKLOADS[args.workload]()
    setup = workload.setup(session)
    cases = workload.cases(session)

    t0 = time.perf_counter()
    hard_stop = t0 + workloads.HARD_STOP_S
    passes = []
    while time.perf_counter() < hard_stop:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append({"traced": traced,
                       "reps": run_reps(workload, session, cases, traced, hard_stop)})
        enough = time.perf_counter() - t0 >= args.seconds
        if enough and (not args.trace or traced):
            break
    reps = [rep for p in passes if not p["traced"] for rep in p["reps"]]
    check_digests_across_runs(session)

    if not any(r is not None for _, _, _, r in reps) or \
            (args.trace and not any(p["traced"] for p in passes)):
        print("error: no complete measurement:\n" + "\n".join(session.problems),
              file=sys.stderr)
        return 1
    e2e = end_to_end(session, setup, import_s, reps)
    values, units = e2e, dict(END_TO_END)
    if args.trace:
        dims = json.loads((ROOT / workload.bundle).read_text())["dims"]
        values = per_layer(session, workload, passes,
                           workloads.synth_flops_per_row(dims))
        units = dict(PER_LAYER)
        session.tracer.dump(ROOT / WORK_DIR / "results" /
                            f"{args.workload}-seed{args.seed}.spans.jsonl")

    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "result": result,
              "problems": session.problems, "warnings": session.warnings,
              "digests": session.digests,
              "setup": setup, "import_s": import_s,
              "end_to_end": e2e,
              "passes": [{"traced": p["traced"],
                          "reps": [{"case": c, "wall_s": e - s,
                                    "result": {k: v for k, v in (r or {}).items()
                                               if k != "quality"}}
                                   for c, s, e, r in p["reps"]]} for p in passes]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / WORK_DIR / "results" / name).write_text(json.dumps(record, indent=1))
    for problem in session.problems:
        print(f"failure: {problem}", file=sys.stderr)
    for warning in session.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
