"""Outside-in span tracing of the latentprior layers.

Nothing inside ``src/`` changes. ``installed(tracer)`` replaces each layer's
public functions with a timing wrapper at the name where the importing
module looks it up (``latentprior.inversion.synthesize_batch``, not only
``latentprior.generator.synthesize_batch``), and puts every original back
on exit. Each thread keeps its own span stack; a span records its name,
start, end, parent, thread, a work count and whether it raised. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time

PKG = "latentprior"


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, thread, work, failed]
        self.missing = set()  # wrap targets the package does not have
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent=None):
        """Start a span; ``parent`` overrides the calling thread's stack."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return [sid, name, time.perf_counter(), None, parent,
                threading.get_ident(), 0, False]

    def close(self, span, work=0, failed=False) -> None:
        span[3] = time.perf_counter()
        span[6] = work
        span[7] = failed
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, parent=None):
        s = self.open(name, parent)
        failed = True
        try:
            yield s
            failed = False
        finally:
            self.close(s, failed=failed)

    def adopt(self, spans, parent) -> None:
        """Merge spans written by another process under span id ``parent``.

        Ids are renumbered so they stay unique; the other process's top-level
        spans become children of ``parent``. Both processes read the same
        system-wide monotonic clock, so times need no shift.
        """
        with self._lock:
            mapping = {s[0]: next(self._ids) for s in spans}
            for s in spans:
                s = list(s)
                s[0] = mapping[s[0]]
                s[4] = mapping.get(s[4], parent) if s[4] is not None else parent
                self.spans.append(s)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def load_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# --- work counters: (args, kwargs, result) -> count -------------------------


def _rows(index):
    def count(args, kwargs, result):
        arr = args[index]
        return int(getattr(arr, "shape", (len(arr),))[0])
    return count


def _n_arg(args, kwargs, result):
    return int(args[2] if len(args) > 2 else kwargs["n"])


def _embed_rows(args, kwargs, result):
    return int(result.shape[0]) if result.ndim == 2 else 1


def _iterations(args, kwargs, result):
    return int(result.iterations_run)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# Span name -> (module attributes that hold the function, work counter).
# Every module that imports a function by name gets its own entry, so each
# call goes through exactly one wrapper.
WRAPS = {
    "generator.synthesize": (
        ("generator.synthesize_batch", "inversion.synthesize_batch",
         "evaluation.synthesize_batch"), _rows(1)),
    "generator.vjp": (
        ("generator.synthesize_vjp_batch", "inversion.synthesize_vjp_batch"),
        _rows(1)),
    "generator.map": (
        ("generator.map_latents", "evaluation.map_latents"), _rows(1)),
    "generator.sample_z": (
        ("generator.sample_z", "evaluation.sample_z"), None),
    "gaussian.energy": (
        ("inversion.mahalanobis_sq_batch", "inversion.mahalanobis_sq_grad_batch",
         "spaces.mahalanobis_sq_batch"), _rows(1)),
    "gaussian.fit": (("cli.fit_gaussian", "evaluation.fit_gaussian"), _rows(0)),
    "gaussian.frechet": (("evaluation.frechet_distance",), None),
    "gaussian.sample": (
        ("inversion.sample_latents", "cli.sample_latents"), _n_arg),
    "gaussian.io": (("cli.load_model", "cli.save_model"), None),
    "inversion": (("cli.invert", "evaluation.invert"), _iterations),
    "inversion.adam": (("inversion.adam_step",), None),
    "inversion.w_std_norm": (("inversion.w_std_norm",), None),
    "correction.compress": (
        ("correction.compress_rows", "evaluation.compress_rows"), _rows(1)),
    "features.embed": (("features.embed", "evaluation.embed"), _embed_rows),
    "evaluation": (
        ("cli.interpolation_experiment", "evaluation.interpolation_experiment",
         "cli.lambda_sweep", "cli.fid_tradeoff", "cli.pc_magnitude_profile",
         "cli.tail_probability"), None),
    "spaces.latents_io": (("cli.read_latents", "cli.write_latents"), _file_bytes),
    "seeding.rng_from": (
        tuple(f"{m}.rng_from" for m in ("generator", "gaussian", "inversion",
                                        "evaluation", "features", "cli")),
        None),
}

POOL = "evaluation.pool"
POOL_TASK = "evaluation.pool.task"


def _work(count, args, kwargs, result) -> int:
    """The call's work count; 0 when the call does not fit the counter."""
    if count is None:
        return 0
    try:
        return count(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError, OSError):
        return 0


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span, failed=True)
            raise
        tracer.close(span, _work(count, args, kwargs, result))
        return result
    return wrapper


def _wrap_pmap(tracer: Tracer, pmap):
    """Time the thread pool and each task; tasks are children of the pool span."""
    @functools.wraps(pmap)
    def wrapper(fn, items, threads):
        items = list(items)
        pool = tracer.open(POOL)

        def task(item):
            with tracer.span(POOL_TASK, parent=pool[0]):
                return fn(item)

        try:
            result = pmap(task, items, threads)
        except BaseException:
            tracer.close(pool, failed=True)
            raise
        # work = worker threads that had a task, for busy_frac
        tracer.close(pool, max(1, min(threads, len(items))))
        return result
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every entry of WRAPS (and the pool) for the duration of the block.

    A name the package no longer has is skipped and listed in
    ``tracer.missing``, so a refactor of the package leaves the trace
    running, with that name's layer reading zero.
    """
    saved = []
    targets = [(name, target, count) for name, (names, count) in WRAPS.items()
               for target in names]
    targets.append((POOL, "evaluation._pmap", None))
    try:
        for name, target, count in targets:
            mod_name, attr = target.rsplit(".", 1)
            mod = importlib.import_module(f"{PKG}.{mod_name}")
            original = getattr(mod, attr, None)
            if original is None:
                tracer.missing.add(target)
                continue
            saved.append((mod, attr, original))
            wrapped = (_wrap_pmap(tracer, original) if name == POOL
                       else _wrap(tracer, name, original, count))
            setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# --- span arithmetic ---------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        kids = [(max(c[2], start), min(c[3], end)) for c in children.get(s[0], ())]
        covered = union_length([k for k in kids if k[1] > k[0]])
        out[s[0]] = (end - start) - covered
    return out


def layer_totals(spans) -> dict:
    """Span name -> {calls, work, self_s, total_s, failed} summed over spans."""
    selfs = self_times(spans)
    totals = {}
    for s in spans:
        t = totals.setdefault(s[1], {"calls": 0, "work": 0, "self_s": 0.0,
                                     "total_s": 0.0, "failed": 0})
        t["calls"] += 1
        t["work"] += s[6]
        t["self_s"] += selfs[s[0]]
        t["total_s"] += s[3] - s[2]
        t["failed"] += int(s[7])
    return totals


def top_level_coverage(spans, start: float, end: float) -> float:
    """Share of [start, end] covered by spans that have no parent."""
    tops = [(max(s[2], start), min(s[3], end)) for s in spans if s[4] is None]
    return union_length([t for t in tops if t[1] > t[0]]) / (end - start)
