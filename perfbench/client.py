"""The benchmark's closed-loop client, run inside a fresh child interpreter.

It sends the workload's command sequence through ``pdcshape.cli.main(argv)``
back to back, each command only after the previous one returned, until the
spec's seconds have elapsed. It then checks the last outputs and writes a
result file. Outputs go to ``out/`` under the working directory.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import traceback
from time import perf_counter, process_time

import numpy
import scipy

import checks
import pdcshape.cli
import tracing
import workloads
from pdcshape import quadrature

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _baseline_hits() -> int:
    cached = getattr(quadrature, "_baseline_raw", None)
    return cached.cache_info().hits if hasattr(cached, "cache_info") else 0


def _environment() -> dict:
    """Versions, CPUs and BLAS thread settings the run used."""
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "machine": platform.machine(),
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "blas_env": {name: os.environ.get(name, "unset") for name in BLAS_ENV}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def run(spec: dict) -> dict:
    seq = spec["commands"]
    files = [workloads.output_files(argv) for argv in seq]
    os.makedirs("out", exist_ok=True)
    tracer = tracing.Tracer() if spec["trace"] else None
    iterations = []
    traced_ranges = []
    started = perf_counter()
    while True:
        # traced run: an untraced first sequence (whose cold caches give the
        # baseline cache hits), then traced and untraced sequences alternate
        traced = tracer is not None and len(iterations) % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        hits_before = _baseline_hits()
        codes, stdouts = [], []
        t0, c0 = perf_counter(), process_time()
        for argv in seq:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    codes.append(pdcshape.cli.main(list(argv)))
                except Exception:  # a traceback ends a CLI run with exit code 1
                    traceback.print_exc()
                    codes.append(1)
            stdouts.append(buf.getvalue())
        wall, cpu = perf_counter() - t0, process_time() - c0
        if traced:
            tracer.uninstall()
            traced_ranges.append((first_span, len(tracer.spans)))
        iterations.append({"wall_s": wall, "cpu_s": cpu, "traced": traced,
                           "baseline_cache_hits": _baseline_hits() - hits_before,
                           "codes": codes,
                           "digests": [[_digest(f) for f in fs] for fs in files]})
        if perf_counter() - started >= spec["seconds"] and (
                tracer is None or len(iterations) >= 3):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every command is checked once, on its last output; its earlier runs
    # must have written the same bytes
    verdicts = []
    route_diff = 0.0
    for k, argv in enumerate(seq):
        rng = random.Random(f"pdcshape-bench-check:{spec['workload']}:{spec['seed']}:{k}")
        try:
            diff = checks.check_command(argv, codes[k], stdouts[k], files[k], rng)
            route_diff = max(route_diff, diff)
            verdicts.append(None)
        except (checks.CheckFailure, KeyError, ValueError, IndexError, OSError) as exc:
            verdicts.append(f"{type(exc).__name__}: {exc}")

    result = {"iterations": iterations,
              "verdicts": verdicts, "route_diff": route_diff, "peak_rss_mb": peak_rss_mb,
              "env": _environment()}
    if tracer is not None:
        result["trace"] = [tracer.summary(a, b) for a, b in traced_ranges]
        result["trace_missing"] = tracer.missing
        result["spans"] = tracer.spans
    return result


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
