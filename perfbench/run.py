"""pdcshape benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload series --seed 1 --seconds 45 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` it prints the end-to-end metrics: set-up time of a fresh
interpreter, and the wall time, CPU time, peak memory and success share of
the workload's command sequence, sent back to back by one client in its
own fresh interpreter. With ``--trace 1`` it prints the per-layer metrics
of a traced run instead. Every command's output is checked; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results, with each sample, the environment and (traced)
the spans, are written under ``perfbench/_out/``.

Standard library only: NumPy and the program load in the child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: fresh interpreters timed for set-up before and again after the client,
#: besides the client's own: the machine's speed drifts over a run, so the
#: samples span it
SETUP_SAMPLES = 3
#: a child that has not finished by then is killed and its run fails
CHILD_TIMEOUT_S = 150.0
#: BLAS and OpenMP thread pools are held to one thread in every child: on a
#: host of a few shared cores, a second spinning BLAS thread gains no wall
#: time and makes every sequence wait on the busiest core
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_ENV, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn_until_ready(args: list[str], cwd: Path) -> tuple[subprocess.Popen, float]:
    """Start a child; return it and the seconds until it printed ``ready``."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=cwd,
                            env=_child_env(), stdout=subprocess.PIPE, text=True)
    waiting, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
    line = proc.stdout.readline() if waiting else ""
    ready = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("child did not import pdcshape.cli")
    return proc, ready


def _finish(proc: subprocess.Popen) -> None:
    try:
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child exceeded {CHILD_TIMEOUT_S:g} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")


def _import_times() -> dict[str, float]:
    """setup.* seconds from ``python -X importtime -c 'import pdcshape.cli'``.

    numpy and scipy are their outermost entries in the import tree, with
    everything those import; pdcshape is the rest of the ``pdcshape.cli``
    import: the package's own modules and the standard library they load.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pdcshape.cli"],
                          env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    entries = [(int(m.group(1)), len(m.group(2)), m.group(3)) for m in re.finditer(
        r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", proc.stderr, re.MULTILINE)]
    totals = {"numpy": 0, "scipy": 0, "pdcshape.cli": 0}
    # importtime prints a module after its imports, so walking backwards
    # meets each parent before its children
    stack: list[tuple[int, bool]] = []  # open ancestors: (depth, inside numpy/scipy)
    for cumulative, depth, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        top = name if name == "pdcshape.cli" else name.partition(".")[0]
        if top in totals and not inside:
            totals[top] += cumulative
        stack.append((depth, inside or top in ("numpy", "scipy")))
    us = 1e-6
    return {"setup.numpy_s": totals["numpy"] * us, "setup.scipy_s": totals["scipy"] * us,
            "setup.pdcshape_s": (totals["pdcshape.cli"] - totals["numpy"]
                                 - totals["scipy"]) * us}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _failures(seq: list[list[str]], result: dict) -> list[str]:
    """One line per failed command run: bad exit code, check, or changed bytes."""
    iterations, verdicts = result["iterations"], result["verdicts"]
    last = iterations[-1]
    lines = []
    for i, it in enumerate(iterations):
        for k, argv in enumerate(seq):
            if verdicts[k] is not None:
                why = verdicts[k]
            elif it["codes"][k] != 0:
                why = f"exit code {it['codes'][k]}"
            elif None in it["digests"][k] or it["digests"][k] != last["digests"][k]:
                why = "output missing or not byte-identical to the checked output"
            else:
                continue
            lines.append(f"sequence {i} command {k} ({argv[0]}): {why}")
    return lines


def _run_client(args: argparse.Namespace, seq: list[list[str]],
                workdir: Path) -> tuple[dict, float]:
    """Run the client child; return its result and its set-up seconds."""
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "commands": seq, "result": str(result_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc, ready = _spawn_until_ready([str(spec_path)], workdir)
    _finish(proc)
    return json.loads(result_path.read_text(encoding="utf-8")), ready


def _end_to_end(result: dict, setup: list[float], ok_frac: float) -> dict[str, list[float]]:
    its = result["iterations"]
    return {"setup_s": setup, "wall_s": [it["wall_s"] for it in its],
            "cpu_s": [it["cpu_s"] for it in its], "peak_rss_mb": [result["peak_rss_mb"]],
            "ok_frac": [ok_frac]}


def _per_layer(result: dict, import_times: dict[str, float]) -> dict[str, list[float]]:
    """Counts from the first traced sequence, times from every traced one.

    The baseline cache hits come from the first sequence, which starts with
    the program's caches empty as every CLI process does.
    """
    summaries = result["trace"]
    samples: dict[str, list[float]] = {k: [v] for k, v in import_times.items()}
    for key, value in summaries[0].items():
        if key == "calls_by_function":
            continue
        samples[key] = [s[key] for s in summaries] if key.endswith("_s") else [value]
    its = result["iterations"]
    samples["quad.baseline_cache_hits"] = [its[0]["baseline_cache_hits"]]
    samples["quad.max_route_diff"] = [result["route_diff"]]
    # the first, untraced sequence also pays the warm-up, so it is left out
    traced = [it["wall_s"] for it in its if it["traced"]]
    plain = [it["wall_s"] for it in its[1:] if not it["traced"]]
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the command sequence until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "pdcshape" / "cli.py").is_file():
        print(f"error: program source {SRC / 'pdcshape'} not found", file=sys.stderr)
        return 2
    try:
        return _bench(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _bench(args: argparse.Namespace) -> int:
    seq = workloads.commands(args.workload, args.seed, "out")
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    setup: list[float] = []

    def time_setups() -> None:
        for _ in range(SETUP_SAMPLES):
            proc, ready = _spawn_until_ready([], workdir)
            _finish(proc)
            setup.append(ready)

    try:
        if args.trace:
            import_times = _import_times()
        else:
            time_setups()
        result, ready = _run_client(args, seq, workdir)
        setup.append(ready)
        if not args.trace:
            time_setups()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = _failures(seq, result)
    attempted = len(result["iterations"]) * len(seq)
    failed = len(failures)
    if args.trace:
        samples = _per_layer(result, import_times)
    else:
        samples = _end_to_end(result, setup, (attempted - failed) / attempted)
    units = declared_units(args.trace)
    if set(samples) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(samples) ^ set(units))}")
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    correct = failed == 0

    env = result["env"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commands": seq, "environment": env,
              "samples": samples, "metrics": metrics, "correct": correct,
              "attempted": attempted, "failed": failed, "failures": failures,
              "iterations": result["iterations"], "trace_missing": result.get("trace_missing")}
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (out / f"{stem}-spans.json").write_text(json.dumps(result["spans"]), encoding="utf-8")

    traced = sum(it["traced"] for it in result["iterations"])
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s measured, "
          f"trace {'on' if args.trace else 'off'}; one closed-loop client, "
          f"{len(seq)} command(s) per sequence, {len(result['iterations'])} sequence(s) run"
          + (f", {traced} traced" if args.trace else ""))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    for key, values in samples.items():
        q1, q3 = _quartiles(values)
        print(f"{key:32} {metrics[key]['value']:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{len(values):3d}  {units[key]}")
    print(f"{'fail_frac':32} {failed / attempted:14.6g} ({failed} of {attempted} commands)")
    if result.get("trace_missing"):
        print("trace: targets not found, not traced: " + ", ".join(result["trace_missing"]))
    for line in failures:
        print("FAILED " + line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
