"""Self-tests of the benchmark: checker, trace wrappers, seeds, failure exit.

    python3 -m pytest perfbench/selftest.py -q      # under a minute

Not collected by the repository's test suite (the file name does not match
``test_*.py``); it runs only when named.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pdcshape import analysis, bessel, cli, model, quadrature  # noqa: E402


@pytest.fixture
def workdir():
    (HERE / "_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check(argv: list[str], code: int = 0, stdout: str = "") -> float:
    return checks.check_command(argv, code, stdout, workloads.output_files(argv),
                                random.Random(0))


def _rewrite_column(path: str, column: str, change) -> None:
    """Apply change(row_index, value) to one data column of a CSV in place."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    j = lines[head].split(",").index(column)
    for i in range(head + 1, len(lines)):
        cells = lines[i].split(",")
        cells[j] = f"{change(i - head - 1, float(cells[j])):.8e}"
        lines[i] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# -- the checker fails corrupted output -------------------------------------

def test_checker_rejects_corrupted_series_curve(workdir):
    argv = ["curve", "--alpha", "2", "--beta", "300", *workloads.LONG_GRID,
            "--out", str(workdir / "c.csv")]
    assert _run(argv)[0] == 0
    assert _check(argv) <= checks.TOL
    _rewrite_column(str(workdir / "c.csv"), "rate", lambda i, r: r * (1 + 1e-6))
    with pytest.raises(checks.CheckFailure):
        _check(argv)


def test_checker_rejects_corrupted_lobes(workdir):
    argv = ["lobes", "--alpha", "2", "--beta", "1000", *workloads.LONG_GRID,
            "--out", str(workdir / "l.csv")]
    assert _run(argv)[0] == 0
    _check(argv)
    _rewrite_column(str(workdir / "l.csv"), "height", lambda i, h: h - 1e-6)
    with pytest.raises(checks.CheckFailure):
        _check(argv)


@pytest.mark.parametrize("shift", [0.05, -0.05])
def test_checker_rejects_misplaced_peak(workdir, shift):
    argv = ["sweep-beta", "--alpha", "2", "--beta-start", "50", "--beta-end", "50.05",
            "--beta-step", "0.01", "--out", str(workdir / "s.csv")]
    assert _run(argv)[0] == 0
    _check(argv)
    _rewrite_column(str(workdir / "s.csv"), "tau_max_fs", lambda i, t: t + shift * (i == 3))
    with pytest.raises(checks.CheckFailure):
        _check(argv)


def test_checker_rejects_failed_validate(workdir):
    argv = ["validate", "--out", str(workdir / "v.csv")]
    over = "worst series/quadrature rate difference: 2.000e-08 (tolerance 1e-08)\n"
    with pytest.raises(checks.CheckFailure):
        _check(argv, 0, over)
    with pytest.raises(checks.CheckFailure):
        _check(argv, 3, "")


# -- the trace wrappers ------------------------------------------------------

def test_fig2_window_counts_and_identical_csvs(workdir):
    original = model.count_rate
    assert _run(["fig2", "--out", str(workdir / "plain.csv")])[0] == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # names imported into other modules are rebound too
        assert analysis.count_rate is model.count_rate is not original
        assert bessel.bessel_j_table is model.bessel_j_table
        assert _run(["fig2", "--out", str(workdir / "traced.csv")])[0] == 0
    finally:
        tracer.uninstall()
    assert analysis.count_rate is original and model.count_rate is original
    assert tracer.missing == []
    calls = tracer.summary()["calls_by_function"]
    assert calls["find_tau_max"] == 501
    assert calls["count_rate"] == 3507
    assert calls["bessel_j_table"] == 3508
    assert (workdir / "plain.csv").read_bytes() == (workdir / "traced.csv").read_bytes()


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [["main", 0.0, 10.0, -1, None],
                       ["find_tau_max", 1.0, 7.0, 0, None],
                       ["count_rate", 2.0, 5.0, 1, {"points": 9}],
                       ["count_rate", 5.0, 6.0, 1, {"points": 3}]]
    s = tracer.summary()
    assert s["cli.self_s"] == 4.0
    assert s["analysis.tau_max.self_s"] == 2.0
    assert s["model.comb.self_s"] == 4.0
    assert s["analysis.tau_max.rate_evals"] == 2
    assert s["analysis.tau_max.scan_points"] == 9


def test_reported_metrics_match_benchmark_json():
    import run

    its = [{"wall_s": 1.0, "cpu_s": 1.0, "traced": t, "baseline_cache_hits": 0}
           for t in (False, True, False)]
    result = {"trace": [tracing.Tracer().summary()], "iterations": its, "route_diff": 0.0,
              "peak_rss_mb": 1.0}
    setup_keys = dict.fromkeys(("setup.numpy_s", "setup.scipy_s", "setup.pdcshape_s"), 0.0)
    assert set(run._per_layer(result, setup_keys)) == set(run.declared_units(1))
    assert set(run._end_to_end(result, [1.0], 1.0)) == set(run.declared_units(0))


# -- seeds -------------------------------------------------------------------

def _traced_counts(workload: str, seed: int, outdir: Path) -> dict:
    quadrature._baseline_raw.cache_clear()  # as in a fresh process
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in workloads.commands(workload, seed, str(outdir)):
            assert _run(argv)[0] == 0
    finally:
        tracer.uninstall()
    return tracer.summary()


@pytest.mark.parametrize("workload", ["series", "crosscheck"])
def test_traced_counts_do_not_depend_on_seed(workload, workdir):
    one = _traced_counts(workload, 1, workdir)
    two = _traced_counts(workload, 2, workdir)
    for key in ("quad.intervals", "quad.levels", "analysis.tau_max.rate_evals"):
        assert one[key] == two[key], key
    assert two["model.comb.cells"] == pytest.approx(one["model.comb.cells"], rel=0.05)


def test_argv_identical_across_interpreters():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(json.dumps([workloads.commands(w, 7, 'out') for w in workloads.WORKLOADS]))")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        outputs.append(subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                                      capture_output=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) != [workloads.commands(w, 8, "out")
                                      for w in workloads.WORKLOADS]


def test_sweep_window_spans_two_periods():
    for seed in range(50):
        argv = workloads.commands("series", seed, "out")[0]
        start = float(argv[argv.index("--beta-start") + 1])
        assert 48.0 <= start < 48.0 + workloads.PERIOD_FS
        assert float(argv[argv.index("--beta-end") + 1]) - start == pytest.approx(5.0)


# -- the benchmark fails without the program -----------------------------------

def test_fails_without_program(workdir):
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crosscheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
