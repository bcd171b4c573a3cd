"""Command sequences of the benchmark workloads, generated from a seed.

Each workload is a list of CLI argv lists for ``pdcshape.cli.main``. The
seed fixes every drawn value; the program sees only the generated flags.
Values are rounded before formatting so that the same seed gives the same
bytes in every interpreter, whatever its hash seed.

Standard library only: the orchestrator imports this without NumPy.
"""

from __future__ import annotations

import random

#: 2 lambda / c at the default 350 nm pump and c = 3e8 m/s, in fs: one
#: period of the peak-delay oscillation against beta.
PERIOD_FS = 2.0 * 350e-9 / 3.0e8 * 1e15

#: Delay grid of the curve and lobes commands: 14,001 points over +-3,500 fs.
LONG_GRID = ["--tau-min", "-3500", "--tau-max", "3500", "--points", "14001"]

#: Curve/lobes commands the ``series`` workload runs after its presets.
CURVE_PAIRS = 12

WORKLOADS = ("series", "crosscheck")


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"pdcshape-bench:{workload}:{seed}")


def _num(value: float, digits: int) -> str:
    return repr(round(value, digits))


def commands(workload: str, seed: int, outdir: str) -> list[list[str]]:
    """The workload's command sequence; every output lands under ``outdir``."""
    rng = _rng(workload, seed)
    if workload == "series":
        # the fig2-sized sweep first; rounding to 1e-3 fs stays below the
        # open end 48 + 2.3333 fs
        start = round(48.0 + rng.uniform(0.0, PERIOD_FS), 3)
        seq = [["sweep-beta", "--alpha", "2", "--beta-start", _num(start, 3),
                "--beta-end", _num(start + 5.0, 3), "--beta-step", "0.01",
                "--out", f"{outdir}/sweep.csv"],
               ["fig3", "--out", f"{outdir}/fig3.csv"],
               ["fig4", "--out", f"{outdir}/fig4.csv"]]
        for k in range(2 * CURVE_PAIRS):
            command = "curve" if k % 2 == 0 else "lobes"
            alpha = rng.uniform(0.5, 10.0)
            beta = rng.uniform(50.0, 1000.0)
            seq.append([command, "--alpha", _num(alpha, 4), "--beta", _num(beta, 3),
                        *LONG_GRID, "--out", f"{outdir}/{command}{k:02d}.csv"])
        return seq
    if workload == "crosscheck":
        lam = rng.uniform(349.0, 351.0)
        return [["validate", "--lambda-nm", _num(lam, 3),
                 "--out", f"{outdir}/validate.csv"]]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def output_files(argv: list[str]) -> list[str]:
    """The CSV paths one command writes, in the order the checker reads them."""
    out = argv[argv.index("--out") + 1]
    if argv[0] == "fig3":
        stem = out[:-len(".csv")]
        return [f"{stem}_beta50.csv", f"{stem}_beta53.csv"]
    return [out]
