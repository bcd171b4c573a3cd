"""Command-line front end.

Exit codes: 0 success, 2 usage or parameter error (any ParameterError),
3 validation failure, 4 I/O error, 5 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import RunConfig, resolve_config
from .csvio import _meta_str, write_csv
from .errors import ConvergenceError, ParameterError
from .model import (_METHODS, CorrelationCurve, CosinePhaseFilter, require_curve_cells,
                    sample_curve, truncation_for)
from .quadrature import (
    VALIDATION_DEPTHS,
    VALIDATION_MOD_FREQUENCIES,
    _comparison_halfcount,
    compare_methods,
    comparison_grid,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_NUMERIC = 5

VALIDATION_TOLERANCE = 1e-8

# Defining values of the preset commands; explicit flags still win.
_PRESETS: dict[str, dict] = {
    "fig2": {"alpha": 2.0, "beta_start": 48.0, "beta_end": 53.0, "beta_step": 0.01},
    "fig3": {"tau_min": -600.0, "tau_max": 600.0, "points": 2401},
    "fig4": {"alpha": 2.0, "tau_min": -3500.0, "tau_max": 3500.0, "points": 14001},
}


# Every command takes the same flags; each line here is its --help entry.
_COMMANDS = {
    "params": "echo the resolved configuration",
    "curve": "rate against signal-idler delay",
    "sweep-beta": "peak delay against modulation frequency",
    "tau-max": "locate the rate maximum",
    "lobes": "detect lobes of the rate curve",
    "validate": "cross-check series against direct quadrature",
    "fig2": "preset: depth-2 sweep, 48..53 fs in 0.01 fs steps",
    "fig3": "preset: depth families 0/2/10 at 50 fs and 53 fs",
    "fig4": "preset: depth-2 curves at 50/300/1000 fs",
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ParameterError instead of printing usage and exiting."""

    def error(self, message: str):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdcshape",
        description="Coincidence-rate curves for phase-filtered degenerate photon pairs.",
        epilog="commands:\n" + "\n".join(f"  {name:<12}{text}"
                                          for name, text in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands below")
    g = parser.add_argument_group("model")
    g.add_argument("--alpha", type=float, help="filter modulation depth, rad")
    g.add_argument("--beta", type=float, help="filter modulation frequency, fs")
    g.add_argument("--lambda-nm", type=float, dest="lambda_nm", help="pump wavelength, nm")
    g.add_argument("--u", type=float, help="signal/idler group velocity, m/s")
    g.add_argument("--eps-perp-um", type=float, dest="eps_perp_um",
                   help="pump transverse Gaussian parameter, um")
    g.add_argument("--theta-deg", type=float, dest="theta_deg", help="emission angle, degrees")
    g.add_argument("--light-speed", type=float, dest="light_speed", help="vacuum light speed, m/s")
    r = parser.add_argument_group("run")
    r.add_argument("--tau-min", type=float, dest="tau_min", help="delay grid start, fs")
    r.add_argument("--tau-max", type=float, dest="tau_max", help="delay grid end, fs")
    r.add_argument("--points", type=int, help="delay grid point count")
    r.add_argument("--method", choices=_METHODS, help="rate evaluation route")
    r.add_argument("--beta-start", type=float, dest="beta_start", help="sweep start, fs")
    r.add_argument("--beta-end", type=float, dest="beta_end", help="sweep end, fs")
    r.add_argument("--beta-step", type=float, dest="beta_step", help="sweep step, fs")
    r.add_argument("--config", type=Path, help="key = value config file")
    r.add_argument("--out", type=Path, help="output CSV path (default <command>.csv)")
    return parser


# Built once per process: parse_args keeps no state between calls, and every
# value is read from the fresh namespace it returns.
_PARSER = build_parser()


def _curves(cfg: RunConfig, filters: list[CosinePhaseFilter]) -> list[CorrelationCurve]:
    """Each filter's rate curve over cfg's delay grid, by cfg's method, cutoff and quadrature
    settings; every series curve passes the cell cap, in filter order, before the grid is built."""
    if cfg.method == "series":
        for filt in filters:
            require_curve_cells(cfg.tau_min, cfg.tau_max, cfg.points,
                                truncation_for(filt, cfg.trunc_tol))
    grid = cfg.tau_grid()
    return [sample_curve(cfg.params, filt, grid, method=cfg.method, trunc_tol=cfg.trunc_tol,
                         settings=cfg.quad) for filt in filters]


def _curve_columns(cfg: RunConfig,
                   labelled: list[tuple[str, CosinePhaseFilter]]) -> list[tuple[str, np.ndarray]]:
    """A tau_fs column, then one rate column per (label, filter)."""
    curves = _curves(cfg, [filt for _, filt in labelled])
    return [("tau_fs", curves[0].tau_grid)] + [(label, curve.rates)
                                               for (label, _), curve in zip(labelled, curves)]


def _outputs(cfg: RunConfig, command: str, meta: dict, out: Path):
    """Yield the (path, metadata, columns) of each file the command writes, one at a
    time: a later file is computed, and meta updated in place for it, only after the
    earlier ones are written."""
    if command == "params":
        keys = sorted(meta)
        yield out, meta, [("key", keys), ("value", [_meta_str(meta[k]) for k in keys])]
    elif command == "curve":
        yield out, meta, _curve_columns(cfg, [("rate", cfg.pair_filter())])
    elif command in ("tau-max", "sweep-beta", "fig2"):
        search = {"search_halfwidth": cfg.search_halfwidth, "grid_step": cfg.grid_step,
                  "refine_tol": cfg.refine_tol, "trunc_tol": cfg.trunc_tol}
        if command == "tau-max":
            res = analysis.find_tau_max(cfg.params, cfg.pair_filter(), **search)
            found = ([cfg.beta], [res.tau_max], [res.rate_at_max])
        else:
            sweep = analysis.sweep_beta(cfg.params, cfg.alpha, cfg.beta_start, cfg.beta_end,
                                        cfg.beta_step, **search)
            found = (sweep.beta_values, sweep.tau_max_values, sweep.rates)
        yield out, meta, [(name, np.asarray(values)) for name, values
                          in zip(("beta_fs", "tau_max_fs", "rate_at_max"), found)]
    elif command == "lobes":
        (curve,) = _curves(cfg, [cfg.pair_filter()])
        report = analysis.detect_lobes(curve, cfg.min_lobe_height)
        yield out, meta, [("center_fs", report.centers), ("height", report.heights),
                          ("prominence", report.prominences)]
    elif command == "validate":
        cells = [CosinePhaseFilter(a, b)
                 for a in VALIDATION_DEPTHS for b in VALIDATION_MOD_FREQUENCIES]
        # every cell's grid is sized before any cell computes, so that an
        # over-cap cell is refused at once
        for filt in cells:
            _comparison_halfcount(cfg.params, filt, cfg.trunc_tol)
        reps = [compare_methods(cfg.params, filt, comparison_grid(cfg.params, filt, cfg.trunc_tol),
                                cfg.quad, cfg.trunc_tol) for filt in cells]
        yield out, meta, [("alpha", np.array([filt.depth for filt in cells])),
                          ("beta_fs", np.array([filt.mod_frequency for filt in cells])),
                          ("max_abs_diff", np.array([rep.max_abs_diff for rep in reps])),
                          ("tau_at_max_fs", np.array([rep.tau_at_max for rep in reps]))]
    elif command == "fig3":
        for b in (50.0, 53.0):
            meta.update(alpha="0,2,10", beta=b)
            yield out.with_name(f"{out.stem}_beta{b:g}{out.suffix}"), meta, _curve_columns(
                cfg, [(f"rate_alpha{a:g}", CosinePhaseFilter(a, b)) for a in (0.0, 2.0, 10.0)])
    elif command == "fig4":
        meta["beta"] = "50,300,1000"
        yield out, meta, _curve_columns(cfg, [(f"rate_beta{b:g}", CosinePhaseFilter(cfg.alpha, b))
                                              for b in (50.0, 300.0, 1000.0)])
    else:  # pragma: no cover - argparse restricts the choices
        raise ParameterError(f"unknown command {command!r}")


def run_command(cfg: RunConfig, command: str) -> int:
    meta = cfg.metadata()
    meta["command"] = command
    out = Path(cfg.out if cfg.out is not None else f"{command}.csv")
    for path, file_meta, columns in _outputs(cfg, command, meta, out):
        write_csv(path, file_meta, columns)
        if command == "params":
            for key, value in zip(*(values for _, values in columns)):
                print(f"{key} = {value}")
        print(f"wrote {path}")
    if command == "validate":
        worst = max(dict(columns)["max_abs_diff"])
        print(f"worst series/quadrature rate difference: {worst:.3e} "
              f"(tolerance {VALIDATION_TOLERANCE:.0e})")
        return EXIT_OK if worst <= VALIDATION_TOLERANCE else EXIT_VALIDATION
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        cfg = resolve_config(flags, args.config, _PRESETS.get(args.command))
        return run_command(cfg, args.command)
    except SystemExit as exc:  # only --help exits the parser; usage errors raise
        return exc.code or EXIT_OK
    except (ParameterError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_NUMERIC if isinstance(exc, ConvergenceError)
                else EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
