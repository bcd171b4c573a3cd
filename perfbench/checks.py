"""Output checks: each command's CSV against a route independent of the one it used.

- series ``curve``/``lobes``/``fig3``/``fig4`` rates against ``amplitude_quadrature``
  at a few seed-chosen delays;
- ``validate`` by exit code 0 and its printed worst difference;
- ``sweep-beta`` rows by ``rate_at_max`` against ``count_rate`` at
  ``tau_max`` and ``tau_max +- refine_tol``.

Rates are compared within ``TOL`` absolute. The CSVs print 9 significant
digits, so printing alone moves a rate of at most 10 by at most 5e-9.
"""

from __future__ import annotations

import math
import random
import re

import numpy as np

from pdcshape.model import (
    CosinePhaseFilter,
    PhysicalParams,
    count_rate,
    truncation_for,
)
from pdcshape.quadrature import QuadratureSettings, amplitude_quadrature

TOL = 1e-8
#: delays per rate column checked against the quadrature route
SPOT_CHECKS = 3

_WORST_RE = re.compile(r"worst series/quadrature rate difference: (\S+)")


class CheckFailure(Exception):
    """A command's output disagrees with the independent route."""


def read_csv(path: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Metadata header and data columns of one pdcshape CSV."""
    meta: dict[str, str] = {}
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("# "):
        key, value = lines[k][2:].split(" = ", 1)
        meta[key] = value
        k += 1
    if k >= len(lines):
        raise CheckFailure(f"{path}: no column header")
    names = lines[k].split(",")
    rows = [line.split(",") for line in lines[k + 1:]]
    if any(len(r) != len(names) for r in rows):
        raise CheckFailure(f"{path}: ragged rows")
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return meta, {name: data[:, j] for j, name in enumerate(names)}


def _params(meta: dict[str, str]) -> PhysicalParams:
    return PhysicalParams(pump_wavelength=float(meta["lambda_nm"]),
                          group_velocity=float(meta["u"]),
                          beam_param=float(meta["eps_perp_um"]),
                          emission_angle=float(meta["theta_deg"]),
                          light_speed=float(meta["light_speed"]))


def _settings(meta: dict[str, str]) -> QuadratureSettings:
    return QuadratureSettings(halfwidth_folds=float(meta["quad_folds"]),
                              initial_points=int(meta["quad_initial_points"]),
                              max_points=int(meta["quad_max_points"]),
                              rel_tolerance=float(meta["quad_rel_tol"]))


def _flag(argv: list[str], name: str) -> float:
    return float(argv[argv.index(name) + 1])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _against_quadrature(meta: dict[str, str], filt: CosinePhaseFilter,
                        taus: np.ndarray, rates: np.ndarray, rng: random.Random,
                        label: str) -> float:
    """Worst |rate - quadrature rate| at a few seed-chosen rows."""
    params, settings = _params(meta), _settings(meta)
    worst = 0.0
    for i in sorted(rng.sample(range(taus.size), min(SPOT_CHECKS, taus.size))):
        quad = abs(amplitude_quadrature(params, filt, float(taus[i]), settings).value) ** 2
        diff = abs(float(rates[i]) - quad)
        _require(diff <= TOL, f"{label}: rate {rates[i]!r} at tau {taus[i]!r} fs is "
                              f"{diff:.3e} from the quadrature route")
        worst = max(worst, diff)
    return worst


def _check_grid(meta: dict[str, str], taus: np.ndarray, label: str) -> None:
    expect = np.linspace(float(meta["tau_min"]), float(meta["tau_max"]), int(meta["points"]))
    _require(taus.shape == expect.shape and np.allclose(taus, expect, rtol=1e-8, atol=1e-9),
             f"{label}: delay column is not the requested grid")


def _check_flags(meta: dict[str, str], argv: list[str], keys: tuple[str, ...]) -> None:
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if flag in argv:
            _require(float(meta[key]) == _flag(argv, flag),
                     f"{argv[0]}: header {key} = {meta[key]} but {flag} {_flag(argv, flag)!r}")


def check_command(argv: list[str], code: int, stdout: str, files: list[str],
                  rng: random.Random) -> float:
    """Raise CheckFailure unless the command's output is right.

    Returns the worst series/quadrature rate difference the check measured
    (0.0 where the check does not compare the two routes).
    """
    command = argv[0]
    _require(code == 0, f"{command}: exit code {code}")
    if command == "validate":
        m = _WORST_RE.search(stdout)
        _require(m is not None, "validate: no worst-difference line on stdout")
        worst = float(m.group(1))
        _require(worst <= TOL, f"validate: worst difference {worst:.3e} > {TOL:.0e}")
        meta, cols = read_csv(files[0])
        _check_flags(meta, argv, ("lambda_nm",))
        diffs = cols["max_abs_diff"]
        _require(diffs.size == 30, f"validate: {diffs.size} grid rows, expected 30")
        _require(bool(np.all(diffs <= TOL)), "validate: a grid row exceeds the tolerance")
        _require(math.isclose(float(diffs.max()), worst, rel_tol=1e-2),
                 "validate: printed worst difference disagrees with the CSV")
        return float(diffs.max())

    if command == "sweep-beta":
        meta, cols = read_csv(files[0])
        _check_flags(meta, argv, ("alpha", "beta_start", "beta_end", "beta_step"))
        betas, taus, peaks = cols["beta_fs"], cols["tau_max_fs"], cols["rate_at_max"]
        count = int(math.floor((float(meta["beta_end"]) - float(meta["beta_start"]))
                               / float(meta["beta_step"]) + 1e-9)) + 1
        _require(betas.size == count, f"sweep-beta: {betas.size} rows, expected {count}")
        params = _params(meta)
        alpha, tol = float(meta["alpha"]), float(meta["refine_tol"])
        trunc = truncation_for(CosinePhaseFilter(alpha, 0.0), float(meta["trunc_tol"]))
        for b, t, peak in zip(betas, taus, peaks):
            near = count_rate(params, CosinePhaseFilter(alpha, float(b)), trunc,
                              np.array([t - tol, t, t + tol]))
            _require(abs(near[1] - peak) <= TOL,
                     f"sweep-beta: rate_at_max {peak!r} at beta {b!r} is not the rate "
                     f"at tau_max {t!r}")
            _require(peak >= max(near[0], near[2]) - TOL,
                     f"sweep-beta: beta {b!r}: a rate within refine_tol of tau_max {t!r} "
                     f"beats rate_at_max")
        return 0.0

    if command in ("curve", "lobes") and "quadrature" not in argv:  # series route
        meta, cols = read_csv(files[0])
        _check_flags(meta, argv, ("alpha", "beta", "tau_min", "tau_max", "points"))
        filt = CosinePhaseFilter(float(meta["alpha"]), float(meta["beta"]))
        if command == "curve":
            _check_grid(meta, cols["tau_fs"], "curve")
            return _against_quadrature(meta, filt, cols["tau_fs"], cols["rate"], rng, "curve")
        _require(cols["center_fs"].size >= 1, "lobes: no lobe found")
        _require(bool(np.all(cols["prominence"] <= cols["height"] + TOL)),
                 "lobes: a prominence exceeds its height")
        return _against_quadrature(meta, filt, cols["center_fs"], cols["height"], rng, "lobes")

    if command == "fig3":
        worst = 0.0
        for path, beta in zip(files, (50.0, 53.0)):
            meta, cols = read_csv(path)
            _check_grid(meta, cols["tau_fs"], "fig3")
            _require(float(meta["beta"]) == beta, f"fig3: {path} holds beta {meta['beta']}")
            for alpha in (0.0, 2.0, 10.0):
                worst = max(worst, _against_quadrature(
                    meta, CosinePhaseFilter(alpha, beta), cols["tau_fs"],
                    cols[f"rate_alpha{alpha:g}"], rng, f"fig3 beta {beta:g}"))
        return worst

    if command == "fig4":
        meta, cols = read_csv(files[0])
        _check_grid(meta, cols["tau_fs"], "fig4")
        worst = 0.0
        for beta in (50.0, 300.0, 1000.0):
            worst = max(worst, _against_quadrature(
                meta, CosinePhaseFilter(float(meta["alpha"]), beta), cols["tau_fs"],
                cols[f"rate_beta{beta:g}"], rng, f"fig4 beta {beta:g}"))
        return worst

    raise CheckFailure(f"no check for command {command!r}")
