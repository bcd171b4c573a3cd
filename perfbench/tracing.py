"""Spans and counts around the public functions of each pdcshape layer.

The tracer wraps functions from outside the program. Modules import layer
functions by name (``from .model import count_rate``), so installing a
wrapper rebinds the name in every loaded ``pdcshape`` module that holds the
original, and uninstalling puts every original back.

Spans are kept in memory as ``[name, start, end, parent, facts]`` and are
summarised after the traced work. A span's self time is its duration minus
the durations of its child spans; calls are strictly nested because the
program is single-threaded in Python.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

from pdcshape import quadrature

#: (module, function or Class.method, layer). A layer's self time is the
#: summed self time of its functions.
TARGETS = (
    ("pdcshape.bessel", "bessel_j_table", "bessel"),
    ("pdcshape.model", "truncation_for", "model.truncation"),
    ("pdcshape.model", "series_coefficients", "model.coeffs"),
    ("pdcshape.model", "amplitude_series", "model.comb"),
    ("pdcshape.model", "count_rate", "model.comb"),
    ("pdcshape.model", "sample_curve", "model.curve"),
    ("pdcshape.quadrature", "_amplitude_grid", "quad"),
    ("pdcshape.quadrature", "rate_grid", "quad"),
    ("pdcshape.quadrature", "amplitude_quadrature", "quad"),
    ("pdcshape.quadrature", "compare_methods", "quad"),
    ("pdcshape.quadrature", "comparison_grid", "quad"),
    ("pdcshape.analysis", "find_tau_max", "analysis.tau_max"),
    ("pdcshape.analysis", "sweep_beta", "analysis.sweep"),
    ("pdcshape.analysis", "detect_lobes", "analysis.lobes"),
    ("pdcshape.csvio", "render_csv", "csvio"),
    ("pdcshape.csvio", "write_csv", "csvio"),
    ("pdcshape.config", "resolve_config", "config"),
    ("pdcshape.config", "read_config_file", "config"),
    ("pdcshape.config", "RunConfig.tau_grid", "config"),
    ("pdcshape.config", "RunConfig.pair_filter", "config"),
    ("pdcshape.config", "RunConfig.metadata", "config"),
    ("pdcshape.cli", "main", "cli"),
    ("pdcshape.cli", "run_command", "cli"),
)

#: The function whose calls give ``<layer>.calls``.
COUNTED = {
    "bessel": "bessel_j_table",
    "model.truncation": "truncation_for",
    "model.coeffs": "series_coefficients",
    "model.comb": "amplitude_series",
    "quad": "_amplitude_grid",
    "analysis.tau_max": "find_tau_max",
    "analysis.lobes": "detect_lobes",
}

#: Layers whose self time is reported as ``<layer>.self_s``.
TIMED = ("bessel", "model.truncation", "model.coeffs", "model.comb", "model.curve",
         "quad", "analysis.tau_max", "analysis.sweep", "analysis.lobes",
         "csvio", "config", "cli")

_COMPLEX_BYTES = 16
_FLOAT_BYTES = 8


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _comb_facts(args, kwargs, result) -> dict:
    # amplitude_series(params, filt, trunc, tau): a delays x orders matrix of
    # shifts and one of Gaussians, both float64
    orders = 2 * _arg(args, kwargs, 2, "trunc").max_order + 1
    cells = int(np.size(_arg(args, kwargs, 3, "tau"))) * orders
    return {"cells": cells, "bytes": 2 * _FLOAT_BYTES * cells}


def _rate_facts(args, kwargs, result) -> dict:
    return {"points": int(np.size(_arg(args, kwargs, 3, "tau")))}


def _grid_facts(args, kwargs, result) -> dict:
    # _amplitude_grid returns (values, diffs, intervals, per-level history);
    # level l of L evaluates intervals / 2**(L-1-l) + 1 nodes per delay
    n_taus = int(np.size(_arg(args, kwargs, 2, "taus")))
    _, _, intervals, history = result
    levels = len(history)
    nodes = sum(intervals // 2 ** (levels - 1 - lvl) + 1 for lvl in range(levels))
    chunk = min(getattr(quadrature, "_TAU_CHUNK", n_taus), n_taus)
    return {"levels": levels, "intervals": int(intervals), "cells": n_taus * nodes,
            "chunk_bytes": _COMPLEX_BYTES * chunk * (int(intervals) + 1)}


def _csv_facts(args, kwargs, result) -> dict:
    columns = _arg(args, kwargs, 1, "columns")
    return {"rows": len(columns[0][1]) if columns else 0, "bytes": len(result)}


FACTS = {
    "amplitude_series": _comb_facts,
    "count_rate": _rate_facts,
    "_amplitude_grid": _grid_facts,
    "render_csv": _csv_facts,
}


class Tracer:
    """Installs span-recording wrappers and summarises what they recorded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, facts = self.spans, self._stack, FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if facts is not None:
                rec[4] = facts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, rebinding each pdcshape module name that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "pdcshape" or key.startswith("pdcshape."))]
        self.missing = []
        for module_name, qualname, _ in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(original, attr)
            for holder in ([owner] if owner_name else modules):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per-layer counts, facts and self times of spans[first:last]."""
        spans = self.spans[first:last]
        layer_of = {qual.rpartition(".")[2]: layer for _, qual, layer in TARGETS}
        child_time = [0.0] * len(spans)
        calls: dict[str, int] = {}
        for rec in spans:
            parent = rec[3] - first
            if parent >= 0:
                child_time[parent] += rec[2] - rec[1]
            calls[rec[0]] = calls.get(rec[0], 0) + 1
        self_s = dict.fromkeys(TIMED, 0.0)
        for rec, inner in zip(spans, child_time):
            self_s[layer_of[rec[0]]] += (rec[2] - rec[1]) - inner

        def facts(name: str, key: str) -> list:
            return [rec[4][key] for rec in spans if rec[0] == name and rec[4]]

        tau_max_evals = scan_points = 0
        scanned: set[int] = set()
        for rec in spans:
            parent = rec[3] - first
            if rec[0] == "count_rate" and parent >= 0 and spans[parent][0] == "find_tau_max":
                tau_max_evals += 1
                if parent not in scanned:  # the first evaluation is the coarse scan
                    scanned.add(parent)
                    scan_points += rec[4]["points"]

        out = {f"{layer}.calls": calls.get(fn, 0) for layer, fn in COUNTED.items()}
        out.update({f"{layer}.self_s": self_s[layer] for layer in TIMED})
        out.update({
            "model.comb.cells": sum(facts("amplitude_series", "cells")),
            "model.comb.bytes": max(facts("amplitude_series", "bytes"), default=0),
            "analysis.tau_max.rate_evals": tau_max_evals,
            "analysis.tau_max.scan_points": scan_points,
            "quad.levels": sum(facts("_amplitude_grid", "levels")),
            "quad.intervals": sum(facts("_amplitude_grid", "intervals")),
            "quad.cells": sum(facts("_amplitude_grid", "cells")),
            "quad.chunk_bytes": max(facts("_amplitude_grid", "chunk_bytes"), default=0),
            "csvio.rows": sum(facts("render_csv", "rows")),
            "csvio.bytes": sum(facts("render_csv", "bytes")),
            "trace.spans": len(spans),
        })
        out["calls_by_function"] = calls
        return out
