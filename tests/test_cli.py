import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcshape import (DEFAULT_PARAMS, ConvergenceError, CosinePhaseFilter, ParameterError, cli,
                      csvio, errors, model, quadrature, rate_grid)
from pdcshape.cli import _PRESETS, main
from pdcshape.config import DEFAULTS, read_config_file, resolve_config
from pdcshape.quadrature import DEFAULT_SETTINGS, DeviationReport, _baseline_raw

from conftest import written_csv
from oracles import format_number


def read_lines(path):
    return path.read_text(encoding="ascii").splitlines()


def data_rows(path):
    return [ln for ln in read_lines(path) if not ln.startswith("#")][1:]


# typical ranges of the flags that reach the peak search, and the extremes each may take
_FUZZ_FLAGS = {
    "--alpha": (0.0, 12.0), "--beta": (0.0, 1200.0), "--lambda-nm": (100.0, 1000.0),
    "--u": (1e8, 3e8), "--eps-perp-um": (20.0, 200.0), "--theta-deg": (5.0, 60.0),
    "--light-speed": (1e8, 1e9), "--beta-start": (10.0, 60.0), "--beta-end": (40.0, 90.0),
    "--beta-step": (2.0, 50.0),
}
_EXTREMES = [0.0, -0.0, 5e-324, 1e300, -1e300]
# the curve commands draw from the model flags, and from both ends of a delay window
_MODEL_FLAGS = ["--alpha", "--beta", "--lambda-nm", "--u", "--eps-perp-um", "--theta-deg",
                "--light-speed"]
_CURVE_COMMANDS = [[name, "--method", method] for name in ("curve", "lobes")
                   for method in ("series", "quadrature")] + [["validate"]]
# config keys of the search, the lobes and the quadrature: a typical value, or
# an extreme one (an over-range value, and none where the key allows it)
_KEY_EXTREMES = [5e-324, 1e-300, 1e300]
_CONFIG_KEYS = {
    "trunc_tol": (st.floats(1e-14, 1e-6), [*_KEY_EXTREMES, 0.5]),
    "refine_tol": (st.floats(1e-4, 0.01), [*_KEY_EXTREMES, 0.5]),
    "grid_step": (st.floats(0.1, 1.0), [*_KEY_EXTREMES, 5.0]),
    "search_halfwidth": (st.floats(200.0, 3000.0), [*_KEY_EXTREMES, "none"]),
    "min_lobe_height": (st.floats(0.0, 1.0), [*_KEY_EXTREMES, "none", 2.0]),
    "quad_folds": (st.floats(3.0, 9.0), [*_KEY_EXTREMES, 0.0]),
    "quad_initial_points": (st.sampled_from([64, 1024]), [*_KEY_EXTREMES, 32]),
    "quad_max_points": (st.sampled_from([2**16, 2**20]), [*_KEY_EXTREMES, 2**25]),
    "quad_rel_tol": (st.floats(1e-13, 1e-6), [*_KEY_EXTREMES, 1e-3]),
}
# each command, and the columns of its rates or lobe heights
_CONFIG_COMMANDS = [
    (["tau-max", "--beta", "50"], [2]),
    (["sweep-beta", "--beta-start", "50", "--beta-end", "52", "--beta-step", "0.5"], [2]),
    (["lobes", "--points", "401", "--method", "series"], [1]),
    (["lobes", "--points", "401", "--method", "quadrature"], [1]),
    (["curve", "--method", "quadrature", "--points", "11"], [1]),
    (["fig3", "--points", "201"], [1, 2, 3]),
    (["params"], []),
]


class TestConfigResolution:
    def test_defaults_resolve(self):
        cfg = resolve_config({})
        assert cfg.params.pump_wavelength == 350.0
        assert cfg.params.group_velocity == 2e8
        assert cfg.params.beam_param == 100.0
        assert cfg.params.emission_angle == 15.0
        assert cfg.method == "series"

    def test_flag_beats_config_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# a comment line\n\nbeta = 50\n   \nalpha = 1.5  # trailing comment\n")
        cfg = resolve_config({"beta": 53.0}, f)
        assert cfg.beta == 53.0
        assert cfg.alpha == 1.5

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("bandwidth = 3\n")
        with pytest.raises(ParameterError, match="unknown config key"):
            read_config_file(f)

    def test_malformed_value_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("alpha = fast\n")
        with pytest.raises(ParameterError, match="malformed"):
            read_config_file(f)

    def test_invariant_violation_rejected(self):
        with pytest.raises(ParameterError):
            resolve_config({"theta_deg": 0.0})

    def test_non_finite_config_value_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("search_halfwidth = inf\n")
        with pytest.raises(ParameterError, match="search_halfwidth must be finite"):
            resolve_config({}, f)

    def test_metadata_lists_every_key(self):
        cfg = resolve_config({})
        meta = cfg.metadata()
        for key in set(DEFAULTS) - {"out"}:
            assert key in meta

    def test_precedence_flag_over_preset_over_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("alpha = 3\npoints = 50\nbeta = 60\n")
        cfg = resolve_config({"points": 101}, f, _PRESETS["fig4"])
        assert cfg.alpha == 2.0  # preset over file
        assert cfg.points == 101  # flag over preset
        assert cfg.beta == 60.0  # file over default
        assert cfg.tau_max == 3500.0

    @pytest.mark.parametrize("command", ["params", "curve"])
    def test_csv_header_resolves_to_the_same_settings(self, tmp_path, command):
        f = tmp_path / "run.cfg"
        f.write_text("search_halfwidth = 123.5\nquad_max_points = 2097152\n")
        argv = [command, "--points", "5", "--u", "1.9999e8", "--config", str(f)]
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 0
        header = [ln[2:] for ln in read_lines(out)
                  if ln.startswith("# ") and not ln.startswith("# command = ")]
        assert len(header) == len(DEFAULTS) - 1  # every key but out
        again = tmp_path / "header.cfg"
        again.write_text("\n".join(header) + "\n")
        expected = resolve_config({"points": 5, "u": 1.9999e8}, f).metadata()
        assert resolve_config({}, again).metadata() == expected


class TestCsvFormat:
    def test_nine_significant_digits(self):
        assert format_number(258.81904510252076) == "2.58819045e+02"
        assert format_number(-600.0) == "-6.00000000e+02"
        assert format_number(2401) == "2401"

    def test_render_is_deterministic(self):
        meta = {"b": 2.0, "a": 1.0}
        cols = [("x", np.array([1.0, 2.0])), ("y", np.array([3.0, 4.0]))]
        assert written_csv(meta, cols) == written_csv(meta, cols)
        assert written_csv(meta, cols).startswith("# a = 1.0\n# b = 2.0\nx,y\n")

    def test_float_rows_render_like_format_number(self):
        # row-at-a-time rendering against format_number value by value, across
        # row chunks, with float, int and str columns
        rng = np.random.default_rng(3)
        n = csvio._ROW_CHUNK + 7
        a = rng.normal(size=n) * 10.0 ** rng.integers(-40, 40, size=n)
        a[:6] = [0.0, -0.0, 5e-324, -2.5e-310, 1e-31, -1.234567894e-31]
        b = np.sort(rng.uniform(-3500.0, 3500.0, size=n))
        b[-3:] = [np.float64(2.2250738585072014e-308), 1e-31 / 3, -0.0]
        cols = [("x", a), ("y", b), ("z", b.astype(np.float32)), ("k", np.arange(n)),
                ("s", [f"v{i}" for i in range(n)])]
        expected = ["x,y,z,k,s"] + [",".join(format_number(c[i]) for _, c in cols)
                                    for i in range(n)]
        assert written_csv({}, cols) == "\n".join(expected) + "\n"

    def test_lf_endings_only(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["curve", "--points", "3", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_write_streams_row_chunks(self, tmp_path):
        out = tmp_path / "w.csv"
        n = 2 * csvio._ROW_CHUNK + 5
        cols = [("x", np.linspace(-1.0, 1.0, n)), ("k", np.arange(n))]
        csvio.write_csv(out, {"a": 0.5}, cols)
        expected = ["# a = 0.5", "x,k"] + [",".join(format_number(c[i]) for _, c in cols)
                                           for i in range(n)]
        assert out.read_bytes() == ("\n".join(expected) + "\n").encode("ascii")
        # rendering all 200,000 lines before writing peaked at 12.8 MB; small
        # ints keep tolist from allocating, so the traced run stays short
        cols = [("k", np.arange(200_000) % 200)]
        tracemalloc.start()
        try:
            csvio.write_csv(out, {}, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert out.read_bytes().endswith(b"\n198\n199\n")


class TestCommands:
    def test_params_echoes_defaults(self, tmp_path, capsys):
        out = tmp_path / "params.csv"
        assert main(["params", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "lambda_nm = 350.0" in stdout
        assert "u = 200000000.0" in stdout
        assert "light_speed = 300000000.0" in stdout
        rows = data_rows(out)
        assert any(r.startswith("theta_deg,15.0") for r in rows)

    @pytest.mark.parametrize("command,tables", [("fig4", 1), ("fig3", 3)])
    def test_cold_figure_builds_each_depth_once(self, tmp_path, monkeypatch, cold_truncations,
                                                command, tables):
        # fig4 uses depth 2 at three betas, fig3 depths 0, 2 and 10 at two betas each
        calls = []
        original = model.bessel_j_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(model, "bessel_j_table", counting)
        assert main([command, "--out", str(tmp_path / "f.csv")]) == 0
        assert len(calls) == tables

    def test_curve_row_count_and_header(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["curve", "--points", "3", "--tau-min", "-100",
                     "--tau-max", "100", "--out", str(out)]) == 0
        lines = read_lines(out)
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "tau_fs,rate"
        assert len(data_rows(out)) == 3
        assert any(ln.startswith("# command = curve") for ln in lines)
        assert any(ln.startswith("# light_speed = ") for ln in lines)

    def test_metadata_floats_roundtrip(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["curve", "--points", "3", "--u", "1.9999e8", "--out", str(out)])
        meta = {}
        for ln in read_lines(out):
            if ln.startswith("# "):
                key, _, value = ln[2:].partition(" = ")
                meta[key] = value
        assert float(meta["u"]) == 1.9999e8

    def test_sweep_rows_ascend(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep-beta", "--beta-start", "48", "--beta-end", "49",
                     "--beta-step", "0.25", "--out", str(out)]) == 0
        rows = data_rows(out)
        assert len(rows) == 5
        betas = [float(r.split(",")[0]) for r in rows]
        assert betas == sorted(betas)

    def test_tau_max_zero_depth(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["tau-max", "--alpha", "0", "--beta", "50",
                     "--out", str(out)]) == 0
        beta, tau, rate = (float(v) for v in data_rows(out)[0].split(","))
        assert beta == 50.0
        assert abs(tau) <= 0.01
        assert rate == pytest.approx(1.0, abs=1e-12)

    def test_lobes_command(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["lobes", "--alpha", "2", "--beta", "300", "--tau-min", "-2000",
                     "--tau-max", "2000", "--points", "4001", "--out", str(out)]) == 0
        rows = data_rows(out)
        assert len(rows) >= 2
        header = [ln for ln in read_lines(out) if not ln.startswith("#")][0]
        assert header == "center_fs,height,prominence"

    def test_lobes_on_a_subnormal_step_finds_none(self, tmp_path):
        # a 5e-311 fs step puts the T/4 merge distance at inf samples
        out = tmp_path / "l.csv"
        assert main(["lobes", "--tau-min=0", "--tau-max=1e-310", "--points", "3",
                     "--out", str(out)]) == 0
        assert data_rows(out) == []

    def test_fig3_writes_two_four_column_files(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--points", "401", "--out", str(out)]) == 0
        for beta in (50, 53):
            path = tmp_path / f"fig3_beta{beta}.csv"
            header = [ln for ln in read_lines(path) if not ln.startswith("#")][0]
            assert header == "tau_fs,rate_alpha0,rate_alpha2,rate_alpha10"
            assert len(data_rows(path)) == 401

    def test_fig4_columns(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--points", "1401", "--out", str(out)]) == 0
        header = [ln for ln in read_lines(out) if not ln.startswith("#")][0]
        assert header == "tau_fs,rate_beta50,rate_beta300,rate_beta1000"

    def test_curve_by_quadrature(self, tmp_path):
        a = tmp_path / "q.csv"
        b = tmp_path / "s.csv"
        base = ["curve", "--points", "9", "--tau-min", "-300", "--tau-max", "300"]
        assert main(base + ["--method", "quadrature", "--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        qr = [float(r.split(",")[1]) for r in data_rows(a)]
        sr = [float(r.split(",")[1]) for r in data_rows(b)]
        assert qr == pytest.approx(sr, abs=1e-8)

    def test_quadrature_needs_no_series_cutoff(self, tmp_path):
        # depth 1000 is past the series' 1000-order limit; the quadrature has none
        out = tmp_path / "q.csv"
        assert main(["curve", "--method", "quadrature", "--alpha", "1000", "--points", "5",
                     "--out", str(out)]) == 0
        rates = np.array([float(r.split(",")[1]) for r in data_rows(out)])
        assert rates.size == 5
        assert np.all(np.isfinite(rates))
        assert np.all((rates >= 0.0) & (rates <= 1.0))

    @pytest.mark.parametrize("argv,echo,written", [
        (["params"], [
            "alpha = 2.0", "beta = 50.0", "beta_end = 53.0", "beta_start = 48.0",
            "beta_step = 0.01", "command = params", "eps_perp_um = 100.0", "grid_step = 0.5",
            "lambda_nm = 350.0", "light_speed = 300000000.0", "method = series",
            "min_lobe_height = none", "points = 2401", "quad_folds = 6.0",
            "quad_initial_points = 1024", "quad_max_points = 1048576", "quad_rel_tol = 1e-11",
            "refine_tol = 0.01", "search_halfwidth = none", "tau_max = 600.0",
            "tau_min = -600.0", "theta_deg = 15.0", "trunc_tol = 1e-12", "u = 200000000.0"],
         ["out.csv"]),
        (["curve", "--points", "11"], [], ["out.csv"]),
        (["lobes", "--points", "401"], [], ["out.csv"]),
        (["tau-max"], [], ["out.csv"]),
        (["sweep-beta", "--beta-start", "50", "--beta-end", "51", "--beta-step", "0.5"], [],
         ["out.csv"]),
        (["fig2"], [], ["out.csv"]),
        (["fig3", "--points", "201"], [], ["out_beta50.csv", "out_beta53.csv"]),
        (["fig4", "--points", "201"], [], ["out.csv"]),
        (["validate"], [], ["out.csv"]),
    ], ids=["params", "curve", "lobes", "tau-max", "sweep-beta", "fig2", "fig3", "fig4",
            "validate"])
    def test_stdout_lines(self, tmp_path, capsys, argv, echo, written):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        if argv[0] == "validate":  # its worst difference follows the wrote line
            m = re.fullmatch(r"worst series/quadrature rate difference: (\S+) \(tolerance 1e-08\)",
                             lines.pop())
            assert m is not None
            worst = max(float(row.split(",")[2]) for row in data_rows(out))
            assert m[1] == f"{float(m[1]):.3e}"
            assert float(m[1]) == pytest.approx(worst, rel=1e-3)
        assert lines == echo + [f"wrote {tmp_path / name}" for name in written]

    def test_fig3_writes_its_first_file_before_computing_its_second(self, tmp_path, monkeypatch,
                                                                     capsys):
        clean = tmp_path / "clean"
        clean.mkdir()
        assert main(["fig3", "--points", "201", "--out", str(clean / "fig3.csv")]) == 0
        capsys.readouterr()
        first, second = tmp_path / "fig3_beta50.csv", tmp_path / "fig3_beta53.csv"
        first.write_text("old bytes\n")
        second.mkdir()
        (second / "kept.txt").write_text("kept\n")
        calls = []
        write_csv, sample_curve = cli.write_csv, cli.sample_curve

        def writing(path, *args):
            calls.append(("write", path.name))
            return write_csv(path, *args)

        def sampling(params, filt, *args, **kwargs):
            calls.append(("curve", filt.mod_frequency))
            return sample_curve(params, filt, *args, **kwargs)

        monkeypatch.setattr(cli, "write_csv", writing)
        monkeypatch.setattr(cli, "sample_curve", sampling)
        assert main(["fig3", "--points", "201", "--out", str(tmp_path / "fig3.csv")]) == 4
        captured = capsys.readouterr()
        assert captured.out == f"wrote {first}\n"
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert calls == ([("curve", 50.0)] * 3 + [("write", first.name)]
                         + [("curve", 53.0)] * 3 + [("write", second.name)])
        assert first.read_bytes() == (clean / "fig3_beta50.csv").read_bytes()
        assert [p.name for p in second.iterdir()] == ["kept.txt"]
        assert (second / "kept.txt").read_text() == "kept\n"


class TestExitCodes:
    def test_every_refusal_is_a_parameter_error(self):
        # main maps ParameterError to exit 2, so every other error type must be one
        kinds = [v for v in vars(errors).values()
                 if isinstance(v, type) and issubclass(v, Exception)]
        assert {ParameterError, ConvergenceError} < set(kinds)
        for kind in kinds:
            if kind is not ConvergenceError:
                assert issubclass(kind, ParameterError), kind.__name__

    def test_usage_error_on_bad_angle(self, tmp_path):
        assert main(["curve", "--theta-deg", "0", "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_usage_error_on_unknown_flag(self):
        assert main(["curve", "--frequency", "3"]) == 2

    @pytest.mark.parametrize("argv,config,message", [
        (["curve", "--alpha", "x"], None, "argument --alpha: invalid float value: 'x'"),
        (["curve", "--method", "foo"], None, "argument --method: invalid choice: 'foo'"),
        (["curve", "--frequency", "3"], None, "unrecognized arguments: --frequency 3"),
        ([], None, "the following arguments are required: command"),
        (["bogus"], None, "argument command: invalid choice: 'bogus'"),
        # argparse reads -1e3 as an option; --tau-min=-1e3 is the accepted form
        (["curve", "--tau-min", "-1e3"], None, "argument --tau-min: expected one argument"),
        # refusals of the resolved settings and of the file read the same way
        (["curve"], "method = simpson\n", "method must be one of ('series', 'quadrature')"),
        (["curve"], "alpha 2\n", ":1: expected 'key = value', got 'alpha 2'"),
        (["curve", "--tau-min", "5", "--tau-max", "5"], None, "tau_min must be less than tau_max"),
        (["curve", "--points", "1"], None, "points must be >= 2"),
        (["curve", "--light-speed", "0"], None, "light_speed must be > 0"),
        (["sweep-beta", "--beta-step", "0"], None, "beta_step must be > 0"),
        # a 0.5 fs step is below the float spacing (2 fs) near 1e16 fs
        (["sweep-beta", "--alpha", "2", "--beta-start", "1e16",
          "--beta-end", "10000000000000008", "--beta-step", "0.5"], "search_halfwidth = 1000\n",
         "beta_values must be strictly increasing"),
        # M beta, or the scan window's 2n + 1 delays, overflows: refused with no RuntimeWarning
        (["tau-max", "--beta", "1e308"], None, "the peak scan over +-inf fs"),
        (["sweep-beta", "--beta-start", "1e307", "--beta-end", "1.5e307", "--beta-step", "1e306"],
         None, "the peak scan over +-1.5e+308 fs"),
        (["tau-max"], "search_halfwidth = 1e308\ngrid_step = 1\n",
         "the peak scan over +-1e+308 fs in 1 fs steps needs inf delays"),
        # the sweep's last beta overflows, in its step product or in its sum
        (["sweep-beta", "--beta-start", "0", "--beta-end", "1.7976931348623157e308",
          "--beta-step", "5.992310449541053e307"], None,
         "the sweep's last beta, 0 + 3 * 5.99231e+307 fs, overflows"),
        (["sweep-beta", "--beta-start", "8.988465674311579e307",
          "--beta-end", "1.7976931348623157e308", "--beta-step", "2.9961552247705264e307"], None,
         "the sweep's last beta, 8.98847e+307 + 3 * 2.99616e+307 fs, overflows"),
    ], ids=["bad-float", "bad-choice", "unknown-flag", "no-command", "bad-command",
            "negative-exponent", "config-method", "config-no-equals", "empty-window",
            "one-point", "zero-light-speed", "zero-beta-step", "beta-below-float-spacing",
            "overflowing-beta", "overflowing-sweep", "overflowing-window",
            "overflowing-last-beta-product", "overflowing-last-beta-sum"])
    def test_argparse_refusal_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv,
                                                config, message):
        monkeypatch.chdir(tmp_path)  # where a command that is not refused would write
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", "run.cfg"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("refused,message", [
        (lambda p: model.CorrelationCurve(np.array([]), np.array([]), p),
         "tau_grid must be a non-empty 1-d array"),
        (lambda p: model.CorrelationCurve(np.array([0.0, np.nan]), np.ones(2), p),
         "tau_grid must be finite"),
        (lambda p: rate_grid(p, CosinePhaseFilter(2.0, 50.0), []), "tau_grid must be non-empty"),
        (lambda p: resolve_config({"bogus": 1}), "unknown config keys: ['bogus']"),
    ], ids=["curve-empty", "curve-non-finite", "rate-grid-empty", "unknown-key"])
    def test_library_refusal_is_a_parameter_error(self, params, refused, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            refused(params)

    def test_help_exits_zero(self, capsys):
        assert main(["-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: pdcshape")

    def test_usage_error_on_unknown_config_key(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("chirp = 1\n")
        assert main(["curve", "--config", str(f),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_usage_error_on_undecodable_config(self, tmp_path, capsys):
        f = tmp_path / "latin1.cfg"
        f.write_bytes(b"alpha = 2\xff\n")
        assert main(["params", "--config", str(f), "--out", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {f}: not valid UTF-8 at byte 9\n"

    def test_usage_error_on_clipped_window(self, tmp_path):
        f = tmp_path / "clip.cfg"
        # a window ending on the rising flank toward the +-1000 fs lobes
        f.write_text("search_halfwidth = 800\n")
        assert main(["tau-max", "--alpha", "2", "--beta", "1000", "--config",
                     str(f), "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["tau-max", "--alpha", "2", "--beta", "1000",
                     "--out", str(tmp_path / "y.csv")]) == 0

    def test_validation_failure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr("pdcshape.cli.compare_cells",
                            lambda params, filters, *a, **k: [DeviationReport(1.0, 0.0)
                                                              for _ in filters])
        assert main(["validate", "--out", str(tmp_path / "v.csv")]) == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_usage_error_on_non_finite_flag(self, tmp_path, capsys, value):
        assert main(["sweep-beta", f"--beta-step={value}",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: beta_step must be finite")

    @pytest.mark.parametrize("argv,message", [
        # 5 fs in 1e-300 fs steps
        (["sweep-beta", "--beta-step", "1e-300"],
         "error: a sweep from 48 to 53 fs in 1e-300 fs steps"),
        # the default window at beta = 1e6 fs spans +-1.5e7 fs: ~6e7 delays x 31 orders
        (["tau-max", "--beta", "1e6"],
         "error: the peak scan over +-1.50013e+07 fs in 0.5 fs steps needs 60005179 delays x 31 "
         "series orders = 1.86e+09 cells, over the cap of 16777216; shrink the search window\n"),
        (["curve", "--points", "100000000000000000000"], "error: points must be <="),
        # 1e6 delays x 63 series orders at depth 10
        (["curve", "--alpha", "10", "--points", "1000000"], "error: the curve over"),
        # T = 5.2e10 fs at u = 1 m/s: a 10 fs comparison grid would hold ~5e10 delays
        (["validate", "--u", "1"],
         "error: the comparison grid over +-2.58819e+11 fs in 10 fs steps needs 51763809023 "
         "delays x 1 series orders = 5.18e+10 cells, over the cap of 16777216; use a shorter "
         "correlation time\n"),
        # T = 5.2e6 fs: the depth-0 grids (5.2 M delays) fit the cap, depth 1's do not,
        # and every cell is sized before any computes
        (["validate", "--u", "1e4"], "error: the comparison grid over"),
        # T = 5.2e307 fs: the grid's half-width M beta + 5T overflows to inf
        (["validate", "--eps-perp-um", "1e297", "--u", "0.01"],
         "error: the comparison grid over"),
        # past MAX_ORDER no series cutoff exists, and the Bessel table's DFT would grow with it
        (["curve", "--alpha", "1e7"], "error: filter depth 10000000.0 too large for series"),
        (["curve", "--alpha", "1e300"], "error: filter depth 1e+300 too large for series"),
        # every series column is sized before the 2^24-delay grid is built; fig3's
        # depth-0 column fits the cap, its depth-2 column does not
        (["curve", "--alpha", "2", "--points", "16777216"], "error: the curve over -600 .. 600"),
        (["lobes", "--alpha", "2", "--points", "16777216"], "error: the curve over -600 .. 600"),
        (["fig3", "--points", "16777216"], "error: the curve over -600 .. 600"),
        (["fig4", "--points", "16777216"], "error: the curve over -3500 .. 3500"),
    ], ids=["sweep-beta", "tau-max", "curve-points", "curve-cells", "validate-grid",
            "validate-grid-depth-1", "validate-grid-inf", "curve-depth-1e7", "curve-depth-1e300",
            "curve-grid", "lobes-grid", "fig3-grid", "fig4-grid"])
    def test_usage_error_on_oversized_work(self, tmp_path, capsys, argv, message):
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(tmp_path / "x.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 10_000_000  # refused before anything large is allocated
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags,config,code,message", [
        (["--beta", "1e308"], None, 5, "error: resolving the integrand needs inf intervals"),
        # the strip bound's count stays finite here: about 2 |tau| nu_max / pi
        (["--tau-max", "1e308"], None, 5,
         "error: resolving the integrand needs 2.95e+306 intervals"),
        (["--tau-min=-1e308", "--tau-max", "1e308"], None, 2,
         "error: tau_max - tau_min must be finite"),
        # 8 / 1e-310 overflows, its logarithm does not: the bound sizes the rule,
        # and the halving check cannot reach a tolerance below round-off
        ([], "quad_rel_tol = 1e-310\n", 5, "error: no convergence at 2048 intervals"),
        # a subnormal span is a uniform delay grid: answered, as the series route answers it
        (["--tau-min", "0", "--tau-max", "2.88e-310"], None, 0, None),
        # 100 subnormal steps: the last delay drifts 10 subnormals off the lattice
        (["--tau-min=-2.88e-310", "--tau-max", "2.88e-310", "--points", "101"], None, 0, None),
    ], ids=["beta", "tau-max", "tau-span", "subnormal-tolerance", "subnormal-span",
            "subnormal-span-101"])
    def test_quadrature_overflow_refused(self, tmp_path, capsys, flags, config, code, message):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            flags = [*flags, "--config", str(tmp_path / "run.cfg")]
        assert main(["curve", "--method", "quadrature", "--points", "3", *flags,
                     "--out", str(tmp_path / "x.csv")]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            assert main(["curve", "--points", "3", *flags, "--out", str(tmp_path / "s.csv")]) == 0
            assert data_rows(tmp_path / "x.csv") == data_rows(tmp_path / "s.csv")
            return
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["curve", "--beta", "1e308", "--points", "3"],
        ["fig4", "--light-speed", "1e300", "--lambda-nm", "1e-12"],
        ["lobes", "--light-speed", "1e300", "--lambda-nm", "1e-12"],
        ["tau-max", "--light-speed", "1e300", "--lambda-nm", "1e-12", "--beta", "50"],
        ["sweep-beta", "--light-speed", "1e300", "--lambda-nm", "1e-12"],
        ["fig2", "--light-speed", "1e300", "--lambda-nm", "1e-12"],
    ], ids=["curve", "fig4", "lobes", "tau-max", "sweep-beta", "fig2"])
    def test_overflowing_pump_twist_refused(self, tmp_path, capsys, argv):
        # M beta omega0 / 2 is inf: the series twist would be nan, not a rate
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the pump twist M*beta*omega0/2 at M = ")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_large_finite_pump_twist_served(self, tmp_path):
        # 15 x 1e306 x omega0 / 2 is still finite
        out = tmp_path / "x.csv"
        assert main(["curve", "--beta", "1e306", "--points", "3", "--out", str(out)]) == 0
        rates = [float(row.split(",")[1]) for row in data_rows(out)]
        assert len(rates) == 3 and all(0.0 <= r <= 1.0 for r in rates)

    def test_usage_error_on_huge_quadrature_budget(self, tmp_path, capsys):
        f = tmp_path / "budget.cfg"
        f.write_text("quad_max_points = 1" + "0" * 400 + "\n")
        assert main(["curve", "--method", "quadrature", "--points", "3",
                     "--tau-max", "1e300", "--config", str(f),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: max_points must be <= 16777216\n"

    @pytest.mark.parametrize("command", ["validate", "lobes", "curve"])
    def test_usage_error_on_overflowing_correlation_time(self, tmp_path, capsys, command):
        # 2e9 * eps_perp overflows, so T would be inf
        assert main([command, "--eps-perp-um", "1e300",
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: correlation time T = inf fs must be finite, positive and normal\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["tau-max", "sweep-beta"])
    def test_peak_search_below_resolution_refused(self, tmp_path, capsys, command):
        # T ~ 2.6e-300 fs, far below the 0.5 fs peak-search grid
        assert main([command, "--eps-perp-um", "1e-300",
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid step 0.5 fs is coarser than T/20 = ")
        assert err.count("\n") == 1

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["curve", "--points", "3", "--out", str(missing)]) == 4

    def test_nonconvergence_exit_code(self, tmp_path):
        f = tmp_path / "tight.cfg"
        f.write_text("quad_initial_points = 64\nquad_max_points = 128\n")
        assert main(["curve", "--method", "quadrature", "--points", "5",
                     "--tau-min", "-100000", "--tau-max", "100000",
                     "--config", str(f), "--out", str(tmp_path / "x.csv")]) == 5

    @pytest.mark.parametrize("argv", [
        ["params"],
        ["curve", "--method", "quadrature", "--points", "101"],
        ["tau-max"],
    ], ids=["params", "curve-quadrature", "tau-max"])
    def test_usage_error_on_refused_trunc_tol(self, tmp_path, capsys, argv):
        # checked at resolve time, also by commands that build no series
        f = tmp_path / "tol.cfg"
        f.write_text("trunc_tol = 0.5\n")
        assert main([*argv, "--config", str(f), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: tol must be in (0, 1e-3], got 0.5\n"

    @pytest.mark.parametrize("argv", [
        ["curve", "--method", "quadrature", "--points", "101"],
        ["validate"],
    ], ids=["curve", "validate"])
    def test_round_off_floor_ends_quickly(self, tmp_path, argv):
        # a tolerance below round-off: the one halving check differs by ~1e-16, so
        # the quadrature exits 5 at the first level the error bound sizes.
        # The run is a grandchild, so that RUSAGE_CHILDREN counts it alone; its
        # time is CPU time on one BLAS thread, which other load on the host
        # does not stretch as it does wall time.
        f = tmp_path / "tight.cfg"
        f.write_text("quad_rel_tol = 1e-17\nquad_max_points = 16777216\n")
        measure = ("import resource, subprocess, sys\n"
                   "code = subprocess.run(sys.argv[1:], capture_output=True).returncode\n"
                   "used = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
                   "print(code, used.ru_utime + used.ru_stime, used.ru_maxrss)\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", measure, sys.executable, "-m", "pdcshape",
                               *argv, "--config", str(f), "--out", str(tmp_path / "x.csv")],
                              capture_output=True, text=True, timeout=60, env=env)
        code, cpu_s, peak_kb = proc.stdout.split()
        assert int(code) == 5
        assert float(cpu_s) < 0.5
        assert int(peak_kb) < 100 * 1024

    def test_validate_converges_at_rounding_limited_pump(self, tmp_path, capsys):
        # at 1e-9 nm the pump phase beta omega0 / 2 is ~1e10 rad; unreduced, its
        # rounding noise kept the quadrature's estimates from agreeing (exit 5).
        # Reduced modulo 2 pi once, both routes agree as anywhere.
        assert main(["validate", "--lambda-nm", "1e-9",
                     "--out", str(tmp_path / "v.csv")]) == 0
        assert "worst series/quadrature rate difference" in capsys.readouterr().out

    @pytest.mark.parametrize("folds", ["1", "2", "3"])
    def test_validate_widens_a_narrow_quadrature_window(self, tmp_path, capsys, folds):
        # the window is at least sqrt(ln(8 / quad_rel_tol)) = 5.24 folds, so the
        # Gaussian tail it cuts off stays within the tolerance
        f = tmp_path / "folds.cfg"
        f.write_text(f"quad_folds = {folds}\n")
        assert main(["validate", "--config", str(f), "--out", str(tmp_path / "v.csv")]) == 0
        worst = re.search(r"rate difference: (\S+)", capsys.readouterr().out).group(1)
        assert float(worst) <= 1e-12

    @pytest.mark.parametrize("config,line", [
        # a tolerance below round-off: the first cell's halving check fails
        ("quad_rel_tol = 1e-17\nquad_max_points = 16777216\n",
         r"no convergence at 2048 intervals \(the halving check differs by \S+, not below "
         r"1e-17\): last estimates \S+ vs \S+ at tau=120\.0 fs"),
        # the same first cell, though the last one (depth 10 at 1000 fs) needs more
        # than the 2,048-interval budget: every cell is sized before any computes,
        # and that refusal waits for its own cell
        ("quad_rel_tol = 1e-17\nquad_max_points = 2048\n",
         r"no convergence at 2048 intervals \(the halving check differs by \S+, not below "
         r"1e-17\): last estimates \S+ vs \S+ at tau=120\.0 fs"),
        # only the last cell, the one the strip bound sizes past 2,048 intervals, fails
        ("quad_rel_tol = 1e-15\nquad_max_points = 8192\n",
         r"no convergence at 2052 intervals \(the halving check differs by \S+, not below "
         r"1e-15\): last estimates \S+ vs \S+ at tau=-22060\.0 fs"),
    ], ids=["round-off", "round-off-before-budget", "last-cell"])
    def test_validate_reports_the_first_failing_cell(self, tmp_path, capsys, config, line):
        f = tmp_path / "tight.cfg"
        f.write_text(config)
        assert main(["validate", "--config", str(f), "--out", str(tmp_path / "v.csv")]) == 5
        assert re.fullmatch(f"error: {line}\n", capsys.readouterr().err)

    def test_validate_shares_its_set_up_within_one_call(self, tmp_path, monkeypatch, capsys):
        # a depth's cells share comb calls of up to 8,192 delays (6 calls for the 30
        # cells), and cells of one node set one chirp table; a second validate counts
        # the same again, as nothing is kept between calls
        _baseline_raw(DEFAULT_PARAMS, DEFAULT_SETTINGS)  # memoised, with a table of its own
        counts = {"comb_rates": 0, "_chirp": 0}
        for name in counts:
            original = getattr(quadrature, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(quadrature, name, counting)
        seen = []
        for k in range(2):
            assert main(["validate", "--out", str(tmp_path / f"v{k}.csv")]) == 0
            seen.append(dict(counts))
            counts.update(comb_rates=0, _chirp=0)
        assert seen == [{"comb_rates": 6, "_chirp": 1}] * 2
        assert (tmp_path / "v0.csv").read_bytes() == (tmp_path / "v1.csv").read_bytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", ["1e-300", "1e-12"])
    @pytest.mark.parametrize("argv,column", [
        (["tau-max", "--alpha", "2", "--beta", "50"], 2),
        (["curve", "--points", "201"], 1),
        (["curve", "--points", "201", "--method", "quadrature"], 1),
    ], ids=["tau-max", "curve", "curve-quadrature"])
    def test_rates_stay_at_most_one_at_tiny_wavelength(self, tmp_path, lam, argv, column):
        # the pump phase reaches ~1e305 rad at 1e-300 nm; |A| <= 1 holds exactly,
        # so no printed rate may exceed 1 by more than round-off
        out = tmp_path / "x.csv"
        assert main([*argv, "--lambda-nm", lam, "--out", str(out)]) == 0
        rates = [float(row.split(",")[column]) for row in data_rows(out)]
        assert rates and all(0.0 <= r <= 1.0 + 1e-9 for r in rates)

    @pytest.mark.filterwarnings("error")
    def test_quadrature_refuses_overflowing_pump_phase(self, tmp_path, capsys):
        # beta omega0 / 2 = 100 x 3.1e306 overflows: exit 2 at once, as the
        # series route does, rather than NaN weights spending the whole budget
        assert main(["curve", "--method", "quadrature", "--points", "3", "--beta", "100",
                     "--light-speed", "1e300", "--lambda-nm", "1e-12",
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the pump twist M*beta*omega0/2 at M = 1, beta = 100 fs")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_peak_search_commands_answer_or_refuse(self, tmp_path_factory, data):
        # tau-max or sweep-beta with 1-3 flags, each a typical value or an extreme
        # one; a sweep's own range is 48 .. 53 fs in 2 fs steps, and the typical
        # range values keep an accepted sweep to at most 46 betas
        out = tmp_path_factory.getbasetemp() / "fuzz.csv"
        command = data.draw(st.sampled_from([["tau-max"], ["sweep-beta", "--beta-step", "2"]]))
        flags = data.draw(st.lists(st.sampled_from(sorted(_FUZZ_FLAGS)), min_size=1, max_size=3,
                                   unique=True))
        argv = [*command]
        for flag in flags:
            lo, hi = _FUZZ_FLAGS[flag]
            value = data.draw(st.one_of(st.floats(lo, hi), st.sampled_from(_EXTREMES)))
            argv.append(f"{flag}={value!r}")
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        assert time.process_time() - start < 1.0, argv
        assert code in (0, 2), argv
        if code == 2:
            assert stderr.getvalue().startswith("error: "), argv
            assert stderr.getvalue().count("\n") == 1, argv
        else:
            rates = [float(row.split(",")[2]) for row in data_rows(out)]
            assert rates and all(math.isfinite(r) and 0.0 <= r <= 1.0 + 1e-9 for r in rates), argv

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_curve_commands_answer_or_refuse(self, tmp_path_factory, data):
        # curve or lobes by either method, or validate, with 1-3 model flags and a
        # delay window, each value typical or extreme
        out = tmp_path_factory.getbasetemp() / "fuzz_curve.csv"
        argv = list(data.draw(st.sampled_from(_CURVE_COMMANDS)))
        if argv[0] != "validate":
            argv.append(f"--points={data.draw(st.sampled_from([2, 3, 11, 101]))}")
        flags = data.draw(st.lists(st.sampled_from(_MODEL_FLAGS), min_size=1, max_size=3,
                                   unique=True))
        extreme = st.sampled_from([*_EXTREMES, 1e-300])
        for flag in flags:
            lo, hi = _FUZZ_FLAGS[flag]
            argv.append(f"{flag}={data.draw(st.one_of(st.floats(lo, hi), extreme))!r}")
        for flag, lo, hi in (("--tau-min", -5000.0, -1.0), ("--tau-max", 1.0, 5000.0)):
            argv.append(f"{flag}={data.draw(st.one_of(st.floats(lo, hi), extreme))!r}")
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        assert time.process_time() - start < 1.0, argv
        assert code in (0, 2, 3, 5), argv
        if code in (2, 5):
            assert stderr.getvalue().startswith("error: "), argv
            assert stderr.getvalue().count("\n") == 1, argv
        elif code == 0 and argv[0] != "validate":
            # a curve's rates, or the lobes' heights (a 2-point curve has none)
            rates = [float(row.split(",")[1]) for row in data_rows(out)]
            assert rates or argv[0] == "lobes", argv
            assert all(math.isfinite(r) and 0.0 <= r <= 1.0 + 1e-9 for r in rates), argv

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_config_keys_answer_or_refuse(self, tmp_path_factory, data):
        # a config file of 1-3 search, lobe and quadrature keys, each value
        # typical or extreme, read by one of six commands
        base = tmp_path_factory.getbasetemp()
        cfg, out = base / "fuzz_keys.cfg", base / "fuzz_keys.csv"
        argv, columns = data.draw(st.sampled_from(_CONFIG_COMMANDS))
        keys = data.draw(st.lists(st.sampled_from(sorted(_CONFIG_KEYS)), min_size=1, max_size=3,
                                  unique=True))
        lines = []
        for key in keys:
            typical, extremes = _CONFIG_KEYS[key]
            value = data.draw(st.one_of(typical, st.sampled_from(extremes)))
            lines.append(f"{key} = {value}")
        cfg.write_text("\n".join(lines) + "\n")
        written = [out] if argv[0] != "fig3" else [out.with_name(f"fuzz_keys_beta{b}.csv")
                                                   for b in (50, 53)]
        for path in written:
            path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", str(cfg), "--out", str(out)])
        assert time.process_time() - start < 1.0, (argv, lines)
        assert code in (0, 2, 5), (argv, lines)
        if code in (2, 5):
            assert stderr.getvalue().startswith("error: "), (argv, lines)
            assert stderr.getvalue().count("\n") == 1, (argv, lines)
        else:
            for path in written:
                rates = [float(row.split(",")[c]) for row in data_rows(path) for c in columns]
                assert all(math.isfinite(r) and 0.0 <= r <= 1.0 + 1e-9 for r in rates), (argv,
                                                                                         lines)


class TestDeterminism:
    def test_parser_reuse_leaks_no_value(self, tmp_path, capsys):
        # one parser serves every call in a process: each call sees only its own flags
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 60\n")
        runs = [(["--alpha", "3", "--method", "quadrature", "--config", str(cfg)],
                 {"alpha": "3.0", "beta": "60.0", "method": "quadrature"}),
                ([], {"alpha": "2.0", "beta": "50.0", "method": "series"}),
                (["--beta", "53"], {"alpha": "2.0", "beta": "53.0", "method": "series"}),
                ([], {"alpha": "2.0", "beta": "50.0", "method": "series"})]
        for k, (flags, expected) in enumerate(runs):
            out = tmp_path / f"p{k}.csv"
            assert main(["params", *flags, "--out", str(out)]) == 0
            echoed = dict(ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines()
                          if " = " in ln)
            assert {key: echoed[key] for key in expected} == expected
        assert main(["curve", "--points", "3", "--out", str(tmp_path / "c.csv")]) == 0
        assert main(["params", "--out", str(tmp_path / "q.csv")]) == 0
        assert "points = 2401" in capsys.readouterr().out

    def test_curve_bytes_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["curve", "--alpha", "2", "--beta", "50", "--points", "801"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_bytes_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-beta", "--beta-start", "48", "--beta-end", "48.5",
                "--beta-step", "0.1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_console_entry_point(tmp_path):
    out = tmp_path / "p.csv"
    # -X importtime lists every module the run imports on stderr
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "pdcshape", "params",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
    assert "lambda_nm = 350.0" in proc.stdout
    # numpy is the one run-time dependency: scipy.special alone added ~0.27 s and
    # ~20 MB to every command's start, scipy.signal ~1 s and ~50 MB
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")]
    assert "numpy" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("argv", [
    ["tau-max", "--beta", "50"],
    ["sweep-beta", "--beta-start", "49.9", "--beta-end", "50.1", "--beta-step", "0.1"],
])
def test_refine_tol_below_float_resolution_ends(tmp_path, argv):
    # the bracket around tau_max = -41.85 fs at beta 50 fs stops narrowing at
    # that delay's float spacing, 7.1e-15 fs, far above this refine_tol
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("refine_tol = 1e-17\n")
    proc = subprocess.run([sys.executable, "-m", "pdcshape", *argv, "--config", str(cfg),
                           "--out", str(tmp_path / "o.csv")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
