"""The numpy CSV renderer against format_number, value by value, and how a file is written."""

import math
import os
import resource
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcshape import csvio
from pdcshape.cli import main
from pdcshape.csvio import write_csv

from conftest import written_csv
from oracles import format_number


def assert_renders_like_format_number(values):
    values = np.asarray(values)
    lines = written_csv({}, [("x", values)]).split("\n")
    assert lines[0] == "x" and lines[-1] == ""
    assert lines[1:-1] == [format_number(v) for v in values]


def near_ties(k: int, j: int, sign: int) -> list[float]:
    """(k + 1/2) 10^j with its two float neighbours: 9-digit mantissas a hair off a tie."""
    tie = sign * (k + 0.5) * 10.0 ** j
    return [math.nextafter(tie, -math.inf), tie, math.nextafter(tie, math.inf)]


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
SPECIALS = st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324])
WIDE_EXPONENTS = st.builds(lambda m, sign: sign * m,
                           st.floats(1e100, 1e300) | st.floats(1e-300, 1e-100),
                           st.sampled_from([1.0, -1.0]))
NEAR_TIES = st.builds(near_ties, st.integers(10**8, 10**9 - 1), st.integers(-300, 290),
                      st.sampled_from([1, -1]))


class TestFloatRenderer:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(FLOATS | SPECIALS | WIDE_EXPONENTS, min_size=1, max_size=40),
           st.lists(NEAR_TIES, max_size=12))
    def test_float64_like_format_number(self, values, ties):
        assert_renders_like_format_number(values + [v for t in ties for v in t])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(width=32, allow_subnormal=True), min_size=1, max_size=40))
    def test_float32_like_format_number(self, values):
        assert_renders_like_format_number(np.array(values, dtype=np.float32))

    def test_exponent_round_up(self):
        # the mantissa rounds to 10^9 and carries into the exponent
        assert written_csv({}, [("x", np.array([9.9999999995e5, 999999999.5]))]) == (
            "x\n1.00000000e+06\n1.00000000e+09\n")

    def test_log10_off_by_one_below_powers_of_ten(self):
        values = [math.nextafter(10.0 ** k, 0.0) for k in (-250, -5, 1, 5, 22, 23, 100, 250)]
        assert_renders_like_format_number(values + [-v for v in values])

    def test_near_ties(self):
        # the binary values sit just above and just below the decimal tie
        assert written_csv({}, [("x", np.array([1.234567895, 1.000000005]))]) == (
            "x\n1.23456790e+00\n1.00000000e+00\n")
        assert_renders_like_format_number(near_ties(123456789, 0, 1)
                                          + near_ties(999999999, -300, -1)
                                          + near_ties(100000000, 290, 1))

    def test_range_edges(self):
        edges = [1e-290, math.nextafter(1e-290, 1.0), math.nextafter(1e-290, 0.0),
                 1e290, math.nextafter(1e290, 0.0), math.nextafter(1e290, math.inf),
                 2.2250738585072014e-308, 1.7976931348623157e308]
        assert_renders_like_format_number(edges + [-v for v in edges])

    def test_zeros_and_non_finite(self):
        assert written_csv({}, [("x", np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))]) == (
            "x\n0.00000000e+00\n-0.00000000e+00\ninf\n-inf\nnan\n")


class TestOtherColumns:
    def test_int64_extremes(self):
        info = np.iinfo(np.int64)
        values = np.array([info.min, info.min + 1, -1, 0, 1, info.max])
        assert_renders_like_format_number(values)

    def test_bool_and_str_columns(self):
        cols = [("b", np.array([True, False])), ("s", ["", "a b"]), ("k", [7, -8])]
        assert written_csv({}, cols) == "b,s,k\nTrue,,7\nFalse,a b,-8\n"

    def test_mixed_widths_across_blocks(self):
        n = 2 * csvio._ROW_CHUNK + 17  # three blocks, the last one short
        rng = np.random.default_rng(5)
        cols = [("s", [f"v{'w' * (i % 13)}" for i in range(n)]),
                ("x", rng.normal(size=n) * 10.0 ** rng.integers(-120, 120, size=n)),
                ("k", np.arange(n) * 7919)]
        expected = ["s,x,k"] + [",".join(format_number(c[i]) for _, c in cols)
                                for i in range(n)]
        assert written_csv({"a": 1}, cols) == "# a = 1\n" + "\n".join(expected) + "\n"

    def test_fig4_sized_write_holds_one_block(self, tmp_path):
        # 14,001 rows x 4 float columns: only one block's fields exist at a
        # time (1.19 MB traced in 4,096-row blocks, 2.37 MB in 8,192-row ones)
        rng = np.random.default_rng(9)
        cols = [(f"x{j}", rng.normal(size=14001)) for j in range(4)]
        tracemalloc.start()
        try:
            write_csv(tmp_path / "fig4.csv", {"a": 1}, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak

    def test_zero_rows_give_the_header_alone(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_csv(out, {"a": 0.5}, [("x", np.array([])), ("k", np.array([], dtype=int))])
        assert out.read_bytes() == b"# a = 0.5\nx,k\n"

    def test_lobes_without_a_lobe_writes_the_header_alone(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_lobe_height = 1e300\n")
        out = tmp_path / "lobes.csv"
        assert main(["lobes", "--points", "401", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text(encoding="ascii").splitlines()
        assert lines[-1] == "center_fs,height,prominence"

    def test_length_mismatch_refused_before_the_file_opens(self, tmp_path):
        out = tmp_path / "never.csv"
        with pytest.raises(ValueError, match="length 2 != 3"):
            write_csv(out, {}, [("x", np.zeros(3)), ("y", np.zeros(2))])
        assert not out.exists()


class TestReplacingWrite:
    """A CSV goes to a new file that then takes the target's place."""

    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path):
        # a 100,000 B file-size limit, in the child alone, fails the write
        # part way (EFBIG, with SIGXFSZ ignored); the target keeps its bytes
        # and no partial file is left beside it
        target = tmp_path / "curve.csv"
        target.write_bytes(b"old bytes\n")

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

        proc = subprocess.run([sys.executable, "-m", "pdcshape", "curve", "--points", "100001",
                               "--out", str(target)], preexec_fn=limit_file_size,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == "error: [Errno 27] File too large\n"
        assert target.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

    def test_new_file_has_the_mode_of_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.open("wb").close()
        write_csv(tmp_path / "x.csv", {}, [("x", np.zeros(3))])
        assert stat.S_IMODE((tmp_path / "x.csv").stat().st_mode) == stat.S_IMODE(
            plain.stat().st_mode)

    def test_symlink_target_is_written_through(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_bytes(b"old bytes\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        write_csv(link, {"a": 1}, [])
        assert link.is_symlink() and real.read_bytes() == b"# a = 1\n\n"

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        write_csv(fifo, {"a": 1}, [("x", np.array([1.0]))])
        reader.join(timeout=10)
        assert got == [b"# a = 1\nx\n1.00000000e+00\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_dev_null_is_written_in_place(self, capsys):
        assert main(["curve", "--points", "3", "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
