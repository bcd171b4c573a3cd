"""Deterministic CSV emission: `# key = value` metadata, then data columns.

Data numbers use scientific notation with 9 significant digits, exactly as
Python's `'%.8e' %` renders them; other data cells are rendered as `str()`
would; metadata floats use repr so a run can be reconstructed bit-exactly
from the header.  Rewriting the same result produces identical bytes.

The body is rendered in numpy, `_ROW_CHUNK` rows at a time, into one array
of little-endian 8-byte words per block: each column writes its field, NUL
padded, straight into its own words of each row (a float's two, with a
third for the separator), the last byte of a field's last word takes the
',' or '\\n' that follows it, and `bytes.translate` drops the block's NULs.

A float's exponent e is floor(log10|x|), its 9-digit mantissa |x| / 10^(e-8)
rounded to an integer, and a mantissa that rounds to 10^9 carries into the
exponent; the digits and the exponent come from lookup tables of their
bytes.  log10 can put e one off only within ~1e-13 of a power of ten, where
the scaled value lies within 1e-3 of 1e8 or of 1e9 and so rounds to the
same field either way.  The scaling divides by a correctly rounded power of
ten, so the scaled value is within 3e-7 of exact, and only a value whose
scaled fraction lies within 1e-6 of one half could round the other way.
Such near-ties, |x| outside (1e-290, 1e290) (which holds +-0 and
subnormals) and non-finite values go through `'%.8e' %` instead; no other
value does.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

import numpy as np

# Rows per block: only this many rows of fields exist at once (8,192 raised peak RSS).
_ROW_CHUNK = 4096


def _words(texts: list[str]) -> np.ndarray:
    """Each text of at most 8 ASCII bytes as one little-endian word, NUL-padded."""
    return np.array(texts, dtype="S8").view("<u8")


# _SCALE holds 10^(k-8), correctly rounded, and _EXP the bytes of exponent
# k, at k + _BIAS: the fast path needs |k| <= 300, where both are normal
_BIAS = 300
_SCALE = np.array([float(f"1e{k - 8}") for k in range(-_BIAS, _BIAS + 1)])
# A float field is two words: bytes 0-7 hold the sign (or NUL), the leading
# digit, '.' and mantissa digits 1-5; bytes 8-15 hold digits 6-8 and the
# exponent.  Each table maps a 3-digit group of the 9-digit mantissa, or an
# exponent, to its bytes in place, so a field is one OR of table entries;
# _LEAD's second thousand entries carry the minus sign.
_LEAD = _words([f"{c}{g // 100}.{g % 100:02d}" for c in "\0-" for g in range(1000)])
_MID = _words([f"\0\0\0\0\0{g:03d}" for g in range(1000)])
_TAIL = _words([f"{g:03d}" for g in range(1000)])
_EXP = _words([f"\0\0\0e{e:+03d}" for e in range(-_BIAS, _BIAS + 1)])
# OR-ed into the top byte of a field's last word, which is always NUL
_COMMA, _NEWLINE = (np.uint64(ord(c)) << np.uint64(56) for c in ",\n")


def _meta_str(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _float_words(x: np.ndarray, out: np.ndarray) -> None:
    """Each value as `'%.8e' %` renders it, into out's (n, 2) words."""
    a = np.abs(x)
    fast = (a > 1e-290) & (a < 1e290)
    if not fast.all():
        a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp) + _BIAS
    s = a / _SCALE[e]
    m = np.rint(s).astype(np.int64)
    if m.max() == 1_000_000_000:
        carry = m == 1_000_000_000
        m[carry] = 100_000_000
        e += carry
    fast &= np.abs(s - np.floor(s) - 0.5) >= 1e-6
    thousands = m // 1000
    lead = thousands // 1000
    mid = thousands - 1000 * lead
    neg = x < 0
    if neg.any():
        lead += 1000 * neg
    np.bitwise_or(_LEAD[lead], _MID[mid], out=out[:, 0])
    np.bitwise_or(_TAIL[m - 1000 * thousands], _EXP[e], out=out[:, 1])
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.array(["%.8e" % v for v in x[slow].tolist()], dtype="S16")
        out[slow] = text.view("<u8").reshape(len(slow), 2)


def _render_body(arrays: list[np.ndarray]) -> bytes:
    """One block of rows: the columns' fields, joined with ',' and '\\n', NULs dropped."""
    cells = [a if a.dtype.kind == "f" else a.astype("S") for a in arrays]
    widths = [3 if c.dtype.kind == "f" else c.itemsize // 8 + 1 for c in cells]
    ends = np.cumsum(widths)
    words = np.zeros((len(cells[0]), ends[-1]), dtype="<u8")
    for c, width, end in zip(cells, widths, ends):
        if c.dtype.kind == "f":
            _float_words(c.astype(np.float64, copy=False), words[:, end - 3:end - 1])
        else:  # str()'s bytes, NUL-padded; the last byte stays NUL
            words[:, end - width:end].view(np.uint8)[:, :c.itemsize] = (
                c.view(np.uint8).reshape(len(c), c.itemsize))
    words[:, ends[:-1] - 1] |= _COMMA
    words[:, -1] |= _NEWLINE
    return words.tobytes().translate(None, b"\0")


@contextlib.contextmanager
def _replacing(path: str | Path):
    """A binary file whose bytes take path's place once the block ends without error.

    They go to a new file beside the target, which os.replace then puts in its
    place, so a write that fails leaves the target's old bytes and no partial
    file.  It is opened "xb", so it gets the mode a plain open gives.  A
    symlink's file is replaced, not the link, and a target that exists and is
    not a regular file (/dev/null, a FIFO) is written in place.
    """
    if os.path.islink(path):
        path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_csv(path: str | Path, metadata: dict,
              columns: list[tuple[str, np.ndarray]]) -> None:
    """Write the header, then _ROW_CHUNK rows at a time, with LF endings on every
    platform; a write that fails leaves the file as it was (_replacing)."""
    n_rows = len(columns[0][1]) if columns else 0
    for name, values in columns:  # refused before the file opens
        if len(values) != n_rows:
            raise ValueError(f"column {name!r} length {len(values)} != {n_rows}")
    lines = [f"# {key} = {_meta_str(metadata[key])}" for key in sorted(metadata)]
    lines.append(",".join(name for name, _ in columns))
    header = ("\n".join(lines) + "\n").encode("ascii")
    arrays = [np.asarray(values) for _, values in columns]
    with _replacing(path) as fh:
        fh.write(header)
        for lo in range(0, n_rows, _ROW_CHUNK):
            fh.write(_render_body([a[lo:lo + _ROW_CHUNK] for a in arrays]))
