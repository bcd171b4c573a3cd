"""Deterministic CSV emission: `# key = value` metadata, then data columns.

Data numbers use scientific notation with 9 significant digits; metadata
floats use repr so a run can be reconstructed bit-exactly from the header.
Rewriting the same result produces identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Rows formatted per batch, so that only this many rows of Python floats from
# tolist, and of rendered lines, exist at once.
_ROW_CHUNK = 1024


def _meta_str(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_blocks(metadata: dict, columns: list[tuple[str, np.ndarray]]):
    """The CSV text in consecutive pieces: the header, then _ROW_CHUNK rows at a time."""
    lines = [f"# {key} = {_meta_str(metadata[key])}" for key in sorted(metadata)]
    lines.append(",".join(name for name, _ in columns))
    n_rows = len(columns[0][1]) if columns else 0
    for name, values in columns:
        if len(values) != n_rows:
            raise ValueError(f"column {name!r} length {len(values)} != {n_rows}")
    yield "\n".join(lines) + "\n"
    # %.8e for float columns, %s for the rest: picked once per column, one string op per row
    arrays = [np.asarray(values) for _, values in columns]
    row = ",".join("%.8e" if a.dtype.kind == "f" else "%s" for a in arrays) + "\n"
    for lo in range(0, n_rows, _ROW_CHUNK):
        chunk = zip(*(a[lo:lo + _ROW_CHUNK].tolist() for a in arrays))
        yield "".join(row % r for r in chunk)


def render_csv(metadata: dict, columns: list[tuple[str, np.ndarray]]) -> str:
    return "".join(_render_blocks(metadata, columns))


def write_csv(path: str | Path, metadata: dict,
              columns: list[tuple[str, np.ndarray]]) -> None:
    """Write the CSV block by block, with LF endings regardless of platform."""
    blocks = _render_blocks(metadata, columns)
    header = next(blocks)  # a column length mismatch raises here, before the file opens
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header)
        fh.writelines(blocks)
