"""Deterministic CSV emission: `# key = value` metadata, then data columns.

Data numbers use scientific notation with 9 significant digits; metadata
floats use repr so a run can be reconstructed bit-exactly from the header.
Rewriting the same result produces identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Rows formatted per batch, so that only this many rows of Python floats from
# tolist exist at once; every rendered line is still kept until the final join.
_ROW_CHUNK = 1024


def _meta_str(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(metadata: dict, columns: list[tuple[str, np.ndarray]]) -> str:
    lines = [f"# {key} = {_meta_str(metadata[key])}" for key in sorted(metadata)]
    lines.append(",".join(name for name, _ in columns))
    if columns:
        n_rows = len(columns[0][1])
        for name, values in columns:
            if len(values) != n_rows:
                raise ValueError(f"column {name!r} length {len(values)} != {n_rows}")
        # %.8e for float columns, %s for the rest: picked once per column, one string op per row
        arrays = [np.asarray(values) for _, values in columns]
        row = ",".join("%.8e" if a.dtype.kind == "f" else "%s" for a in arrays)
        for lo in range(0, n_rows, _ROW_CHUNK):
            chunk = zip(*(a[lo:lo + _ROW_CHUNK].tolist() for a in arrays))
            lines.extend(row % r for r in chunk)
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, metadata: dict,
              columns: list[tuple[str, np.ndarray]]) -> None:
    """Write the rendered CSV with LF endings regardless of platform."""
    content = render_csv(metadata, columns)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(content)
