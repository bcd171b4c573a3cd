#!/usr/bin/env python3
"""Regenerate the three preset datasets plus the cross-check report.

Writes fig2.csv, fig3_beta50.csv, fig3_beta53.csv, fig4.csv and validate.csv
into --outdir (default ./out).  Plotting is left to whatever tool you like;
the CSVs are self-describing.
"""

import argparse
import sys
from pathlib import Path

from pdcshape.cli import main as pdcshape_main


def run() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for command in ("fig2", "fig3", "fig4", "validate"):
        code = pdcshape_main([command, "--out", str(args.outdir / f"{command}.csv")])
        if code != 0:
            print(f"{command} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
