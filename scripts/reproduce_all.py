#!/usr/bin/env python3
"""Regenerate every bundled figure dataset and its SVG plot into ./out/figures.

Runs the CLI `reproduce --plot` subcommand for each bundled configuration.
The spectrum and pulse figures run master-equation solves and take a
few minutes each; pass figure ids as arguments to run a subset.
"""

import sys

from ioncavity.cli import REPRODUCE_COMMAND, main

FIGURES = list(REPRODUCE_COMMAND)


def run(figures, out="out/figures"):
    """Reproduce ``figures`` into ``out``; return {figure: exit code} of the failed ones."""
    failures = {}
    for figure in figures:
        print(f"=== {figure} ===")
        code = main(["--out", str(out), "--plot", "reproduce", figure])
        if code != 0:
            failures[figure] = code
    return failures


if __name__ == "__main__":
    wanted = sys.argv[1:] or FIGURES
    unknown = sorted(set(wanted) - set(FIGURES))
    if unknown:
        sys.exit(f"unknown figure ids: {unknown}; choose from {FIGURES}")
    failures = run(wanted)
    if failures:
        sys.exit(f"failed: {failures}")
    print("all figures reproduced")
