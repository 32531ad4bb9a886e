#!/usr/bin/env python3
"""Regenerate every bundled figure dataset into ./out/figures.

Runs the CLI `reproduce` subcommand for each bundled configuration.
The spectrum and pulse figures run master-equation solves and take a
few minutes each; pass figure ids as arguments to run a subset. Plots
are drawn when matplotlib is installed; without it the data files are
still written.
"""

import sys

from ioncavity.cli import REPRODUCE_COMMAND, main

FIGURES = list(REPRODUCE_COMMAND)


def run(figures, out="out/figures", plot=None):
    """Reproduce ``figures`` into ``out``; return {figure: exit code} of the failed ones.

    ``plot=None`` plots exactly when matplotlib imports.
    """
    if plot is None:
        try:
            import matplotlib  # noqa: F401
        except ImportError:
            print("matplotlib is not installed: writing data files without plots")
            plot = False
        else:
            plot = True
    failures = {}
    for figure in figures:
        argv = ["--out", str(out)]
        if plot:
            argv.append("--plot")
        argv += ["reproduce", figure]
        print(f"=== {figure} ===")
        code = main(argv)
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
