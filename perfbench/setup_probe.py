"""Time one cold set-up in a fresh process: import, atom data, config merge.

Usage: python3 perfbench/setup_probe.py SRC_DIR [--figure FIG | --config PATH]

Prints the elapsed seconds, from before `import ioncavity` to after the
workload's configuration is merged, as its only line of output.
"""

import sys
import time


def main(argv):
    t0 = time.perf_counter()
    sys.path.insert(0, argv[0])
    import ioncavity.cli as cli
    import ioncavity.experiments  # noqa: F401  (the drivers every workload uses)
    from ioncavity.atom import load_atom

    load_atom()
    if argv[1:2] == ["--figure"]:
        cli.merge_config(cli._bundled_config(argv[2]))
    elif argv[1:2] == ["--config"]:
        cli.load_config(argv[2])
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
