"""Self-test of the benchmark's correctness checks.

Usage, from the root of a checkout: python3 perfbench/selfcheck.py

Runs one round of each workload (the pulse on its H transition only, since
the V run fails on a known fault), confirms that every check accepts the
real outputs, and confirms that it rejects deliberately corrupted ones: a
flux scaled by 1 + 1e-4, a swapped channel, and a phase step off by 0.05.
Exits 0 when every corruption is rejected and every real output accepted.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import run  # sets single-threaded BLAS before numpy loads

sys.path.insert(0, str(run.SRC))

from ioncavity.io_utils import format_number  # noqa: E402

from workloads import Entangle, Pulse, Spectrum  # noqa: E402

SCALE = 1 + 1e-4


def spectrum_cases(out):
    work = Spectrum(0, out / "spectrum")
    table, summary = work.read(work.run_op("fig4", 0))
    scaled = dict(table, rate_h_hz=[format_number(float(x) * SCALE) for x in table["rate_h_hz"]])
    swapped = dict(table, rate_h_hz=table["rate_v_hz"], rate_v_hz=table["rate_h_hz"])
    yield "spectrum", True, work.check_outputs(table, summary)
    yield "spectrum, H flux x (1 + 1e-4)", False, work.check_outputs(scaled, summary)
    yield "spectrum, H and V swapped", False, work.check_outputs(swapped, summary)


def pulse_cases(out):
    work = Pulse(0, out / "pulse")
    probs, summary = work.read(work.run_op("H", 0))
    channel, ref = work.reference_efficiencies("H")
    relabelled = dict(summary, designated_channel="V")
    yield "pulse H", True, work.check_outputs(probs, summary, channel, ref)
    yield "pulse H, flux x (1 + 1e-4)", False, work.check_outputs(probs * SCALE, summary, channel, ref)
    yield "pulse H, H and V swapped", False, work.check_outputs(probs[::-1], summary, channel, ref)
    yield "pulse H, designated channel swapped", False, work.check_outputs(
        probs, relabelled, channel, ref
    )


def entangle_cases(out):
    work = Entangle()
    base = work.run_op("base", 0)
    rerun = work.run_op("rerun", 0)
    off = dataclasses.replace(rerun, coherence_phase=rerun.coherence_phase + 0.05)
    p_h, p_v = rerun.channel_probabilities["H"], rerun.channel_probabilities["V"]
    unbalanced = dataclasses.replace(rerun, channel_probabilities={"H": 1.5 * p_h, "V": 0.5 * p_v})
    yield "entangle base", True, work.check_report(base)
    yield "entangle rerun", True, work.check_report(rerun, base)
    yield "entangle rerun, phase step + 0.05", False, work.check_report(off, base)
    yield "entangle rerun, H/V rates unbalanced", False, work.check_report(unbalanced, base)


def main() -> int:
    out = run.OUT / "selfcheck"
    shutil.rmtree(out, ignore_errors=True)
    wrong = 0
    for cases in (spectrum_cases, pulse_cases, entangle_cases):
        for label, should_pass, problems in cases(out):
            passed = not problems
            verdict = "ok" if passed == should_pass else "WRONG"
            wrong += passed != should_pass
            outcome = "accepted" if passed else f"rejected: {problems[0]}"
            print(f"{verdict:5} {label}: {outcome}")
    print(f"selfcheck: {'all checks behave' if not wrong else f'{wrong} checks misbehave'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
