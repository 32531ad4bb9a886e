"""Golden values of both solver kernels, to solver tolerance.

`tests/data/golden_solvers.json` holds values captured from the sparse
steady state and the DP5 integrator as they stood before the
reachable-subspace restriction: the bundled fig4 spectrum (rates at three
grid points and every peak position), the 2 us sigma-minus H pulse and the
calibrated 1 us bichromatic entanglement, with the DP5 step and rejection
counts of every `evolve` call they make. A later solver change must
reproduce them to GOLDEN_REL and repeat the step counts exactly; the
acceptance bands elsewhere are far too wide to catch such a regression.

Regenerate only when the physics is meant to change, never to make this
test pass:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from ioncavity import cli, experiments
from ioncavity.constants import TWO_PI, mhz
from ioncavity.polarization import Polarization
from ioncavity.raman import RamanSetting, enumerate_paths
from ioncavity.system import beam_b_polarization, standard_model

GOLDEN = Path(__file__).parent / "data" / "golden_solvers.json"
GOLDEN_REL = 1e-9


@contextmanager
def recorded_evolve_counts():
    """Collect [n_steps, n_rejected] of every `evolve` call the drivers make."""
    counts = []
    original = experiments.evolve

    def recording(*args, **kwargs):
        traj = original(*args, **kwargs)
        counts.append([traj.n_steps, traj.n_rejected])
        return traj

    experiments.evolve = recording
    try:
        yield counts
    finally:
        experiments.evolve = original


def spectrum_values():
    """fig4: H/V rates nearest the strongest H, strongest V and weakest peak; all peaks."""
    cfg = cli.merge_config(cli._bundled_config("fig4"))
    _, _, scan = cli._spectrum_scan(cfg, SimpleNamespace(jobs=1))
    peaks = experiments.find_peaks(scan)
    chosen = [
        max((p for p in peaks if p.channel == "H"), key=lambda p: p.height),
        max((p for p in peaks if p.channel == "V"), key=lambda p: p.height),
        min(peaks, key=lambda p: p.height),
    ]
    points = sorted({int(abs(scan.detunings - p.detuning).argmin()) for p in chosen})
    return {
        "points": [
            {
                "index": i,
                "detuning": float(scan.detunings[i]),
                "rate_h_hz": float(scan.rates[0, i]),
                "rate_v_hz": float(scan.rates[1, i]),
            }
            for i in points
        ],
        "peaks": [{"channel": p.channel, "detuning": p.detuning} for p in peaks],
    }


def pulse_values():
    """2 us sigma-minus pulse on the S1/2,-1/2 -> D5/2,-5/2 (H) line, repumps off."""
    rabi = mhz(106.0)
    setting = RamanSetting(
        b_gauss=4.77,
        orientation="perpendicular",
        drive_polarization=Polarization.sigma_minus(),
        drive_rabi=rabi,
        delta_cav=mhz(-400.0),
    )
    line = next(
        ln for ln in enumerate_paths(setting)
        if ln.initial.label == "S1/2,-1/2" and ln.final.label == "D5/2,-5/2"
    )
    model = standard_model(
        drive_rabi=rabi,
        drive_detuning=line.detuning,
        drive_polarization=beam_b_polarization(),
        repump_854_rabi=0.0,
        repump_866_rabi=0.0,
    )
    with recorded_evolve_counts() as counts:
        shape = experiments.photon_pulse(model, 2e-6, bin_width=200e-9, designated_channel="H")
    return {
        "total_efficiency": shape.total_efficiency,
        "leak_fraction": shape.leak_fraction,
        "dp5_steps_rejected": counts,
    }


def entangle_values():
    """Calibrated 1 us bichromatic run at 2pi x 25 MHz on tone 1."""
    with recorded_evolve_counts() as counts:
        report = experiments.entangle_bichromatic(rabi_tone1=TWO_PI * 25e6, duration=1e-6)
    return {
        "fidelity_max": report.fidelity_max,
        "coherence_phase": report.coherence_phase,
        "dp5_steps_rejected": counts,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_rel(value, expected, what):
    err = abs(value - expected) / abs(expected)
    assert err <= GOLDEN_REL, f"{what}: {value!r} vs golden {expected!r} (rel. {err:.2e})"


def test_golden_spectrum(golden):
    got, want = spectrum_values(), golden["spectrum"]
    assert [p["index"] for p in got["points"]] == [p["index"] for p in want["points"]]
    for g, w in zip(got["points"], want["points"]):
        assert g["detuning"] == w["detuning"]
        assert_rel(g["rate_h_hz"], w["rate_h_hz"], f"H rate at point {w['index']}")
        assert_rel(g["rate_v_hz"], w["rate_v_hz"], f"V rate at point {w['index']}")
    assert [p["channel"] for p in got["peaks"]] == [p["channel"] for p in want["peaks"]]
    for g, w in zip(got["peaks"], want["peaks"]):
        assert_rel(g["detuning"], w["detuning"], f"{w['channel']} peak position")


def test_golden_pulse(golden):
    got, want = pulse_values(), golden["pulse"]
    assert got["dp5_steps_rejected"] == want["dp5_steps_rejected"]
    assert_rel(got["total_efficiency"], want["total_efficiency"], "H-pulse efficiency")
    assert_rel(got["leak_fraction"], want["leak_fraction"], "H-pulse leak fraction")


def test_golden_entangle(golden):
    got, want = entangle_values(), golden["entangle"]
    assert got["dp5_steps_rejected"] == want["dp5_steps_rejected"]
    assert_rel(got["fidelity_max"], want["fidelity_max"], "entangle fidelity_max")
    assert_rel(got["coherence_phase"], want["coherence_phase"], "entangle coherence phase")


if __name__ == "__main__":
    values = {"spectrum": spectrum_values(), "pulse": pulse_values(), "entangle": entangle_values()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n", newline="\n")
    print(f"wrote {GOLDEN}")
