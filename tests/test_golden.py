"""Golden values of both solver kernels, to solver tolerance.

`tests/data/golden_solvers.json` holds values captured from the sparse
steady state and the DP5 integrator as they stood before the
reachable-subspace restriction: the bundled fig4 spectrum (rates at three
grid points and every peak position), the 2 us sigma-minus H pulse and the
calibrated 1 us bichromatic entanglement, with the DP5 step and rejection
counts of every `evolve` call they make. A later solver change must
reproduce them to GOLDEN_REL and repeat the step counts exactly; the
acceptance bands elsewhere are far too wide to catch such a regression.

The whole-report entries (`entangle_report`, `map`, `entangle_check_overlap`)
were captured from the two-tone drivers as they stood before
`entangle_bichromatic` and `map_state` were merged into one driver: the
joint matrix, emission and channel probabilities, fidelities, coherence
phase, calibration and warnings of each run. The single-tone pulses of
`entangle_check_overlap` (efficiency, leak fraction and DP5 counts) were
rewritten when each lone tone moved onto its own line; they had been
driven at the detuning calibrated for both tones together.

The `spectrum_fig5` and `n_max2` entries were captured before the spectrum
scan shared one reduction and changed its LU ordering: the bundled fig5
spectrum (the sigma-minus beam), chosen as for fig4, and the H/V flux of one
n_max = 2 steady state.

The `pulse`, `map` and `entangle_check_overlap` entries pin DP5's own error
and step counts on static generators too, so their tests send static blocks
to the DP5 loop (the `dp5_static` fixture), and so does their regeneration.
The `exact_pulse`, `exact_positivity` and `exact_dark_manifold` entries hold
the 2 us pulse and the runs of `test_positivity_along_trajectory` and
`test_dark_manifold_accumulation` propagated by the dense `expm` of the
reachable block at the output spacing (as `perfbench/reference.py` propagates
a pulse), with the largest difference from DP5 at rtol = 1e-11 that was
measured when they were captured.

The `thermal_rabi_fig9` entry holds both curves of `reproduce fig9` (the
Doppler and the sideband-cooled carrier Rabi flops, 800 times each), captured
from the brute-force sum over every occupation triple before `thermal_rabi`
summed the axial mode in closed form. They are compared to 1e-12 absolute.

Regenerate only when the physics is meant to change, never to make this
test pass. Name the entries to rewrite; the others are left as they are:

    PYTHONPATH=src python tests/test_golden.py map entangle_report
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ioncavity import cli, experiments
from ioncavity.atom import load_atom
from ioncavity.constants import TWO_PI, mhz
from ioncavity.hilbert import HilbertLayout, vec
from ioncavity.lindblad import Trajectory, build_liouvillian, evolve, photon_flux, steady_state
from ioncavity.polarization import Polarization
from ioncavity.raman import RamanSetting, enumerate_paths
from ioncavity.system import beam_b_polarization, standard_model

from conftest import send_static_blocks_to_dp5

GOLDEN = Path(__file__).parent / "data" / "golden_solvers.json"
GOLDEN_REL = 1e-9
THERMAL_RABI_ABS = 1e-12
DP5_PINNED = ("pulse", "map", "entangle_check_overlap")


@contextmanager
def recorded(name, summary):
    """Collect ``summary(result)`` of every call the drivers make to ``experiments.<name>``."""
    values = []
    original = getattr(experiments, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        values.append(summary(result))
        return result

    setattr(experiments, name, recording)
    try:
        yield values
    finally:
        setattr(experiments, name, original)


def recorded_evolve_counts():
    """Collect [n_steps, n_rejected] of every `evolve` call the drivers make."""
    return recorded("evolve", lambda traj: [traj.n_steps, traj.n_rejected])


def recorded_pulses():
    """Collect [total_efficiency, leak_fraction] of every `photon_pulse` the drivers run."""
    return recorded("photon_pulse", lambda shape: [shape.total_efficiency, shape.leak_fraction])


def spectrum_values(figure="fig4"):
    """A bundled spectrum: H/V rates nearest its strongest peak per channel and its weakest; all peaks."""
    cfg = cli.merge_config(cli._bundled_config(figure))
    _, _, scan = cli._spectrum_scan(cfg)
    peaks = experiments.find_peaks(scan)
    chosen = [
        max(same, key=lambda p: p.height)
        for same in ([p for p in peaks if p.channel == ch] for ch in ("H", "V"))
        if same
    ]
    chosen.append(min(peaks, key=lambda p: p.height))
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


def spectrum_fig5_values():
    """fig5, the sigma-minus beam (beam B), chosen as for fig4."""
    return spectrum_values("fig5")


def n_max2_values():
    """H/V flux (no dark counts) of one n_max = 2 steady state at the weak-excitation
    point of acceptance 8: 2pi x 6 MHz sigma-minus drive on the S1/2,-1/2 -> D5/2,-5/2 line."""
    rabi = mhz(6.0)
    setting = RamanSetting(
        b_gauss=4.77,
        orientation="perpendicular",
        drive_polarization=beam_b_polarization(),
        drive_rabi=rabi,
        delta_cav=mhz(-400.0),
    )
    line = next(
        ln for ln in enumerate_paths(setting) if (ln.initial.two_m, ln.final.two_m) == (-1, -5)
    )
    model = standard_model(
        drive_rabi=rabi,
        drive_detuning=line.detuning,
        drive_polarization=beam_b_polarization(),
        repump_854_rabi=mhz(2.0),
        repump_866_rabi=mhz(2.0),
    )
    layout = HilbertLayout(atom=model.atom, n_max=2)
    ss = steady_state(build_liouvillian(model, layout), check_unique=False)
    flux = photon_flux(ss, layout, model.cavity.kappa, model.detection, include_dark=False)
    return {"detuning": line.detuning, "flux_h_hz": float(flux[0]), "flux_v_hz": float(flux[1])}


def pulse_model():
    """sigma-minus drive on the S1/2,-1/2 -> D5/2,-5/2 (H) line, repumps off."""
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
    return standard_model(
        drive_rabi=rabi,
        drive_detuning=line.detuning,
        drive_polarization=beam_b_polarization(),
        repump_854_rabi=0.0,
        repump_866_rabi=0.0,
    )


def pulse_shape(**options):
    """The 2 us pulse of `pulse_model` in 200 ns bins."""
    return experiments.photon_pulse(
        pulse_model(), 2e-6, bin_width=200e-9, designated_channel="H", **options
    )


def pulse_values():
    """2 us sigma-minus pulse on the S1/2,-1/2 -> D5/2,-5/2 (H) line, repumps off."""
    with recorded_evolve_counts() as counts:
        shape = pulse_shape()
    return {
        "total_efficiency": shape.total_efficiency,
        "leak_fraction": shape.leak_fraction,
        "dp5_steps_rejected": counts,
    }


def entangle_run():
    """Calibrated 1 us bichromatic run at 2pi x 25 MHz on tone 1, with its DP5 counts."""
    with recorded_evolve_counts() as counts:
        report = experiments.entangle_bichromatic(rabi_tone1=TWO_PI * 25e6, duration=1e-6)
    return report, counts


def entangle_values(run=None):
    report, counts = run or entangle_run()
    return {
        "fidelity_max": report.fidelity_max,
        "coherence_phase": report.coherence_phase,
        "dp5_steps_rejected": counts,
    }


def report_record(report, counts):
    """Every number of a `JointStateReport`, plus the DP5 counts of its run."""
    return {
        "joint_re": report.joint.real.tolist(),
        "joint_im": report.joint.imag.tolist(),
        "emission_probability": report.emission_probability,
        "channel_probabilities": dict(report.channel_probabilities),
        "fidelity": report.fidelity,
        "fidelity_max": report.fidelity_max,
        "coherence_phase": report.coherence_phase,
        "calibration": {k: float(v) for k, v in report.calibration.items()},
        "warnings": list(report.warnings),
        "dp5_steps_rejected": counts,
    }


def entangle_report_values(run=None):
    return report_record(*(run or entangle_run()))


def map_values():
    """2 us state mapping at 2pi x 25 MHz: calibrated alpha = pi/4 and uncalibrated alpha = 0."""
    kwargs = dict(rabi_tone1=TWO_PI * 25e6, duration=2e-6)
    values = {}
    for name, alpha, calibrate in (("calibrated_pi_4", math.pi / 4, True), ("alpha_0", 0.0, False)):
        with recorded_evolve_counts() as counts:
            report = experiments.map_state(alpha, 0.0, calibrate=calibrate, **kwargs)
        values[name] = report_record(report, counts)
    return values


def check_overlap_values():
    """Uncalibrated 6 us entangle run at 2pi x 40 MHz with the single-tone overlap check."""
    with warnings.catch_warnings(record=True) as caught, recorded_pulses() as pulses:
        warnings.simplefilter("always")
        with recorded_evolve_counts() as counts:
            report = experiments.entangle_bichromatic(
                rabi_tone1=TWO_PI * 40e6, duration=6e-6, rtol=1e-5, t_points=40,
                calibrate=False, check_overlap=True,
            )
    return {
        **report_record(report, counts),
        "raised_warnings": [str(w.message) for w in caught],
        "single_tone_pulses": pulses,
    }


def exact_evolve(liouv, rho0, t_grid, **_):
    """`evolve` by the dense `expm` of the reachable block at the (uniform) output
    spacing, applied once per interval."""
    t_grid = np.asarray(t_grid, dtype=float)
    spacing = np.diff(t_grid)
    assert np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0)
    y = vec(rho0).astype(complex)
    block = liouv.restrict(np.flatnonzero(y))
    step = scipy.linalg.expm(block.static_part.toarray() * spacing[0])
    vectors = [y[block.keep]]
    for _ in spacing:
        vectors.append(step @ vectors[-1])
    return Trajectory(
        times=t_grid, keep=block.keep, dim=liouv.dim, vectors=np.array(vectors),
        n_steps=0, n_rejected=0, max_trace_drift=0.0,
    )


def fine_dp5_evolve(liouv, rho0, t_grid, **_):
    """`evolve` on its DP5 loop at rtol = 1e-11, the cross-check of `exact_evolve`."""
    with pytest.MonkeyPatch.context() as patch:
        send_static_blocks_to_dp5(patch)
        return evolve(liouv, rho0, t_grid, rtol=1e-11)


def largest_difference(got, want):
    """max |got - want| over the largest |want|."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.abs(got - want).max() / np.abs(want).max())


def exact_pulse_values():
    """Bin probabilities, efficiency and leak of the 2 us pulse, by `exact_evolve`."""
    values = {}
    for name, propagate in (("exact", exact_evolve), ("dp5", fine_dp5_evolve)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "evolve", propagate)
            shape = pulse_shape()
        values[name] = {
            "probabilities": shape.probabilities.tolist(),
            "total_efficiency": shape.total_efficiency,
            "leak_fraction": shape.leak_fraction,
        }
    exact = values["exact"]
    exact["dp5_rtol_1e-11_difference"] = largest_difference(
        values["dp5"]["probabilities"], exact["probabilities"]
    )
    return exact


def positivity_run():
    """The run of `test_positivity_along_trajectory`: 2pi x 99 MHz sigma-minus drive,
    repumps on, 5 us from |S1/2,-1/2>."""
    atom = load_atom()
    model = standard_model(drive_rabi=mhz(99.0), drive_detuning=-mhz(407.0),
                           drive_polarization=beam_b_polarization(), atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    rho0 = layout.basis_state(atom.state("S1/2", -0.5))
    return build_liouvillian(model, layout), rho0, np.linspace(0.0, 5e-6, 26)


def dark_manifold_run():
    """The run of `test_dark_manifold_accumulation`: no drive, 8 us from |D5/2,-5/2>."""
    atom = load_atom()
    model = standard_model(drive_rabi=0.0, drive_detuning=0.0, atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    rho0 = layout.basis_state(atom.state("D5/2", -2.5))
    return build_liouvillian(model, layout), rho0, np.linspace(0.0, 8e-6, 9)


def populations(traj):
    """The diagonal of rho at every output time: shape (times, dim)."""
    return traj._entries(np.arange(traj.dim) * (traj.dim + 1)).real


def exact_run_values(run):
    liouv, rho0, t_grid = run()
    exact = populations(exact_evolve(liouv, rho0, t_grid))
    fine = populations(fine_dp5_evolve(liouv, rho0, t_grid))
    return {
        "populations": exact.tolist(),
        "dp5_rtol_1e-11_difference": largest_difference(fine, exact),
    }


def exact_positivity_values():
    return exact_run_values(positivity_run)


def exact_dark_manifold_values():
    return exact_run_values(dark_manifold_run)


def thermal_rabi_fig9_values():
    """Both curves of `reproduce fig9`: Doppler (10, 5, 5) and the bundled sideband-cooled nbar."""
    cfg = cli.merge_config(cli._bundled_config("fig9"))
    r = cfg["rabi"]
    rabi0, t = cli._rabi_grid(cfg)
    return {
        "doppler": experiments.thermal_rabi(rabi0, r["eta"], cli.DOPPLER_NBAR, t).tolist(),
        "sideband_cooled": experiments.thermal_rabi(rabi0, r["eta"], tuple(r["nbar"]), t).tolist(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_rel(value, expected, what):
    err = abs(value - expected) / abs(expected)
    assert err <= GOLDEN_REL, f"{what}: {value!r} vs golden {expected!r} (rel. {err:.2e})"


def _report_scalars(record):
    names = ("emission_probability", "fidelity", "fidelity_max", "coherence_phase")
    scalars = {k: record[k] for k in names}
    scalars.update({f"p_{ch}": p for ch, p in record["channel_probabilities"].items()})
    scalars.update(record["calibration"])
    return scalars


def assert_report(got, want, what):
    """Step counts and warnings exactly; numbers to GOLDEN_REL.

    A number whose golden value is exactly zero (an untouched calibration
    shift, the phase of a vanishing coherence) must stay exactly zero. The
    joint matrix is compared entry by entry relative to its largest entry,
    since some entries are zero or at rounding level by construction.
    """
    assert got["dp5_steps_rejected"] == want["dp5_steps_rejected"], what
    assert got["warnings"] == want["warnings"], what
    joint = np.array(got["joint_re"]) + 1j * np.array(got["joint_im"])
    golden_joint = np.array(want["joint_re"]) + 1j * np.array(want["joint_im"])
    err = np.abs(joint - golden_joint).max() / np.abs(golden_joint).max()
    assert err <= GOLDEN_REL, f"{what} joint matrix (rel. {err:.2e})"
    scalars, values = _report_scalars(want), _report_scalars(got)
    assert values.keys() == scalars.keys(), what
    for key, expected in scalars.items():
        if expected == 0.0:
            assert values[key] == 0.0, f"{what} {key}: {values[key]!r}, golden exactly 0"
        else:
            assert_rel(values[key], expected, f"{what} {key}")


def assert_spectrum(got, want):
    assert [p["index"] for p in got["points"]] == [p["index"] for p in want["points"]]
    for g, w in zip(got["points"], want["points"]):
        assert g["detuning"] == w["detuning"]
        assert_rel(g["rate_h_hz"], w["rate_h_hz"], f"H rate at point {w['index']}")
        assert_rel(g["rate_v_hz"], w["rate_v_hz"], f"V rate at point {w['index']}")
    assert [p["channel"] for p in got["peaks"]] == [p["channel"] for p in want["peaks"]]
    for g, w in zip(got["peaks"], want["peaks"]):
        assert_rel(g["detuning"], w["detuning"], f"{w['channel']} peak position")


def test_golden_spectrum(golden):
    assert_spectrum(spectrum_values(), golden["spectrum"])


def test_golden_spectrum_fig5(golden):
    assert_spectrum(spectrum_fig5_values(), golden["spectrum_fig5"])


def test_golden_n_max2(golden):
    got, want = n_max2_values(), golden["n_max2"]
    assert got["detuning"] == want["detuning"]
    assert_rel(got["flux_h_hz"], want["flux_h_hz"], "n_max = 2 H flux")
    assert_rel(got["flux_v_hz"], want["flux_v_hz"], "n_max = 2 V flux")


def test_golden_pulse(golden, dp5_static):
    got, want = pulse_values(), golden["pulse"]
    assert got["dp5_steps_rejected"] == want["dp5_steps_rejected"]
    assert_rel(got["total_efficiency"], want["total_efficiency"], "H-pulse efficiency")
    assert_rel(got["leak_fraction"], want["leak_fraction"], "H-pulse leak fraction")


def test_golden_entangle(golden):
    run = entangle_run()
    got, want = entangle_values(run), golden["entangle"]
    assert got["dp5_steps_rejected"] == want["dp5_steps_rejected"]
    assert_rel(got["fidelity_max"], want["fidelity_max"], "entangle fidelity_max")
    assert_rel(got["coherence_phase"], want["coherence_phase"], "entangle coherence phase")
    assert_report(entangle_report_values(run), golden["entangle_report"], "entangle report")


def test_golden_map(golden, dp5_static):
    got, want = map_values(), golden["map"]
    assert got.keys() == want.keys()
    for name in want:
        assert_report(got[name], want[name], f"map {name}")


def test_golden_entangle_check_overlap(golden, dp5_static):
    """The single-tone overlap check: same pulses, same warning outcome, same report."""
    got, want = check_overlap_values(), golden["entangle_check_overlap"]
    assert got["raised_warnings"] == want["raised_warnings"]
    assert len(got["single_tone_pulses"]) == len(want["single_tone_pulses"]) == 2
    for g, w in zip(got["single_tone_pulses"], want["single_tone_pulses"]):
        assert_rel(g[0], w[0], "single-tone pulse efficiency")
        assert_rel(g[1], w[1], "single-tone pulse leak fraction")
    assert_report(got, want, "entangle with overlap check")


EXACT_REL = 1e-10  # the propagator of static blocks against the dense-expm references


def test_golden_exact_pulse(golden):
    """The 2 us pulse on the default path: bin probabilities within EXACT_REL of the
    largest, efficiency and leak within EXACT_REL relative."""
    want, shape = golden["exact_pulse"], pulse_shape()
    assert largest_difference(shape.probabilities, want["probabilities"]) <= EXACT_REL
    for key in ("total_efficiency", "leak_fraction"):
        value = getattr(shape, key)
        assert abs(value - want[key]) <= EXACT_REL * abs(want[key]), key


@pytest.mark.parametrize("name, run", [("exact_positivity", positivity_run),
                                       ("exact_dark_manifold", dark_manifold_run)])
def test_golden_exact_runs(golden, name, run):
    """Every population at every output time within EXACT_REL of the largest."""
    liouv, rho0, t_grid = run()
    got = populations(evolve(liouv, rho0, t_grid))
    assert largest_difference(got, golden[name]["populations"]) <= EXACT_REL


def test_golden_thermal_rabi_fig9(golden):
    """Both fig9 curves to 1e-12 absolute, and no excitation at zero pulse length."""
    got, want = thermal_rabi_fig9_values(), golden["thermal_rabi_fig9"]
    for curve in ("doppler", "sideband_cooled"):
        values, expected = np.array(got[curve]), np.array(want[curve])
        assert values.shape == expected.shape, curve
        assert values[0] == 0.0, f"{curve} at t = 0: {values[0]!r}"
        err = np.abs(values - expected).max()
        assert err <= THERMAL_RABI_ABS, f"{curve}: largest difference {err:.2e}"


ENTRIES = {
    "spectrum": spectrum_values,
    "spectrum_fig5": spectrum_fig5_values,
    "n_max2": n_max2_values,
    "pulse": pulse_values,
    "entangle": entangle_values,
    "entangle_report": entangle_report_values,
    "map": map_values,
    "entangle_check_overlap": check_overlap_values,
    "thermal_rabi_fig9": thermal_rabi_fig9_values,
    "exact_pulse": exact_pulse_values,
    "exact_positivity": exact_positivity_values,
    "exact_dark_manifold": exact_dark_manifold_values,
}


if __name__ == "__main__":
    names = sys.argv[1:] or list(ENTRIES)
    unknown = sorted(set(names) - set(ENTRIES))
    if unknown:
        sys.exit(f"unknown golden entries {unknown}; choose from {list(ENTRIES)}")
    values = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names:
        with pytest.MonkeyPatch.context() as patch:
            if name in DP5_PINNED:
                send_static_blocks_to_dp5(patch)
            values[name] = ENTRIES[name]()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n", newline="\n")
    print(f"wrote {', '.join(names)} to {GOLDEN}")
