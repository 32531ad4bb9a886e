"""End-to-end acceptance suite.

One test per top-level criterion; each prints a PASS/FAIL line with the
measured numbers before asserting, so a red criterion still reports its
evidence (run with ``pytest -s`` to see the lines live). The heavy
master-equation fixtures are module-scoped and shared.
"""

import dataclasses
import math

import numpy as np
import pytest

from ioncavity.atom import load_atom
from ioncavity.cavity import CavityGeometry, coupling_rate, max_coupling, mode_waist
from ioncavity.constants import TWO_PI, mhz, to_mhz
from ioncavity.experiments import (
    annotate_peaks,
    entangle_bichromatic,
    find_peaks,
    map_state,
    photon_pulse,
    raman_spectrum,
    ramsey_fringe,
    spectrum_grid,
    thermal_rabi,
)
from ioncavity.hilbert import HilbertLayout
from ioncavity.lindblad import build_liouvillian, evolve, state_population, steady_state
from ioncavity.localization import (
    ScanDataset,
    coupling_reduction,
    fit_waist_scan,
    visibility_to_sigma,
    waist_scan_model,
)
from ioncavity.polarization import Polarization
from ioncavity.raman import (
    RamanSetting,
    effective_coupling,
    effective_decay,
    enumerate_paths,
)
from ioncavity.system import beam_a_polarization, beam_b_polarization, gamma_pd_amplitude, standard_model

from conftest import coupling_reduction_quadrature, khz, oscillation_contrast

ATOM = load_atom()
DELTA_CAV = -mhz(400.0)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def beam_setting(polarization, rabi):
    return RamanSetting(
        b_gauss=4.77,
        orientation="perpendicular",
        drive_polarization=polarization,
        drive_rabi=rabi,
        delta_cav=DELTA_CAV,
        atom=ATOM,
    )


# -- shared heavy fixtures -----------------------------------------------------


@pytest.fixture(scope="module")
def beam_a_scan():
    setting = beam_setting(beam_a_polarization(), mhz(88.0))
    lines = enumerate_paths(setting)
    grid = spectrum_grid(lines)
    model = standard_model(
        drive_rabi=mhz(88.0),
        drive_detuning=float(grid[0]),
        drive_polarization=beam_a_polarization(),
        atom=ATOM,
    )
    scan = raman_spectrum(model, grid, check_unique_first=True)
    return lines, scan


@pytest.fixture(scope="module")
def beam_b_scan():
    setting = beam_setting(beam_b_polarization(), mhz(99.0))
    lines = enumerate_paths(setting)
    grid = spectrum_grid(lines)
    model = standard_model(
        drive_rabi=mhz(99.0),
        drive_detuning=float(grid[0]),
        drive_polarization=beam_b_polarization(),
        atom=ATOM,
    )
    scan = raman_spectrum(model, grid, check_unique_first=True)
    return lines, scan


@pytest.fixture(scope="module")
def photon_pulse_80us():
    setting = beam_setting(beam_b_polarization(), mhz(106.0))
    lines = {(l.initial.two_m, l.final.two_m): l for l in enumerate_paths(setting)}
    line = lines[(-1, -5)]
    model = standard_model(
        drive_rabi=mhz(106.0),
        drive_detuning=line.detuning,
        drive_polarization=beam_b_polarization(),
        repump_854_rabi=0.0,
        repump_866_rabi=0.0,
        atom=ATOM,
    )
    return photon_pulse(model, 80e-6, bin_width=200e-9, designated_channel="H")


@pytest.fixture(scope="module")
def entangle_reports():
    base = entangle_bichromatic(
        rabi_tone1=mhz(25.0), duration=40e-6, relative_phase=0.0, rtol=1e-6, t_points=200
    )
    shifted = entangle_bichromatic(
        rabi_tone1=mhz(25.0),
        duration=40e-6,
        relative_phase=0.7,
        rtol=1e-6,
        t_points=200,
        calibration=base.calibration,
    )
    return base, shifted


# -- criterion 1: cavity geometry ------------------------------------------------


def _round_trip_waist(geom):
    """Waist from the self-consistent q of the round-trip ABCD matrix.

    Independent of ``mode_waist``: the round trip starts at the symmetric
    resonator's mid-plane, where q = i z_R, so z_R = sqrt(-B/C) and
    w0 = sqrt(lambda z_R / pi).
    """
    half = np.array([[1.0, geom.length / 2], [0.0, 1.0]])
    full = np.array([[1.0, geom.length], [0.0, 1.0]])
    mirror = np.array([[1.0, 0.0], [-2.0 / geom.mirror_radius, 1.0]])
    (_, b), (c, _) = half @ mirror @ full @ mirror @ half
    return math.sqrt(geom.wavelength * math.sqrt(-b / c) / math.pi)


def test_acceptance_1_cavity_geometry():
    """The cavity layer reproduces the quoted 13.2 um waist and 2pi x 1.43 MHz g0.

    The waist hinges on 2R - L = 0.08 mm. Rounding alone in the quoted
    19.96 mm and 10.02 mm leaves it anywhere in [0.065, 0.095] mm, so the
    waist is known only to about +-5%. The quoted waist is therefore
    judged against the waist interval of that rounding box rather than
    against the nominal value alone: w0 falls with L and rises with R
    near concentricity, so the box's four corners bound the interval.
    """
    geom = CavityGeometry(
        length=19.96e-3, mirror_radius=10.02e-3, wavelength=854e-9, kappa=khz(50)
    )
    gamma = gamma_pd_amplitude(ATOM)
    w0 = mode_waist(geom)
    g0 = max_coupling(geom, gamma)

    abcd_rel = abs(w0 / _round_trip_waist(geom) - 1.0)
    half_digit = 0.005e-3  # half a unit in the last quoted digit of L and R
    corners = [
        mode_waist(
            dataclasses.replace(
                geom, length=geom.length + dl, mirror_radius=geom.mirror_radius + dr
            )
        )
        for dl in (-half_digit, half_digit)
        for dr in (-half_digit, half_digit)
    ]
    w_lo, w_hi = min(corners), max(corners)
    g0_quoted_waist = coupling_rate(geom.length, 13.2e-6, geom.wavelength, gamma)
    g0_nominal_waist = coupling_rate(geom.length, w0, geom.wavelength, gamma)

    abcd_ok = abcd_rel <= 1e-9
    w0_ok = w_lo <= 13.2e-6 <= w_hi
    g0_quoted_ok = abs(to_mhz(g0_quoted_waist) - 1.43) <= 0.005
    g0_consistent = abs(g0 / g0_nominal_waist - 1.0) <= 1e-12
    g0_ok = abs(g0 - TWO_PI * 1.43e6) <= 0.01 * TWO_PI * 1.43e6
    report(
        1,
        abcd_ok and w0_ok and g0_quoted_ok and g0_consistent and g0_ok,
        f"waist {w0*1e6:.4f} um (ABCD round trip agrees to {abcd_rel:.1e}); "
        f"rounding box of L, R spans [{w_lo*1e6:.2f}, {w_hi*1e6:.2f}] um, "
        f"quoted 13.2 um {'inside' if w0_ok else 'outside'}; "
        f"g0 at 13.2 um 2pi x {to_mhz(g0_quoted_waist):.4f} MHz vs 1.43 "
        f"({'ok' if g0_quoted_ok else 'out'}); "
        f"g0 at nominal waist 2pi x {to_mhz(g0):.4f} MHz vs 1.43 +-1% ({'ok' if g0_ok else 'out'})",
    )
    assert abcd_ok
    assert w0_ok
    assert g0_quoted_ok
    assert g0_consistent
    assert g0_ok


# -- criterion 2: transition-strength tables --------------------------------------


def test_acceptance_2_strength_tables():
    from test_raman import oracle_strength  # brute-force sympy CG x projection
    from ioncavity.polarization import CavityModeBasis

    perp = beam_setting(Polarization.sigma_minus(), mhz(99.0))
    lines = {(l.initial.m, l.final.m): l for l in enumerate_paths(perp)}
    basis = CavityModeBasis.for_orientation("perpendicular")
    pair_perp = (lines[(-0.5, -2.5)].amplitude, lines[(-0.5, -1.5)].amplitude)
    oracle_perp = (
        oracle_strength(ATOM, -0.5, -2.5, {-1: 1.0}, basis, "H"),
        oracle_strength(ATOM, -0.5, -1.5, {-1: 1.0}, basis, "V"),
    )
    par = RamanSetting(
        b_gauss=4.77,
        orientation="parallel",
        drive_polarization=Polarization.linear([0, 0, 1.0], k=[1.0, 0, 0]),
        drive_rabi=mhz(88.0),
        delta_cav=DELTA_CAV,
        atom=ATOM,
    )
    lines_par = {(l.initial.m, l.final.m): l for l in enumerate_paths(par)}
    basis_par = CavityModeBasis.for_orientation("parallel")
    pair_par = (lines_par[(-0.5, -1.5)].amplitude, lines_par[(-0.5, 0.5)].amplitude)
    oracle_par = (
        oracle_strength(ATOM, -0.5, -1.5, {0: 1.0}, basis_par, lines_par[(-0.5, -1.5)].channel),
        oracle_strength(ATOM, -0.5, 0.5, {0: 1.0}, basis_par, lines_par[(-0.5, 0.5)].channel),
    )
    oracle_ok = all(
        abs(a - b) < 5e-4 for a, b in zip(pair_perp + pair_par, oracle_perp + oracle_par)
    )
    quoted_ok = tuple(round(v, 2) for v in pair_perp) == (0.58, 0.52) and tuple(
        round(v, 2) for v in pair_par
    ) == (0.52, 0.37)
    report(
        2,
        oracle_ok and quoted_ok,
        f"perpendicular pair {pair_perp[0]:.4f}/{pair_perp[1]:.4f} (quoted 0.58/0.52), "
        f"parallel pair {pair_par[0]:.4f}/{pair_par[1]:.4f} (quoted 0.52/0.37), "
        f"oracle agreement to 3 decimals: {oracle_ok}",
    )
    assert oracle_ok and quoted_ok


# -- criterion 3: effective parameters ---------------------------------------------


def test_acceptance_3_effective_parameters():
    g0 = TWO_PI * 1.43e6
    unit_88 = effective_coupling(1.0, 1.0, mhz(88.0), DELTA_CAV, g0)
    unit_99 = effective_coupling(1.0, 1.0, mhz(99.0), DELTA_CAV, g0)
    exact_88 = mhz(88.0) * 2 * g0 / (2 * mhz(400.0))
    exact_99 = mhz(99.0) * 2 * g0 / (2 * mhz(400.0))
    eq2_ok = (
        unit_88 == exact_88
        and unit_99 == exact_99
        and round(to_mhz(unit_88), 2) == 0.31
        and round(to_mhz(unit_99), 2) == 0.35
    )
    gamma_total = ATOM["P3/2"].decay_rate
    g_88 = effective_decay(mhz(88.0), DELTA_CAV, gamma_total)
    g_99 = effective_decay(mhz(99.0), DELTA_CAV, gamma_total)
    eq3_ok = abs(to_mhz(g_88) - 0.25) / 0.25 < 0.15 and abs(to_mhz(g_99) - 0.32) / 0.32 < 0.15
    report(
        3,
        eq2_ok and eq3_ok,
        f"unit couplings {to_mhz(unit_88):.4f}/{to_mhz(unit_99):.4f} MHz (0.31/0.35), "
        f"effective decay {to_mhz(g_88):.4f}/{to_mhz(g_99):.4f} MHz vs 0.25/0.32 within 15%",
    )
    assert eq2_ok and eq3_ok


# -- criterion 4: spectrum structure ------------------------------------------------


def test_acceptance_4_beam_a_ten_lines(beam_a_scan):
    lines, scan = beam_a_scan
    peaks = annotate_peaks(find_peaks(scan), lines)
    count_ok = len(peaks) == 10 and all(p.line is not None for p in peaks)
    position_ok = all(
        abs(p.detuning - p.line.detuning)
        <= 0.5 * (p.fwhm if np.isfinite(p.fwhm) else mhz(1.0))
        for p in peaks
    )
    channel_ok = all(p.channel == p.line.channel for p in peaks) and {
        p.channel for p in peaks
    } == {"H", "V"}
    worst_shift = max(abs(p.detuning - p.line.detuning) for p in peaks)
    report(
        "4a",
        count_ok and position_ok and channel_ok,
        f"{len(peaks)} resolved lines (expect 10), worst position offset "
        f"{to_mhz(worst_shift)*1e3:.0f} kHz (limit half linewidth), channel parity "
        f"{'ok' if channel_ok else 'bad'}",
    )
    assert count_ok and position_ok and channel_ok


def test_acceptance_4_beam_b_three_dominant(beam_b_scan):
    lines, scan = beam_b_scan
    peaks = annotate_peaks(find_peaks(scan), lines)
    count_ok = len(peaks) == 6 and all(p.line is not None for p in peaks)
    dominant = [p for p in peaks if p.line.initial.m == -0.5]
    suppressed = [p for p in peaks if p.line.initial.m == 0.5]
    dominance_ok = len(dominant) == 3 and all(
        d.height >= 3.0 * s.height for d in dominant for s in suppressed
    )
    position_ok = all(
        abs(p.detuning - p.line.detuning)
        <= 0.5 * (p.fwhm if np.isfinite(p.fwhm) else mhz(1.0))
        for p in peaks
    )
    channel_ok = all(p.channel == p.line.channel for p in peaks)
    # steady population of the optically pumped state at the strongest line
    idx = int(np.argmax(np.where(scan.converged, scan.rates[0], -1.0)))
    pop = scan.metadata["s_up_population"][idx]
    pop_ok = 0.025 <= pop <= 0.10
    report(
        "4b",
        count_ok and dominance_ok and position_ok and channel_ok and pop_ok,
        f"{len(peaks)} lines with 3 dominant (>= 3x the pumped-away triplet: "
        f"{'ok' if dominance_ok else 'bad'}), positions within half linewidth: "
        f"{'ok' if position_ok else 'bad'}, |S,+1/2> population {pop*100:.2f}% "
        "(5% x2 band)",
    )
    assert count_ok and dominance_ok and position_ok and channel_ok and pop_ok


def test_acceptance_4_asymmetry_follows_repump_detuning():
    """Detuning the 854 repump drives the left-right height asymmetry in a
    direction set by the detuning sign (relative to the symmetric-repumping
    baseline)."""
    setting = beam_setting(beam_a_polarization(), mhz(88.0))
    lines = enumerate_paths(setting)
    outer = sorted(lines, key=lambda l: l.detuning)
    pair = (outer[0], outer[-1])  # mirrored outermost lines

    def pair_asymmetry(rep_detuning):
        grid = np.unique(
            np.concatenate(
                [np.linspace(l.detuning - mhz(1.0), l.detuning + mhz(1.0), 13) for l in pair]
            )
        )
        model = standard_model(
            drive_rabi=mhz(88.0),
            drive_detuning=float(grid[0]),
            drive_polarization=beam_a_polarization(),
            repump_854_detuning=rep_detuning,
            atom=ATOM,
        )
        scan = raman_spectrum(model, grid, check_unique_first=False)
        peaks = find_peaks(scan)
        left = max((p.height for p in peaks if p.detuning < pair[0].detuning + mhz(1.0)), default=0.0)
        right = max((p.height for p in peaks if p.detuning > pair[1].detuning - mhz(1.0)), default=0.0)
        return (left - right) / (left + right)

    base = pair_asymmetry(0.0)
    asym_red = pair_asymmetry(-mhz(2.0)) - base
    asym_blue = pair_asymmetry(+mhz(2.0)) - base
    ok = abs(asym_red) > 0.015 and abs(asym_blue) > 0.015 and np.sign(asym_red) != np.sign(asym_blue)
    report(
        "4c",
        ok,
        f"outer-line asymmetry moves {asym_red*100:+.1f}% at -2 MHz repump detuning and "
        f"{asym_blue*100:+.1f}% at +2 MHz about the symmetric-repump baseline "
        f"({base*100:+.1f}%): appears and flips direction",
    )
    assert ok


# -- criterion 5: localization closed forms ------------------------------------------


def test_acceptance_5_localization():
    reduction = coupling_reduction(4.7e-6, 13.2e-6)
    reduction_ok = abs(reduction - 0.89) <= 0.01
    sigma = visibility_to_sigma(0.98, 854e-9)
    sigma_ok = 13e-9 <= sigma <= 14e-9 and abs(sigma - 13e-9) <= 7e-9
    truth = np.array([4.7e-6, 48e-9, 1000.0, 0.0, 30.0])
    x = np.linspace(-30e-6, 30e-6, 61)
    counts = waist_scan_model(truth, x, 866e-9, 13.2e-6, math.radians(4.0))
    fit = fit_waist_scan(
        ScanDataset(position=x, counts=counts),
        866e-9,
        math.radians(4.0),
        13.2e-6,
        initial={"sigma_x": 4e-6, "sigma_z": 40e-9, "amplitude": 900.0, "center": 1e-6, "offset": 25.0},
    )
    scale = np.where(truth != 0.0, np.abs(truth), 30e-6)  # center scale: the scan span
    fit_ok = bool(np.all(np.abs(fit.params - truth) <= 1e-6 * scale))
    report(
        5,
        reduction_ok and sigma_ok and fit_ok,
        f"g_obs/g0 {reduction:.4f} (0.89 +-0.01), sigma_z({'98%'}) = {sigma*1e9:.2f} nm "
        f"(13-14 nm), noiseless fit round-trip to 1e-6: {fit_ok}",
    )
    assert reduction_ok and sigma_ok and fit_ok


# -- criterion 6: photon generation ---------------------------------------------------


def test_acceptance_6_photon_pulse(photon_pulse_80us):
    shape = photon_pulse_80us
    eff_ok = 0.027 <= shape.total_efficiency <= 0.057
    purity = 1.0 - shape.leak_fraction
    purity_ok = purity > 0.97
    report(
        6,
        eff_ok and purity_ok,
        f"total detection efficiency {shape.total_efficiency*100:.2f}% "
        f"(band 2.7-5.7%, reported 4.2%), designated-channel fraction {purity*100:.2f}% (> 97%)",
    )
    assert eff_ok and purity_ok


# -- criterion 7: qubit dynamics -------------------------------------------------------


def test_acceptance_7_qubit_dynamics():
    rabi0 = TWO_PI * 2e5
    t = np.linspace(0.0, 10.5 * 2 * math.pi / rabi0, 4200)
    prob = thermal_rabi(rabi0, (0.12, 0.05, 0.05), (0.04, 0.1, 1.0), t)
    contrasts = [oscillation_contrast(t, prob, k, rabi0) for k in range(1, 11)]
    rabi_ok = min(contrasts) > 0.9
    fringe = ramsey_fringe(np.array([0.0]), 50e-6, 0.97, 250e-6)
    amplitude = 2 * fringe[0] - 1
    ramsey_ok = abs(amplitude - 0.96) <= 0.03
    report(
        7,
        rabi_ok and ramsey_ok,
        f"thermal Rabi contrast after 10 oscillations {min(contrasts)*100:.1f}% (> 90%), "
        f"Ramsey amplitude at 50 us {amplitude:.4f} vs 0.96 +-0.03",
    )
    assert rabi_ok and ramsey_ok


# -- criterion 8: always-on property suite ----------------------------------------------


def test_acceptance_8_positivity_and_residual(photon_pulse_80us):
    shape = photon_pulse_80us
    positivity_ok = shape.metadata["min_eigenvalue"] >= -1e-7
    trace_ok = shape.metadata["trace_drift"] <= 1e-7
    setting = beam_setting(beam_b_polarization(), mhz(99.0))
    line = enumerate_paths(setting)[2]
    model = standard_model(
        drive_rabi=mhz(99.0),
        drive_detuning=line.detuning,
        drive_polarization=beam_b_polarization(),
        atom=ATOM,
    )
    layout = HilbertLayout(atom=ATOM, n_max=1)
    _, info = steady_state(build_liouvillian(model, layout), return_info=True)
    residual_ok = info["residual"] <= 1e-10 * info["residual_scale"]
    report(
        "8a",
        positivity_ok and trace_ok and residual_ok,
        f"trajectory min eigenvalue {shape.metadata['min_eigenvalue']:.1e} (>= -1e-7), "
        f"trace drift {shape.metadata['trace_drift']:.1e} (<= 1e-7), "
        f"steady residual {info['residual']/info['residual_scale']:.1e} of scale (< 1e-10)",
    )
    assert positivity_ok and trace_ok and residual_ok


def test_acceptance_8_analytic_oracles():
    atom0 = load_atom(
        overrides={
            "P3/2": {"decay_rate_hz": 0.0, "branching": {}},
            "P1/2": {"decay_rate_hz": 0.0, "branching": {}},
        }
    )
    layout = HilbertLayout(atom=atom0, n_max=1)
    rabi = mhz(1.0)
    model = standard_model(
        drive_rabi=rabi,
        drive_detuning=0.0,
        drive_polarization=beam_b_polarization(),
        repump_854_rabi=0.0,
        repump_866_rabi=0.0,
        atom=atom0,
        coupling_scale=0.0,
        delta_cav=0.0,
        b_gauss=0.0,
    )
    t_grid = np.linspace(0.0, 2e-6, 21)
    traj = evolve(build_liouvillian(model, layout), layout.basis_state(atom0.state("S1/2", -0.5)), t_grid, rtol=1e-9)
    p_state = atom0.state("P3/2", -1.5)
    rabi_err = max(
        abs(state_population(s, layout, p_state) - math.sin(rabi * t / 2) ** 2)
        for s, t in zip(traj.states, t_grid)
    )
    from dataclasses import replace

    jc_model = standard_model(
        drive_rabi=0.0, drive_detuning=0.0, repump_854_rabi=0.0, repump_866_rabi=0.0,
        atom=atom0, delta_cav=0.0, b_gauss=0.0, orientation="parallel",
    )
    jc_model = replace(jc_model, cavity=replace(jc_model.cavity, g=mhz(1.43), kappa=0.0))
    liouv = build_liouvillian(jc_model, layout)
    g_tot = jc_model.cavity.g * math.sqrt(11.0 / 15.0)
    t_jc = np.linspace(0.0, 2 * math.pi / (2 * g_tot), 9)
    traj_jc = evolve(liouv, layout.basis_state(atom0.state("P3/2", 1.5)), t_jc, rtol=1e-9)
    jc_err = max(
        abs(state_population(s, layout, atom0.state("P3/2", 1.5)) - math.cos(g_tot * t) ** 2)
        for s, t in zip(traj_jc.states, t_jc)
    )
    ok = rabi_err < 1e-6 and jc_err < 1e-6
    report("8b", ok, f"two-level oracle error {rabi_err:.1e}, vacuum-exchange error {jc_err:.1e} (both < 1e-6)")
    assert ok


def test_acceptance_8_cutoff_convergence():
    """Weak-excitation spectrum observables agree between n_max = 1 and 2."""
    setting = beam_setting(beam_b_polarization(), mhz(6.0))
    line = [l for l in enumerate_paths(setting) if (l.initial.two_m, l.final.two_m) == (-1, -5)][0]
    model = standard_model(
        drive_rabi=mhz(6.0),
        drive_detuning=line.detuning,
        drive_polarization=beam_b_polarization(),
        repump_854_rabi=mhz(2.0),
        repump_866_rabi=mhz(2.0),
        atom=ATOM,
    )
    points = [line.detuning - mhz(0.2), line.detuning, line.detuning + mhz(0.2)]
    flux = {}
    for n_max in (1, 2):
        layout = HilbertLayout(atom=ATOM, n_max=n_max)
        from ioncavity.lindblad import photon_flux

        vals = []
        for d in points:
            ss = steady_state(
                build_liouvillian(model.replace_drive(detuning=d), layout), check_unique=False
            )
            vals.append(
                photon_flux(ss, layout, model.cavity.kappa, model.detection, include_dark=False)[0]
            )
        flux[n_max] = np.array(vals)
    deviation = float(np.max(np.abs(flux[2] / flux[1] - 1.0)))
    ok = deviation < 0.01
    report("8c", ok, f"photon-cutoff convergence: worst flux deviation {deviation*100:.2f}% (< 1%)")
    assert ok


def test_acceptance_8_quadrature_and_coverage():
    quad_dev = max(
        abs(coupling_reduction(sx, 13.2e-6) - coupling_reduction_quadrature(sx, 13.2e-6))
        for sx in (1e-6, 4.7e-6, 8e-6)
    )
    quad_ok = quad_dev < 1e-10
    truth = np.array([4.7e-6, 48e-9, 1000.0, 0.0, 30.0])
    x = np.linspace(-30e-6, 30e-6, 61)
    clean = waist_scan_model(truth, x, 866e-9, 13.2e-6, math.radians(4.0))
    rng = np.random.default_rng(42)
    hits = trials = 0
    for _ in range(100):
        noisy = clean * (1.0 + 0.05 * rng.standard_normal(len(x)))
        try:
            result = fit_waist_scan(
                ScanDataset(position=x, counts=noisy),
                866e-9,
                math.radians(4.0),
                13.2e-6,
                initial={"sigma_x": 4e-6, "sigma_z": 40e-9, "amplitude": 900.0, "center": 0.0, "offset": 30.0},
            )
        except Exception:
            continue
        trials += 1
        if abs(result.params[0] - truth[0]) < 3 * result.stderr[0]:
            hits += 1
    coverage_ok = trials >= 95 and hits >= 0.95 * trials
    report(
        "8d",
        quad_ok and coverage_ok,
        f"closed-form vs quadrature deviation {quad_dev:.1e} (< 1e-10); "
        f"Monte Carlo 3-sigma coverage {hits}/{trials}",
    )
    assert quad_ok and coverage_ok


# -- criterion 9: entanglement and mapping -----------------------------------------------


def test_acceptance_9_entangle_balance_and_covariance(entangle_reports):
    base, shifted = entangle_reports
    p_h = base.channel_probabilities["H"]
    p_v = base.channel_probabilities["V"]
    balance = abs(p_h - p_v) / (0.5 * (p_h + p_v))
    balance_ok = balance <= 0.02
    phase_step = shifted.coherence_phase - base.coherence_phase
    covariance_ok = abs(phase_step - 0.7) <= 0.02
    fidelity_drift = abs(shifted.fidelity_max - base.fidelity_max)
    drift_ok = fidelity_drift <= 5e-3
    report(
        "9a",
        balance_ok and covariance_ok and drift_ok,
        f"H/V emission {p_h:.4f}/{p_v:.4f} (imbalance {balance*100:.2f}%, <= 2%), "
        f"phase step {phase_step:+.5f} rad for +0.70000 commanded, "
        f"fidelity(max) {base.fidelity_max:.4f} drift {fidelity_drift:.1e} under the shift",
    )
    assert balance_ok and covariance_ok and drift_ok


def test_acceptance_9_state_mapping():
    kwargs = dict(rabi_tone1=mhz(25.0), duration=30e-6, rtol=1e-6, t_points=140)
    pure_v = map_state(0.0, 0.0, calibrate=False, **kwargs)
    pure_h = map_state(math.pi / 2, 0.0, calibrate=False, **kwargs)
    limits_ok = (
        pure_v.channel_probabilities["V"] > 0.98
        and pure_v.fidelity > 0.98
        and pure_h.channel_probabilities["H"] > 0.98
        and pure_h.fidelity > 0.98
    )
    base = map_state(math.pi / 4, 0.0, **kwargs)
    swept = map_state(
        math.pi / 4, 1.1, calibration=base.calibration, **kwargs
    )
    tracking = swept.coherence_phase - base.coherence_phase
    tracking_ok = abs(tracking - 1.1) <= 0.02
    report(
        "9b",
        limits_ok and tracking_ok,
        f"limiting cases: V fraction {pure_v.channel_probabilities['V']:.4f}, "
        f"H fraction {pure_h.channel_probabilities['H']:.4f} (> 0.98); "
        f"conditional phase step {tracking:+.5f} rad for +1.10000 commanded",
    )
    assert limits_ok and tracking_ok
