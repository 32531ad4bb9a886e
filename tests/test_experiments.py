import math

import numpy as np
import pytest
import scipy.sparse as sp

from ioncavity.cli import _bundled_config, merge_config, model_from_config, raman_setting_from_config
from ioncavity.constants import TWO_PI, mhz, to_mhz
from ioncavity import experiments, lindblad
from ioncavity.errors import BinningMismatchError, SteadyStateError
from ioncavity.experiments import (
    PulseShape,
    ScanResult,
    TrapMotion,
    annotate_peaks,
    find_peaks,
    fringe_amplitude,
    photon_pulse,
    pulse_overlap,
    raman_spectrum,
    ramsey_coherence,
    ramsey_fringe,
    sideband_overlay,
    spectrum_grid,
    thermal_rabi,
)
from ioncavity.hilbert import HilbertLayout, vec
from ioncavity.lindblad import (
    build_liouvillian,
    drive_detuning_shift_superoperator,
    photon_flux,
    steady_state,
)
from ioncavity.polarization import Polarization
from ioncavity.raman import RamanSetting, enumerate_paths
from ioncavity.system import Tone, beam_a_polarization, beam_b_polarization, standard_model

from conftest import oscillation_contrast, with_drive_tones


def lorentzian_scan(centers, heights, width=mhz(0.5), dark=(33.1, 33.6), span=mhz(30.0)):
    """Synthetic two-channel scan with Lorentzian peaks."""
    grid = np.linspace(-span, span, 601)
    rates = np.zeros((2, len(grid)))
    for (c, ch), h in zip(centers, heights):
        rates[ch] += h / (1 + ((grid - c) / (width / 2)) ** 2)
    rates[0] += dark[0]
    rates[1] += dark[1]
    return ScanResult(
        detunings=grid,
        rates=rates,
        converged=np.ones(len(grid), bool),
        residuals=np.zeros(len(grid)),
        dark_counts=dark,
    )


# -- peak finding --------------------------------------------------------------


def test_find_peaks_positions_and_heights():
    centers = [(-mhz(10.0), 0), (mhz(0.33), 1), (mhz(12.0), 0)]
    scan = lorentzian_scan(centers, [900.0, 700.0, 450.0])
    peaks = find_peaks(scan)
    assert len(peaks) == 3
    for peak, ((c, ch), h) in zip(peaks, zip(centers, [900.0, 700.0, 450.0])):
        assert peak.channel == ("H", "V")[ch]
        assert abs(peak.detuning - c) < mhz(0.02)
        assert peak.height == pytest.approx(h, rel=0.02)
        assert peak.fwhm == pytest.approx(mhz(0.5), rel=0.1)


def test_find_peaks_respects_dark_floor():
    scan = lorentzian_scan([(0.0, 0)], [50.0])  # peak below 3x dark floor
    assert find_peaks(scan) == []


def test_annotate_peaks_matches_channels():
    setting = RamanSetting(
        b_gauss=4.77,
        orientation="perpendicular",
        drive_polarization=Polarization.sigma_minus(),
        drive_rabi=mhz(99.0),
        delta_cav=-mhz(400.0),
    )
    lines = enumerate_paths(setting)
    centers = [(l.detuning, 0 if l.channel == "H" else 1) for l in lines]
    scan = lorentzian_scan(centers, [1000.0] * len(lines), span=mhz(40.0))
    shifted = ScanResult(
        detunings=scan.detunings + setting.delta_cav,
        rates=scan.rates,
        converged=scan.converged,
        residuals=scan.residuals,
    )
    # build the synthetic scan directly around the true line positions
    grid = np.linspace(min(l.detuning for l in lines) - mhz(3), max(l.detuning for l in lines) + mhz(3), 901)
    rates = np.zeros((2, len(grid)))
    for l in lines:
        rates[0 if l.channel == "H" else 1] += 1000.0 / (1 + ((grid - l.detuning) / mhz(0.25)) ** 2)
    rates += np.array([[33.1], [33.6]])
    scan = ScanResult(detunings=grid, rates=rates, converged=np.ones(len(grid), bool), residuals=np.zeros(len(grid)))
    peaks = annotate_peaks(find_peaks(scan), lines)
    labelled = [p for p in peaks if p.line is not None]
    assert len(labelled) == len(lines)
    for p in labelled:
        assert p.channel == p.line.channel
        assert abs(p.detuning - p.line.detuning) < mhz(0.05)


def test_scan_result_rejects_bad_grid():
    with pytest.raises(ValueError):
        ScanResult(
            detunings=np.array([0.0, 0.0, 1.0]),
            rates=np.zeros((2, 3)),
            converged=np.ones(3, bool),
            residuals=np.zeros(3),
        )


# -- sideband overlay ------------------------------------------------------------


def overlay_trap(nbar, index=0.0):
    return TrapMotion(
        frequencies=(mhz(1.1), mhz(3.0), mhz(3.05)),
        lamb_dicke=(0.12, 0.05, 0.05),
        nbar=nbar,
        micromotion_frequency=mhz(23.4),
        micromotion_index=index,
    )


def test_sideband_intensities_and_red_suppression():
    # narrow line so its own tail is negligible at +-nu_axial; the grid step
    # divides 1.1 MHz exactly, making the shifted interpolation exact
    scan = lorentzian_scan([(0.0, 0)], [1000.0], width=mhz(0.05), span=mhz(5.0))
    trap = overlay_trap((0.0, 0.0, 0.0))
    out = sideband_overlay(scan, trap)
    blue = np.interp(mhz(1.1), out.detunings, out.rates[0]) - 33.1
    red = np.interp(-mhz(1.1), out.detunings, out.rates[0]) - 33.1
    carrier = np.interp(0.0, out.detunings, out.rates[0]) - 33.1
    assert blue / carrier == pytest.approx(0.12**2, rel=0.06)  # eta^2 (nbar+1)
    assert red < 0.05 * blue  # ground-state red sideband suppressed

    hot = sideband_overlay(scan, overlay_trap((2.0, 0.0, 0.0)))
    blue_hot = np.interp(mhz(1.1), hot.detunings, hot.rates[0]) - 33.1
    red_hot = np.interp(-mhz(1.1), hot.detunings, hot.rates[0]) - 33.1
    assert blue_hot / carrier == pytest.approx(3 * 0.12**2, rel=0.05)
    assert red_hot / carrier == pytest.approx(2 * 0.12**2, rel=0.05)


def test_micromotion_sidebands_toggle():
    scan = lorentzian_scan([(0.0, 0)], [1000.0], span=mhz(2.0))
    grid = np.linspace(-mhz(26.0), mhz(26.0), 2001)
    off = sideband_overlay(scan, overlay_trap((0.0, 0.0, 0.0), index=0.0), out_detunings=grid)
    on = sideband_overlay(scan, overlay_trap((0.0, 0.0, 0.0), index=0.4), out_detunings=grid)
    sat_off = np.interp(mhz(23.4), off.detunings, off.rates[0]) - 33.1
    sat_on = np.interp(mhz(23.4), on.detunings, on.rates[0]) - 33.1
    assert sat_off == pytest.approx(0.0, abs=1e-9)
    assert sat_on == pytest.approx(0.4**2 * 1000.0, rel=0.05)
    sat_red = np.interp(-mhz(23.4), on.detunings, on.rates[0]) - 33.1
    assert sat_red == pytest.approx(sat_on, rel=1e-6)


# -- photon pulses ---------------------------------------------------------------


@pytest.fixture(scope="module")
def short_pulse_shape(atom):
    """A 6 us pulse on the strongest transition; shared across tests."""
    setting = RamanSetting(
        b_gauss=4.77,
        orientation="perpendicular",
        drive_polarization=Polarization.sigma_minus(),
        drive_rabi=mhz(106.0),
        delta_cav=-mhz(400.0),
        atom=atom,
    )
    lines = {(l.initial.m, l.final.m): l for l in enumerate_paths(setting)}
    model = standard_model(
        drive_rabi=mhz(106.0),
        drive_detuning=lines[(-0.5, -2.5)].detuning,
        drive_polarization=beam_b_polarization(),
        repump_854_rabi=0.0,
        repump_866_rabi=0.0,
        atom=atom,
    )
    return model, photon_pulse(model, 6e-6, bin_width=200e-9, designated_channel="H")


def test_pulse_shape_contract(short_pulse_shape):
    _, shape = short_pulse_shape
    assert shape.probabilities.shape == (2, 30)
    assert np.all(shape.probabilities >= 0)
    assert shape.total_efficiency == pytest.approx(shape.probabilities[0].sum(), rel=1e-12)
    assert shape.leak_fraction < 0.01
    assert shape.metadata["min_eigenvalue"] > -1e-7


def test_pulse_probabilities_scale_with_channel_efficiency(short_pulse_shape, atom):
    from dataclasses import replace

    from ioncavity.cavity import DetectionChain

    model, shape = short_pulse_shape
    half = replace(
        model,
        detection=DetectionChain(apd_efficiency=(0.49 / 2, 0.46 / 2)),
    )
    shape_half = photon_pulse(half, 6e-6, bin_width=200e-9, designated_channel="H")
    assert np.allclose(shape_half.probabilities, 0.5 * shape.probabilities, rtol=1e-6, atol=1e-15)


def test_zero_drive_gives_flat_zero_pulse(atom):
    model = standard_model(
        drive_rabi=0.0,
        drive_detuning=0.0,
        repump_854_rabi=0.0,
        repump_866_rabi=0.0,
        atom=atom,
    )
    shape = photon_pulse(model, 2e-6, bin_width=500e-9)
    assert np.max(shape.probabilities) < 1e-15
    assert shape.total_efficiency == 0.0


def test_pulse_overlap_limits(short_pulse_shape):
    _, shape = short_pulse_shape
    assert pulse_overlap(shape, shape) == pytest.approx(1.0, abs=1e-12)
    probs = np.zeros_like(shape.probabilities)
    probs[0, : len(probs[0]) // 2] = 0.0
    probs[0, len(probs[0]) // 2 :] = 1e-3
    other = PulseShape(
        bin_edges=shape.bin_edges,
        probabilities=probs,
        designated_channel="H",
        total_efficiency=float(probs[0].sum()),
        leak_fraction=0.0,
    )
    early = np.zeros_like(probs)
    early[0, : len(probs[0]) // 2] = 1e-3
    disjoint = PulseShape(
        bin_edges=shape.bin_edges,
        probabilities=early,
        designated_channel="H",
        total_efficiency=float(early[0].sum()),
        leak_fraction=0.0,
    )
    assert pulse_overlap(other, disjoint) == pytest.approx(0.0, abs=1e-12)


def test_pulse_overlap_binning_mismatch(short_pulse_shape):
    _, shape = short_pulse_shape
    other = PulseShape(
        bin_edges=shape.bin_edges[:-1],
        probabilities=shape.probabilities[:, :-1],
        designated_channel="H",
        total_efficiency=1.0,
        leak_fraction=0.0,
    )
    with pytest.raises(BinningMismatchError):
        pulse_overlap(shape, other)


def test_pulse_refuses_a_duration_of_partial_bins(short_pulse_shape):
    """1 us in 300 ns bins would label three bins up to 0.9 us yet integrate them over
    the full 1 us; such a duration is refused before anything evolves."""
    model, _ = short_pulse_shape
    for duration in (1e-6, 0.1e-6):
        with pytest.raises(BinningMismatchError, match="not a whole number of"):
            photon_pulse(model, duration, bin_width=300e-9)


# -- thermal Rabi ---------------------------------------------------------------


def test_thermal_rabi_ground_state_is_undamped():
    rabi0 = TWO_PI * 2e5
    t = np.linspace(0.0, 10 * 2 * math.pi / rabi0, 2000)
    p = thermal_rabi(rabi0, (0.12, 0.05, 0.05), (0.0, 0.0, 0.0), t)
    assert np.allclose(p, np.sin(rabi0 * t / 2) ** 2, atol=1e-12)
    with pytest.raises(ValueError):
        thermal_rabi(rabi0, (0.12, 0.05, 0.05), (-0.5, 0.0, 0.0), t)


def test_thermal_rabi_cooled_contrast():
    rabi0 = TWO_PI * 2e5
    t = np.linspace(0.0, 10.5 * 2 * math.pi / rabi0, 4000)
    p = thermal_rabi(rabi0, (0.12, 0.05, 0.05), (0.04, 0.1, 1.0), t)
    assert oscillation_contrast(t, p, 10, rabi0) > 0.9


def test_thermal_rabi_doppler_damps():
    rabi0 = TWO_PI * 2e5
    t = np.linspace(0.0, 15.5 * 2 * math.pi / rabi0, 6000)
    p = thermal_rabi(rabi0, (0.12, 0.05, 0.05), (10.0, 0.0, 0.0), t)
    contrasts = [oscillation_contrast(t, p, k, rabi0) for k in range(1, 16)]
    assert contrasts[0] > 0.8  # barely damped at the start
    assert min(contrasts) < 0.5  # visible damping within ~15 oscillations
    # direct-summation oracle at a single time point
    n = np.arange(0, 400)
    w = np.exp(n * math.log(10.0 / 11.0)) / 11.0
    t_probe = t[2500]
    oracle = float(np.sum(w * np.sin(rabi0 * (1 - 0.12**2 * n) * t_probe / 2) ** 2))
    assert p[2500] == pytest.approx(oracle, abs=1e-6)


def test_thermal_rabi_warns_outside_lamb_dicke():
    with pytest.warns(UserWarning):
        thermal_rabi(TWO_PI * 2e5, (0.5, 0.05, 0.05), (3.0, 0.0, 0.0), np.linspace(0, 1e-5, 10))


# -- Ramsey ----------------------------------------------------------------------


def test_ramsey_amplitude_at_quoted_point():
    amp = ramsey_fringe(np.array([0.0]), 50e-6, 0.97, 250e-6)
    value = 0.97 * math.exp(-((50.0 / 250.0) ** 2) / 2)
    assert 2 * amp[0] - 1 == pytest.approx(value, rel=1e-12)
    assert abs(value - 0.96) < 0.03


def test_fringe_amplitude_extraction():
    phases = np.linspace(0.0, 2 * math.pi, 31, endpoint=False)
    fringe = 0.5 * (1 + 0.73 * np.cos(phases + 0.4))
    assert fringe_amplitude(phases, fringe) == pytest.approx(0.73, abs=1e-12)


def test_ramsey_round_trip_and_exponential_comparison():
    t_wait = np.linspace(10e-6, 500e-6, 12)
    phases = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
    result = ramsey_coherence(t_wait, phases, tau=250e-6, amplitude0=0.97)
    assert result.coherence_time == pytest.approx(250e-6, rel=0.05)
    assert result.amplitude0 == pytest.approx(0.97, rel=0.01)
    assert np.all(result.amplitudes <= 0.98)
    # the Gaussian decay model should beat the exponential one on its own data
    assert result.gaussian_cost < result.exponential_cost


def test_ramsey_zero_noise_flat_when_tau_infinite():
    t_wait = np.linspace(10e-6, 300e-6, 6)
    phases = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    result = ramsey_coherence(t_wait, phases, tau=1.0, amplitude0=0.9)
    assert np.allclose(result.amplitudes, 0.9, atol=1e-9)


# -- spectrum machinery (cheap smoke; the full scans live in the acceptance suite)


def test_spectrum_grid_covers_all_lines(atom):
    setting = RamanSetting(
        b_gauss=4.77,
        orientation="perpendicular",
        drive_polarization=Polarization.sigma_minus(),
        drive_rabi=mhz(99.0),
        delta_cav=-mhz(400.0),
        atom=atom,
    )
    lines = enumerate_paths(setting)
    grid = spectrum_grid(lines, points_per_line=7, baseline_points=10)
    assert np.all(np.diff(grid) > 0)
    for line in lines:
        assert np.min(np.abs(grid - line.detuning)) < mhz(0.3)


def test_raman_spectrum_marks_converged_points(atom):
    setting = RamanSetting(
        b_gauss=4.77,
        orientation="perpendicular",
        drive_polarization=Polarization.sigma_minus(),
        drive_rabi=mhz(99.0),
        delta_cav=-mhz(400.0),
        atom=atom,
    )
    line = enumerate_paths(setting)[2]
    model = standard_model(
        drive_rabi=mhz(99.0),
        drive_detuning=line.detuning,
        drive_polarization=beam_b_polarization(),
        atom=atom,
    )
    grid = np.linspace(line.detuning - mhz(0.6), line.detuning + mhz(0.6), 7)
    scan = raman_spectrum(model, grid, check_unique_first=True)
    assert scan.converged.all()
    assert np.all(scan.rates > 0)
    assert scan.rates[0].max() > 10 * 33.1  # strong line in the H channel
    assert "s_up_population" in scan.metadata


def _fig4_line_model(atom):
    """The fig4 beam-A model at its strongest H line, with the line's detuning."""
    setting = RamanSetting(
        b_gauss=4.77,
        orientation="perpendicular",
        drive_polarization=beam_a_polarization(),
        drive_rabi=mhz(88.0),
        delta_cav=-mhz(400.0),
        atom=atom,
    )
    line = max((l for l in enumerate_paths(setting) if l.channel == "H"), key=lambda l: l.amplitude)
    model = standard_model(
        drive_rabi=mhz(88.0),
        drive_detuning=line.detuning - mhz(0.5),
        drive_polarization=beam_a_polarization(),
        atom=atom,
    )
    return model, line.detuning


def test_scan_reduces_once_and_matches_direct_solves(atom, monkeypatch):
    """One Liouvillian and one reduction per scan, uniqueness probe included;
    its block is the one restrict gives at the first and last detuning, and
    its rates equal direct solves at every point."""
    model, center = _fig4_line_model(atom)
    grid = np.linspace(center - mhz(0.5), center + mhz(0.5), 5)
    restricts, solvers, builds = [], [], []
    original_restrict = lindblad.Liouvillian.restrict

    def counting_restrict(self, seed):
        restricts.append(seed)
        return original_restrict(self, seed)

    class Recording(lindblad._ReducedSteadyState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build_liouvillian(*args, **kwargs)

    monkeypatch.setattr(lindblad.Liouvillian, "restrict", counting_restrict)
    monkeypatch.setattr(experiments, "_ReducedSteadyState", Recording)
    monkeypatch.setattr(experiments, "build_liouvillian", counting_build)
    scan = raman_spectrum(model, grid, check_unique_first=True)
    assert len(restricts) == len(solvers) == len(builds) == 1
    assert scan.converged.all() and scan.metadata["failures"] == {}

    layout = HilbertLayout(atom=atom, n_max=1)
    n = layout.dim
    for i, d in enumerate(grid):
        liouv = build_liouvillian(model.replace_drive(detuning=float(d)), layout)
        if i in (0, len(grid) - 1):
            keep = original_restrict(liouv, np.arange(n) * (n + 1)).keep
            assert np.array_equal(keep, solvers[0].keep)
        ss = steady_state(liouv, check_unique=False)
        direct = photon_flux(ss, layout, model.cavity.kappa, model.detection)
        assert scan.rates[:, i] == pytest.approx(direct, rel=1e-10)


def test_block_fallback_on_a_driven_model(atom, monkeypatch):
    """A failed block LU hands the solve to the block's inverse iteration,
    which finds the LU answer and leaves every dropped entry at zero."""
    model, _ = _fig4_line_model(atom)
    liouv = build_liouvillian(model, HilbertLayout(atom=atom, n_max=1))
    want, _ = lindblad._ReducedSteadyState(liouv).solve()

    def zero_block(self, x, scale):
        k = self.keep.size
        return sp.csc_matrix((k, k), dtype=complex)

    monkeypatch.setattr(lindblad._ReducedSteadyState, "constrained_block", zero_block)
    solver = lindblad._ReducedSteadyState(liouv)
    got, info = solver.solve()
    assert (info["path"], info["lu_fill"]) == ("inverse_iteration", None)
    assert np.abs(got.matrix - want.matrix).max() < 1e-9
    dropped = np.ones(liouv.dim**2, dtype=bool)
    dropped[solver.keep] = False
    assert not vec(got.matrix)[dropped].any()


def test_scan_with_a_singular_base_converges_by_inverse_iteration(atom, monkeypatch):
    """If the base block does not factor, every point of a scan takes the inverse
    iteration, reports no fill and gives the rates of the normal scan."""
    model, center = _fig4_line_model(atom)
    grid = np.linspace(center - mhz(0.3), center + mhz(0.3), 3)
    want = raman_spectrum(model, grid, check_unique_first=False)
    infos = []
    original_solve_many = lindblad._ReducedSteadyState.solve_many

    def recording_solve_many(self, xs):
        states, chunk_infos = original_solve_many(self, xs)
        infos.extend(chunk_infos)
        return states, chunk_infos

    def zero_block(self, x, scale):
        k = self.keep.size
        return sp.csc_matrix((k, k), dtype=complex)

    monkeypatch.setattr(lindblad._ReducedSteadyState, "solve_many", recording_solve_many)
    monkeypatch.setattr(lindblad._ReducedSteadyState, "constrained_block", zero_block)
    got = raman_spectrum(model, grid, check_unique_first=False)
    assert got.converged.all() and len(infos) == 3
    assert all((i["path"], i["lu_fill"]) == ("inverse_iteration", None) for i in infos)
    assert got.rates == pytest.approx(want.rates, rel=1e-9)


@pytest.mark.parametrize("fault", ["non_finite", "off_residual"])
def test_a_bad_update_is_never_returned(atom, monkeypatch, fault):
    """An update that is not finite, or misses the residual bound, hands the point
    to the inverse iteration, which finds the state of the exact update."""
    model, center = _fig4_line_model(atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    x = model.laser("drive").detuning - center
    solver = lindblad._ReducedSteadyState(
        build_liouvillian(model, layout), shift=drive_detuning_shift_superoperator(layout), points=[x]
    )
    want, info = solver.solve(x)
    assert info["path"] == "lu"
    original = lindblad._ReducedSteadyState._updated

    def bad_update(self, x):
        v, k, certificate = original(self, x)
        v = v.copy()
        v[-1] = np.nan if fault == "non_finite" else v[-1] + 1e-3 * np.abs(v).max()
        return v, k, certificate

    monkeypatch.setattr(lindblad._ReducedSteadyState, "_updated", bad_update)
    got, info = solver.solve(x)
    assert info["path"] == "inverse_iteration"
    assert info["residual"] <= 1e-10 * info["residual_scale"]
    assert np.abs(got.vectors - want.vectors).max() < 1e-9 * np.abs(want.vectors).max()


@pytest.mark.parametrize("fault", ["non_finite", "off_residual"])
def test_a_bad_update_leaves_its_chunk_mates_on_the_update(atom, monkeypatch, fault):
    """A batch of five points whose middle update is spoiled, as above: that point
    alone takes the single-point path and finds the state of the exact update;
    its chunk-mates keep the update path and their vectors bit for bit."""
    model, center = _fig4_line_model(atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    xs = model.laser("drive").detuning - np.linspace(center - mhz(0.3), center + mhz(0.3), 5)
    solver = lindblad._ReducedSteadyState(
        build_liouvillian(model, layout), shift=drive_detuning_shift_superoperator(layout), points=xs
    )
    want, infos = solver.solve_many(xs)
    assert [info["path"] for info in infos] == ["lu"] * 5
    original = lindblad._ReducedSteadyState._updated

    def bad_update(self, xs):
        v, k, certificates = original(self, xs)
        v = v.copy()
        v[2] = np.nan if fault == "non_finite" else v[2] + 1e-3 * np.abs(v[2]).max()
        return v, k, certificates

    monkeypatch.setattr(lindblad._ReducedSteadyState, "_updated", bad_update)
    got, infos = solver.solve_many(xs)
    assert [info["path"] for info in infos] == ["lu", "lu", "inverse_iteration", "lu", "lu"]
    assert infos[2]["residual"] <= 1e-10 * infos[2]["residual_scale"]
    mates = [0, 1, 3, 4]
    assert np.array_equal(got.vectors[mates], want.vectors[mates])
    assert np.abs(got.vectors[2] - want.vectors[2]).max() < 1e-9 * np.abs(want.vectors[2]).max()


def test_a_singular_update_system_is_never_solved(atom):
    """A Schur diagonal entry at exactly -1/x makes T + 1/x singular at x: the
    back-substitution returns the point as NaN, and the point takes the inverse
    iteration, which finds the state of the unpatched update."""
    model, center = _fig4_line_model(atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    x = model.laser("drive").detuning - center
    solver = lindblad._ReducedSteadyState(
        build_liouvillian(model, layout), shift=drive_detuning_shift_superoperator(layout), points=[x]
    )
    want, info = solver.solve(x)
    assert info["path"] == "lu"
    solver._t_diag[0] = -1.0 / x
    assert np.isnan(solver._updated(x)[0]).all()
    got, info = solver.solve(x)
    assert info["path"] == "inverse_iteration"
    assert info["residual"] <= 1e-10 * info["residual_scale"]
    assert np.abs(got.vectors - want.vectors).max() < 1e-9 * np.abs(want.vectors).max()


def test_scan_failures_keep_their_reason(atom, monkeypatch):
    """An unconverged point is marked and its SteadyStateError message kept: the
    middle point's update is made non-finite, and its single-point path fails."""
    model, center = _fig4_line_model(atom)
    grid = np.linspace(center - mhz(0.3), center + mhz(0.3), 3)
    original_updated = lindblad._ReducedSteadyState._updated

    def failing_update(self, xs):
        v, k, certificates = original_updated(self, xs)
        v[np.asarray(xs) == model.laser("drive").detuning - grid[1]] = np.nan
        return v, k, certificates

    def failing_inverse_iteration(*args, **kwargs):
        raise SteadyStateError("injected failure")

    monkeypatch.setattr(lindblad._ReducedSteadyState, "_updated", failing_update)
    monkeypatch.setattr(lindblad, "_inverse_iteration", failing_inverse_iteration)
    scan = raman_spectrum(model, grid, check_unique_first=True)
    assert scan.converged.tolist() == [True, False, True]
    assert np.isnan(scan.rates[:, 1]).all()
    assert scan.metadata["failures"] == {float(grid[1]): "injected failure"}


def test_a_scan_without_drive_is_refused_by_the_probe(atom):
    """A drive tone of zero Rabi frequency leaves every S1/2 sublevel stationary:
    the scan's base LU is singular and the uniqueness probe raises."""
    model = with_drive_tones(
        standard_model(drive_rabi=mhz(1.0), drive_detuning=-mhz(400.0), atom=atom),
        (Tone(rabi=0.0, detuning=-mhz(400.0)),),
    )
    grid = np.linspace(-mhz(401.0), -mhz(399.0), 3)
    with pytest.raises(SteadyStateError, match="not unique"):
        raman_spectrum(model, grid, check_unique_first=True)


def _bundled_spectrum(figure):
    """The bundled configuration's spectrum model and its full detuning grid."""
    cfg = merge_config(_bundled_config(figure))
    spec = cfg["spectrum"]
    grid = spectrum_grid(
        enumerate_paths(raman_setting_from_config(cfg)),
        window=mhz(spec["window_2pi_mhz"]),
        points_per_line=spec["points_per_line"],
        baseline_points=spec["baseline_points"],
    )
    return model_from_config(cfg, drive_detuning=float(grid[0])), grid


def _scan_solver(model, grid):
    """A reduction of ``model`` with the drive-detuning shift, certified at the
    detunings of ``grid``, as a scan builds it."""
    layout = HilbertLayout(atom=model.atom, n_max=1)
    shift = drive_detuning_shift_superoperator(layout)
    points = model.laser("drive").detuning - np.asarray(grid)
    return lindblad._ReducedSteadyState(build_liouvillian(model, layout), shift=shift, points=points)


def _twelve_points(grid):
    return grid[np.linspace(0, grid.size - 1, 12).round().astype(int)]


def test_minimum_degree_order_is_structural():
    """The MMD column order of the constrained fig4 block is the same at the first,
    middle and last detuning and at two scales: it depends on the pattern alone."""
    model, grid = _bundled_spectrum("fig4")
    solver = _scan_solver(model, grid)
    d0 = model.laser("drive").detuning
    scale = float(abs(solver.block).max())
    orders = [
        lindblad._splu(solver.constrained_block(d0 - d, s)).perm_c
        for d in (grid[0], grid[grid.size // 2], grid[-1])
        for s in (scale, 1.0)
    ]
    assert all(np.array_equal(order, orders[0]) for order in orders)
    assert not np.array_equal(orders[0], np.arange(orders[0].size))


@pytest.mark.parametrize("figure", ["fig4", "fig5"])
def test_scan_points_match_fresh_minimum_degree_solves(figure):
    """Every point, a low-rank update of the scan's one LU, equals a fresh MMD LU of
    its own block to 1e-12 and meets the 1e-10 x scale residual."""
    model, grid = _bundled_spectrum(figure)
    d0 = model.laser("drive").detuning
    points = _twelve_points(grid)
    solver, unpermuted = _scan_solver(model, points), _scan_solver(model, points)
    for d in points:
        x = d0 - d
        state, info = solver.solve(x)
        scale = info["residual_scale"]
        assert info["path"] == "lu" and info["residual"] <= 1e-10 * scale
        rhs = np.zeros(solver.keep.size, dtype=complex)
        rhs[0] = scale
        lu = lindblad._splu(unpermuted.constrained_block(x, scale))
        want = unpermuted._hermitian_unit_trace(lu.solve(rhs))
        assert np.abs(state.vectors - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("figure", ["fig4", "fig5"])
def test_batched_scan_points_match_single_point_solves(figure):
    """Every grid point, solved in the scan's chunks, equals the single-point solve
    of a second reduction to 1e-12 of the largest entry and meets the 1e-10 x
    scale residual. A reduction's construction is deterministic: both solve the
    first chunk to bit-identical vectors and infos."""
    model, grid = _bundled_spectrum(figure)
    xs = model.laser("drive").detuning - grid
    batched, single = _scan_solver(model, grid), _scan_solver(model, grid)
    step = batched.CHUNK
    for start in range(0, xs.size, step):
        states, infos = batched.solve_many(xs[start : start + step])
        if start == 0:
            again, again_infos = single.solve_many(xs[:step])
            assert np.array_equal(states.vectors, again.vectors) and infos == again_infos
        for j, info in enumerate(infos):
            assert info["path"] == "lu" and info["residual"] <= 1e-10 * info["residual_scale"]
            want, _ = single.solve(xs[start + j])
            assert np.abs(states.vectors[j] - want.vectors).max() <= 1e-12 * np.abs(want.vectors).max()


def test_scan_orders_once_per_reduction(monkeypatch):
    """A scan runs one sparse LU, of its base block, and the uniqueness probe reuses it."""
    model, grid = _bundled_spectrum("fig4")
    calls = []
    original = lindblad.spla.splu

    def counting_splu(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(lindblad.spla, "splu", counting_splu)
    scan = raman_spectrum(model, _twelve_points(grid), check_unique_first=False)
    assert scan.converged.all() and len(calls) == 1
    calls.clear()
    scan = raman_spectrum(model, grid[:3], check_unique_first=True)
    assert scan.converged.all() and len(calls) == 1


def test_one_schur_form_per_reduction(monkeypatch):
    """A scan takes the Schur form of H_k once, when it builds its reduction; a lone
    steady state (x = 0) builds no Krylov space and takes none."""
    model, grid = _bundled_spectrum("fig4")
    calls = []
    original = lindblad.lapack.zgees

    def counting_zgees(select, a, *args, **kwargs):
        calls.append(a.shape)
        return original(select, a, *args, **kwargs)

    monkeypatch.setattr(lindblad.lapack, "zgees", counting_zgees)
    scan = raman_spectrum(model, _twelve_points(grid), check_unique_first=False)
    assert scan.converged.all() and len(calls) == 1
    calls.clear()
    steady_state(build_liouvillian(model, HilbertLayout(atom=model.atom, n_max=1)))
    assert calls == []


def _fresh_mmd_state(reduction, x, scale):
    """The block vector of a fresh MMD LU of A(x), Hermitian and of unit trace."""
    rhs = np.zeros(reduction.keep.size, dtype=complex)
    rhs[0] = scale
    lu = lindblad._splu(reduction.constrained_block(x, scale))
    return reduction._hermitian_unit_trace(lu.solve(rhs))


def test_a_scan_point_makes_no_base_solve(monkeypatch):
    """A 12-point scan solves with its base LU k + 1 times: once for u and once per
    Krylov step. Every point takes the update path without a sparse solve. A
    reduction does all of that on construction: solving its points, twice, then
    makes no base solve and takes no Schur form."""
    model, grid = _bundled_spectrum("fig4")
    solves, schur_forms = [], []
    original, original_zgees = lindblad._splu, lindblad.lapack.zgees

    def counting_zgees(*args, **kwargs):
        schur_forms.append(args[1].shape)
        return original_zgees(*args, **kwargs)

    class CountingLU:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, rhs):
            solves.append(rhs.shape)
            return self.lu.solve(rhs)

    monkeypatch.setattr(lindblad, "_splu", lambda a: CountingLU(original(a)))
    monkeypatch.setattr(lindblad.lapack, "zgees", counting_zgees)
    scan = raman_spectrum(model, _twelve_points(grid), check_unique_first=False)
    solver = scan.metadata["solver"]
    assert scan.converged.all() and solver["paths"] == {"lu": 12}
    assert 0 < solver["krylov_dim"] < solver["update_rank"] == 320
    assert len(solves) == solver["krylov_dim"] + 1
    assert solver["max_residual_over_scale"] <= 1e-10

    reduction = _scan_solver(model, _twelve_points(grid))
    assert reduction._k == solver["krylov_dim"] and len(schur_forms) == 2
    solves.clear()
    schur_forms.clear()
    xs = model.laser("drive").detuning - _twelve_points(grid)
    for _ in range(2):
        _, infos = reduction.solve_many(xs)
        assert [info["path"] for info in infos] == ["lu"] * 12
    assert solves == [] and schur_forms == []


def test_a_point_off_the_certified_detunings_takes_the_single_point_path():
    """A reduction certified at three detunings near the grid's start solves at its
    far end: the certificate fails on that space, which stays as it is; the point
    takes the inverse iteration, meets the residual bound and equals a fresh MMD LU
    to 1e-9."""
    model, grid = _bundled_spectrum("fig4")
    solver = _scan_solver(model, grid[:3])
    x = model.laser("drive").detuning - grid[-1]
    state, info = solver.solve(x)
    assert info["certificate"] > 1e-14
    assert info["path"] == "inverse_iteration"
    assert info["residual"] <= 1e-10 * info["residual_scale"]
    want = _fresh_mmd_state(solver, x, info["residual_scale"])
    assert np.abs(state.vectors - want).max() <= 1e-9 * np.abs(want).max()


def test_an_exact_breakdown_returns_the_exact_state():
    """A driven two-level system (0, 1) beside a level 2 that only decays to 0. The
    shift detunes 1 and shifts the population of 2, which stays empty: m = 3, but
    K keeps the coherence pair r lives on, so Arnoldi breaks down at k = 2 (h_32 is
    zero to rounding), the certificate is exactly 0 and the state is exact."""
    n, omega, gamma, gamma2, delta = 3, 2.0, 1.0, 5.0, 0.3

    def op(a, b, value):
        return sp.csr_matrix(([value], ([a], [b])), shape=(n, n), dtype=complex)

    h = op(0, 1, omega / 2) + op(1, 0, omega / 2) + op(1, 1, delta)
    collapses = [op(0, 1, math.sqrt(gamma)), op(0, 2, math.sqrt(gamma2))]
    g = -1j * h - 0.5 * sum(c.conj().T @ c for c in collapses)
    eye = sp.identity(n, dtype=complex)
    static = sp.kron(eye, g) + sp.kron(g.conj(), eye) + sum(sp.kron(c.conj(), c) for c in collapses)
    liouv = lindblad.Liouvillian(dim=n, keep=np.arange(n * n), static_part=sp.csr_matrix(static))
    # vec index a + n b holds rho_ab: -i[P_1, rho] on rho_01 and rho_10, 1 on rho_22
    shift = sp.diags(np.array([0, -1j, 0, 1j, 0, 0, 0, 0, 1.0]))
    x = 0.7
    solver = lindblad._ReducedSteadyState(liouv, shift=shift, points=[x])
    state, info = solver.solve(x)
    assert solver.update_rank == 3
    assert (info["path"], info["krylov_dim"], info["certificate"]) == ("lu", 2, 0.0)
    want = _fresh_mmd_state(solver, x, info["residual_scale"])
    assert np.abs(state.vectors - want).max() <= 1e-12 * np.abs(want).max()
    detuning = delta + x
    excited = omega**2 / 4 / (detuning**2 + gamma**2 / 4 + omega**2 / 2)
    assert state.matrix[1, 1].real == pytest.approx(excited, rel=1e-12)
    assert state.matrix[2, 2] == 0.0

# -- left-right spectrum symmetry ------------------------------------------------


def _mirror_pair_heights(b_gauss, rabi, delta_cav, rep_detuning, pairs, points=9):
    from ioncavity.atom import load_atom
    from ioncavity.system import beam_a_polarization

    atom = load_atom()
    setting = RamanSetting(
        b_gauss=b_gauss,
        orientation="perpendicular",
        drive_polarization=beam_a_polarization(),
        drive_rabi=rabi,
        delta_cav=delta_cav,
        atom=atom,
    )
    lines = {(l.initial.m, l.final.m): l for l in enumerate_paths(setting)}
    model = standard_model(
        drive_rabi=rabi,
        drive_detuning=float(delta_cav),
        drive_polarization=beam_a_polarization(),
        repump_854_detuning=rep_detuning,
        b_gauss=b_gauss,
        delta_cav=delta_cav,
        atom=atom,
    )
    out = []
    for ka, kb in pairs:
        heights = []
        for key in (ka, kb):
            line = lines[key]
            grid = np.linspace(line.detuning - mhz(0.35), line.detuning + mhz(0.35), points)
            scan = raman_spectrum(
                model.replace_drive(detuning=float(grid[0])), grid, check_unique_first=False
            )
            peaks = find_peaks(scan)
            heights.append(max((p.height for p in peaks), default=0.0))
        out.append(tuple(heights))
    return out


SYM_PAIRS = [((-0.5, -2.5), (0.5, 2.5)), ((-0.5, -1.5), (0.5, 1.5)), ((-0.5, 1.5), (0.5, -1.5))]


def test_spectrum_left_right_symmetry_tracks_repump():
    """Mirrored lines have equal strengths; with symmetric repumping the
    simulated peak heights agree within 3%, and detuning the 854 nm
    repump both grows the asymmetry and sets its direction.

    The symmetric-repumping statement holds in the perturbative regime
    (Zeeman spread well below the Raman detuning); at stronger fields
    the intermediate-state detunings themselves differ measurably
    between mirrored lines (see the cavity-flip test below).
    """
    b, rabi = 1.5, mhz(30.0)
    balanced = _mirror_pair_heights(b, rabi, -mhz(400.0), 0.0, SYM_PAIRS)
    asym0 = [(h1 - h2) / (h1 + h2) for h1, h2 in balanced]
    assert max(abs(a) for a in asym0) < 0.03
    red = _mirror_pair_heights(b, rabi, -mhz(400.0), -mhz(1.0), SYM_PAIRS[:1])
    blue = _mirror_pair_heights(b, rabi, -mhz(400.0), +mhz(1.0), SYM_PAIRS[:1])
    asym_red = (red[0][0] - red[0][1]) / sum(red[0])
    asym_blue = (blue[0][0] - blue[0][1]) / sum(blue[0])
    assert abs(asym_red - asym0[0]) > 0.015
    assert abs(asym_blue - asym0[0]) > 0.015
    assert np.sign(asym_red - asym0[0]) != np.sign(asym_blue - asym0[0])


def test_spectrum_mirror_exact_under_cavity_flip():
    """The exact mirror of the spectrum flips m, the drive detuning axis and
    the cavity detuning together: heights swap identically."""
    pair = [((-0.5, -2.5), (0.5, 2.5))]
    red = _mirror_pair_heights(4.77, mhz(88.0), -mhz(400.0), 0.0, pair, points=8)
    blue = _mirror_pair_heights(4.77, mhz(88.0), +mhz(400.0), 0.0, pair, points=8)
    assert red[0][0] == pytest.approx(blue[0][1], rel=1e-3)
    assert red[0][1] == pytest.approx(blue[0][0], rel=1e-3)


def test_entangle_report_invariant_under_global_tone_phase():
    """A phase common to both tones is a gauge choice: the report is unchanged."""
    from ioncavity.experiments import entangle_bichromatic

    kwargs = dict(
        rabi_tone1=mhz(40.0), duration=6e-6, relative_phase=0.4,
        rtol=1e-5, t_points=40, calibrate=False,
    )
    a = entangle_bichromatic(global_phase=0.0, **kwargs)
    b = entangle_bichromatic(global_phase=1.3, **kwargs)
    assert b.fidelity == pytest.approx(a.fidelity, abs=1e-9)
    assert b.fidelity_max == pytest.approx(a.fidelity_max, abs=1e-9)
    assert np.allclose(a.joint, b.joint, atol=1e-9)


def test_single_tone_overlap_drives_each_tone_on_its_own_line(monkeypatch):
    """Each lone tone of the overlap check sits on its own line, so its 6 us
    pulse detects a few percent, not the 0.05-0.08 % of an off-line drive."""
    from ioncavity.experiments import entangle_bichromatic

    efficiencies = []
    original = experiments.photon_pulse

    def recording(*args, **kwargs):
        shape = original(*args, **kwargs)
        efficiencies.append(shape.total_efficiency)
        return shape

    monkeypatch.setattr(experiments, "photon_pulse", recording)
    entangle_bichromatic(
        rabi_tone1=mhz(40.0), duration=6e-6, rtol=1e-5, t_points=40,
        calibrate=False, check_overlap=True,
    )
    assert len(efficiencies) == 2
    assert min(efficiencies) > 0.02


def test_low_single_tone_overlap_warns():
    """Below OVERLAP_THRESHOLD the overlap check warns and records the warning in the report."""
    from ioncavity.experiments import map_state

    with pytest.warns(UserWarning, match=r"overlap only 0\.90\d < 0\.95") as caught:
        report = map_state(0.3, 0.2, rabi_tone1=mhz(40.0), duration=2e-6, calibrate=False, t_points=40,
                           check_overlap=True)
    assert len(report.warnings) == 1
    assert report.warnings[0] in [str(w.message) for w in caught]


def test_accumulate_joint_matches_the_dense_loop():
    """The block-wise mode trace equals 2 kappa Tr_modes(a_p rho a_q^dagger) taken
    with full-space dense products, state by state, on random density matrices."""
    from types import SimpleNamespace

    from ioncavity.atom import load_atom
    from ioncavity.experiments import _accumulate_joint
    from ioncavity.hilbert import HilbertLayout, vec
    from ioncavity.lindblad import Trajectory

    atom = load_atom()
    layout = HilbertLayout(atom=atom, n_max=1)
    reported = [atom.state("D5/2", -2.5), atom.state("D5/2", -1.5)]
    rotations = {"H": mhz(-3.0), "V": mhz(11.0)}
    kappa = TWO_PI * 50e3
    rng = np.random.default_rng(5)
    states = []
    for t in np.linspace(0.0, 1e-6, 7):
        re, im = rng.normal(size=(2, layout.dim, layout.dim))
        rho = (re + 1j * im) @ (re + 1j * im).conj().T
        states.append(SimpleNamespace(matrix=rho / np.trace(rho).real, time=t))
    n = layout.dim
    traj = Trajectory(
        times=np.array([st.time for st in states]), keep=np.arange(n * n), dim=n,
        vectors=np.array([vec(st.matrix) for st in states]),
        n_steps=0, n_rejected=0, max_trace_drift=0.0,
    )
    sigma, times, integrand = _accumulate_joint(kappa, layout, traj, rotations, reported)

    nd2 = layout.mode_dim**2
    blocks = [layout.atom_index(s) * nd2 + np.arange(nd2) for s in reported]
    a = {ch: layout.destroy(ch).toarray() for ch in ("H", "V")}
    want = np.zeros_like(integrand)
    for ti, st in enumerate(states):
        for pi, p in enumerate(("H", "V")):
            for qi, q in enumerate(("H", "V")):
                m = a[p] @ st.matrix @ a[q].conj().T
                derot = np.exp(-1j * (rotations[q] - rotations[p]) * st.time)
                for ai, rows in enumerate(blocks):
                    for bi, cols in enumerate(blocks):
                        val = np.trace(m[np.ix_(rows, cols)])
                        want[ti, 2 * ai + pi, 2 * bi + qi] = 2 * kappa * derot * val
    scale = np.abs(want).max()
    assert np.abs(integrand - want).max() <= 1e-13 * scale
    assert np.abs(sigma - np.trapezoid(want, times, axis=0)).max() <= 1e-13 * scale * times[-1]
