"""Experiment drivers: spectra, sidebands, photon pulses, entanglement,
state mapping, and qubit coherence dynamics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .atom import zeeman_shift
from .constants import TWO_PI
from .errors import BinningMismatchError, ConfigError, SteadyStateError
from .hilbert import HilbertLayout
from .lindblad import (
    _ReducedSteadyState,
    build_liouvillian,
    drive_detuning_shift_superoperator,
    evolve,
    photon_flux,
    state_population,
)
from .polarization import Polarization
from .raman import RamanLine, RamanSetting, enumerate_paths, stark_shift_ground
from .system import LaserField, SystemModel, Tone, beam_b_polarization, standard_model


# -- result containers -------------------------------------------------------


@dataclass
class ScanResult:
    """Detector rates versus drive detuning, per polarization channel."""

    detunings: np.ndarray  # rad/s, strictly increasing
    rates: np.ndarray  # shape (2, N): H and V channel count rates, counts/s
    converged: np.ndarray  # bool per point
    residuals: np.ndarray
    dark_counts: tuple = (33.1, 33.6)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        d = np.asarray(self.detunings, dtype=float)
        if np.any(np.diff(d) <= 0):
            raise ValueError("detuning grid must be strictly increasing")
        ok = np.asarray(self.converged, dtype=bool)
        if np.any(self.rates[:, ok] < 0):
            raise ValueError("negative count rate")


@dataclass
class Peak:
    detuning: float
    height: float
    channel: str
    fwhm: float
    label: str | None = None
    line: RamanLine | None = None


@dataclass
class PulseShape:
    """Per-bin detection probabilities for a single-photon pulse."""

    bin_edges: np.ndarray  # seconds, len nbins+1
    probabilities: np.ndarray  # shape (2, nbins): H and V channels
    designated_channel: str
    total_efficiency: float  # designated channel, summed over bins
    leak_fraction: float  # wrong-channel detections / all detections
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.probabilities < -1e-15):
            raise ValueError("negative bin probability")
        self.probabilities = np.maximum(self.probabilities, 0.0)

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[1:] + self.bin_edges[:-1])

    def normalized(self) -> np.ndarray:
        """The designated channel's bin probabilities, scaled to sum to one."""
        p = self.probabilities[{"H": 0, "V": 1}[self.designated_channel]]
        total = p.sum()
        if total <= 0:
            return np.zeros_like(p)
        return p / total


@dataclass
class JointStateReport:
    """Emission-conditioned joint state of the atom and photon polarization.

    ``channel_probabilities`` means two different things. From
    ``entangle_bichromatic`` it holds the unnormalized per-channel emission
    probabilities (they sum to ``emission_probability``); from
    ``map_state`` it holds the normalized polarization fractions of the
    emitted photon (they sum to 1).
    """

    joint: np.ndarray  # density matrix on the reported basis
    basis: tuple  # labels of the basis states
    emission_probability: float
    channel_probabilities: dict
    fidelity: float  # against the target at the commanded phase
    fidelity_max: float  # against the target at the optimal phase
    coherence_phase: float
    target_phase: float
    warnings: list = field(default_factory=list)
    calibration: dict = field(default_factory=dict)


# -- Raman spectrum ----------------------------------------------------------


def spectrum_grid(lines, window=TWO_PI * 1.5e6, points_per_line=13, baseline_points=24):
    """Fine windows around every predicted line plus a coarse baseline that
    reaches 4 MHz beyond the outermost lines."""
    pad = TWO_PI * 4e6
    pieces = [np.linspace(ln.detuning - window, ln.detuning + window, points_per_line) for ln in lines]
    lo = min(ln.detuning for ln in lines) - pad
    hi = max(ln.detuning for ln in lines) + pad
    pieces.append(np.linspace(lo, hi, baseline_points))
    grid = np.unique(np.concatenate(pieces))
    return grid


def raman_spectrum(
    model: SystemModel,
    detunings,
    n_max: int = 1,
    check_unique_first: bool = True,
) -> ScanResult:
    """Steady-state photon rates versus drive detuning.

    The drive detuning enters the Liouvillian linearly through two
    diagonal projectors, so each point is the base operator plus a
    scaled diagonal shift: the scan reduces and factors once, hands its
    detunings to the reduction, which builds one Krylov space certified at
    all of them when it is constructed, and solves the points ``CHUNK`` (8)
    at a time on that space without a sparse solve, reading each chunk out
    before the next (see :class:`~ioncavity.lindblad._ReducedSteadyState`).
    A point depends on its detuning and on the scan's grid, which fixes the
    chunks; a point whose certificate fails takes the single-point path.
    ``check_unique_first`` probes the model's own detuning (the base of the
    reduction, and the first point of every CLI scan) for a second
    stationary state on the scan's one LU; that probe, and any failure of
    the first point, raise. Solver failures elsewhere
    mark the point as unconverged rather than aborting the scan; the
    reasons go to ``metadata["failures"]`` (detuning -> message).
    ``metadata["solver"]`` says how the points were solved: ``paths`` (points
    per path), ``max_residual_over_scale`` (the largest residual over its
    scale), ``reduced_dim``, ``lu_fill``, ``update_rank`` (m, the entries the
    detuning shifts) and ``krylov_dim`` (k, the size of the Krylov space).
    """
    detunings = np.sort(np.asarray(detunings, dtype=float))
    layout = HilbertLayout(atom=model.atom, n_max=n_max)
    d0 = model.laser("drive").detuning
    solver = _ReducedSteadyState(
        build_liouvillian(model, layout),
        shift=drive_detuning_shift_superoperator(layout),
        points=d0 - detunings,
    )
    if check_unique_first:
        solver.check_uniqueness()
    s_up = model.atom.state("S1/2", 0.5)
    rows, failures, infos = [], {}, []
    for start in range(0, detunings.size, solver.CHUNK):
        chunk = detunings[start : start + solver.CHUNK]
        states, chunk_infos = solver.solve_many(d0 - chunk)
        flux = photon_flux(states, layout, model.cavity.kappa, model.detection)
        pop_s_up = state_population(states, layout, s_up)
        for j, (d, info) in enumerate(zip(chunk, chunk_infos)):
            if isinstance(info, SteadyStateError):
                if check_unique_first and start + j == 0:
                    raise info
                failures[float(d)] = str(info)
                rows.append((math.nan, math.nan, False, math.inf, math.nan))
                continue
            infos.append(info)
            rows.append((flux[j, 0], flux[j, 1], True, info["residual"], pop_s_up[j]))

    paths = [info["path"] for info in infos]
    solver_summary = {
        "paths": {path: paths.count(path) for path in sorted(set(paths))},
        "max_residual_over_scale": max(
            (info["residual"] / info["residual_scale"] for info in infos), default=None
        ),
        "reduced_dim": int(solver.keep.size),
        "lu_fill": infos[0]["lu_fill"] if infos else None,
        "update_rank": solver.update_rank,
        "krylov_dim": max((info["krylov_dim"] for info in infos), default=0),
    }
    return ScanResult(
        detunings=detunings,
        rates=np.array([[r[0] for r in rows], [r[1] for r in rows]]),
        converged=np.array([r[2] for r in rows]),
        residuals=np.array([r[3] for r in rows]),
        dark_counts=tuple(model.detection.dark_counts),
        metadata={
            "s_up_population": np.array([r[4] for r in rows]),
            "failures": failures,
            "solver": solver_summary,
        },
    )


def find_peaks(scan: ScanResult):
    """Local maxima above 3 x dark floor, sub-grid refined.

    Quadratic interpolation through the three points around each local
    maximum gives the refined position and height; the width is the
    half-maximum crossing distance of the background-subtracted peak.
    """
    peaks = []
    for ci, channel in enumerate(("H", "V")):
        rate = scan.rates[ci]
        dark = scan.dark_counts[ci]
        d = scan.detunings
        for i in range(1, len(d) - 1):
            if not (scan.converged[i - 1] and scan.converged[i] and scan.converged[i + 1]):
                continue
            if not (rate[i] >= rate[i - 1] and rate[i] > rate[i + 1]):
                continue
            if rate[i] < 3.0 * max(dark, 1e-12):
                continue
            pos, height = _parabolic_vertex(d[i - 1 : i + 2], rate[i - 1 : i + 2])
            peaks.append(
                Peak(
                    detuning=float(pos),
                    height=float(height - dark),
                    channel=channel,
                    fwhm=_estimate_fwhm(d, rate - dark, i),
                )
            )
    peaks.sort(key=lambda p: p.detuning)
    return peaks


def _parabolic_vertex(x, y):
    """Vertex of the parabola through three (possibly unevenly spaced) points."""
    x0, x1, x2 = (float(v) for v in x)
    y0, y1, y2 = (float(v) for v in y)
    # divided differences: y = y0 + b (x - x0) + c (x - x0)(x - x1)
    b = (y1 - y0) / (x1 - x0)
    c = ((y2 - y1) / (x2 - x1) - b) / (x2 - x0)
    if c >= 0.0:  # not concave: keep the grid point
        return x1, y1
    xv = 0.5 * (x0 + x1 - b / c)
    xv = float(np.clip(xv, x0, x2))
    yv = y0 + b * (xv - x0) + c * (xv - x0) * (xv - x1)
    return xv, yv


def _estimate_fwhm(d, signal, i):
    half = signal[i] / 2.0
    left = right = None
    for j in range(i, 0, -1):
        if signal[j - 1] <= half <= signal[j]:
            frac = (signal[j] - half) / max(signal[j] - signal[j - 1], 1e-300)
            left = d[j] - frac * (d[j] - d[j - 1])
            break
    for j in range(i, len(d) - 1):
        if signal[j + 1] <= half <= signal[j]:
            frac = (signal[j] - half) / max(signal[j] - signal[j + 1], 1e-300)
            right = d[j] + frac * (d[j + 1] - d[j])
            break
    if left is None or right is None:
        return float("nan")
    return float(right - left)


def annotate_peaks(peaks, lines):
    """Attach the nearest predicted line (same channel, within 1.5 MHz) to each peak."""
    for peak in peaks:
        best = None
        for line in lines:
            if line.channel != peak.channel:
                continue
            dist = abs(line.detuning - peak.detuning)
            if dist <= TWO_PI * 1.5e6 and (best is None or dist < abs(best.detuning - peak.detuning)):
                best = line
        if best is not None:
            peak.line = best
            peak.label = f"{best.initial.label}->{best.final.label}"
    return peaks


# -- motional sidebands (analytic overlay) -----------------------------------


@dataclass(frozen=True)
class TrapMotion:
    """Secular frequencies, Lamb-Dicke parameters, occupations, micromotion."""

    frequencies: tuple  # (nu_axial, nu_radial1, nu_radial2), rad/s
    lamb_dicke: tuple  # per mode
    nbar: tuple  # per mode
    micromotion_frequency: float = TWO_PI * 23.4e6
    micromotion_index: float = 0.0


def sideband_overlay(
    scan: ScanResult, trap: TrapMotion, out_detunings=None
) -> ScanResult:
    """Add secular and micromotion satellites to a carrier spectrum.

    Each satellite is the carrier lineshape shifted by +-nu and scaled
    by eta^2 (nbar + 1) on the blue side, eta^2 nbar on the red side;
    micromotion satellites scale with the squared modulation index on
    both sides. The master equation itself excludes motion, so this is
    the analytic dressing of a motion-free scan.
    """
    out = np.sort(np.asarray(out_detunings if out_detunings is not None else scan.detunings, float))
    new_rates = np.empty((2, len(out)))
    for ci in range(2):
        dark = scan.dark_counts[ci]
        signal = np.where(scan.converged, scan.rates[ci] - dark, 0.0)

        def carrier(x):
            return np.interp(x, scan.detunings, signal, left=0.0, right=0.0)

        total = carrier(out)
        for nu, eta, nbar in zip(trap.frequencies, trap.lamb_dicke, trap.nbar):
            total = total + eta**2 * ((nbar + 1.0) * carrier(out - nu) + nbar * carrier(out + nu))
        if trap.micromotion_index != 0.0:
            w = trap.micromotion_index**2
            total = total + w * (
                carrier(out - trap.micromotion_frequency)
                + carrier(out + trap.micromotion_frequency)
            )
        new_rates[ci] = total + dark
    return ScanResult(
        detunings=out,
        rates=new_rates,
        converged=np.ones(len(out), dtype=bool),
        residuals=np.zeros(len(out)),
        dark_counts=scan.dark_counts,
        metadata=dict(scan.metadata),
    )


# -- single-photon pulses ----------------------------------------------------

_SAMPLES_PER_BIN = 2  # flux samples per time bin of a photon pulse


def photon_pulse(
    model: SystemModel,
    duration: float,
    bin_width: float = 200e-9,
    designated_channel: str = "H",
    n_max: int = 1,
    max_steps: int = 20_000_000,
) -> PulseShape:
    """Time-resolved detection probability after switching the drive on.

    The ion starts in |S1/2, -1/2> (optical pumping assumed complete).
    Dark counts are excluded; probabilities are detected-photon
    probabilities per time bin, each the trapezoid integral of the flux
    over ``_SAMPLES_PER_BIN`` (2) equal steps. Raises
    :class:`BinningMismatchError` unless ``duration`` is a whole number of bins.
    """
    n_bins = int(round(duration / bin_width))
    if n_bins < 1 or abs(n_bins * bin_width - duration) > 1e-9 * duration:
        raise BinningMismatchError(f"duration {duration:.6g} s is not a whole number of {bin_width:.6g} s bins")
    layout = HilbertLayout(atom=model.atom, n_max=n_max)
    rho0 = layout.basis_state(model.atom.state("S1/2", -0.5))

    edges = np.arange(n_bins + 1) * bin_width
    t_grid = np.linspace(0.0, duration, n_bins * _SAMPLES_PER_BIN + 1)

    traj = evolve(build_liouvillian(model, layout), rho0, t_grid, max_steps=max_steps)
    flux = photon_flux(traj, layout, model.cavity.kappa, model.detection, include_dark=False)

    probs = np.zeros((2, n_bins))
    for b in range(n_bins):
        sl = slice(b * _SAMPLES_PER_BIN, (b + 1) * _SAMPLES_PER_BIN + 1)
        probs[:, b] = np.trapezoid(flux[sl], t_grid[sl], axis=0)

    totals = probs.sum(axis=1)
    want = {"H": 0, "V": 1}[designated_channel]
    total_eff = float(totals[want])
    leak = float(totals[1 - want] / max(totals.sum(), 1e-300))
    return PulseShape(
        bin_edges=edges,
        probabilities=probs,
        designated_channel=designated_channel,
        total_efficiency=total_eff,
        leak_fraction=leak,
        metadata={
            "min_eigenvalue": traj.min_eigenvalue(),
            "trace_drift": traj.max_trace_drift,
            "n_steps": traj.n_steps,
        },
    )


def pulse_overlap(shape_1: PulseShape, shape_2: PulseShape) -> float:
    """Bhattacharyya overlap sum(sqrt(p1 p2)) of normalized temporal shapes."""
    if shape_1.bin_edges.shape != shape_2.bin_edges.shape or not np.allclose(
        shape_1.bin_edges, shape_2.bin_edges
    ):
        raise BinningMismatchError("pulse shapes use different time bins")
    p1 = shape_1.normalized()
    p2 = shape_2.normalized()
    return float(np.sum(np.sqrt(p1 * p2)))


# -- bichromatic schemes -----------------------------------------------------

OVERLAP_THRESHOLD = 0.95  # single-tone pulse-shape overlap below which a report warns
_CHANNELS = ("H", "V")


def _beam_b_lines(model, rabi_for_stark):
    """The sigma-minus Raman setting of ``model`` and its lines keyed by (initial, final) 2m."""
    setting = RamanSetting(
        b_gauss=model.b_gauss,
        orientation=model.orientation,
        drive_polarization=Polarization.sigma_minus(),
        drive_rabi=rabi_for_stark,
        delta_cav=model.cavity.delta_cav,
        atom=model.atom,
    )
    return setting, {(ln.initial.two_m, ln.final.two_m): ln for ln in enumerate_paths(setting)}


def _channel_probabilities(joint):
    """Per-channel sums of a matrix on the (atomic state x channel) basis."""
    diag = joint.diagonal()
    return {ch: float(np.real(diag[c::2].sum())) for c, ch in enumerate(_CHANNELS)}


def _accumulate_joint(kappa, layout, traj, channel_rotations, atom_states):
    """Integrate the per-channel cavity-decay source terms over a trajectory.

    The conditional joint state is sigma[p, p'] = 2 kappa Int dt
    a_p rho(t) a_p'^dagger on the (atomic state x channel) basis. As
    a_p = 1_atom (x) a_mode, each entry is the mode trace of a_p rho_ab
    a_p'^dagger over the mode block rho_ab between two reported atomic
    states; the blocks of all times are one gather from the trajectory's
    block vectors (:meth:`Trajectory.submatrices`). Each channel's
    emitted amplitude rotates in the computation frame at
    ``channel_rotations[ch]``; the cross terms are de-rotated accordingly
    so the reported coherence is phase referenced to the drive tones.
    Valid for <n> << 1. Returns the accumulated (unnormalized) joint
    matrix and the de-rotated integrand for drift diagnostics.
    """
    nd2, n_atom = layout.mode_dim**2, len(atom_states)
    idx = np.r_[tuple(layout.block(s) for s in atom_states)]
    times = traj.times
    blocks = traj.submatrices(idx).reshape(len(times), n_atom, nd2, n_atom, nd2)
    a = np.stack([layout.destroy(ch)[idx[:nd2]][:, idx[:nd2]].toarray() for ch in _CHANNELS])
    # Tr(a_p rho a_q^dagger) = sum_jk (a_q^dagger a_p)[k, j] rho[j, k]
    traced = np.einsum("tajbk,pqkj->tapbq", blocks, np.einsum("qik,pij->pqkj", a.conj(), a))
    rot = np.array([channel_rotations[ch] for ch in _CHANNELS])
    derot = np.exp(-1j * (rot[None, :] - rot[:, None]) * times[:, None, None])  # [t, p, q]
    integrand = (2 * kappa * derot)[:, None, :, None, :] * traced
    integrand = integrand.reshape(len(times), 2 * n_atom, 2 * n_atom)
    return np.trapezoid(integrand, times, axis=0), times, integrand


_DRIFT_CLAMP = TWO_PI * 150e3  # rad/s


def _coherence_drift(times, integrand, row, col):
    """Residual rotation rate (rad/s) of a de-rotated cross coherence.

    Fits the unwrapped phase of the cross source term linearly over the
    window where its magnitude is significant, weighted by magnitude
    squared so the collapse tail cannot dominate; a nonzero slope
    measures how far the corresponding tone sits from its true
    (dressed) line. The returned correction is clamped: differential
    dressing pulls are small, and a larger fit value signals phase
    chirp from decoherence rather than a detuning error.
    """
    chi = integrand[:, row, col]
    mag = np.abs(chi)
    mask = mag > 0.3 * mag.max()
    if mask.sum() < 5:
        return 0.0
    phase = np.unwrap(np.angle(chi[mask]))
    t = times[mask]
    slope = np.polyfit(t - t[0], phase, 1, w=mag[mask] ** 2)[0]
    return float(np.clip(slope, -_DRIFT_CLAMP, _DRIFT_CLAMP))


def _two_tone(
    branches,
    amplitudes,
    phase,
    *,
    tone_phases,
    passes,
    rabi_tone1: float,
    duration: float,
    model: SystemModel | None = None,
    rtol: float = 1e-6,
    t_points: int = 200,
    calibrate: bool = True,
    calibration: dict | None = None,
    check_overlap: bool = False,
) -> JointStateReport:
    """Drive two sigma-minus Raman branches at once; report the joint state.

    Branch k is an (initial, final) 2m pair of the S1/2 -> D5/2 line table,
    driven by tone k at phase ``tone_phases[k]`` and emitting into its
    line's channel. With real amplitudes (c1, c2) the target is
    c1|f1,ch1> + c2 e^{i phase}|f2,ch2>; the ion starts in
    c1|i1> + c2 e^{i phase}|i2>, or in the shared initial state. A tone
    whose amplitude is zero stays off: it would act only on
    depolarization-repopulated atoms of the idle branch. Tone 2 runs at
    ``ratio`` times tone 1's Rabi frequency, from the line amplitude ratio.

    Beating tones dress the ground states at their difference frequency,
    pulling the lines apart and mixing the paths beyond the static Stark
    model. With ``calibrate``, ``passes`` probe runs at an equal
    superposition shift tone 2 by the residual drift of the branch cross
    coherence and balance the branch channels by ratio *= sqrt(p1/p2);
    a previous report's ``calibration`` dict reuses the corrections. The
    fixed sign structure of the two emission amplitudes (Clebsch-Gordan
    and mode-projection phases) is removed, so the coherence phase is
    referenced to ``phase`` alone.

    Each run drives ``model`` (by default the built-in paper model) with
    the sigma-minus tones in place of its lasers, so the repumps stay off.
    """
    model = model or standard_model(drive_rabi=0.0, drive_detuning=0.0)
    layout = HilbertLayout(atom=model.atom, n_max=1)
    _, lines0 = _beam_b_lines(model, rabi_tone1)
    for b in branches:
        if b not in lines0:
            raise ConfigError(f"no sigma-minus Raman line for branch (2m_S, 2m_D) = {b} "
                              f"with B {model.orientation} to the cavity axis")
    line1, line2 = (lines0[b] for b in branches)
    # emission enters through the conjugate coupling (the h.c. term creates the photon)
    amp1, amp2 = (
        sum(p.amp_drive * np.conj(p.amp_emit) for p in ln.paths) for ln in (line1, line2)
    )
    intrinsic = float(np.angle(amp1 * np.conj(amp2)))
    shared = line1.initial == line2.initial
    finals = list({ln.final.two_m: ln.final for ln in (line1, line2)}.values())
    channels = (line1.channel, line2.channel)
    i1, i2 = (2 * finals.index(ln.final) + _CHANNELS.index(ln.channel) for ln in (line1, line2))

    def run(shift, ratio, amps, state_phase, run_duration, points):
        on = [abs(c) > 1e-9 for c in amps]
        rabis = (rabi_tone1, rabi_tone1 * ratio)
        rabi_total = math.sqrt(sum(r**2 for r, o in zip(rabis, on) if o))
        setting, lines = _beam_b_lines(model, rabi_total)
        dets = (lines[branches[0]].detuning, lines[branches[1]].detuning + shift)
        tones = tuple(
            Tone(rabi=r, detuning=d, phase=ph)
            for r, d, ph, o in zip(rabis, dets, tone_phases, on)
            if o
        )
        anchor = tones[0].detuning
        driven = replace(model, lasers=(LaserField("drive", tones, beam_b_polarization()),))
        if shared:
            rho0 = layout.basis_state(line1.initial)
        else:
            psi = np.zeros(layout.dim, dtype=complex)
            psi[layout.index(line1.initial, 0, 0)] = amps[0]
            psi[layout.index(line2.initial, 0, 0)] = amps[1] * np.exp(1j * state_phase)
            rho0 = np.outer(psi, psi.conj())
        t_grid = np.linspace(0.0, run_duration, points + 1)
        traj = evolve(build_liouvillian(driven, layout), rho0, t_grid, rtol=rtol)
        # each branch co-rotates with its tone's beat; from distinct initial states
        # it also carries its own state's frame energy, which a shared state cancels
        rotations = {}
        for ln, det in zip((line1, line2), dets):
            frame = zeeman_shift(ln.initial, model.b_gauss) + stark_shift_ground(ln.initial, setting, det)
            rotations[ln.channel] = det - anchor + (0.0 if shared else frame)
        return (driven, *_accumulate_joint(model.cavity.kappa, layout, traj, rotations, finals))

    if calibration is not None:
        shift = float(calibration["tone2_detuning_shift"])
        ratio = float(calibration["amplitude_ratio"])
    else:
        shift, ratio = 0.0, line1.amplitude / line2.amplitude
        if calibrate:
            probe_t = min(duration, max(0.4 * duration, 12e-6))
            probe_points = max(t_points // 2, 80)
            probe = (math.cos(math.pi / 4), math.sin(math.pi / 4))  # equal superposition
            for _ in range(passes):
                _, sigma_p, times, integrand = run(shift, ratio, probe, 0.0, probe_t, probe_points)
                shift += _coherence_drift(times, integrand, i1, i2)
                probs = _channel_probabilities(sigma_p)
                p1, p2 = probs[channels[0]], probs[channels[1]]
                if p1 > 0 and p2 > 0:
                    ratio *= math.sqrt(p1 / p2)

    driven, sigma, _, _ = run(shift, ratio, amplitudes, phase, duration, t_points)

    emission = float(np.real(np.trace(sigma)))
    joint = sigma / max(emission, 1e-300)
    c1, c2 = amplitudes
    chi = joint[i1, i2] * np.exp(-1j * intrinsic)  # <f1,ch1|.|f2,ch2>, sign-referenced
    pops = c1**2 * joint[i1, i1].real + c2**2 * joint[i2, i2].real

    report_warnings = []
    if check_overlap:
        overlap = _single_tone_overlap(driven, branches, channels, duration)
        if overlap < OVERLAP_THRESHOLD:
            msg = (
                f"single-tone pulse shapes overlap only {overlap:.3f} < {OVERLAP_THRESHOLD}; "
                "time-bin structure invalidates a polarization-only state report"
            )
            warnings.warn(msg)
            report_warnings.append(msg)

    return JointStateReport(
        joint=joint,
        basis=tuple(
            ch if len(finals) == 1 else f"{f.label} x {ch}" for f in finals for ch in _CHANNELS
        ),
        emission_probability=emission,
        channel_probabilities=_channel_probabilities(sigma),
        fidelity=float(pops + 2 * c1 * c2 * (np.exp(1j * phase) * chi).real),
        fidelity_max=float(pops + 2 * abs(c1 * c2) * abs(chi)),
        coherence_phase=float(-np.angle(chi)),
        target_phase=phase,
        warnings=report_warnings,
        calibration={
            "tone2_detuning_shift": shift,
            "amplitude_ratio": ratio,
            "intrinsic_phase": intrinsic,
        },
    )


def _single_tone_overlap(model, branches, channels, duration):
    """Overlap of the pulse shapes that each drive tone gives on its own.

    A lone tone sits on its own line: the one of its branch in the line
    table at its own Rabi frequency, whose ground Stark shift differs from
    the one both tones together give.
    """
    shapes = []
    for tone, branch, ch in zip(model.laser("drive").tones, branches, channels):
        _, lines = _beam_b_lines(model, tone.rabi)
        alone = (Tone(rabi=tone.rabi, detuning=lines[branch].detuning),)
        lasers = tuple(replace(l, tones=alone) if l.role == "drive" else l for l in model.lasers)
        kwargs = dict(bin_width=duration / 100, designated_channel=ch)
        shapes.append(photon_pulse(replace(model, lasers=lasers), duration, **kwargs))
    return pulse_overlap(*shapes)


def entangle_bichromatic(
    *, relative_phase: float = 0.0, global_phase: float = 0.0, **options
) -> JointStateReport:
    """Drive both target transitions at once; report the joint state.

    Tone 1 addresses |S,-1/2> -> |D,-5/2> (H photon), tone 2 addresses
    |S,-1/2> -> |D,-3/2> (V photon) with ``relative_phase``; a
    ``global_phase`` common to both is a gauge choice. The target state is
    (|D,-5/2>|H> + exp(i phi)|D,-3/2>|V>)/sqrt(2) on the basis
    (D-5/2 x H, D-5/2 x V, D-3/2 x H, D-3/2 x V). Calibration takes two
    probe passes. ``options`` are those of ``_two_tone``: ``rabi_tone1``
    and ``duration`` (required), ``model`` (the atom, B field and cavity
    to drive; its lasers are replaced), ``rtol``, ``t_points``,
    ``calibrate``, ``calibration`` and ``check_overlap`` (warn when the
    single-tone pulse shapes overlap less than ``OVERLAP_THRESHOLD``).
    """
    return _two_tone(
        ((-1, -5), (-1, -3)), (math.sqrt(0.5), math.sqrt(0.5)), relative_phase,
        tone_phases=(global_phase, relative_phase + global_phase), passes=2, **options,
    )


def map_state(alpha: float, phi: float, **options) -> JointStateReport:
    """Map an S1/2 qubit onto the photon polarization via a shared final state.

    The prepared atomic state cos(a)|S,-1/2> + e^{i phi} sin(a)|S,+1/2>
    is driven by two tones that both end in |D,-3/2>: the -1/2 branch
    emits a V (pi) photon, the +1/2 branch an H (sigma) photon. Target
    photonic state: cos(a)|V> + e^{i phi} sin(a)|H> on the basis (H, V).
    Calibration takes one probe pass; ``options`` are those of
    ``entangle_bichromatic``. The channel probabilities are the photon's
    polarization fractions.
    """
    report = _two_tone(
        ((-1, -3), (1, -3)), (math.cos(alpha), math.sin(alpha)), phi,
        tone_phases=(0.0, 0.0), passes=1, **options,
    )
    report.channel_probabilities = _channel_probabilities(report.joint)
    return report


# -- qubit dynamics (analytic carrier models) --------------------------------

_THERMAL_WEIGHT_CUTOFF = 1e-7  # thermal tail weight dropped per motional mode
_THERMAL_MAX_N = 400  # largest occupation kept per motional mode
_THERMAL_BLOCK = 64  # times per block of the closed form's (f23 x times) phase arrays


def thermal_rabi(rabi0: float, lamb_dicke, nbar, t_grid):
    """Carrier Rabi oscillation averaged over thermal motional occupation.

    P(t) = sum_n p(nbar, n) sin^2(Omega_n t / 2) with
    Omega_n = Omega_0 prod_m (1 - eta_m^2 n_m), the second-order
    Lamb-Dicke carrier frequency. Each mode's thermal weights
    p(n) = (1 - r) r^n, r = nbar/(1+nbar), are cut where the tail weight
    falls below ``_THERMAL_WEIGHT_CUTOFF`` (at most ``_THERMAL_MAX_N``
    quanta) and renormalized. The radial pairs merge by f23 = f2 f3, and
    the axial sum, geometric in n1, is summed exactly:
    sum_n p1(n) e^{i theta (1 - eta1^2 n)} = p1(0) e^{i theta} (1 - q^K) / (1 - q)
    with theta = Omega_0 f23 t, q = r1 e^{-i theta eta1^2} and K axial
    levels. Warns outside the Lamb-Dicke regime.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    etas, nbars = tuple(lamb_dicke), tuple(nbar)
    if min(nbars) < 0:
        raise ValueError("thermal occupations must be non-negative")
    if any(e**2 * (nb + 1) > 0.3 for e, nb in zip(etas, nbars)):
        warnings.warn("outside the Lamb-Dicke validity regime: eta^2 (nbar+1) > 0.3")

    def weights(nb):
        r = nb / (1.0 + nb)
        p = r ** np.arange(_THERMAL_MAX_N + 1) / (1.0 + nb)
        k = min(int(np.searchsorted(np.cumsum(p), 1 - _THERMAL_WEIGHT_CUTOFF)) + 1, _THERMAL_MAX_N)
        return p[: k + 1] / p[: k + 1].sum(), r

    eta1, eta2, eta3 = etas
    (p1, r1), (p2, _), (p3, _) = (weights(nb) for nb in nbars)
    f23 = np.outer(1.0 - eta2**2 * np.arange(p2.size), 1.0 - eta3**2 * np.arange(p3.size))
    f23, pair = np.unique(f23, return_inverse=True)
    w23 = p1[0] * np.bincount(pair.ravel(), weights=np.outer(p2, p3).ravel())
    k1 = p1.size

    def axial(t):
        def cis(c):  # e^{i c theta}, one row per f23
            return np.exp(np.outer(1j * rabi0 * c * f23, t))

        return (cis(1.0) - r1**k1 * cis(1.0 - k1 * eta1**2)) / (1.0 - r1 * cis(-(eta1**2)))

    # the series at t = 0 goes through the same expression, so P(0) is exactly 0;
    # blocks of times bound the (f23 x times) phase arrays
    at_zero = axial(0.0)
    prob = np.empty(t_grid.size)
    for i in range(0, t_grid.size, _THERMAL_BLOCK):
        prob[i : i + _THERMAL_BLOCK] = 0.5 * (w23 @ (at_zero - axial(t_grid[i : i + _THERMAL_BLOCK]))).real
    return prob


@dataclass
class RamseyResult:
    t_wait: np.ndarray
    amplitudes: np.ndarray
    amplitude0: float
    coherence_time: float
    stderr: np.ndarray
    gaussian_cost: float
    exponential_params: np.ndarray
    exponential_cost: float


def ramsey_fringe(phases, t_wait, amplitude0, tau):
    """P(phase) = (1 + A(t) cos(phase)) / 2 with Gaussian decay.

    Quasi-static Gaussian-distributed detuning noise (slow field drift)
    gives A(t) = A0 exp(-(t/tau)^2 / 2).
    """
    amp = amplitude0 * math.exp(-((t_wait / tau) ** 2) / 2.0)
    return 0.5 * (1.0 + amp * np.cos(np.asarray(phases)))


def fringe_amplitude(phases, populations):
    """Least-squares cosine amplitude of one measured fringe."""
    phases = np.asarray(phases, dtype=float)
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coef, *_ = np.linalg.lstsq(design, np.asarray(populations, float), rcond=None)
    return 2.0 * math.hypot(coef[1], coef[2])


def ramsey_coherence(
    t_wait_grid,
    phase_grid,
    tau: float,
    amplitude0: float = 0.97,
    noise: float = 0.0,
    rng=None,
) -> RamseyResult:
    """Synthesize fringes under quasi-static Gaussian dephasing and fit them.

    Returns per-wait fringe amplitudes plus fitted (A0, tau) for the
    Gaussian decay model, with an exponential-decay fit reported
    alongside for comparison rather than asserted as truth.
    """
    from .fitting import least_squares_fit
    from .errors import FitNonConvergenceError

    t_wait_grid = np.asarray(t_wait_grid, dtype=float)
    phase_grid = np.asarray(phase_grid, dtype=float)
    rng = rng or np.random.default_rng(0)

    amplitudes = []
    for t in t_wait_grid:
        fringe = ramsey_fringe(phase_grid, t, amplitude0, tau)
        if noise > 0:
            fringe = fringe + rng.normal(0.0, noise, size=fringe.shape)
        amplitudes.append(fringe_amplitude(phase_grid, fringe))
    amplitudes = np.asarray(amplitudes)

    def gauss_resid(p):
        a0, tc = p
        return a0 * np.exp(-((t_wait_grid / tc) ** 2) / 2.0) - amplitudes

    def exp_resid(p):
        a0, tc = p
        return a0 * np.exp(-t_wait_grid / tc) - amplitudes

    p0 = np.array([max(amplitudes.max(), 0.1), max(t_wait_grid.max() / 2.0, 1e-6)])
    gauss = least_squares_fit(gauss_resid, p0)
    try:
        expo = least_squares_fit(exp_resid, p0)
        expo_params, expo_cost = expo.params, expo.cost
    except FitNonConvergenceError as exc:
        expo_params, expo_cost = np.array([math.nan, math.nan]), float(exc.cost or math.nan)

    return RamseyResult(
        t_wait=t_wait_grid,
        amplitudes=amplitudes,
        amplitude0=float(gauss.params[0]),
        coherence_time=float(abs(gauss.params[1])),
        stderr=gauss.stderr,
        gaussian_cost=gauss.cost,
        exponential_params=expo_params,
        exponential_cost=expo_cost,
    )
