"""Analytic layer for cavity-assisted Raman transitions.

Enumerates every S1/2 -> P3/2 -> D5/2 two-photon path for a given drive
polarization and cavity geometry, computes the drive-side and
cavity-side strengths alpha and beta, the effective two-photon coupling
and residual scattering rate after adiabatic elimination of the
intermediate manifold, and the drive detuning at which each line is
resonant (Zeeman plus second-order Stark shifts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .atom import AtomData, ZeemanState, dipole_pairs, load_atom, zeeman_shift
from .errors import SelectionRuleError
from .polarization import CavityModeBasis, Polarization


@dataclass(frozen=True)
class RamanPath:
    """One two-photon path: drive absorption then cavity emission.

    ``amp_drive`` is the signed/complex product of drive polarization
    component and Clebsch-Gordan coefficient; ``amp_emit`` likewise for
    the cavity leg. ``alpha`` and ``beta`` are their magnitudes.
    m-conservation holds by construction:
    m_final = m_initial + q_drive - q_emit.
    """

    initial: ZeemanState
    intermediate: ZeemanState
    final: ZeemanState
    q_drive: int
    q_emit: int
    channel: str
    amp_drive: complex
    amp_emit: complex

    @property
    def alpha(self) -> float:
        return abs(self.amp_drive)

    @property
    def beta(self) -> float:
        return abs(self.amp_emit)

    @property
    def strength(self) -> float:
        return self.alpha * self.beta


@dataclass(frozen=True)
class RamanLine:
    """A spectral line: all paths sharing initial and final state.

    Paths through different intermediate sub-states are resonant at the
    same drive frequency and interfere; ``amplitude`` is the magnitude
    of their coherently summed alpha*beta products.
    """

    initial: ZeemanState
    final: ZeemanState
    channel: str
    amplitude: float
    detuning: float  # resonant drive detuning, rad/s
    paths: tuple[RamanPath, ...]


@dataclass(frozen=True)
class RamanSetting:
    """Experimental configuration for the Raman layer."""

    b_gauss: float
    orientation: str  # of B relative to the cavity axis
    drive_polarization: Polarization
    drive_rabi: float  # rad/s
    delta_cav: float  # rad/s, cavity detuning from the P3/2 <-> D5/2 line
    atom: AtomData = field(default_factory=load_atom)

    @property
    def mode_basis(self) -> CavityModeBasis:
        return CavityModeBasis.for_orientation(self.orientation)


def enumerate_paths(setting: RamanSetting) -> list[RamanLine]:
    """All Raman lines with nonzero strength, merged by (initial, final)."""
    pol = setting.drive_polarization
    atom = setting.atom
    basis = setting.mode_basis
    c = {q: pol.component(q) for q in (-1, 0, 1)}

    emitters = {}  # P3/2 2m -> [(D5/2 state, q_emit, cg)], D5/2 m ascending
    for d, p, q_emit, cg_pd in dipole_pairs(atom, "D5/2", "P3/2"):
        emitters.setdefault(p.two_m, []).append((d, q_emit, cg_pd))
    proj = {(ch, q): basis.emission_projection(ch, q) for ch in ("H", "V") for q in (-1, 0, 1)}

    paths = []
    for s, p, q_drv, cg_sp in dipole_pairs(atom, "S1/2", "P3/2"):
        if abs(c[q_drv]) < 1e-15:
            continue
        amp_drive = c[q_drv] * cg_sp
        for d, q_emit, cg_pd in emitters.get(p.two_m, ()):
            for channel in ("H", "V"):
                if abs(proj[channel, q_emit]) < 1e-15:
                    continue
                paths.append(
                    RamanPath(
                        initial=s,
                        intermediate=p,
                        final=d,
                        q_drive=q_drv,
                        q_emit=q_emit,
                        channel=channel,
                        amp_drive=amp_drive,
                        amp_emit=proj[channel, q_emit] * cg_pd,
                    )
                )
    return merge_lines(paths, setting)


def merge_lines(paths, setting: RamanSetting) -> list[RamanLine]:
    """Group paths into spectral lines by (initial, final) state.

    The paths of a line share their initial and final states, and those
    (with the setting) are all `resonance_detuning` reads, so the line's
    detuning is that of its first path.
    """
    groups: dict[tuple, list[RamanPath]] = {}
    for path in paths:
        key = (path.initial.label, path.final.label, path.channel)
        groups.setdefault(key, []).append(path)
    lines = []
    for group in groups.values():
        amplitude = abs(sum(p.amp_drive * p.amp_emit for p in group))
        if amplitude < 1e-15:
            continue
        lines.append(
            RamanLine(
                initial=group[0].initial,
                final=group[0].final,
                channel=group[0].channel,
                amplitude=amplitude,
                detuning=float(resonance_detuning(group[0], setting)),
                paths=tuple(group),
            )
        )
    lines.sort(key=lambda ln: ln.detuning)
    return lines


def pair_strengths(path_a: RamanPath | RamanLine, path_b: RamanPath | RamanLine):
    """The (alpha*beta, alpha*beta) products of two paths sharing an initial state."""
    if path_a.initial != path_b.initial:
        raise SelectionRuleError("paths do not share an initial state")

    def strength(p):
        return p.strength if isinstance(p, RamanPath) else p.amplitude

    return (strength(path_a), strength(path_b))


def select_optimal_pair(setting: RamanSetting) -> list[tuple[RamanLine, RamanLine]]:
    """Rank line pairs for a polarization-encoded photonic qubit.

    Candidate pairs share the initial state and emit into orthogonal
    cavity channels; ranking is by the weaker strength first, then the
    product, descending. Empty if no orthogonal-channel pair exists.
    """
    lines = enumerate_paths(setting)
    pairs = []
    for i, a in enumerate(lines):
        for b in lines[i + 1 :]:
            if a.initial != b.initial or a.channel == b.channel:
                continue
            # mirror pairs tie on strength; break deterministically by state
            key = (
                -min(a.amplitude, b.amplitude),
                -a.amplitude * b.amplitude,
                a.initial.two_m,
                a.final.two_m + b.final.two_m,
            )
            pairs.append((key, (a, b)))
    pairs.sort(key=lambda kv: kv[0])
    return [pair for _, pair in pairs]


def effective_coupling(alpha, beta, rabi_drive, delta_drive, g0):
    """Two-photon Rabi rate alpha*Omega * beta*2g0 / (2|delta|), rad/s.

    Valid for |delta| >> Omega; outside that regime the adiabatic
    elimination underlying the formula degrades but the arithmetic is
    still returned.
    """
    if delta_drive == 0:
        raise ZeroDivisionError("effective coupling diverges at zero drive detuning")
    return alpha * rabi_drive * beta * 2 * g0 / (2 * abs(delta_drive))


def effective_decay(rabi_drive, delta_drive, gamma_total):
    """Residual spontaneous scattering gamma * (Omega / 2|delta|)^2, rad/s."""
    if delta_drive == 0:
        raise ZeroDivisionError("effective decay diverges at zero drive detuning")
    return gamma_total * (rabi_drive / (2 * abs(delta_drive))) ** 2


def stark_shift_ground(state: ZeemanState, setting: RamanSetting, delta_drv: float) -> float:
    """Second-order light shift of an S1/2 sub-state from the drive field.

    Sum of (alpha_i Omega)^2 / (4 delta_i) over the dipole-allowed P3/2
    paths, each with its own Zeeman-corrected detuning. D-state shifts
    from the vacuum-level cavity field are neglected.
    """
    pol = setting.drive_polarization
    total = 0.0
    for lo, p, q, cg in dipole_pairs(setting.atom, state.manifold.label, "P3/2"):
        if lo.two_m != state.two_m:
            continue
        c = pol.component(q)
        if abs(c) < 1e-15:
            continue
        amp = abs(c) * cg
        delta_i = delta_drv - (
            zeeman_shift(p, setting.b_gauss) - zeeman_shift(state, setting.b_gauss)
        )
        total += (amp * setting.drive_rabi) ** 2 / (4 * delta_i)
    return total


def resonance_detuning(path: RamanPath, setting: RamanSetting) -> float:
    """Drive detuning at which the two-photon resonance holds for ``path``.

    delta_drv = delta_cav + Zeeman(final) - Zeeman(initial)
                + Stark(final) - Stark(initial),
    with the ground-state Stark shift evaluated self-consistently at the
    returned detuning (three fixed-point steps; it converges in a couple
    since the shift varies slowly on the scale of the detuning itself).
    """
    dz = zeeman_shift(path.final, setting.b_gauss) - zeeman_shift(
        path.initial, setting.b_gauss
    )
    delta = setting.delta_cav + dz
    if setting.drive_rabi == 0.0:
        return delta
    for _ in range(3):
        shift = stark_shift_ground(path.initial, setting, delta)
        delta = setting.delta_cav + dz - shift
    return delta
