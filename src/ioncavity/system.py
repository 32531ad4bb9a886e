"""Full system description: atom + field + cavity + lasers + detection.

A :class:`SystemModel` is an immutable value object consumed by the
Liouvillian builder. Laser roles are fixed by the transition each beam
addresses:

* ``drive``      S1/2 <-> P3/2 (393 nm), possibly multi-tone
* ``repump_854`` D5/2 <-> P3/2
* ``repump_866`` D3/2 <-> P1/2

At most one laser per role; a second field on the same transition other
than the cavity (which changes photon number and therefore lives on its
own rotating-frame branch) would make the rotating frame inconsistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .atom import AtomData, load_atom
from .cavity import CavityGeometry, DetectionChain, max_coupling
from .errors import FrameConsistencyError
from .polarization import CavityModeBasis, Polarization, X, Y, Z

LASER_ROLES = ("drive", "repump_854", "repump_866")


@dataclass(frozen=True)
class Tone:
    """One frequency component of a laser: Rabi amplitude, detuning, phase."""

    rabi: float  # rad/s
    detuning: float  # rad/s, relative to the addressed transition
    phase: float = 0.0

    def __post_init__(self):
        if self.rabi < 0:
            raise ValueError("Rabi frequency must be non-negative")

    @property
    def amplitude(self) -> complex:
        return self.rabi * np.exp(1j * self.phase)


@dataclass(frozen=True)
class LaserField:
    """A classical laser beam addressing one atomic transition."""

    role: str
    tones: tuple[Tone, ...]
    polarization: Polarization

    def __post_init__(self):
        if self.role not in LASER_ROLES:
            raise ValueError(f"unknown laser role {self.role!r}")
        if not self.tones:
            raise ValueError("laser needs at least one tone")
        if self.role != "drive" and len(self.tones) > 1:
            raise FrameConsistencyError(
                f"{self.role} must be single-tone; only the drive may be bichromatic"
            )

    @property
    def detuning(self) -> float:
        return self.tones[0].detuning


@dataclass(frozen=True)
class CavityParams:
    """Cavity quantities that feed the dynamics."""

    g: float  # peak coupling actually seen by the ion (may include reduction), rad/s
    kappa: float  # field decay rate, rad/s
    delta_cav: float  # detuning from the P3/2 <-> D5/2 transition, rad/s

    def __post_init__(self):
        if self.g < 0 or self.kappa < 0:
            raise ValueError("rates must be non-negative")

    @classmethod
    def from_geometry(
        cls, geometry: CavityGeometry, gamma_pd: float, delta_cav: float, coupling_scale=1.0
    ) -> "CavityParams":
        """The geometry's peak coupling times ``coupling_scale`` (g = 0 when
        either the scale or the P3/2 -> D5/2 amplitude decay ``gamma_pd`` is 0)."""
        g = 0.0 if coupling_scale == 0.0 or gamma_pd == 0.0 else coupling_scale * max_coupling(geometry, gamma_pd)
        return cls(g=g, kappa=geometry.kappa, delta_cav=delta_cav)


@dataclass(frozen=True)
class SystemModel:
    """Everything the Liouvillian builder needs."""

    atom: AtomData
    b_gauss: float
    orientation: str  # of B relative to the cavity axis
    cavity: CavityParams
    lasers: tuple[LaserField, ...] = ()
    detection: DetectionChain = field(default_factory=DetectionChain)

    def __post_init__(self):
        if self.b_gauss < 0:
            raise ValueError("magnetic field must be non-negative")
        roles = [laser.role for laser in self.lasers]
        dupes = {r for r in roles if roles.count(r) > 1}
        if dupes:
            raise FrameConsistencyError(
                f"two lasers address the same transition ({sorted(dupes)}); "
                "their rotating frames are incompatible"
            )

    @property
    def mode_basis(self) -> CavityModeBasis:
        return CavityModeBasis.for_orientation(self.orientation)

    def laser(self, role: str) -> LaserField | None:
        for field_ in self.lasers:
            if field_.role == role:
                return field_
        return None

    def replace_drive(self, **tone_kwargs) -> "SystemModel":
        """New model with the first drive tone's parameters replaced."""
        drive = self.laser("drive")
        if drive is None:
            raise ValueError("model has no drive laser")
        tone = replace(drive.tones[0], **tone_kwargs)
        new_drive = replace(drive, tones=(tone,) + drive.tones[1:])
        lasers = tuple(new_drive if l.role == "drive" else l for l in self.lasers)
        return replace(self, lasers=lasers)


def gamma_pd_amplitude(atom: AtomData) -> float:
    """Amplitude decay rate of the P3/2 -> D5/2 branch (half its population rate)."""
    p32 = atom["P3/2"]
    return 0.5 * p32.decay_rate * p32.branching.get("D5/2", 0.0)


# -- standard beam geometries ----------------------------------------------
#
# Atomic frame: quantization (B) along z. For the perpendicular
# configuration the cavity axis is x.


def beam_a_polarization() -> Polarization:
    """Linear polarization orthogonal to B for a beam at 45 deg to the cavity."""
    k = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    return Polarization.linear(Y, k=k)


def beam_b_polarization() -> Polarization:
    """Circular sigma-minus polarization, propagating along B."""
    return Polarization.sigma_minus()


def repump_polarization() -> Polarization:
    """Repump beams: linear orthogonal to B, propagating along the cavity."""
    return Polarization.linear(Y, k=X)


def pi_drive_polarization() -> Polarization:
    """Linear polarization along B, propagating perpendicular to it."""
    return Polarization.linear(Z, k=X)


def default_geometry() -> CavityGeometry:
    return CavityGeometry(
        length=19.96e-3, mirror_radius=10.02e-3, wavelength=854e-9, kappa=2 * math.pi * 50e3
    )


def standard_model(
    *,
    drive_rabi: float,
    drive_detuning: float,
    drive_polarization: Polarization | None = None,
    delta_cav: float = -2 * math.pi * 400e6,
    b_gauss: float = 4.77,
    orientation: str = "perpendicular",
    repump_854_rabi: float = 2 * math.pi * 5.0e6,
    repump_854_detuning: float = 0.0,
    repump_866_rabi: float = 2 * math.pi * 5.0e6,
    repump_866_detuning: float = 0.0,
    coupling_scale: float = 1.0,
    atom: AtomData | None = None,
    detection: DetectionChain | None = None,
) -> SystemModel:
    """The workhorse configuration: paper-style geometry with overridable knobs.

    Repump Rabi frequencies default to modest values that repump
    efficiently without dressing the D manifold enough to distort line
    positions; set a repump Rabi to 0 to switch that beam off.
    """
    atom = atom or load_atom()
    cavity = CavityParams.from_geometry(default_geometry(), gamma_pd_amplitude(atom), delta_cav, coupling_scale)
    lasers = []
    if drive_rabi > 0:
        lasers.append(
            LaserField(
                role="drive",
                tones=(Tone(rabi=drive_rabi, detuning=drive_detuning),),
                polarization=drive_polarization or beam_a_polarization(),
            )
        )
    if repump_854_rabi > 0:
        lasers.append(
            LaserField(
                role="repump_854",
                tones=(Tone(rabi=repump_854_rabi, detuning=repump_854_detuning),),
                polarization=repump_polarization(),
            )
        )
    if repump_866_rabi > 0:
        lasers.append(
            LaserField(
                role="repump_866",
                tones=(Tone(rabi=repump_866_rabi, detuning=repump_866_detuning),),
                polarization=repump_polarization(),
            )
        )
    return SystemModel(
        atom=atom,
        b_gauss=b_gauss,
        orientation=orientation,
        cavity=cavity,
        lasers=tuple(lasers),
        detection=detection or DetectionChain(),
    )
