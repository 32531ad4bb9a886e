"""Cavity geometry and the photon detection chain.

The resonator is a symmetric near-concentric two-mirror cavity; only
its fundamental-mode geometry enters the dynamics, via the waist and
the peak ion-cavity coupling. The decay rate kappa is treated as a
measured input rather than derived from mirror transmissions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import UnstableResonatorError


@dataclass(frozen=True)
class CavityGeometry:
    """Two-mirror symmetric resonator.

    Lengths in meters. ``kappa`` is the cavity field (amplitude) decay
    rate in rad/s: the photon number decays at 2*kappa.
    """

    length: float
    mirror_radius: float
    wavelength: float
    kappa: float

    def __post_init__(self):
        if self.length <= 0 or self.length >= 2 * self.mirror_radius:
            raise UnstableResonatorError(
                f"length {self.length} m outside stability range (0, 2R) "
                f"for R = {self.mirror_radius} m"
            )
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * mode_waist(self) ** 2 / self.wavelength


def mode_waist(geom: CavityGeometry) -> float:
    """Fundamental-mode waist w0 = sqrt((lambda/2pi) sqrt(L(2R - L))), meters."""
    L, R = geom.length, geom.mirror_radius
    return math.sqrt(geom.wavelength / (2 * math.pi) * math.sqrt(L * (2 * R - L)))


def coupling_rate(length: float, waist: float, wavelength: float, gamma_pd: float) -> float:
    """g0 = sqrt(3 c gamma lambda^2 / (pi^2 L w0^2)) for explicit mode size."""
    if gamma_pd <= 0:
        raise ValueError("gamma_pd must be positive")
    if length <= 0 or waist <= 0:
        raise ValueError("length and waist must be positive")
    return math.sqrt(
        3 * SPEED_OF_LIGHT * gamma_pd * wavelength**2 / (math.pi**2 * length * waist**2)
    )


def max_coupling(geom: CavityGeometry, gamma_pd: float) -> float:
    """Peak ion-cavity coupling for the geometry's own fundamental mode.

    ``gamma_pd`` is the amplitude decay rate (half the population rate)
    of the one dipole transition the cavity addresses, in rad/s.
    """
    return coupling_rate(geom.length, mode_waist(geom), geom.wavelength, gamma_pd)


@dataclass(frozen=True)
class DetectionChain:
    """Per-channel detection efficiencies and the polarization analysis basis.

    Channel 0 detects the H cavity mode and channel 1 the V mode when
    ``analysis_basis`` is the identity; a different unitary rotates the
    measured mode pair, modelling waveplate misalignment.
    """

    apd_efficiency: tuple[float, float] = (0.49, 0.46)
    path_transmission: tuple[float, float] = (0.87, 0.86)
    output_coupling: float = 0.19
    dark_counts: tuple[float, float] = (33.1, 33.6)  # counts/s
    analysis_basis: np.ndarray = field(
        default_factory=lambda: np.eye(2, dtype=complex)
    )
    fitted_path_efficiency: float | None = None

    def __post_init__(self):
        for name in ("apd_efficiency", "path_transmission"):
            for v in getattr(self, name):
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{name} entries must lie in [0, 1]")
        if not 0.0 <= self.output_coupling <= 1.0:
            raise ValueError("output coupling must lie in [0, 1]")
        u = np.asarray(self.analysis_basis, dtype=complex)
        if u.shape != (2, 2) or np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-12:
            raise ValueError("analysis basis must be a 2x2 unitary")
        object.__setattr__(self, "analysis_basis", u)

    @classmethod
    def rotated(cls, angle_rad: float, **kwargs) -> "DetectionChain":
        """Chain whose analysis basis is rotated by ``angle_rad`` in the HV plane."""
        c, s = math.cos(angle_rad), math.sin(angle_rad)
        return cls(analysis_basis=np.array([[c, s], [-s, c]], dtype=complex), **kwargs)


def channel_efficiency(chain: DetectionChain):
    """Per-channel photon-in-cavity -> detection-event probability.

    The product APD efficiency x path transmission x output coupling for
    each channel. If a single fitted path efficiency was configured it
    replaces both per-channel products.
    """
    if chain.fitted_path_efficiency is not None:
        return (chain.fitted_path_efficiency, chain.fitted_path_efficiency)
    return tuple(
        a * p * chain.output_coupling
        for a, p in zip(chain.apd_efficiency, chain.path_transmission)
    )
