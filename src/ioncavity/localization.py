"""Relative ion-cavity position: standing-wave visibility and waist scans.

A thermal/vibrational Gaussian wavepacket convolved with the cavity
intensity yields closed forms for (a) the fringe visibility along the
standing wave, which maps to the axial spread sigma_z, (b) the
modulated-Gaussian profile seen when the ion is translated almost
perpendicular to the cavity axis, and (c) the reduction of the coupling
from transverse spread sigma_x. The waist-scan profile is fit by SciPy's
trust-region least squares (``fitting.least_squares_fit``, whose relative
difference steps suit spreads of a few nanometres) with sigma_x, sigma_z,
amplitude, center and offset free; the spread along the remaining
transverse axis does not enter these measurements.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import BinningMismatchError
from .fitting import FitResult, least_squares_fit


@dataclass(frozen=True)
class WavepacketSpread:
    """RMS spreads in meters; z along the cavity axis."""

    sigma_x: float
    sigma_z: float = 0.0

    def __post_init__(self):
        if self.sigma_x < 0 or self.sigma_z < 0:
            raise ValueError("spreads must be non-negative")


@dataclass
class ScanDataset:
    """Measured or simulated scan: positions (or piezo voltage) vs counts."""

    position: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.counts = np.asarray(self.counts, dtype=float)
        if self.position.shape != self.counts.shape:
            raise BinningMismatchError("position and counts have different shapes")

    @classmethod
    def from_csv(cls, path) -> "ScanDataset":
        """Columns: position_or_voltage, counts; further columns are ignored; header optional."""
        pos, cnt = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].startswith("#"):
                    continue
                try:
                    values = [float(x) for x in row[:2]]
                except ValueError:
                    continue  # header line
                pos.append(values[0])
                cnt.append(values[1])
        return cls(position=np.array(pos), counts=np.array(cnt))


def visibility_factor(sigma_z: float, wavelength: float) -> float:
    """Fringe contrast exp(-8 pi^2 sigma_z^2 / lambda^2) of the blurred standing wave."""
    return math.exp(-8 * math.pi**2 * sigma_z**2 / wavelength**2)


def visibility_to_sigma(visibility: float, wavelength: float) -> float:
    """Axial localization sigma_z = (lambda/2pi) sqrt(-ln V / 2) from fringe contrast."""
    if not 0.0 < visibility <= 1.0:
        raise ValueError("visibility must lie in (0, 1]")
    return wavelength / (2 * math.pi) * math.sqrt(-math.log(visibility) / 2.0)


def standing_wave_profile(
    spread: WavepacketSpread, wavelength: float, waist: float, angle_rad: float, x
):
    """Intensity seen along a trap-axis translation at ``angle_rad`` to perpendicular.

    I(x) propto exp(-2 x^2 / (4 sigma_x^2 + w0^2))
              * (1 - cos(4 pi x tan(theta) / lambda) * exp(-8 pi^2 sigma_z^2 / lambda^2)),
    the closed form of the 3-d convolution of the Gaussian wavepacket
    with the standing-wave mode intensity.
    """
    if waist <= 0:
        raise ValueError("waist must be positive")
    x = np.asarray(x, dtype=float)
    envelope = np.exp(-2 * x**2 / (4 * spread.sigma_x**2 + waist**2))
    contrast = visibility_factor(spread.sigma_z, wavelength)
    modulation = 1.0 - np.cos(4 * math.pi * x * math.tan(angle_rad) / wavelength) * contrast
    return envelope * modulation


def axial_scan_rate(z, amplitude, visibility, wavelength, background=0.0):
    """Count rate across the standing wave: bg + A (1 - V cos(2 k z)) / 2."""
    z = np.asarray(z, dtype=float)
    k = 2 * math.pi / wavelength
    return background + amplitude * (1 - visibility * np.cos(2 * k * z)) / 2.0


def coupling_reduction(sigma_x: float, waist: float) -> float:
    """g_obs/g0 = 1/sqrt(1 + 2 sigma_x^2 / w0^2): Gaussian average of the mode profile."""
    if sigma_x < 0:
        raise ValueError("sigma_x must be non-negative")
    if waist <= 0:
        raise ValueError("waist must be positive")
    return 1.0 / math.sqrt(1.0 + 2.0 * sigma_x**2 / waist**2)


def waist_scan_model(params, x, wavelength, waist, angle_rad):
    """Five-parameter waist-scan profile: (sigma_x, sigma_z, amplitude, center, offset)."""
    sigma_x, sigma_z, amplitude, center, offset = params
    spread = WavepacketSpread(sigma_x=abs(sigma_x), sigma_z=abs(sigma_z))
    return offset + amplitude * standing_wave_profile(
        spread, wavelength, waist, angle_rad, np.asarray(x) - center
    )


def fit_waist_scan(
    data: ScanDataset,
    wavelength: float,
    angle_rad: float,
    waist: float,
    initial: dict | None = None,
) -> FitResult:
    """Fit the modulated-Gaussian profile to a waist-scan dataset.

    ``initial`` may override the default starting guesses with keys
    sigma_x, sigma_z, amplitude, center, offset. Requires at least 8
    points spanning the envelope.
    """
    if len(data.position) < 8:
        raise ValueError("need at least 8 data points to constrain the profile")
    guesses = {
        "sigma_x": waist / 3.0,
        "sigma_z": wavelength / 20.0,
        "amplitude": float(np.max(data.counts) - np.min(data.counts)),
        # the envelope center is near the scan center; the brightest point
        # sits on a fringe and makes a poor guess
        "center": float(0.5 * (np.min(data.position) + np.max(data.position))),
        "offset": float(np.min(data.counts)),
    }
    if initial:
        guesses.update(initial)
    p0 = np.array(
        [guesses["sigma_x"], guesses["sigma_z"], guesses["amplitude"], guesses["center"], guesses["offset"]]
    )

    def residual(p):
        return waist_scan_model(p, data.position, wavelength, waist, angle_rad) - data.counts

    result = least_squares_fit(residual, p0)
    result.params[0] = abs(result.params[0])
    result.params[1] = abs(result.params[1])
    return result
