import math

import numpy as np
import pytest

from ioncavity.cavity import (
    CavityGeometry,
    DetectionChain,
    channel_efficiency,
    coupling_rate,
    max_coupling,
    mode_waist,
)
from ioncavity.constants import TWO_PI
from ioncavity.errors import UnstableResonatorError
from ioncavity.system import default_geometry, gamma_pd_amplitude

from conftest import khz


GEOM = CavityGeometry(length=19.96e-3, mirror_radius=10.02e-3, wavelength=854e-9, kappa=khz(50))


def test_mode_waist_closed_form():
    """Frozen against independent arithmetic of the symmetric-resonator formula.

    (lambda/2pi) * sqrt(L(2R-L)) evaluated at the quoted geometry gives
    13.1055 um at 854 nm. The quoted 13.2 um is consistent with it: the
    waist hinges on 2R - L = 0.08 mm, and rounding alone in the quoted
    L = 19.96 mm and R = 10.02 mm (+-0.005 mm each) spans waists from
    12.44 um to 13.68 um. The 866 nm value pins the wavelength scaling.
    """
    w0 = mode_waist(GEOM)
    expected = math.sqrt(854e-9 / (2 * math.pi) * math.sqrt(19.96e-3 * (2 * 10.02e-3 - 19.96e-3)))
    assert w0 == pytest.approx(expected, rel=1e-14)
    assert w0 == pytest.approx(13.1055e-6, rel=1e-4)
    g866 = CavityGeometry(length=19.96e-3, mirror_radius=10.02e-3, wavelength=866e-9, kappa=khz(50))
    assert mode_waist(g866) == pytest.approx(13.197e-6, rel=1e-4)


def test_mode_waist_confocal_reduction():
    """At L = R the waist reduces to sqrt((lambda/2pi) R)."""
    geom = CavityGeometry(length=10e-3, mirror_radius=10e-3, wavelength=854e-9, kappa=0.0)
    assert mode_waist(geom) == pytest.approx(math.sqrt(854e-9 / (2 * math.pi) * 10e-3), rel=1e-14)


def test_mode_waist_vanishes_at_concentric_limit():
    waists = []
    for frac in np.linspace(0.9, 1.0 - 1e-9, 40):
        geom = CavityGeometry(
            length=frac * 2 * 10e-3, mirror_radius=10e-3, wavelength=854e-9, kappa=0.0
        )
        waists.append(mode_waist(geom))
    assert all(np.diff(waists) < 0)
    assert waists[-1] < 1e-6


def test_unstable_resonator_raises():
    with pytest.raises(UnstableResonatorError):
        CavityGeometry(length=21e-3, mirror_radius=10e-3, wavelength=854e-9, kappa=0.0)
    with pytest.raises(UnstableResonatorError):
        CavityGeometry(length=0.0, mirror_radius=10e-3, wavelength=854e-9, kappa=0.0)


def test_g0_value_with_adopted_decay_data(atom):
    g0 = max_coupling(GEOM, gamma_pd_amplitude(atom))
    assert g0 == pytest.approx(TWO_PI * 1.4428e6, rel=2e-4)
    # within 1% of the quoted 2pi x 1.43 MHz
    assert abs(g0 - TWO_PI * 1.43e6) / (TWO_PI * 1.43e6) < 0.01


def test_g0_round_trip_inversion(atom):
    """g0^2 pi^2 L w0^2 / (3 c lambda^2) recovers the gamma input."""
    from ioncavity.constants import SPEED_OF_LIGHT

    gamma = gamma_pd_amplitude(atom)
    g0 = max_coupling(GEOM, gamma)
    w0 = mode_waist(GEOM)
    recovered = g0**2 * math.pi**2 * GEOM.length * w0**2 / (3 * SPEED_OF_LIGHT * GEOM.wavelength**2)
    assert recovered == pytest.approx(gamma, rel=1e-12)


def test_g0_scales_inverse_sqrt_length(atom):
    gamma = gamma_pd_amplitude(atom)
    w0 = mode_waist(GEOM)
    g1 = coupling_rate(GEOM.length, w0, GEOM.wavelength, gamma)
    g2 = coupling_rate(2 * GEOM.length, w0, GEOM.wavelength, gamma)
    assert g2 == pytest.approx(g1 / math.sqrt(2), rel=1e-12)


def test_g0_length_derivative_at_fixed_waist(atom):
    gamma = gamma_pd_amplitude(atom)
    w0 = mode_waist(GEOM)
    L = GEOM.length
    h = 1e-7 * L
    num = (
        coupling_rate(L + h, w0, GEOM.wavelength, gamma)
        - coupling_rate(L - h, w0, GEOM.wavelength, gamma)
    ) / (2 * h)
    g0 = coupling_rate(L, w0, GEOM.wavelength, gamma)
    assert num == pytest.approx(-g0 / (2 * L), rel=1e-6)


def test_channel_efficiency_values():
    chain = DetectionChain()
    eff = channel_efficiency(chain)
    assert eff[0] == pytest.approx(0.49 * 0.87 * 0.19, rel=1e-12)
    assert eff[0] == pytest.approx(0.081, abs=5e-4)
    assert eff[1] == pytest.approx(0.46 * 0.86 * 0.19, rel=1e-12)
    assert eff[1] == pytest.approx(0.075, abs=6e-4)


def test_channel_efficiency_absorbing_zero():
    chain = DetectionChain(apd_efficiency=(0.0, 0.46))
    assert channel_efficiency(chain)[0] == 0.0


def test_fitted_path_efficiency_override():
    chain = DetectionChain(fitted_path_efficiency=0.08)
    assert channel_efficiency(chain) == (0.08, 0.08)


def test_analysis_basis_must_be_unitary():
    with pytest.raises(ValueError):
        DetectionChain(analysis_basis=np.array([[1.0, 0.1], [0.0, 1.0]]))
    chain = DetectionChain.rotated(0.3)
    u = chain.analysis_basis
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_efficiencies_bounded():
    with pytest.raises(ValueError):
        DetectionChain(apd_efficiency=(1.2, 0.4))
    with pytest.raises(ValueError):
        DetectionChain(output_coupling=-0.1)


def test_rayleigh_range_consistent():
    w0 = mode_waist(GEOM)
    assert GEOM.rayleigh_range == pytest.approx(math.pi * w0**2 / GEOM.wavelength, rel=1e-12)


def test_default_geometry_matches_quoted_values():
    geom = default_geometry()
    assert geom.length == pytest.approx(19.96e-3)
    assert geom.kappa == pytest.approx(khz(50))
