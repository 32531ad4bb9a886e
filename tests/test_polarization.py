import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ioncavity.errors import PolarizationError
from ioncavity.polarization import (
    CavityModeBasis,
    Polarization,
    X,
    Y,
    Z,
    dipole_projection,
    spherical_unit_vector,
)

unit_floats = st.floats(-1.0, 1.0, allow_nan=False)


def random_unit_vector(draw):
    v = np.array([draw(unit_floats), draw(unit_floats), draw(unit_floats)])
    if np.linalg.norm(v) < 1e-3:
        v = Z
    return v / np.linalg.norm(v)


def test_spherical_basis_orthonormal():
    for q in (-1, 0, 1):
        for p in (-1, 0, 1):
            ip = np.vdot(spherical_unit_vector(q), spherical_unit_vector(p))
            assert ip == pytest.approx(1.0 if p == q else 0.0, abs=1e-14)


def test_sigma_minus_matches_helicity():
    pol = Polarization.sigma_minus()
    assert abs(pol.component(-1)) == pytest.approx(1.0, abs=1e-14)
    assert abs(pol.component(0)) == pytest.approx(0.0, abs=1e-14)
    assert abs(pol.component(+1)) == pytest.approx(0.0, abs=1e-14)


def test_linear_perpendicular_splits_into_circular():
    pol = Polarization.linear(Y, k=X)
    cm, c0, cp = (pol.component(q) for q in (-1, 0, 1))
    assert abs(cm) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(cp) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(c0) == pytest.approx(0.0, abs=1e-14)


def test_pi_dipole_dark_for_parallel_cavity():
    """A q=0 dipole cannot radiate into a cavity along the quantization axis."""
    basis = CavityModeBasis.for_orientation("parallel")
    assert abs(basis.emission_projection("H", 0)) < 1e-14
    assert abs(basis.emission_projection("V", 0)) < 1e-14


def test_perpendicular_mode_projections():
    basis = CavityModeBasis.for_orientation("perpendicular")
    assert abs(basis.emission_projection("H", 1)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(basis.emission_projection("H", -1)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(basis.emission_projection("H", 0)) < 1e-14
    assert abs(basis.emission_projection("V", 0)) == pytest.approx(1.0, abs=1e-12)
    assert abs(basis.emission_projection("V", 1)) < 1e-14


def test_longitudinal_component_rejected():
    with pytest.raises(PolarizationError):
        Polarization(vector=Z.astype(complex), k=Z)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_projection_completeness_in_any_frame(data):
    """Sum over q of |projection|^2 is 1 for any unit polarization and frame."""
    vec_re = random_unit_vector(data.draw)
    vec_im = random_unit_vector(data.draw)
    mix = data.draw(st.floats(0.0, 1.0))
    pol = Polarization(vector=vec_re + 1j * mix * vec_im)
    axis = random_unit_vector(data.draw)
    total = sum(abs(dipole_projection(pol, q, axis)) ** 2 for q in (-1, 0, 1))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_projection_requires_unit_axis():
    pol = Polarization.linear(Y, k=X)
    with pytest.raises(ValueError):
        dipole_projection(pol, 0, np.array([0.0, 0.0, 2.0]))
