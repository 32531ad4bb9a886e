import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ioncavity.errors import FitNonConvergenceError
from ioncavity.localization import (
    ScanDataset,
    WavepacketSpread,
    axial_scan_rate,
    coupling_reduction,
    fit_waist_scan,
    standing_wave_profile,
    visibility_factor,
    visibility_to_sigma,
    waist_scan_model,
)

from conftest import coupling_reduction_quadrature

LAM_854 = 854e-9
LAM_866 = 866e-9
W0 = 13.2e-6
THETA = math.radians(4.0)


def test_point_particle_full_visibility():
    x = np.linspace(-20e-6, 20e-6, 401)
    profile = standing_wave_profile(WavepacketSpread(0.0, 0.0), LAM_866, W0, THETA, x)
    assert profile.min() == pytest.approx(0.0, abs=1e-12)


def test_contrast_factor_at_48_nm():
    # frozen from direct evaluation of exp(-8 pi^2 sigma_z^2 / lambda^2)
    assert visibility_factor(48e-9, LAM_866) == pytest.approx(0.78461, abs=1e-5)


def test_profile_matches_quadrature_oracle():
    """Direct 2-d quadrature of wavepacket x intensity against the closed form."""
    from scipy.integrate import dblquad

    sx, sz = 4.7e-6, 48e-9
    spread = WavepacketSpread(sx, sz)

    def intensity_eff(x0):
        z0 = x0 * math.tan(THETA)

        def integrand(z, x):
            w = (
                math.exp(-((x - x0) ** 2) / (2 * sx**2))
                / (2 * math.pi * sx * sz)
                * math.exp(-((z - z0) ** 2) / (2 * sz**2))
            )
            return w * math.exp(-2 * x**2 / W0**2) * math.sin(2 * math.pi * z / LAM_866) ** 2

        val, _ = dblquad(
            integrand,
            x0 - 8 * sx,
            x0 + 8 * sx,
            lambda x: z0 - 8 * sz,
            lambda x: z0 + 8 * sz,
            epsabs=1e-13,
            epsrel=1e-9,
        )
        return val

    xs = np.array([-6e-6, -2e-6, 0.5e-6, 4e-6])
    closed = standing_wave_profile(spread, LAM_866, W0, THETA, xs)
    numeric = np.array([intensity_eff(x) for x in xs])
    # same shape up to one overall constant
    scale = numeric[0] / closed[0]
    assert np.allclose(numeric, scale * closed, rtol=1e-6)


def test_visibility_to_sigma_quoted_value():
    sigma = visibility_to_sigma(0.98, LAM_854)
    assert sigma == pytest.approx(13.66e-9, abs=0.05e-9)
    assert abs(sigma - 13e-9) < 7e-9  # inside the quoted uncertainty
    assert visibility_to_sigma(1.0, LAM_854) == 0.0


def test_visibility_domain_errors():
    for bad in (0.0, -0.2, 1.0001):
        with pytest.raises(ValueError):
            visibility_to_sigma(bad, LAM_854)


@given(v=st.floats(1e-6, 1.0))
@settings(max_examples=60, deadline=None)
def test_visibility_round_trip(v):
    sigma = visibility_to_sigma(v, LAM_854)
    assert visibility_factor(sigma, LAM_854) == pytest.approx(v, rel=1e-12)


def test_coupling_reduction_quoted_value():
    assert coupling_reduction(4.7e-6, 13.2e-6) == pytest.approx(0.8932, abs=1e-4)
    assert abs(coupling_reduction(4.7e-6, 13.2e-6) - 0.89) < 0.01
    assert coupling_reduction(0.0, W0) == 1.0


def test_coupling_reduction_against_quadrature():
    for sx in (0.5e-6, 2e-6, 4.7e-6, 9e-6):
        closed = coupling_reduction(sx, W0)
        numeric = coupling_reduction_quadrature(sx, W0)
        assert abs(closed - numeric) < 1e-10


def test_coupling_reduction_monotone_to_zero():
    values = [coupling_reduction(s, W0) for s in np.linspace(0, 300e-6, 60)]
    assert all(np.diff(values) < 0)
    assert values[-1] < 0.04


def test_fit_recovers_noiseless_parameters():
    truth = np.array([4.7e-6, 48e-9, 1000.0, 0.0, 30.0])
    x = np.linspace(-30e-6, 30e-6, 61)
    counts = waist_scan_model(truth, x, LAM_866, W0, THETA)
    data = ScanDataset(position=x, counts=counts)
    result = fit_waist_scan(
        data,
        LAM_866,
        THETA,
        W0,
        initial={"sigma_x": 4e-6, "sigma_z": 40e-9, "amplitude": 900.0, "center": 1e-6, "offset": 25.0},
    )
    assert np.allclose(result.params, truth, rtol=1e-6)


def test_fit_monte_carlo_coverage():
    """With 5% multiplicative noise the sigma_x estimate stays within 3 sigma."""
    truth = np.array([4.7e-6, 48e-9, 1000.0, 0.0, 30.0])
    x = np.linspace(-30e-6, 30e-6, 61)
    clean = waist_scan_model(truth, x, LAM_866, W0, THETA)
    rng = np.random.default_rng(42)
    hits = 0
    trials = 100
    for _ in range(trials):
        noisy = clean * (1.0 + 0.05 * rng.standard_normal(len(x)))
        data = ScanDataset(position=x, counts=noisy)
        try:
            result = fit_waist_scan(
                data,
                LAM_866,
                THETA,
                W0,
                initial={"sigma_x": 4e-6, "sigma_z": 40e-9, "amplitude": 900.0, "center": 0.0, "offset": 30.0},
            )
        except FitNonConvergenceError:
            continue
        if abs(result.params[0] - truth[0]) < 3 * result.stderr[0]:
            hits += 1
    assert hits >= 95


def test_flat_data_is_degenerate():
    x = np.linspace(-30e-6, 30e-6, 41)
    data = ScanDataset(position=x, counts=np.full_like(x, 55.0))
    try:
        result = fit_waist_scan(data, LAM_866, THETA, W0)
    except FitNonConvergenceError:
        return
    assert abs(result.params[2]) < 1e-6 * 55.0  # amplitude collapses


def test_fit_requires_enough_points():
    x = np.linspace(-30e-6, 30e-6, 5)
    data = ScanDataset(position=x, counts=np.ones_like(x))
    with pytest.raises(ValueError):
        fit_waist_scan(data, LAM_866, THETA, W0)


def test_axial_scan_rate_shape():
    lam = LAM_854
    z = np.linspace(0.0, lam, 200)
    rate = axial_scan_rate(z, 4000.0, 0.98, lam, background=33.0)
    # modulation period is lambda/2 and the floor sits just above background
    assert rate.min() == pytest.approx(33.0 + 4000.0 * 0.02 / 2, rel=1e-6)
    top = np.flatnonzero(np.isclose(rate, rate.max(), rtol=1e-9))
    assert abs((z[top[1]] - z[top[0]]) - lam / 2) < lam / 100


def test_csv_ingestion(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text("# comment\nposition_um,counts,stderr\n0.0,10.0,1.0\n1.0,12.0,1.1\n2.0,9.0,0.9\n")
    data = ScanDataset.from_csv(path)
    assert len(data.position) == 3
    assert data.counts[1] == 12.0
