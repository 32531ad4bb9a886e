import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ioncavity
from ioncavity import fitting
from ioncavity.errors import FitNonConvergenceError
from ioncavity.experiments import ramsey_coherence
from ioncavity.fitting import least_squares_fit


def test_recovers_exponential_parameters():
    rng = np.random.default_rng(1)
    x = np.linspace(0.0, 5.0, 60)
    truth = np.array([2.5, 1.3, 0.4])

    def model(p):
        return p[0] * np.exp(-p[1] * x) + p[2]

    y = model(truth)

    def resid(p):
        return model(p) - y

    result = least_squares_fit(resid, np.array([1.0, 2.0, 0.0]))
    assert np.allclose(result.params, truth, rtol=1e-8)


def test_linear_model_covariance_matches_ols():
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 1.0, 40)
    sigma = 0.05
    y = 1.7 * x + 0.3 + rng.normal(0.0, sigma, len(x))

    def resid(p):
        return p[0] * x + p[1] - y

    result = least_squares_fit(resid, np.array([0.0, 0.0]))
    design = np.column_stack([x, np.ones_like(x)])
    beta, res_ss, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.allclose(result.params, beta, atol=1e-9)
    dof = len(x) - 2
    cov_ols = res_ss[0] / dof * np.linalg.inv(design.T @ design)
    assert np.allclose(result.covariance, cov_ols, rtol=1e-6)


def test_nonconvergence_raises_with_residual(monkeypatch):
    x = np.linspace(0.0, 5.0, 60)
    y = 2.5 * np.exp(-1.3 * x) + 0.4

    def resid(p):
        return p[0] * np.exp(-p[1] * x) + p[2] - y

    # descending but nowhere near done when the evaluation budget runs out
    monkeypatch.setattr(fitting, "_MAX_NFEV", 2)
    with pytest.raises(FitNonConvergenceError) as err:
        least_squares_fit(resid, np.array([40.0, 9.0, -7.0]))
    assert err.value.residual is not None
    assert err.value.cost is not None


@given(
    a=st.floats(0.5, 3.0),
    b=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_round_trips_random_gaussians(a, b, seed):
    x = np.linspace(-3.0, 3.0, 50)
    y = a * np.exp(-(x**2) / (2 * b**2))

    def resid(p):
        return p[0] * np.exp(-(x**2) / (2 * p[1] ** 2)) - y

    rng = np.random.default_rng(seed)
    start = np.array([a, b]) * rng.uniform(0.6, 1.6, 2)
    result = least_squares_fit(resid, start)
    assert np.allclose(np.abs(result.params), [a, b], rtol=1e-6)


def _exponential_minimum(t, y, start):
    """(A0, tau) minimizing sum (A0 exp(-t/tau) - y)^2, by a 40-digit Newton solve."""
    with mpmath.workdps(40):
        t = [mpmath.mpf(float(v)) for v in t]
        y = [mpmath.mpf(float(v)) for v in y]

        def gradient(a, tau):
            e = [mpmath.exp(-ti / tau) for ti in t]
            r = [a * ei - yi for ei, yi in zip(e, y)]
            return [
                mpmath.fsum(ri * ei for ri, ei in zip(r, e)),
                mpmath.fsum(ri * a * ei * ti / tau**2 for ri, ei, ti in zip(r, e, t)),
            ]

        a, tau = mpmath.findroot(gradient, [mpmath.mpf(float(v)) for v in start])
        return np.array([float(a), float(tau)])


def test_fig10_exponential_fit_reaches_its_minimum():
    """The bundled fig10 amplitudes, fit with an exponential, land on the exact minimum."""
    r = json.loads((Path(ioncavity.__file__).parent / "configs" / "fig10.json").read_text())["ramsey"]
    t_wait = np.asarray(r["t_wait_us"], dtype=float) * 1e-6
    phases = np.linspace(0.0, 2 * np.pi, r["n_phases"], endpoint=False)
    result = ramsey_coherence(t_wait, phases, r["tau_us"] * 1e-6, r["amplitude0"], noise=r["noise"])
    exact = _exponential_minimum(result.t_wait, result.amplitudes, result.exponential_params)
    assert np.all(np.abs(result.exponential_params / exact - 1.0) < 1e-8), (result.exponential_params, exact)


def test_cli_import_leaves_scipy_optimize_unloaded():
    """The fitter imports scipy.optimize on first use, so loading the CLI stays cheap."""
    code = "import sys, ioncavity.cli, ioncavity.experiments; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
