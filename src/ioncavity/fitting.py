"""Nonlinear least squares by SciPy's trust-region reflective solver.

``least_squares(method="trf")`` (Branch, Coleman & Li, SIAM J. Sci. Comput.
21, 1 (1999)) differences the Jacobian centrally. Its default steps are
absolute, about 6e-6 * max(1, |x|), too coarse for parameters in metres and
seconds, so ``diff_step=1e-6`` makes each step relative to its parameter.
Parameter uncertainties come from the Jacobian at the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitNonConvergenceError

_MAX_NFEV = 1000  # residual evaluations, Jacobian differences not counted


@dataclass
class FitResult:
    params: np.ndarray
    stderr: np.ndarray
    covariance: np.ndarray
    cost: float  # 0.5 * sum(residual^2)
    n_iterations: int


def least_squares_fit(fun, x0) -> FitResult:
    """Minimize 0.5 ||fun(x)||^2, where ``fun(x)`` returns the residual vector."""
    from scipy.optimize import least_squares  # a module-level import costs `import ioncavity.cli` ~0.25 s

    res = least_squares(
        fun, x0, method="trf", jac="3-point", diff_step=1e-6, ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=_MAX_NFEV
    )
    if res.status == 0:
        raise FitNonConvergenceError(
            f"no convergence after {res.nfev} evaluations (cost {res.cost:.6e})", residual=res.fun, cost=res.cost
        )
    n_pts, n_par = res.jac.shape
    try:
        cov = 2.0 * res.cost / max(n_pts - n_par, 1) * np.linalg.inv(res.jac.T @ res.jac)
    except np.linalg.LinAlgError:
        cov = np.full((n_par, n_par), np.nan)
    stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        params=res.x, stderr=stderr, covariance=cov, cost=float(res.cost), n_iterations=int(res.njev)
    )
