"""Damped-normal-equations nonlinear least squares (Levenberg-Marquardt).

Small and self-contained so the convergence criteria are explicit:
iteration stops when the relative cost change drops below ``ftol``
(1e-10) or the gradient sup-norm below ``gtol`` (1e-12). Asymptotic
parameter uncertainties come from the Jacobian at the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitNonConvergenceError


@dataclass
class FitResult:
    params: np.ndarray
    stderr: np.ndarray
    covariance: np.ndarray
    cost: float  # 0.5 * sum(residual^2)
    residual: np.ndarray
    n_iterations: int
    converged: bool
    message: str


def numerical_jacobian(fun, x, rel_step=1e-6):
    """Central-difference Jacobian of a residual function.

    Steps scale with each parameter's own magnitude so that widely
    different parameter scales (meters next to dimensionless factors)
    are differenced accurately; a zero parameter falls back to the raw
    step size.
    """
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(fun(x), dtype=float)
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = rel_step * abs(x[i]) if x[i] != 0.0 else rel_step
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2 * h)
    return jac


def levenberg_marquardt(
    fun,
    x0,
    max_iterations: int = 200,
    ftol: float = 1e-10,
    gtol: float = 1e-12,
    lambda0: float = 1e-3,
) -> FitResult:
    """Minimize 0.5 ||fun(x)||^2 by damped normal equations.

    ``fun(x)`` returns the residual vector. The damping factor
    multiplies the diagonal of J^T J (Marquardt scaling) and is adapted
    by factor-of-ten steps on acceptance or rejection.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(fun(x), dtype=float)
    cost = 0.5 * float(r @ r)
    lam = lambda0
    n_iter = 0
    converged = False
    message = "max iterations reached"

    for n_iter in range(1, max_iterations + 1):
        j = numerical_jacobian(fun, x)
        grad = j.T @ r
        if np.max(np.abs(grad)) < gtol:
            converged = True
            message = "gradient norm below gtol"
            break
        jtj = j.T @ j
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0

        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            x_new = x + step
            r_new = np.asarray(fun(x_new), dtype=float)
            cost_new = 0.5 * float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new < cost:
                rel_change = (cost - cost_new) / max(cost, np.finfo(float).tiny)
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam * 0.1, 1e-14)
                accepted = True
                if rel_change < ftol:
                    converged = True
                    message = "relative cost change below ftol"
                break
            lam *= 10
            if lam > 1e14:
                break
        if not accepted:
            # no damping level yields a decrease: the parameters sit at a
            # local minimum to within numerical precision
            converged = True
            message = "no further decrease within damping range"
            break
        if converged:
            break

    if not converged:
        raise FitNonConvergenceError(
            f"no convergence after {n_iter} iterations (cost {cost:.6e})",
            residual=r,
            cost=cost,
        )

    j = numerical_jacobian(fun, x)
    n_pts, n_par = j.shape
    dof = max(n_pts - n_par, 1)
    sigma2 = 2.0 * cost / dof
    try:
        cov = sigma2 * np.linalg.inv(j.T @ j)
        stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        cov = np.full((n_par, n_par), np.nan)
        stderr = np.full(n_par, np.nan)
    return FitResult(
        params=x,
        stderr=stderr,
        covariance=cov,
        cost=cost,
        residual=r,
        n_iterations=n_iter,
        converged=True,
        message=message,
    )
