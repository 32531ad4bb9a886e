"""Shared fixtures, and the reference helpers the tests check the package against."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from ioncavity import lindblad
from ioncavity.atom import load_atom
from ioncavity.constants import TWO_PI
from ioncavity.hilbert import HilbertLayout, vec
from ioncavity.lindblad import DensityMatrix, Trajectory, evolve, state_population


def dp5_evolve(liouv, rho0, t_grid, rtol, atol=1e-12):
    """`evolve` with its DP5 loop run directly on the block, static or not."""
    t_grid = np.asarray(t_grid, dtype=float)
    y = vec(rho0).astype(complex)
    block = liouv.reachable(np.flatnonzero(y))
    vectors, n_steps, n_rejected = lindblad._dp5(liouv, block, y[block.keep], t_grid, rtol, atol, 20_000_000)
    return Trajectory(
        times=t_grid, keep=block.keep, dim=liouv.dim, vectors=vectors,
        n_steps=n_steps, n_rejected=n_rejected, max_trace_drift=0.0,
    )


def with_drive_tones(model, tones):
    """``model`` with the tones of its drive laser replaced by ``tones``."""
    assert model.laser("drive") is not None, "model has no drive laser"
    lasers = tuple(replace(l, tones=tuple(tones)) if l.role == "drive" else l for l in model.lasers)
    return replace(model, lasers=lasers)


def exact_evolve(liouv, rho0, t_grid, **options):
    """`evolve` with the states of a static block from the dense `expm` of the weak
    block at the (uniform) output spacing, applied once per interval. The step
    counts stay those `evolve` reports, and a block with beat terms keeps the
    whole `evolve` run."""
    traj = evolve(liouv, rho0, t_grid, **options)
    y = vec(rho0).astype(complex)
    block = liouv.restrict(np.flatnonzero(y))
    if block.td_terms:
        return traj
    spacing = np.diff(traj.times)
    assert np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0)
    step = scipy.linalg.expm(block.static_part.toarray() * spacing[0])
    vectors = [y[block.keep]]
    for _ in spacing:
        vectors.append(step @ vectors[-1])
    return Trajectory(
        times=traj.times, keep=block.keep, dim=liouv.dim, vectors=np.array(vectors),
        n_steps=traj.n_steps, n_rejected=traj.n_rejected, max_trace_drift=0.0,
    )


@pytest.fixture(scope="session")
def atom():
    return load_atom()


@pytest.fixture(scope="session")
def layout(atom):
    return HilbertLayout(atom=atom, n_max=1)


@pytest.fixture(scope="session")
def atom_no_decay():
    return load_atom(
        overrides={
            "P3/2": {"decay_rate_hz": 0.0, "branching": {}},
            "P1/2": {"decay_rate_hz": 0.0, "branching": {}},
        }
    )


@pytest.fixture(scope="session")
def atom_closed_tls():
    """P3/2 decays only to S1/2: the sigma-minus cycle is a closed two-level system."""
    return load_atom(overrides={"P3/2": {"branching": {"S1/2": 1.0}}})


def assert_density_matrix(rho, tol=1e-8):
    m = rho.matrix if hasattr(rho, "matrix") else np.asarray(rho)
    assert np.max(np.abs(m - m.conj().T)) < 1e-10
    assert abs(np.trace(m).real - 1.0) < tol
    assert np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() > -1e-7


def khz(value):
    """Angular frequency (rad/s) from a value in kHz."""
    return TWO_PI * 1e3 * value


def density_matrix(matrix) -> DensityMatrix:
    """The state of a full ``dim x dim`` matrix, every entry kept."""
    m = np.asarray(matrix, dtype=complex)
    return DensityMatrix(keep=np.arange(m.size), dim=m.shape[0], vectors=vec(m))


def trace_preservation_defect(liouv) -> float:
    """sup-norm of the adjoint of ``liouv`` applied to the identity, over its kept entries
    (no entry couples them to the rest); 0 if trace-preserving."""
    ident = (liouv.keep % (liouv.dim + 1) == 0).astype(complex)
    ops = [liouv.static_part] + [superop for superop, _ in liouv.td_terms]
    return float(max(np.max(np.abs(op.conj().T @ ident)) for op in ops))


def manifold_populations(rho, layout) -> dict:
    """Population of each manifold, one per state."""
    return {
        label: sum(state_population(rho, layout, s) for s in layout.atom[label].sublevels())
        for label in ("S1/2", "D3/2", "D5/2", "P1/2", "P3/2")
    }


def oscillation_contrast(t_grid, prob, oscillation: int, rabi0: float):
    """Peak-to-trough contrast of the given oscillation number (1-based)."""
    period = 2 * math.pi / rabi0
    lo = (oscillation - 1) * period
    hi = oscillation * period
    mask = (t_grid >= lo) & (t_grid <= hi)
    if mask.sum() < 4:
        raise ValueError("time grid too coarse for the requested oscillation")
    return float(np.max(prob[mask]) - np.min(prob[mask]))


def coupling_reduction_quadrature(sigma_x: float, waist: float) -> float:
    """Direct quadrature of the Gaussian-averaged mode profile: the oracle for
    ``localization.coupling_reduction``."""
    from scipy.integrate import quad

    if sigma_x == 0:
        return 1.0
    norm = 1.0 / (math.sqrt(2 * math.pi) * sigma_x)
    value, _ = quad(
        lambda x: norm * math.exp(-(x**2) / (2 * sigma_x**2)) * math.exp(-(x**2) / waist**2),
        -12 * sigma_x,
        12 * sigma_x,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=400,
    )
    return value
