"""Reference computations made apart from the program's solvers.

Both work on the dense block of the Liouvillian that the initial or
stationary state can reach: the connected components of the sparsity graph
of |L| + |L|^T that hold the seed entries of the vectorized state.

- `steady_state_rates`: the stationary state is the one-dimensional null
  space of that block (`scipy.linalg.null_space`), in place of the
  program's sparse LU.
- `pulse_efficiencies`: the state is propagated by repeated products with
  the dense `expm` of the block at the output spacing, in place of DP5.

Detected rates come from photon-number operators built here with numpy,
in the program's documented ordering atom (x) mode_H (x) mode_V.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.sparse.csgraph import connected_components

from ioncavity.cavity import channel_efficiency


def reachable(L, seeds):
    """Indices of the vectorized entries connected to ``seeds`` through L."""
    graph = (abs(L) + abs(L).T).tocsr()
    _, labels = connected_components(graph, directed=False)
    return np.flatnonzero(np.isin(labels, np.unique(labels[seeds])))


def mode_operators(n_atom, n_max):
    """Annihilation operators of the H and V modes on the full space."""
    nd = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, nd)), 1)
    eye_m, eye_a = np.eye(nd), np.eye(n_atom)
    return np.kron(eye_a, np.kron(a, eye_m)), np.kron(eye_a, np.kron(eye_m, a))


def detected_rates(rho, model, a_h, a_v):
    """Detected photon rate per analysis channel, dark counts excluded."""
    modes = (a_h, a_v)
    # second moments <a_p^dag a_q> of the two cavity modes
    moments = np.array(
        [[np.trace(rho @ modes[p].conj().T @ modes[q]) for q in range(2)] for p in range(2)]
    )
    u = model.detection.analysis_basis
    numbers = np.real(np.einsum("ip,pq,iq->i", u.conj(), moments, u))
    return 2 * model.cavity.kappa * numbers * np.array(channel_efficiency(model.detection))


def steady_state_rates(liouv, model, n_max):
    """Detected rates (dark counts included) of the stationary state.

    Returns (rates, null_dim). ``null_dim`` is the dimension of the null
    space of the reachable block; a unique stationary state needs 1.
    """
    n = liouv.dim
    L = liouv.static_part.tocsr()
    idx = reachable(L, np.arange(n) * (n + 1))
    null = sla.null_space(L[idx][:, idx].toarray())
    if null.shape[1] != 1:
        return None, null.shape[1]
    v = np.zeros(n * n, dtype=complex)
    v[idx] = null[:, 0]
    rho = v.reshape((n, n), order="F")
    rho = rho / np.trace(rho)
    a_h, a_v = mode_operators(n // (n_max + 1) ** 2, n_max)
    rates = detected_rates(rho, model, a_h, a_v) + np.array(model.detection.dark_counts)
    return rates, 1


def pulse_efficiencies(liouv, model, rho0, duration, bin_width, samples_per_bin, n_max):
    """Detection probability per channel over the pulse, by exact propagation.

    Samples the flux at the program's output grid and integrates each bin
    with the trapezoid rule, as the pulse shape is defined.
    """
    n = liouv.dim
    L = liouv.static_part.tocsr()
    y = rho0.reshape(-1, order="F").astype(complex)
    idx = reachable(L, np.flatnonzero(y))
    n_bins = int(round(duration / bin_width))
    t_grid = np.linspace(0.0, duration, n_bins * samples_per_bin + 1)
    step = sla.expm(L[idx][:, idx].toarray() * (t_grid[1] - t_grid[0]))
    a_h, a_v = mode_operators(n // (n_max + 1) ** 2, n_max)
    full = np.zeros(n * n, dtype=complex)
    yr = y[idx]
    flux = []
    for _ in t_grid:
        full[idx] = yr
        flux.append(detected_rates(full.reshape((n, n), order="F"), model, a_h, a_v))
        yr = step @ yr
    flux = np.array(flux)
    probs = np.zeros(2)
    for b in range(n_bins):
        sl = slice(b * samples_per_bin, (b + 1) * samples_per_bin + 1)
        probs += np.trapezoid(flux[sl], t_grid[sl], axis=0)
    return probs
