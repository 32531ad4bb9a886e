"""Tensor-product Hilbert space: 18 atomic levels x two cavity modes.

Ordering contract: atom (x) mode_H (x) mode_V with a row-major index
map,

    index(a, n_h, n_v) = a * (n_max+1)**2 + n_h * (n_max+1) + n_v.

Operators are built as scipy sparse matrices in this basis. Vectorized
density matrices use column stacking: vec(A rho B) = (B^T kron A) vec(rho).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .atom import AtomData, ZeemanState


@dataclass(frozen=True)
class HilbertLayout:
    """Index bookkeeping for the atom (x) two-mode space."""

    atom: AtomData
    n_max: int = 1
    _state_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("photon cutoff n_max must be at least 1")
        states = self.atom.all_states()
        object.__setattr__(self, "_state_index", {s: i for i, s in enumerate(states)})

    @property
    def atom_dim(self) -> int:
        return 18

    @property
    def mode_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.atom_dim * self.mode_dim**2

    def atom_index(self, state: ZeemanState) -> int:
        return self._state_index[state]

    def block(self, state: ZeemanState) -> slice:
        """The indices of the (n_max+1)**2 mode states of one atomic state."""
        start = self.atom_index(state) * self.mode_dim**2
        return slice(start, start + self.mode_dim**2)

    def index(self, state: ZeemanState, n_h: int, n_v: int) -> int:
        nd = self.mode_dim
        if not (0 <= n_h < nd and 0 <= n_v < nd):
            raise ValueError("photon number outside cutoff")
        return self.atom_index(state) * nd * nd + n_h * nd + n_v

    # -- operator builders -------------------------------------------------

    def destroy(self, channel: str) -> sp.csr_matrix:
        """Annihilation operator of one cavity mode (shared and read-only)."""
        return _destroy(self.n_max, channel)

    def number(self, channel: str) -> sp.csr_matrix:
        a = self.destroy(channel)
        return (a.conj().T @ a).tocsr()

    @cached_property
    def mode_flux_operators(self) -> tuple:
        """(a_H^dag a_H, a_V^dag a_V, a_H^dag a_V), the operators of the detected flux.

        Kept as COO in row-major order, the form ``lindblad.expectation``
        reads, so a readout converts nothing."""
        a_h, a_v = self.destroy("H"), self.destroy("V")
        pairs = ((a_h, a_h), (a_v, a_v), (a_h, a_v))
        return tuple((x.conj().T @ y).tocsr().tocoo() for x, y in pairs)

    def basis_state(self, state: ZeemanState, n_h: int = 0, n_v: int = 0) -> np.ndarray:
        """Pure-state density matrix |state, n_h, n_v><...|."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        i = self.index(state, n_h, n_v)
        rho[i, i] = 1.0
        return rho


@functools.cache
def _destroy(n_max: int, channel: str) -> sp.csr_matrix:
    """Annihilation operator of one cavity mode at cutoff ``n_max``, built once."""
    nd = n_max + 1
    a = sp.diags(np.sqrt(np.arange(1, nd)), 1, format="csr")
    eye_a = sp.identity(18, format="csr")
    eye_m = sp.identity(nd, format="csr")
    if channel == "H":
        op = sp.kron(eye_a, sp.kron(a, eye_m), format="csr")
    elif channel == "V":
        op = sp.kron(eye_a, sp.kron(eye_m, a), format="csr")
    else:
        raise ValueError("channel must be 'H' or 'V'")
    for array in (op.data, op.indices, op.indptr):
        array.setflags(write=False)
    return op


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a density matrix."""
    return np.asarray(rho).reshape(-1, order="F")


def commutator_superoperator(h: sp.spmatrix) -> sp.csr_matrix:
    """Superoperator of -i[H, .] under column stacking."""
    n = h.shape[0]
    eye = sp.identity(n, format="csr")
    return (-1j * (sp.kron(eye, h) - sp.kron(h.T, eye))).tocsr()


def dissipator_superoperator(c: sp.spmatrix) -> sp.csr_matrix:
    """Superoperator of c . c^dag - (1/2){c^dag c, .} under column stacking."""
    n = c.shape[0]
    eye = sp.identity(n, format="csr")
    cdc = (c.conj().T @ c).tocsr()
    return (
        sp.kron(c.conj(), c) - 0.5 * sp.kron(eye, cdc) - 0.5 * sp.kron(cdc.T, eye)
    ).tocsr()
