"""Master-equation engine for the 18-level ion coupled to two cavity modes.

Rotating frame
--------------
Every coherent coupling is rendered time-independent by assigning each
manifold (and the photon modes) its own rotation frequency along the
coupling tree. With delta_drv the first drive tone's detuning,
delta_rep1/delta_rep2 the repump detunings and delta_cav the cavity
detuning from the P3/2 <-> D5/2 line, the diagonal offsets are

    S1/2:   Zeeman
    P3/2:   Zeeman - delta_drv
    D5/2:   Zeeman - delta_drv + delta_ref
    D3/2:   Zeeman
    P1/2:   Zeeman - delta_rep2
    photon: delta_cav - delta_ref      (per photon, either mode)

where delta_ref = delta_rep1 when the 854 nm repump is on, else
delta_cav. The cavity edge changes photon number, so the apparent loop
(repump and cavity both addressing P3/2 <-> D5/2) is in fact a tree in
the joint atom-photon level graph and a fully static frame exists; the
photon bookkeeping absorbs the frequency difference. Two-photon
resonances are frame-independent. Only a multi-tone drive leaves an
explicit oscillation, at the tone difference frequency.

Dissipation
-----------
One collapse operator per spontaneous sub-channel
(upper sub-state -> lower sub-state, q) with rate
Gamma_branch * cg^2, plus sqrt(2 kappa) a for each cavity mode, so
photon number decays at 2 kappa. Vectorization is column-stacking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.csgraph import connected_components

from .atom import decay_channels, dipole_pairs, zeeman_shift
from .errors import SteadyStateError, StiffnessError
from .hilbert import HilbertLayout, commutator_superoperator, vec
from .system import Envelope, SystemModel

TRANSITION_MANIFOLDS = {
    "drive": ("S1/2", "P3/2"),
    "repump_854": ("D5/2", "P3/2"),
    "repump_866": ("D3/2", "P1/2"),
}


@dataclass
class DensityMatrix:
    """Trace-one Hermitian state(s) on the atom (x) cavity space: ``vectors[..., i]`` is
    vec(rho)[keep[i]], every other entry exactly zero, with leading axes for several states.
    Readouts act on it: :meth:`submatrices` is one gather, :func:`expectation` one row."""

    keep: np.ndarray
    dim: int
    vectors: np.ndarray

    @classmethod
    def from_matrix(cls, matrix) -> DensityMatrix:
        """The state of a full ``dim x dim`` matrix, every entry kept."""
        m = np.asarray(matrix, dtype=complex)
        return cls(keep=np.arange(m.size), dim=m.shape[0], vectors=vec(m))

    @property
    def matrix(self) -> np.ndarray:
        """The full density matrix, one per leading index of ``vectors``."""
        return self.submatrices(np.arange(self.dim))

    def _entries(self, flat) -> np.ndarray:
        """vec(rho)[flat], 0 outside ``keep``: shape (*leading axes, *flat.shape)."""
        pos = np.minimum(np.searchsorted(self.keep, flat), self.keep.size - 1)
        out = self.vectors.take(pos, axis=-1)  # C order, so sums over the last axis go row by row
        out[..., self.keep[pos] != flat] = 0.0
        return out

    def submatrices(self, idx) -> np.ndarray:
        """rho[idx_i, idx_j], 0 outside ``keep``: shape (*leading axes, *idx.shape, m);
        ``idx`` may stack index sets of one length m on leading axes."""
        idx = np.asarray(idx)
        return self._entries(idx[..., None, :] * self.dim + idx[..., :, None])

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of rho over every state, from its diagonal blocks: the
        connected components of the (row, col) pairs of ``keep``. A row with no
        kept entry is a 1x1 block reading [0]."""
        n = self.dim
        edges = sp.coo_matrix((np.ones(self.keep.size), (self.keep % n, self.keep // n)), (n, n))
        _, labels = connected_components(edges, directed=False)
        sizes = np.bincount(labels)
        worst = math.inf
        for k in np.unique(sizes):
            m = self.submatrices([np.flatnonzero(labels == c) for c in np.flatnonzero(sizes == k)])
            worst = min(worst, np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2))).min())
        return float(worst)

    def validate(self, herm_tol=1e-10, trace_tol=1e-8, eig_tol=1e-8):
        n = self.dim
        herm = np.max(np.abs(self.vectors - self._entries(self.keep % n * n + self.keep // n).conj()))
        if herm > herm_tol:
            raise ValueError(f"not Hermitian: max asymmetry {herm:.2e}")
        off = np.max(np.abs(self._entries(np.arange(n) * (n + 1)).sum(axis=-1).real - 1.0))
        if off > trace_tol:
            raise ValueError(f"trace differs from 1 by {off:.2e}")
        min_eig = self.min_eigenvalue()
        if min_eig < -eig_tol:
            raise ValueError(f"negative eigenvalue {min_eig:.2e}")
        return self


@dataclass
class HamiltonianParts:
    """Static and explicitly time-dependent pieces of H in the rotating frame."""

    static: sp.csr_matrix  # diagonal + repumps + cavity couplings
    drive_coupling: sp.csr_matrix | None  # first-tone coupling + h.c. (Hermitian)
    beat_operators: list  # [(A_k, freq_k)] for extra drive tones; term A e^{-i f t} + h.c.
    envelope: object  # callable t -> [0, 1] scaling all drive terms

    @property
    def is_static(self) -> bool:
        env_const = getattr(self.envelope, "is_constant", False)
        return env_const and not self.beat_operators

    def full_static(self) -> sp.csr_matrix:
        if not self.is_static:
            raise ValueError("Hamiltonian has explicit time dependence")
        if self.drive_coupling is None:
            return self.static
        return (self.static + self.drive_coupling).tocsr()


def _lift(layout, to_index, from_index, values) -> sp.csr_matrix:
    """Sum of v |to><from| on the atom (x) identity on the modes.

    Takes one (to, from, v) triplet per atomic transition, by atomic index.
    """
    m = layout.mode_dim**2
    modes = np.arange(m)
    rows = (np.asarray(to_index, dtype=int)[:, None] * m + modes).ravel()
    cols = (np.asarray(from_index, dtype=int)[:, None] * m + modes).ravel()
    return sp.csr_matrix(
        (np.repeat(values, m), (rows, cols)), shape=(layout.dim, layout.dim)
    )


def _coupling_operator(layout, lower_label, upper_label, weights, scale):
    """Sum over dipole pairs of scale * weights[q] * cg |upper><lower|."""
    pairs = dipole_pairs(layout.atom, lower_label, upper_label)
    pairs = [pair for pair in pairs if abs(weights[pair[2]]) >= 1e-15]
    return _lift(
        layout,
        [layout.atom_index(up) for _, up, _, _ in pairs],
        [layout.atom_index(lo) for lo, _, _, _ in pairs],
        np.array([scale * weights[q] * cg for _, _, q, cg in pairs], dtype=complex),
    )


def _laser_coupling(layout, role, polarization, amplitude):
    """(amplitude/2) c_q cg |upper><lower| over the Zeeman paths of a laser."""
    c = {q: polarization.component(q) for q in (-1, 0, 1)}
    return _coupling_operator(layout, *TRANSITION_MANIFOLDS[role], c, amplitude / 2.0)


def _cavity_coupling(model: SystemModel, layout: HilbertLayout) -> sp.csr_matrix:
    """g-weighted P3/2 <-> D5/2 couplings to both polarization modes."""
    op = sp.csr_matrix((layout.dim, layout.dim), dtype=complex)
    if model.cavity.g == 0.0:
        return op
    for channel in ("H", "V"):
        proj = {q: model.mode_basis.emission_projection(channel, q) for q in (-1, 0, 1)}
        emit = _coupling_operator(layout, "D5/2", "P3/2", proj, model.cavity.g)
        raise_op = emit @ layout.destroy(channel)
        op = op + raise_op + raise_op.conj().T
    return op.tocsr()


def frame_offsets(model: SystemModel) -> dict[str, float]:
    """Per-manifold diagonal offsets and the photon offset of the frame."""
    drive = model.laser("drive")
    rep1 = model.laser("repump_854")
    rep2 = model.laser("repump_866")
    delta_drv = drive.detuning if drive else 0.0
    delta_ref = rep1.detuning if rep1 else model.cavity.delta_cav
    return {
        "S1/2": 0.0,
        "P3/2": -delta_drv,
        "D5/2": -delta_drv + delta_ref,
        "D3/2": 0.0,
        "P1/2": -(rep2.detuning if rep2 else 0.0),
        "photon": model.cavity.delta_cav - delta_ref,
    }


def build_hamiltonian(model: SystemModel, layout: HilbertLayout) -> HamiltonianParts:
    """Rotating-frame Hamiltonian of the full system, in rad/s."""
    offsets = frame_offsets(model)
    diag = np.zeros(layout.dim)
    for state in layout.atom.all_states():
        energy = zeeman_shift(state, model.b_gauss) + offsets[state.manifold.label]
        diag[layout.block(state)] += energy
    n_total = layout.number("H") + layout.number("V")
    h_static = sp.diags(diag).tocsr() + offsets["photon"] * n_total

    for role in ("repump_854", "repump_866"):
        laser = model.laser(role)
        if laser is None:
            continue
        a_op = _laser_coupling(layout, role, laser.polarization, laser.tones[0].amplitude)
        h_static = h_static + a_op + a_op.conj().T

    h_static = (h_static + _cavity_coupling(model, layout)).tocsr()

    drive = model.laser("drive")
    drive_coupling = None
    beats = []
    envelope = drive.envelope if drive else Envelope()
    if drive is not None:
        a1 = _laser_coupling(layout, "drive", drive.polarization, drive.tones[0].amplitude)
        drive_coupling = (a1 + a1.conj().T).tocsr()
        for tone in drive.tones[1:]:
            a_k = _laser_coupling(layout, "drive", drive.polarization, tone.amplitude)
            beats.append((a_k.tocsr(), tone.detuning - drive.tones[0].detuning))

    parts = HamiltonianParts(
        static=h_static, drive_coupling=drive_coupling, beat_operators=beats, envelope=envelope
    )
    if parts.is_static:
        h_full = parts.full_static()
        asym = abs(h_full - h_full.conj().T).max()
        if asym > 1e-12 * max(1.0, abs(h_full).max()):
            raise ValueError(f"static Hamiltonian not Hermitian: {asym:.2e}")
    return parts


def collapse_operators(model: SystemModel, layout: HilbertLayout):
    """Labelled collapse operators: spontaneous sub-channels plus cavity decay."""
    ops = []
    for upper_label in ("P3/2", "P1/2", "D5/2", "D3/2"):
        for up, lo, q, rate in decay_channels(layout.atom, upper_label):
            label = f"spont:{up.label}->{lo.label},q={q:+d}"
            c_op = _lift(
                layout, [layout.atom_index(lo)], [layout.atom_index(up)], [math.sqrt(rate)]
            )
            ops.append((label, c_op))
    if model.cavity.kappa > 0:
        for channel in ("H", "V"):
            ops.append(
                (f"cavity:{channel}", math.sqrt(2 * model.cavity.kappa) * layout.destroy(channel))
            )
    return ops


def operator_dump(model: SystemModel, layout: HilbertLayout) -> dict[str, str]:
    """Sparse-triplet texts (row, col, re, im) of H and the collapse operators, by file name."""
    parts = build_hamiltonian(model, layout)
    ops = {"hamiltonian_static": parts.static, "hamiltonian_drive": parts.drive_coupling}
    for i, (label, op) in enumerate(collapse_operators(model, layout)):
        safe = label.replace("/", "").replace(":", "_").replace(">", "").replace("<", "")
        ops[f"collapse_{i:02d}_{safe}"] = op
    coos = {name: sp.csr_matrix(op).tocoo() for name, op in ops.items() if op is not None}
    return {
        f"{name}.txt": "".join(
            f"{r} {c} {x.real:.17g} {x.imag:.17g}\n" for r, c, x in zip(a.row, a.col, a.data)
        )
        for name, a in coos.items()
    }


class _Rhs:
    """v -> L(t) v by direct CSR matvecs, accumulated into a caller's buffer.

    One matvec of the static part, then one of all time-dependent terms
    side by side in a single CSR [T_1 T_2 ...], applied to the stacked
    [c_1(t) v; c_2(t) v; ...]. The native kernel checks no sizes or types:
    ``v`` and ``out`` must be contiguous complex arrays of length ``n``.
    """

    def __init__(self, liouv: Liouvillian):
        self.n = liouv.static_part.shape[0]
        self.static = _csr_arrays(liouv.static_part)
        self.coefficients = [f for _, f in liouv.td_terms]
        self.scaled = np.empty((len(liouv.td_terms), self.n), dtype=complex)
        self.scaled_flat = self.scaled.reshape(-1)
        if liouv.td_terms:
            self.stacked = _csr_arrays(sp.hstack([op for op, _ in liouv.td_terms]))

    def __call__(self, t: float, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)
        csr_matvec(self.n, self.n, *self.static, v, out)
        if self.coefficients:
            c = [f(t) for f in self.coefficients]
            if any(c):
                np.multiply(np.array(c)[:, None], v, out=self.scaled)
                csr_matvec(self.n, self.scaled_flat.size, *self.stacked, self.scaled_flat, out)
        return out


def _csr_arrays(op):
    """(indptr, indices, complex data) of ``op`` as CSR, for ``csr_matvec``."""
    op = sp.csr_matrix(op)
    return op.indptr, op.indices, np.ascontiguousarray(op.data, dtype=complex)


@dataclass
class Liouvillian:
    """The generator L(t) = static_part + sum_k f_k(t) T_k on the entries ``keep`` of vec(rho)."""

    dim: int
    keep: np.ndarray
    static_part: sp.csr_matrix
    td_terms: list = field(default_factory=list)  # [(superop T_k, f_k(t))]

    @property
    def is_static(self) -> bool:
        return not self.td_terms

    def apply(self, t: float, v: np.ndarray) -> np.ndarray:
        """L(t) v, through the same kernel as :func:`evolve`."""
        v = np.ascontiguousarray(v, dtype=complex)
        if v.shape != (self._rhs.n,):
            raise ValueError(f"vector of shape {v.shape} does not match L of size {self._rhs.n}")
        return self._rhs(t, v, np.empty_like(v))

    @cached_property
    def _rhs(self) -> _Rhs:
        return _Rhs(self)

    def restrict(self, seed) -> Liouvillian:
        """The block of L reachable from the vectorized entries ``seed``.

        Keeps the connected components of the sparsity graph of
        |static_part| + sum |td_terms| that hold a seed entry (the symmetry
        reduction of Buca & Prosen, New J. Phys. 14, 073007 (2012)). No
        nonzero entry couples a kept index to a dropped one, so a state
        supported on the kept entries never leaves them, and the dropped
        entries of a solution seeded there are exactly zero.

        ``seed`` indexes vec(rho), and so does the ``keep`` of the returned copy,
        sorted: restricting a block composes the two.
        """
        graph = abs(self.static_part)
        for superop, _ in self.td_terms:
            graph = graph + abs(superop)
        _, labels = connected_components(graph, directed=True, connection="weak")
        local = np.flatnonzero(np.isin(labels, labels[np.isin(self.keep, seed)]))

        def block(op):
            return op[local][:, local]

        return replace(
            self,
            keep=self.keep[local],
            static_part=block(self.static_part),
            td_terms=[(block(superop), f) for superop, f in self.td_terms],
        )

    def trace_preservation_defect(self) -> float:
        """sup-norm of the adjoint applied to the identity, over the kept entries (no entry
        couples them to the rest); 0 if trace-preserving."""
        ident = (self.keep % (self.dim + 1) == 0).astype(complex)
        ops = [self.static_part] + [superop for superop, _ in self.td_terms]
        return float(max(np.max(np.abs(op.conj().T @ ident)) for op in ops))


def build_liouvillian(
    model: SystemModel, layout: HilbertLayout, extra_hamiltonian: sp.spmatrix | None = None
) -> Liouvillian:
    """Assemble L(rho) = -i[H, rho] + sum_c D[c] rho in vectorized form.

    The static part is summed in one pass from one set of COO triplets,

        kron(1, G) + kron(conj(G), 1) + sum_c kron(conj(c), c),
        G = -iH - (1/2) sum_c c^dag c,

    which is the commutator plus every dissipator under column stacking
    for a Hermitian H (conj(H) = H^T). A drive of constant envelope is part
    of H; a pulsed drive and every further tone stay time-dependent terms.
    """
    parts = build_hamiltonian(model, layout)
    collapses = collapse_operators(model, layout)
    env = parts.envelope
    env_const = getattr(env, "is_constant", False)

    h = parts.static
    if extra_hamiltonian is not None:
        h = h + extra_hamiltonian
    if parts.drive_coupling is not None and env_const:
        h = h + parts.drive_coupling
    n = layout.dim
    jumps = sp.vstack([c for _, c in collapses] or [sp.csr_matrix((n, n))])
    g = -1j * h - 0.5 * (jumps.conj().T @ jumps)
    eye = sp.identity(n)
    triplets = [_kron_triplets(eye, g), _kron_triplets(g.conj(), eye)]
    triplets += [_kron_triplets(c.conj(), c) for _, c in collapses]
    rows, cols, values = (np.concatenate(x) for x in zip(*triplets))
    static = sp.csr_matrix((values, (rows, cols)), shape=(n * n, n * n))
    static.eliminate_zeros()

    td_terms = []
    if parts.drive_coupling is not None and not env_const:
        drive_super = commutator_superoperator(parts.drive_coupling)
        td_terms.append((drive_super, lambda t, e=env: e(t)))
    for a_op, freq in parts.beat_operators:
        m_super = commutator_superoperator(a_op)
        n_super = commutator_superoperator(a_op.conj().T.tocsr())
        td_terms.append(
            (m_super, lambda t, f=freq, e=env: e(t) * np.exp(-1j * f * t))
        )
        td_terms.append(
            (n_super, lambda t, f=freq, e=env: e(t) * np.exp(+1j * f * t))
        )

    return Liouvillian(dim=n, keep=np.arange(n * n), static_part=static, td_terms=td_terms)


def _kron_triplets(a, b):
    """Rows, columns and values of kron(a, b), duplicates not summed."""
    a, b = a.tocoo(), b.tocoo()
    rows = (a.row[:, None] * b.shape[0] + b.row).ravel()
    cols = (a.col[:, None] * b.shape[1] + b.col).ravel()
    return rows, cols, (a.data[:, None] * b.data).ravel()


# -i[A, .] has one formula for any A, Hermitian or not. The old name stays only
# because perfbench/tracing.py looks it up among the traced functions.
commutator_superoperator_nonherm = commutator_superoperator


def drive_detuning_shift_superoperator(layout: HilbertLayout) -> sp.csr_matrix:
    """d L / d delta_drv: commutator with -(P_{P3/2} + P_{D5/2}).

    The drive detuning enters the frame only through the P3/2 and D5/2
    diagonal offsets, so a detuning scan is L(d) = L(d0) - (d - d0) * S
    with S this fixed sparse superoperator.
    """
    index = [
        layout.atom_index(state)
        for label in ("P3/2", "D5/2")
        for state in layout.atom[label].sublevels()
    ]
    return commutator_superoperator(_lift(layout, index, index, np.ones(len(index))))


# -- steady state ------------------------------------------------------------

_PIVOTING = dict(diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))


def _splu(a):
    """SuperLU with a minimum-degree ordering of A^T + A and diagonal pivots.

    On the fig4 block this halves the LU time and cuts the fill by a third
    against the default COLAMD. The 0.1 threshold keeps partial pivoting:
    a diagonal entry below a tenth of its column's largest gives way. It is
    the only sparse LU of the steady-state solve: a reduction runs it once,
    on its base block (:class:`_ReducedSteadyState`), and every point of a
    scan reuses that factorization; the shifted LUs of the uniqueness probe
    and the inverse-iteration fallback run it once each.
    """
    return spla.splu(a, permc_spec="MMD_AT_PLUS_A", **_PIVOTING)


def steady_state(
    liouv: Liouvillian, check_unique: bool = True, return_info: bool = False
):
    """Stationary density matrix of a static Liouvillian.

    Direct sparse solve of the vectorized system, restricted to the
    entries reachable from the populations (:meth:`Liouvillian.restrict`),
    with one row replaced by the trace constraint; falls back to shifted
    inverse iteration on the same block if the factorization fails. The
    residual ||L rho|| must come out below 1e-10 * ||L||, both on the block
    (no entry couples it to the rest, so the full residual is the same). With
    ``check_unique`` the reduced block is probed for a second near-zero
    eigenvalue, which would mean the stationary state is not unique (see
    :func:`_check_uniqueness`).

    With ``return_info`` a dict comes back too: ``residual`` and
    ``residual_scale`` (||L rho|| and max |L|, on the block), ``reduced_dim``
    (size of the block), ``lu_fill`` (SuperLU's count of the entries it
    stores for L and U of the block's one factorization, supernode padding
    included: 190,028 for the fig4 model; every point of a scan reports its
    reduction's count; None if the block could not be factored) and ``path``
    (``"lu"``, or ``"inverse_iteration"`` when the fallback gave the answer).
    One call factors the block once.
    """
    if not liouv.is_static:
        raise SteadyStateError("steady state requires a time-independent Liouvillian")
    state, info = _ReducedSteadyState(liouv).solve(check_unique=check_unique)
    if return_info:
        return state, info
    return state


class _ReducedSteadyState:
    """Steady states of L(x) = L0 + x S on one reduction, for a diagonal S.

    The block keeps the entries of ``liouv`` (L0) reachable from the
    populations. A diagonal ``shift`` S adds self-loops only, so the
    connected components, and with them the kept entries, are the same for
    every x: a detuning scan restricts once. L(x) lives on one CSR pattern,
    the union of the block and the diagonal of S; a point only sets its data.

    A(x) is the block of L(x) with its first row (the population of basis
    state 0) replaced by the trace constraint. S adds nothing to that row,
    so A(x) = A0 + x E D E^T, with E the m other kept entries S shifts and D
    its values there. A0 is factored once, on construction (``lu_fill`` is
    its fill, the same for every point), and u = A0^-1 b is kept, b the
    trace row's right-hand side. Any other x is a rank-m update of that
    factorization (Hager, SIAM Rev. 31, 221 (1989)) through the m x m
    capacitance C = E^T A0^-1 E:

        (1 + x C D) y = E^T u,   v = u - x A0^-1 E D y.

    The first time x is nonzero, C is formed, scaled to K = C D in place and
    reduced once to its complex Schur form K = Q T Q^H (Golub & Van Loan,
    Matrix Computations, 7.6); only T and Q are kept. Every shift then costs
    O(m^2), as in Laub's frequency responses (IEEE TAC 26, 407 (1981)):

        (T + 1/x) z = Q^H E^T u / x,   y = Q z,

    one triangular solve of order m and one solve with the base LU per
    point. On fig4 (m = 320, one BLAS thread) the base LU takes about 0.04 s,
    C about 0.15 s and its Schur form 0.1-0.17 s; a point then takes about
    1.2 ms, against 6 ms with a dense LU of 1 + x C D. The answer depends on
    x alone, not on the points solved before it.
    """

    # Columns of A0^-1 E per base solve while C is formed. Wider chunks are no
    # faster, and add to the peak memory (64 columns: +3 MB on fig4).
    _CHUNK = 8

    def __init__(self, liouv: Liouvillian, shift: sp.spmatrix | None = None):
        self.n = n = liouv.dim
        block = liouv.restrict(np.arange(n) * (n + 1))
        self.keep, self.block = block.keep, block.static_part
        self._diagonal = np.flatnonzero(self.keep % (n + 1) == 0)
        self._adjoint = np.searchsorted(self.keep, self.keep % n * n + self.keep // n)
        shift = sp.coo_matrix((n * n, n * n)) if shift is None else shift.tocoo()
        if np.any((shift.row != shift.col) & (shift.data != 0)):
            raise ValueError("shift must be diagonal: an off-diagonal entry changes the block")
        s = shift.diagonal()[self.keep]

        k = self.keep.size
        coo = self.block.tocoo()
        on_diag = np.flatnonzero(s)
        rows, cols = np.concatenate([coo.row, on_diag]), np.concatenate([coo.col, on_diag])
        base = np.concatenate([coo.data, np.zeros(on_diag.size)])
        shift_values = np.concatenate([np.zeros(coo.nnz), s[on_diag]])
        self._L = sp.csr_matrix((base, (rows, cols)), (k, k))  # L(x): solve sets its data
        self._base = self._L.data.copy()
        self._shift = sp.csr_matrix((shift_values, (rows, cols)), (k, k)).data
        self._shifted = on_diag[on_diag > 0]  # E: S adds nothing to the trace row
        self._d = s[self._shifted]  # D
        self._t = self._q = None  # Schur form of C D, formed the first time x is nonzero

        scale = float(np.abs(self._base).max(initial=0.0))
        self._lu = self._u = None
        try:
            lu = _splu(self.constrained_block(0.0, scale))
        except RuntimeError:
            return
        rhs = np.zeros(k, dtype=complex)
        rhs[0] = scale
        self._lu, self._u = lu, lu.solve(rhs)

    def constrained_block(self, x: float, scale: float) -> sp.csc_matrix:
        """A(x), with ``scale`` x the trace in its first row."""
        k = self.keep.size
        L = sp.csr_matrix((self._base + x * self._shift, self._L.indices, self._L.indptr), (k, k))
        trace = sp.csr_matrix(
            (np.full(self._diagonal.size, scale, dtype=complex), self._diagonal,
             [0, self._diagonal.size]),
            shape=(1, k),
        )
        return sp.vstack([trace, L[1:]], format="csc")

    def _updated(self, x: float):
        """A(x)^-1 b from the base LU; None if A0 or 1 + x C D is singular,
        or the Schur form of C D did not converge."""
        if self._lu is None:
            return None
        if not x or not self._d.size:
            return self._u
        if self._t is None:
            self._reduce_capacitance()
        t, q = self._t, self._q
        if q is None:
            return None
        np.fill_diagonal(t, self._t_diag + 1.0 / x)
        r = self._u[self._shifted] / x
        qh_r = (r.conj() @ q).conj()  # Q^H r, without a conjugated copy of Q
        z, info = lapack.ztrtrs(t, qh_r[:, None], overwrite_b=1)
        if info != 0:
            return None
        w = np.zeros(self.keep.size, dtype=complex)
        w[self._shifted] = self._d * (q @ z[:, 0])
        return self._u - x * self._lu.solve(w)

    def _reduce_capacitance(self):
        """The Schur form K = Q T Q^H of K = C D, with C = E^T A0^-1 E formed
        a chunk of columns per base solve in the buffer that becomes T.

        Q is None if zgees did not converge. Its workspace is zgehrd's
        optimal one plus m: with less, the Hessenberg reduction inside runs
        unblocked, twice as slow at m = 1,620.
        """
        e = self._shifted
        m = e.size
        k = np.empty((m, m), dtype=complex, order="F")
        unit = np.zeros((self.keep.size, self._CHUNK), dtype=complex, order="F")
        for start in range(0, m, self._CHUNK):
            cols = np.arange(start, min(start + self._CHUNK, m))
            unit[e[cols], cols - start] = 1.0
            k[:, cols] = self._lu.solve(unit[:, : cols.size])[e]
            unit[e[cols], cols - start] = 0.0
        k *= self._d  # K = C D
        work, _ = lapack.zgehrd_lwork(m)
        t, _, _, q, _, info = lapack.zgees(
            lambda w: 0, k, lwork=m + int(work.real), overwrite_a=1
        )
        self._t, self._q = t, (q if info == 0 else None)
        self._t_diag = t.diagonal().copy()

    def solve(self, x: float = 0.0, check_unique: bool = False):
        """``(DensityMatrix, info)`` at L(x); see :func:`steady_state`.

        The scale, the residual check, the inverse-iteration fallback, the
        uniqueness probe and the normalization all use the block of L(x), and
        the state holds its block vector.
        """
        L = self._L
        np.multiply(self._shift, x, out=L.data)
        L.data += self._base
        scale = float(np.abs(L.data).max(initial=0.0))
        if scale == 0.0:
            raise SteadyStateError("Liouvillian is identically zero")

        fill = None if self._lu is None else self._lu.nnz
        v, path = self._updated(x), "lu"
        if v is None or not np.all(np.isfinite(v)):
            v, path = _inverse_iteration(L, scale), "inverse_iteration"

        v = self._hermitian_unit_trace(v)
        residual = float(np.linalg.norm(L @ v))
        if residual > 1e-10 * scale:
            v = self._hermitian_unit_trace(_inverse_iteration(L, scale, start=v))
            path = "inverse_iteration"
            residual = float(np.linalg.norm(L @ v))
            if residual > 1e-10 * scale:
                raise SteadyStateError(
                    f"steady-state residual {residual:.2e} exceeds {1e-10 * scale:.2e}"
                )

        if check_unique:
            _check_uniqueness(L, scale, v)

        info = {
            "residual": residual,
            "residual_scale": scale,
            "reduced_dim": int(self.keep.size),
            "lu_fill": fill,
            "path": path,
        }
        return DensityMatrix(keep=self.keep, dim=self.n, vectors=v), info

    def _hermitian_unit_trace(self, v):
        """The block vector of (rho + rho^dag) / 2, over its trace: the kept entries
        are closed under rho -> rho^dag, and the kept diagonal is all of it."""
        v = 0.5 * (v + v[self._adjoint].conj())
        return v / v[self._diagonal].sum().real


def _shifted_lu(L, scale, what):
    """LU of L + 1e-9 * scale * 1, for inverse iteration towards eigenvalue 0."""
    sigma = -1e-9 * scale
    try:
        return _splu((L - sigma * sp.identity(L.shape[0], format="csc")).tocsc())
    except RuntimeError as exc:
        raise SteadyStateError(f"{what} factorization failed: {exc}") from exc


def _inverse_iteration(L, scale, start=None, iterations=50):
    """Null vector of L by inverse iteration with a tiny shift.

    It takes one sweep more than the first to meet ||L v|| <= 1e-12 * scale:
    that bound still leaves a few 1e-10 of a slow relaxation mode in the fig4
    state (photon rates off by ~1e-7), and the next sweep cuts it to ~1e-14.
    """
    lu = _shifted_lu(L, scale, "inverse-iteration")
    rng = np.random.default_rng(7)
    v = start if start is not None else rng.standard_normal(L.shape[0]) + 0j
    v /= np.linalg.norm(v)
    converged = False
    for _ in range(iterations):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
        if converged:
            break
        converged = np.linalg.norm(L @ v) <= 1e-12 * scale
    return v


def _check_uniqueness(L, scale, known_null, iterations=40):
    """Probe for a second null vector: a degenerate stationary manifold.

    Deflated inverse iteration: starting orthogonal to the known
    stationary vector and re-orthogonalizing each sweep, convergence of
    ||L v|| to (numerical) zero exposes a second zero eigenvalue. In a
    system with a unique stationary state the iteration settles on the
    slowest relaxation mode instead, whose rate is physical (>> 0).

    ``steady_state`` runs it on the block reachable from the populations,
    not on the full operator. Why a second stationary state shows there:
    the stationary states of a Lindblad generator are spanned by stationary
    density matrices (the positive and negative parts of a Hermitian fixed
    point of a trace-preserving positive map are fixed points too). No
    entry couples the block to the rest, so the block part of each is a
    null vector of the block, and it is nonzero because it holds the
    populations. Two stationary density matrices whose block parts differ
    thus give the block two null vectors. The block misses a second one
    only if the two agree on every population and on every coherence the
    populations reach, i.e. differ by a stationary coherence X lying wholly
    outside the block. The positive and negative parts of X are then two
    stationary states with equal populations and orthogonal supports. In
    these models a support with any component on a P level contains a bare
    basis state |l, 0, 0> (one spontaneous jump onto l, then the cavity
    annihilators), whose population the other support would lack; so both
    supports would have to consist of dark superpositions of S1/2 and D
    sublevels that no coupling ever takes to P. Such a pair has not
    been found: on random single-ion models the block probe and the
    full-space probe agree (``test_block_probe_matches_full_space``). The
    claim is not general: dephasing by sigma_x on a qubit keeps both
    |+><+| and |-><-| stationary while its population block has one null
    vector.
    """
    n2 = L.shape[0]
    lu = _shifted_lu(L, scale, "uniqueness probe")
    null = known_null / np.linalg.norm(known_null)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
    v -= null * np.vdot(null, v)
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        v = lu.solve(v)
        v -= null * np.vdot(null, v)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return
        v /= norm
    second_rate = float(np.linalg.norm(L @ v))
    if second_rate <= 1e-9 * scale:
        raise SteadyStateError(
            "stationary state is not unique: found a second null vector "
            f"(|L v| = {second_rate:.3e} against scale {scale:.3e})"
        )


# -- time evolution ----------------------------------------------------------

# Dormand-Prince 5(4) tableau: Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980)
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]  # = b5 (FSAL)
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Over the rows (y, k0, ..., k6): the inputs of stages 1-6, then the error
# estimate. The input of stage 6 is the fifth-order solution y_new.
_DP_ROWS = np.zeros((7, 8))
_DP_ROWS[:6, 1:] = _DP_A[1:]
_DP_ROWS[6, 1:] = _DP_ERR


@dataclass
class Trajectory(DensityMatrix):
    """A run of :func:`evolve`: ``vectors[i]`` is the state at ``times[i]``, on the
    block :meth:`Liouvillian.restrict` keeps."""

    times: np.ndarray
    n_steps: int
    n_rejected: int
    max_trace_drift: float

    @property
    def states(self) -> list:
        """The state at every output time."""
        return [DensityMatrix(keep=self.keep, dim=self.dim, vectors=v) for v in self.vectors]


def evolve(
    liouv: Liouvillian,
    rho0: np.ndarray | DensityMatrix,
    t_grid,
    rtol: float = 1e-8,
    atol: float = 1e-12,
    max_steps: int = 20_000_000,
) -> Trajectory:
    """Adaptive embedded Runge-Kutta (Dormand-Prince 5(4)) integration.

    ``t_grid`` must be increasing; the integrator clamps steps to hit
    every requested time exactly. Raises :class:`StiffnessError` with a
    fastest-timescale diagnostic if the step size underflows, and
    reports the worst trace drift across the run (guaranteed <= 1e-7
    for a trace-preserving Liouvillian at these tolerances).

    Only the entries reachable from the support of ``rho0`` are stepped
    (:meth:`Liouvillian.restrict`) and returned, one block vector per output
    time; the others stay exactly zero. The error norm is the RMS over all
    ``dim**2`` entries, so the step sequence is the one the full vector would take.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be an increasing array of at least two times")
    y_full = vec(rho0.matrix if isinstance(rho0, DensityMatrix) else rho0).astype(complex)
    block = liouv.restrict(np.flatnonzero(y_full))
    keep = block.keep
    n2 = y_full.size
    t = float(t_grid[0])

    rhs = block._rhs
    vectors = np.empty((t_grid.size, keep.size), dtype=complex)

    # Preallocated rows: y, then the stages k0..k6. Each stage input is one
    # dot of the h-scaled tableau with the real view of these rows.
    stack = np.empty((8, keep.size), dtype=complex)
    stack[0] = vectors[0] = y_full[keep]
    stack_re = stack.view(float)
    stage_in = np.empty((6, keep.size), dtype=complex)
    stage_in_re = stage_in.view(float)
    y, y_new = stack[0], stage_in[5]
    h_rows = np.empty_like(_DP_ROWS)
    # stage i: (tableau row, rows it combines, input (real view), c_i, input, k_i)
    stages = [
        (h_rows[i - 1, : i + 1], stack_re[: i + 1], stage_in_re[i - 1], _DP_C[i],
         stage_in[i - 1], stack[i + 1])
        for i in range(1, 7)
    ]
    err_vec = np.empty(2 * y.size)  # the error estimate as (re, im) pairs, then / scale
    scale = np.empty(y.size)
    err_pairs, scale_col = err_vec.reshape(-1, 2), scale[:, None]

    rhs(t, y, stack[1])
    h = _initial_step(y, stack[1], rtol, atol, n2)
    t_end = float(t_grid[-1])
    next_out = 1
    n_steps = n_rejected = 0
    h_floor = max(1e-14 * (t_end - t), np.finfo(float).tiny * 1e3)

    while t < t_end:
        if n_steps + n_rejected >= max_steps:
            raise StiffnessError(
                f"step budget {max_steps} exhausted at t = {t:.3e} s",
                fastest_timescale=_fastest_timescale(liouv),
            )
        clamped = False
        if t + h >= t_grid[next_out]:
            h_try = t_grid[next_out] - t
            clamped = True
        else:
            h_try = h
        if h_try < h_floor:
            raise StiffnessError(
                f"step size underflow ({h_try:.3e} s) at t = {t:.3e} s; "
                "the dynamics contain a timescale the tolerance cannot absorb",
                fastest_timescale=_fastest_timescale(liouv),
            )

        np.multiply(_DP_ROWS, h_try, out=h_rows)
        h_rows[:6, 0] = 1.0
        for row, combined, y_i_re, c_i, y_i, k_i in stages:
            np.dot(row, combined, out=y_i_re)
            rhs(t + c_i * h_try, y_i, k_i)
        np.dot(h_rows[6, 1:], stack_re[1:], out=err_vec)
        np.maximum(np.abs(y, out=scale), np.abs(y_new), out=scale)
        scale *= rtol
        scale += atol
        err_pairs /= scale_col
        err = math.sqrt(float(np.dot(err_vec, err_vec)) / n2)

        if err <= 1.0:
            t = t_grid[next_out] if clamped else t + h_try
            y[:] = y_new
            stack[1] = stack[7]  # FSAL
            n_steps += 1
            if clamped:
                vectors[next_out] = y
                next_out += 1
        else:
            n_rejected += 1  # FSAL stage k0 still holds f(t, y)
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = h_try * min(5.0, max(0.2, factor))

    traces = vectors.compress(keep % (liouv.dim + 1) == 0, axis=1).sum(axis=1).real
    max_drift = float(np.max(np.abs(traces - traces[0])))
    if max_drift > 1e-7:
        raise StiffnessError(
            f"trace drifted by {max_drift:.2e} (> 1e-7); Liouvillian may not be "
            "trace-preserving or tolerances are too loose",
            fastest_timescale=_fastest_timescale(liouv),
        )
    return Trajectory(
        times=t_grid,
        keep=keep,
        dim=liouv.dim,
        vectors=vectors,
        n_steps=n_steps,
        n_rejected=n_rejected,
        max_trace_drift=max_drift,
    )


def _rms(v, n2):
    """RMS of ``v`` padded with zeros to ``n2`` entries."""
    return math.sqrt(float(np.sum(np.abs(v) ** 2)) / n2)


def _initial_step(y, f0, rtol, atol, n2):
    sc = atol + rtol * np.abs(y)
    d0 = _rms(y / sc, n2)
    d1 = _rms(f0 / sc, n2)
    if d0 < 1e-5 or d1 < 1e-5:
        return 1e-9
    return 0.01 * d0 / d1


def _fastest_timescale(liouv: Liouvillian) -> float:
    """1 / max|L_static|: the inverse of the generator's fastest rate."""
    fastest = float(abs(liouv.static_part).max())
    return 1.0 / fastest if fastest > 0 else math.inf


# -- observables -------------------------------------------------------------


def expectation(rho: DensityMatrix, operator) -> complex | np.ndarray:
    """Tr(rho O), one per state (per time of a trajectory); raises on dimension mismatch.

    One product: O[r, c] sits at r n + c of O flattened row-major, which is
    where vec(rho) holds rho[c, r]; only the nonzero entries of O are read."""
    n = rho.dim
    coo = (operator if sp.issparse(operator) else sp.csr_matrix(np.asarray(operator))).tocoo()
    if coo.shape != (n, n):
        raise ValueError(f"operator dimension {coo.shape} does not match state {(n, n)}")
    values = np.sum(coo.data * rho._entries(coo.row * n + coo.col), axis=-1)
    return values if values.ndim else complex(values)


def detected_mode_numbers(rho, layout: HilbertLayout, chain) -> np.ndarray:
    """Photon numbers of the two detected (analysis-basis) modes; (T, 2) over a trajectory."""
    n_h, n_v, cross = (
        np.asarray(expectation(rho, op))[..., None] for op in layout.mode_flux_operators
    )
    u = chain.analysis_basis
    numbers = (
        abs(u[:, 0]) ** 2 * n_h.real
        + abs(u[:, 1]) ** 2 * n_v.real
        + 2 * (np.conj(u[:, 0]) * u[:, 1] * cross).real
    )
    return np.maximum(numbers, 0.0)


def photon_flux(
    rho, layout: HilbertLayout, kappa: float, chain, include_dark: bool = True
) -> np.ndarray:
    """Detected rate per channel, 2 kappa <n_det> x efficiency (+ dark); (T, 2) for a trajectory."""
    from .cavity import channel_efficiency

    numbers = detected_mode_numbers(rho, layout, chain)
    flux = 2 * kappa * numbers * np.array(channel_efficiency(chain))
    if include_dark:
        flux = flux + np.array(chain.dark_counts)
    return flux


def manifold_populations(rho: DensityMatrix, layout: HilbertLayout) -> dict:
    """Population of each manifold, one per state."""
    return {
        label: sum(state_population(rho, layout, s) for s in layout.atom[label].sublevels())
        for label in ("S1/2", "D3/2", "D5/2", "P1/2", "P3/2")
    }


def state_population(rho: DensityMatrix, layout: HilbertLayout, state) -> float | np.ndarray:
    """Population of one atomic sublevel over all photon numbers, one per state."""
    diagonal = np.arange(layout.dim)[layout.block(state)] * (rho.dim + 1)
    values = np.sum(rho._entries(diagonal).real, axis=-1)
    return values if values.ndim else float(values)
