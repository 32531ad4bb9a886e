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

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .atom import decay_channels, dipole_pairs, zeeman_shift
from .errors import SteadyStateError, StiffnessError
from .hilbert import HilbertLayout, commutator_superoperator, vec
from .system import SystemModel

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


@dataclass
class HamiltonianParts:
    """H in the rotating frame: a static part, and a beat term per further drive tone."""

    static: sp.csr_matrix  # diagonal + repumps + cavity couplings
    drive_coupling: sp.csr_matrix | None  # first-tone coupling + h.c. (Hermitian)
    beat_operators: list  # [(A_k, freq_k)] for extra drive tones; term A e^{-i f t} + h.c.

    def full_static(self) -> sp.csr_matrix:
        """The static part with the first drive tone, which is always on."""
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
    if drive is not None:
        a1 = _laser_coupling(layout, "drive", drive.polarization, drive.tones[0].amplitude)
        drive_coupling = (a1 + a1.conj().T).tocsr()
        for tone in drive.tones[1:]:
            a_k = _laser_coupling(layout, "drive", drive.polarization, tone.amplitude)
            beats.append((a_k.tocsr(), tone.detuning - drive.tones[0].detuning))

    parts = HamiltonianParts(static=h_static, drive_coupling=drive_coupling, beat_operators=beats)
    h_full = parts.full_static()
    asym = abs(h_full - h_full.conj().T).max()
    if asym > 1e-12 * max(1.0, abs(h_full).max()):
        raise ValueError(f"static Hamiltonian not Hermitian: {asym:.2e}")
    return parts


def _collapse_table(model: SystemModel, layout: HilbertLayout):
    """Every collapse operator, in one order: (labels, lower, upper, sqrt rates) of the
    spontaneous sub-channels (upper sub-state -> lower sub-state, q), lower and upper
    by atomic index, each sqrt(rate) |lower><upper| on the atom (x) identity on the
    modes; then the labelled sqrt(2 kappa) a of each cavity mode, if kappa > 0."""
    channels = [
        (f"spont:{up.label}->{lo.label},q={q:+d}", layout.atom_index(lo), layout.atom_index(up), math.sqrt(rate))
        for upper_label in ("P3/2", "P1/2", "D5/2", "D3/2")
        for up, lo, q, rate in decay_channels(layout.atom, upper_label)
    ]
    labels, lower, upper, amplitudes = zip(*channels) if channels else ((),) * 4
    kappa = model.cavity.kappa
    cavity = [(f"cavity:{ch}", math.sqrt(2 * kappa) * layout.destroy(ch)) for ch in ("H", "V") if kappa > 0]
    return list(labels), np.array(lower, dtype=int), np.array(upper, dtype=int), np.array(amplitudes), cavity


def collapse_operators(model: SystemModel, layout: HilbertLayout):
    """Labelled collapse operators: spontaneous sub-channels plus cavity decay."""
    *spont, cavity = _collapse_table(model, layout)
    return [(label, _lift(layout, [lo], [up], [a])) for label, lo, up, a in zip(*spont)] + cavity


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


@dataclass
class Liouvillian:
    """The generator L(t) = static_part + sum_k e^{-i w_k t} T_k on the entries ``keep``
    of vec(rho)."""

    dim: int
    keep: np.ndarray
    static_part: sp.csr_matrix
    td_terms: list = field(default_factory=list)  # [(superop T_k, w_k in rad/s)]

    def restrict(self, seed) -> Liouvillian:
        """The weak block of the vectorized entries ``seed``: the block the steady
        state solves.

        Keeps the connected components of the sparsity graph of
        |static_part| + sum |td_terms|, edges taken both ways, that hold a seed
        entry (the symmetry reduction of Buca & Prosen, New J. Phys. 14, 073007
        (2012)). No nonzero entry couples a kept index to a dropped one in either
        direction: no outside entry feeds the block, as :func:`_check_uniqueness`
        needs, and the dropped entries of a solution seeded there are exactly zero.

        ``seed`` indexes vec(rho), and so does the ``keep`` of the returned copy,
        sorted: restricting a block composes the two.
        """
        return self._search(seed, directed=False)

    def reachable(self, seed) -> Liouvillian:
        """The forward closure of the vectorized entries ``seed``: the block
        :func:`evolve` steps.

        Keeps every entry reached from a seed entry along the edges j -> i of the
        sparsity graph, one wherever L[i, j] != 0. No kept entry feeds a dropped
        one, so a state seeded there leaves the dropped entries exactly zero. It
        is the part of the weak block (:meth:`restrict`) such a state reaches: 150
        of its 384 entries from |S1/2,-1/2> under a sigma-minus drive. ``seed``
        and ``keep`` index vec(rho) as in :meth:`restrict`.
        """
        return self._search(seed, directed=True)

    def _search(self, seed, directed: bool) -> Liouvillian:
        """This generator on the entries a breadth-first search reaches from a
        virtual source with an edge to each seed entry, along the edges j -> i of
        the sparsity graph, or along both ways of each unless ``directed``."""
        graph = abs(self.static_part)
        for superop, _ in self.td_terms:
            graph = graph + abs(superop)
        graph.eliminate_zeros()
        graph = graph.tocoo()
        m = self.keep.size
        start = np.flatnonzero(np.isin(self.keep, seed))
        search = sp.csr_matrix(
            (np.ones(graph.nnz + start.size),
             (np.r_[graph.col, np.full(start.size, m)], np.r_[graph.row, start])),
            shape=(m + 1, m + 1),
        )
        order = breadth_first_order(search, m, directed=directed, return_predecessors=False)
        local = np.sort(order[1:])  # the source comes first

        def block(op):
            return op[local][:, local]

        return replace(
            self,
            keep=self.keep[local],
            static_part=block(self.static_part),
            td_terms=[(block(superop), w) for superop, w in self.td_terms],
        )


def build_liouvillian(model: SystemModel, layout: HilbertLayout) -> Liouvillian:
    """Assemble L(rho) = -i[H, rho] + sum_c D[c] rho in vectorized form.

    The static part is summed in one pass from one set of COO triplets,

        kron(1, G) + kron(conj(G), 1) + sum_c kron(conj(c), c),
        G = -iH - (1/2) sum_c c^dag c,

    which is the commutator plus every dissipator under column stacking
    for a Hermitian H (conj(H) = H^T). The first drive tone is part of H.
    A further tone at beat frequency f, the term A e^{-i f t} + h.c. of H,
    gives the commutator of A at w = +f and that of A^dag at w = -f.
    """
    parts = build_hamiltonian(model, layout)
    n, m = layout.dim, layout.mode_dim**2
    # Spontaneous channel j, a_j |lo_j><up_j| (x) 1, has its entries at (lo_j m + mu,
    # up_j m + mu) for the m mode states mu, and kron(conj c_j, c_j) at every pair (mu, nu).
    _, lower, upper, amplitudes, cavity = _collapse_table(model, layout)
    cavity = [c for _, c in cavity]
    lo, up = (index[:, None] * m + np.arange(m) for index in (lower, upper))
    stacked = sp.csr_matrix(
        (np.repeat(amplitudes, m), ((lo + n * np.arange(len(lo))[:, None]).ravel(), up.ravel())),
        shape=(len(lo) * n, n),
    )
    jumps = sp.vstack([stacked] + cavity)  # every c in channel order, one block of n rows each
    g = -1j * parts.full_static() - 0.5 * (jumps.conj().T @ jumps)
    spont = ((lo[:, :, None] * n + lo[:, None, :]).ravel(), (up[:, :, None] * n + up[:, None, :]).ravel(),
             np.repeat(amplitudes.conj() * amplitudes, m * m))
    triplets = [_kron_triplets(sp.identity(n), g), _kron_triplets(g.conj(), sp.identity(n)), spont]
    triplets += [_kron_triplets(c.conj(), c) for c in cavity]
    rows, cols, values = (np.concatenate(x) for x in zip(*triplets))
    static = sp.csr_matrix((values, (rows, cols)), shape=(n * n, n * n))
    static.eliminate_zeros()

    td_terms = []
    for a_op, freq in parts.beat_operators:
        td_terms.append((commutator_superoperator(a_op), freq))
        td_terms.append((commutator_superoperator(a_op.conj().T.tocsr()), -freq))
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
    scan and the uniqueness probe reuse that factorization; only the
    inverse-iteration fallback runs it again, once per point that takes it.
    """
    return spla.splu(a, permc_spec="MMD_AT_PLUS_A", **_PIVOTING)


def steady_state(
    liouv: Liouvillian, check_unique: bool = True, return_info: bool = False
):
    """Stationary density matrix of a static Liouvillian.

    Direct sparse solve of the vectorized system, restricted to the weak
    block of the populations (:meth:`Liouvillian.restrict`),
    with one row replaced by the trace constraint; falls back to shifted
    inverse iteration on the same block if the factorization fails. The
    residual ||L rho|| must come out below 1e-10 * ||L||, both on the block
    (no entry couples it to the rest, so the full residual is the same). With
    ``check_unique`` the block's trace-constrained factorization is probed
    for a second stationary state (see :func:`_check_uniqueness`).

    With ``return_info`` a dict comes back too: ``residual`` and
    ``residual_scale`` (||L rho|| and max |L|, on the block), ``reduced_dim``
    (size of the block), ``lu_fill`` (SuperLU's count of the entries it
    stores for L and U of the block's one factorization, supernode padding
    included: 190,028 for the fig4 model; every point of a scan reports its
    reduction's count; None if the block could not be factored), ``path``
    (``"lu"``, or ``"inverse_iteration"`` when the fallback gave the answer),
    and ``krylov_dim`` and ``certificate`` (0 and 0.0 here, where no Krylov
    space is needed; see :meth:`_ReducedSteadyState.solve_many`).
    One call factors the block once, the uniqueness probe included.
    """
    if liouv.td_terms:
        raise SteadyStateError("steady state requires a time-independent Liouvillian")
    state, info = _ReducedSteadyState(liouv).solve(check_unique=check_unique)
    if return_info:
        return state, info
    return state


class _ReducedSteadyState:
    """Steady states of L(x) = L0 + x S on one reduction, for a diagonal S.

    The block keeps the entries of ``liouv`` (L0) weakly connected to the
    populations (:meth:`Liouvillian.restrict`). A diagonal ``shift`` S adds
    self-loops only, so the connected components, and with them the kept
    entries, are the same for every x: a detuning scan restricts once.

    A(x) is the block of L(x) with its first row (the population of basis
    state 0) replaced by the trace constraint. S adds nothing to that row,
    so A(x) = A0 + x E D E^T, with E the m other kept entries S shifts and D
    its values there. A0 is factored once, on construction (``lu_fill`` is
    its fill, the same for every point), and u = A0^-1 b is kept, b the
    trace row's right-hand side. Any other x is a rank-m update of that
    factorization (Hager, SIAM Rev. 31, 221 (1989)):

        (I + x K) y = r,   v = u - x A0^-1 E D y,   K = E^T A0^-1 E D,   r = E^T u.

    Every x has the same K and r, so every y lies in one Krylov space of K
    and r: shifted systems share it (Frommer & Glässner, SIAM J. Sci.
    Comput. 19, 15 (1998); Saad, Iterative Methods for Sparse Linear
    Systems, 2nd ed., 6.4). Construction builds it when ``points`` holds a
    nonzero x, by Arnoldi with two-pass Gram-Schmidt. Step j is one base
    solve, w_j = A0^-1 E D v_j, and K v_j = E^T w_j; the w_j are kept as
    W_k, so y = V_k z gives v = u - x W_k z. The Krylov (FOM) solution at x,

        (I + x H_k) z = ||r|| e_1,

    leaves the residual |x h_{k+1,k} e_k^T z|, its certificate. Arnoldi
    stops at the smallest k where the certificate is at most 1e-14 ||r||
    at every nonzero x of ``points`` (the scan's shifts), read off the left
    null vector of [I; 0] + x H_k-bar, one recurrence for all of them per
    step; or where the space is invariant (h_{k+1,k} zero to rounding, or
    k = m), which makes every y exact. Construction then takes one complex
    Schur form H_k = Q T Q^H (Golub & Van Loan, Matrix Computations, 7.6),
    which serves every point, as in Laub's frequency responses (IEEE TAC 26,
    407 (1981)):

        (T + I/x) zeta = Q^H ||r|| e_1 / x,   z = Q zeta,   v = u - x W_k z.

    :meth:`solve_many` solves a batch at once, with no sparse solve: one
    back-substitution on T (row i divides by t_ii + 1/x, one x per column),
    one gemm per block of W_k, one Hermitian part, one residual product and
    one scale. On fig4 and fig5 (m = 320, one BLAS thread) k is 113 and 109:
    Arnoldi takes 0.07-0.12 s, the Schur form about 0.012 s and a batch of 8
    points about 1.5 ms.

    The space and its Schur form are fixed at construction, so a point
    depends on its x, its batch and ``points`` alone. A point whose own
    certificate fails, such as an x off ``points``, or a nonzero x where no
    space was built, takes the single-point path. A scan's points are all
    in ``points`` and its grid fixes its batches of ``CHUNK``, so a point of
    a scan depends on its detuning and the grid alone.
    """

    _TOL = 1e-14  # the certificate, over ||r||, at which a Krylov solution is taken
    # Krylov columns per buffer block: W grows a block at a time without a copy,
    # so the memory follows k, not m.
    _BLOCK = 40
    # Points per batch of a scan, each read out before the next. On fig4 batches of
    # 8 add nothing to a scan's peak memory, of 16 about 1 MB and of all 154 about
    # 15 MB; 8 and 16 take the same time to within 2%.
    CHUNK = 8

    def __init__(self, liouv: Liouvillian, shift: sp.spmatrix | None = None, points=()):
        self.n = n = liouv.dim
        block = liouv.restrict(np.arange(n) * (n + 1))
        self.keep, self.block = block.keep, block.static_part
        self._diagonal = np.flatnonzero(self.keep % (n + 1) == 0)
        self._adjoint = np.searchsorted(self.keep, self.keep % n * n + self.keep // n)
        shift = sp.coo_matrix((n * n, n * n)) if shift is None else shift.tocoo()
        if np.any((shift.row != shift.col) & (shift.data != 0)):
            raise ValueError("shift must be diagonal: an off-diagonal entry changes the block")
        self._s = s = shift.diagonal()[self.keep]

        # max |L(x)| is the larger of the entries S leaves and the shifted diagonal
        coo, on_diag = self.block.tocoo(), np.flatnonzero(s)
        fixed = (coo.row != coo.col) | (s[coo.row] == 0)
        self._fixed_scale = float(np.abs(coo.data[fixed]).max(initial=0.0))
        self._touched = (self.block.diagonal()[on_diag], s[on_diag])
        self._shifted = on_diag[on_diag > 0]  # E: S adds nothing to the trace row
        self._d = s[self._shifted]  # D
        self.update_rank = int(self._shifted.size)  # m
        self._k, self._q = 0, None  # no Krylov space

        self._scale = scale = float(np.abs(coo.data).max(initial=0.0))
        self._lu = self._u = None
        try:
            lu = _splu(self.constrained_block(0.0, scale))
        except RuntimeError:
            return
        rhs = np.zeros(self.keep.size, dtype=complex)
        rhs[0] = scale
        self._lu, self._u = lu, lu.solve(rhs)
        r = self._u[self._shifted]
        self._beta = float(np.linalg.norm(r))  # 0 if m = 0 or r = 0: y = 0 at every x
        points = np.unique(np.asarray(points, dtype=float))
        if self._beta and np.any(points != 0.0):
            self._build_space(r / self._beta, points[points != 0.0])

    def _matrix(self, x: float) -> sp.csr_matrix:
        """L(x): the block, with x S on its diagonal."""
        return self.block + sp.diags(x * self._s)

    def constrained_block(self, x: float, scale: float) -> sp.csc_matrix:
        """A(x), with ``scale`` x the trace in its first row."""
        k = self.keep.size
        trace = sp.csr_matrix(
            (np.full(self._diagonal.size, scale, dtype=complex), self._diagonal,
             [0, self._diagonal.size]),
            shape=(1, k),
        )
        return sp.vstack([trace, self._matrix(x)[1:]], format="csc")

    def _build_space(self, v0, points):
        """Arnoldi steps on K from ``v0`` = r / ||r|| until the certificate holds at
        every x of ``points`` or the space is invariant, then the Schur form of
        H_k; Q stays None if zgees does not converge. W gains a block of columns
        at a time, and V, H and the null vectors move to larger arrays (all three
        are small)."""

        def larger(a, shape):
            b = np.zeros(shape, dtype=complex, order="F")
            b[: a.shape[0], : a.shape[1]] = a
            return b

        e, d, m, size = self._shifted, self._d, self._shifted.size, self._BLOCK
        v, h, null, self._w = v0[:, None], np.zeros((1, 0), dtype=complex), np.ones((points.size, 1)), []
        rhs = np.zeros(self.keep.size, dtype=complex)
        k = 0
        while True:
            if k % size == 0:
                v, h = larger(v, (m, k + size + 1)), larger(h, (k + size + 1, k + size))
                null = larger(null, (points.size, k + size + 1))
                self._w.append(np.empty((self.keep.size, size), dtype=complex, order="F"))
            rhs[e] = d * v[:, k]
            w = self._w[-1][:, k % size] = self._lu.solve(rhs)
            kv, basis = w[e], v[:, : k + 1]
            kv_norm = np.linalg.norm(kv)
            for _ in range(2):  # two-pass classical Gram-Schmidt
                c = (kv.conj() @ basis).conj()
                kv -= basis @ c
                h[: k + 1, k] += c
            norm = float(np.linalg.norm(kv))
            k += 1
            if norm <= np.finfo(float).eps * kv_norm or k == m:
                break  # K V_k = V_k H_k to rounding: invariant, h_{k+1,k} = 0, every y exact
            h[k, k - 1] = norm
            v[:, k] = kv / norm
            # Entry k of the left null vector of [I; 0] + x H_k-bar, one row per x, each
            # row then scaled to a largest modulus of 1: the certificate at x is
            # |row[0]| / |row[k]|.
            phi = null[:, k - 1] + points * (null[:, :k] @ h[:k, k - 1])
            null[:, k] = -phi / (points * h[k, k - 1])
            null[:, : k + 1] /= np.abs(null[:, : k + 1]).max(axis=1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                if np.all(np.abs(null[:, 0]) / np.abs(null[:, k]) <= self._TOL):
                    break
        self._k, self._h = k, h
        t, _, _, q, _, info = lapack.zgees(lambda w: 0, np.array(h[:k, :k], order="F"), overwrite_a=1)
        if info == 0:
            self._t, self._t_diag, self._q = t, t.diagonal().copy(), q
            self._g = self._beta * q[0].conj()  # Q^H ||r|| e_1

    def _updated(self, xs):
        """``(v, k, certificates)``: row j of v is A(x_j)^-1 b for x_j of ``xs``, from
        the base LU and the Krylov space of dimension k, with its certificate over
        ||r||: 0 where the update is exact (x = 0, or r = 0), NaN where no Schur
        form serves x. A row and its certificate are NaN where T + I/x is
        singular. v is None if A0 is singular."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if self._lu is None:
            return None, 0, None
        v, certificates = np.repeat(self._u[None], xs.size, axis=0), np.zeros(xs.size)
        on = np.flatnonzero(xs) if self._beta else []
        if not len(on):
            return v, 0, certificates
        k, x = self._k, xs[on]
        if self._q is None:
            certificates[on] = math.nan
            return v, k, certificates
        with np.errstate(divide="ignore", invalid="ignore"):  # a singular x gives NaN
            z = self._q @ self._back_substitute(x)
            certificates[on] = np.abs(x * self._h[k, k - 1] * z[-1]) / self._beta
            wz = np.zeros((x.size, self.keep.size), dtype=complex)  # W_k z, in place
            for w, zi in zip(self._w, np.split(z, range(self._BLOCK, k, self._BLOCK))):
                wz += zi.T @ w[:, : len(zi)].T
            wz *= -x[:, None]
            wz += self._u
        v[on] = wz
        return v, k, certificates

    def _back_substitute(self, xs):
        """zeta of (T + I/x) zeta = Q^H ||r|| e_1 / x, one column per x of ``xs``:
        row i of T divides by t_ii + 1/x, so one pass serves every x. A column is
        NaN from the row where t_ii + 1/x is zero."""
        t, inv = self._t, 1.0 / xs
        rhs = self._g[:, None] * inv
        pivots = self._t_diag[:, None] + inv
        zeta = np.empty_like(rhs)
        for i in range(self._k - 1, -1, -1):
            zeta[i] = (rhs[i] - t[i, i + 1 :] @ zeta[i + 1 :]) / pivots[i]
        return zeta

    def solve_many(self, xs):
        """``(DensityMatrix, infos)`` at L(x) for every x of ``xs``: ``vectors[j]``
        and ``infos[j]`` belong to x_j, with the keys of :func:`steady_state`;
        ``krylov_dim`` is the k the point was solved on (0 if it needed no
        Krylov space), ``certificate`` its FOM residual over ||r|| (None if it
        has none). A point whose update is not finite, misses the residual
        bound or has no certificate at most 1e-14 takes the single-point path
        alone (:meth:`_inverse_iteration_at`); one that fails there too has a
        NaN vector and its :class:`SteadyStateError` for its info."""
        xs = np.asarray(xs, dtype=float)
        v, krylov_dim, certificates = self._updated(xs)
        if v is None:
            v, certificates = np.full((xs.size, self.keep.size), np.nan + 0j), [math.nan] * xs.size
        with np.errstate(invalid="ignore"):  # a row that is not finite stays so
            v = self._hermitian_unit_trace(v)
        base, shift = self._touched  # max |L(x)|: S moves only the entries it touches
        scales = np.abs(base + xs[:, None] * shift).max(axis=1, initial=self._fixed_scale)
        sv = v * self._s  # S v, then L(x) v = L0 v + x S v, one column per point
        sv *= xs[:, None]
        lv = self.block @ v.T
        lv += sv.T
        residuals = np.linalg.norm(lv, axis=0)
        infos = []
        for j, x in enumerate(xs):
            certificate = float(certificates[j])
            info = {
                "residual": float(residuals[j]),
                "residual_scale": float(scales[j]),
                "reduced_dim": int(self.keep.size),
                "lu_fill": None if self._lu is None else self._lu.nnz,
                "path": "lu",
                "krylov_dim": krylov_dim,
                "certificate": certificate if math.isfinite(certificate) else None,
            }
            try:
                if scales[j] == 0.0:
                    raise SteadyStateError("Liouvillian is identically zero")
                # also where v or the certificate is not finite
                if not (residuals[j] <= 1e-10 * scales[j] and certificate <= self._TOL):
                    v[j], info["residual"] = self._inverse_iteration_at(x, scales[j], v[j])
                    info["path"] = "inverse_iteration"
            except SteadyStateError as exc:
                v[j], info = math.nan, exc
            infos.append(info)
        return DensityMatrix(keep=self.keep, dim=self.n, vectors=v), infos

    def _inverse_iteration_at(self, x, scale, v):
        """``(v, residual)`` at L(x) by inverse iteration on its block, from ``v``,
        or twice from a random start if ``v`` is not finite; raises if the
        residual still misses 1e-10 x scale."""
        L, finite = self._matrix(x), np.all(np.isfinite(v))
        for _ in range(1 if finite else 2):
            v = self._hermitian_unit_trace(_inverse_iteration(L, scale, v if finite else None))
            residual, finite = float(np.linalg.norm(L @ v)), True
            if residual <= 1e-10 * scale:
                return v, residual
        raise SteadyStateError(f"steady-state residual {residual:.2e} exceeds {1e-10 * scale:.2e}")

    def solve(self, x: float = 0.0, check_unique: bool = False):
        """``(DensityMatrix, info)`` at L(x): :meth:`solve_many` on x alone, raising
        its error. ``check_unique`` then probes the base block, L0, for a second
        stationary state (:meth:`check_uniqueness`)."""
        state, (info,) = self.solve_many([x])
        if isinstance(info, SteadyStateError):
            raise info
        if check_unique:
            self.check_uniqueness()
        return DensityMatrix(keep=self.keep, dim=self.n, vectors=state.vectors[0]), info

    def check_uniqueness(self):
        """Raise :class:`SteadyStateError` if L0 has a second stationary state:
        :func:`_check_uniqueness` on the base LU."""
        _check_uniqueness(self._lu, self.block, self._scale)

    def _hermitian_unit_trace(self, v):
        """The block vector of (rho + rho^dag) / 2, over its trace, for every row of
        ``v``: the kept entries are closed under rho -> rho^dag, and the kept
        diagonal is all of it."""
        h = v[..., self._adjoint]
        np.conjugate(h, out=h)
        h += v
        h *= 0.5
        h /= h[..., self._diagonal].sum(axis=-1).real[..., None]
        return h


def _inverse_iteration(L, scale, start=None):
    """Null vector of L by at most 50 sweeps of inverse iteration with a tiny shift,
    1e-9 * scale.

    It takes one sweep more than the first to meet ||L v|| <= 1e-12 * scale:
    that bound still leaves a few 1e-10 of a slow relaxation mode in the fig4
    state (photon rates off by ~1e-7), and the next sweep cuts it to ~1e-14.
    """
    try:
        lu = _splu((L + 1e-9 * scale * sp.identity(L.shape[0], format="csc")).tocsc())
    except RuntimeError as exc:
        raise SteadyStateError(f"inverse-iteration factorization failed: {exc}") from exc
    rng = np.random.default_rng(7)
    v = start if start is not None else rng.standard_normal(L.shape[0]) + 0j
    v /= np.linalg.norm(v)
    converged = False
    for _ in range(50):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
        if converged:
            break
        converged = np.linalg.norm(L @ v) <= 1e-12 * scale
    return v


def _check_uniqueness(lu, L, scale):
    """Probe for a second null vector of L: a degenerate stationary manifold.

    ``lu`` factors A, L with its first row (the population of basis state 0)
    replaced by the scaled trace row tau (None if that failed); a
    reduction's base LU is one. L is trace-preserving (tau L = 0), so L is
    0 on span(rho_ss) plus L_T on the traceless {tau v = 0}, and
    A^-1 [0; v_1:] = L_T^-1 v for a traceless v: row 0 makes the solution
    traceless, the others fix L y but for its entry 0, which tau L y = 0
    fixes. So A is singular exactly when a second stationary state exists,
    and a failed LU raises. Otherwise 40 sweeps, v[0] = 0 and v = A^-1 v,
    settle on the slowest relaxation mode of L_T, whose rate ||L v|| is
    physical (>> 0) for a unique state; a rate at most 1e-9 * scale, or an
    overflow, exposes a second zero eigenvalue.

    :class:`_ReducedSteadyState` runs it on the block reachable from the
    populations, not on the full operator. Why a second stationary state
    shows there: the stationary states of a Lindblad generator are spanned
    by stationary density matrices (the positive and negative parts of a
    Hermitian fixed point of a trace-preserving positive map are fixed
    points too). No entry couples the block to the rest, so the block part
    of each is a null vector of the block, and it is nonzero because it
    holds the populations. Two stationary density matrices whose block
    parts differ thus give the block two null vectors. The block misses a
    second one only if the two agree on every population and on every
    coherence the populations reach, i.e. differ by a stationary coherence
    X lying wholly outside the block. The positive and negative parts of X
    are then two stationary states with equal populations and orthogonal
    supports. In these models a support with any component on a P level
    contains a bare basis state |l, 0, 0> (one spontaneous jump onto l,
    then the cavity annihilators), whose population the other support
    would lack; so both supports would have to consist of dark
    superpositions of S1/2 and D sublevels that no coupling ever takes to
    P. Such a pair has not been found: on random single-ion models the
    block probe and the full-space probe agree
    (``test_block_probe_matches_full_space``). The claim is not general:
    dephasing by sigma_x on a qubit keeps both |+><+| and |-><-| stationary
    while its population block has one null vector.
    """
    if lu is None:
        raise SteadyStateError("stationary state is not unique: the constrained block is singular")
    rng = np.random.default_rng(11)
    v = rng.standard_normal(L.shape[0]) + 1j * rng.standard_normal(L.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(40):
            v[0] = 0.0
            v = lu.solve(v)
            v /= np.linalg.norm(v)
    second_rate = float(np.linalg.norm(L @ v))
    if not second_rate > 1e-9 * scale:  # also NaN: A is singular to working precision
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
    block :meth:`Liouvillian.reachable` keeps."""

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
    """The state at every time of ``t_grid`` (increasing), from ``rho0`` at its first.

    A static generator is propagated to rounding accuracy by a Chebyshev
    expansion; ``n_steps`` counts its sparse products, which ``max_steps``
    bounds before the first one. A generator with beat terms is integrated by
    adaptive embedded Runge-Kutta (Dormand-Prince 5(4)) at ``rtol`` and
    ``atol``, clamping steps to hit every requested time exactly; it raises
    :class:`StiffnessError` with a fastest-timescale diagnostic if the step
    size underflows or ``max_steps`` runs out. Both report the worst trace
    drift across the run and raise past 1e-7.

    Only the entries reachable from the support of ``rho0`` along the directed
    edges of L are stepped (:meth:`Liouvillian.reachable`) and returned, one
    block vector per output time; the others have no input from them and stay
    exactly zero. The DP5 error norm is the RMS over all ``dim**2`` entries, so
    the step sequence is the one the full vector would take.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be an increasing array of at least two times")
    y_full = vec(rho0.matrix if isinstance(rho0, DensityMatrix) else rho0).astype(complex)
    block = liouv.reachable(np.flatnonzero(y_full))
    keep, y0 = block.keep, y_full[block.keep]
    vectors, n_steps, n_rejected = (_dp5(liouv, block, y0, t_grid, rtol, atol, max_steps) if block.td_terms
                                    else _chebyshev(liouv, block, y0, t_grid, max_steps))

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


# -- exact propagation of a static generator -----------------------------------
#
# e^{A h} = e^{c h} e^{i tau X} with X = (A - c) / (i R) and tau = R h, and by
# Jacobi-Anger e^{i tau x} = J_0(tau) + 2 sum_k i^k J_k(tau) T_k(x): a series in
# Chebyshev polynomials of X whose terms each cost one sparse product (Tal-Ezer &
# Kosloff, J. Chem. Phys. 81, 3967 (1984); for Liouvillians, Huisinga et al.,
# J. Chem. Phys. 110, 5538 (1999)). If the spectrum of A lies in the rectangle
# c +- (R_re + i R_im), that of X lies in [-1, 1] + i[-d, d] with R = max(R_re, R_im)
# and d = R_re / R, where |T_k| grows at most like rho^k, rho = d + sqrt(1 + d^2).

_CHEB_TAU = 350.0  # largest tau = R h of one sub-step
_CHEB_SPREAD = 100.0  # largest R_re h: sum_k |J_k(tau)| rho^k <= e^{R_re h} stays representable
_CHEB_CUT = 1e-17  # the series ends where |J_k(tau)| rho^k falls below this
_CHEB_ROWS = 32  # Chebyshev vectors held between two accumulations


def _chebyshev(liouv, block, y0, t_grid, max_steps):
    """Propagate a static block to rounding accuracy: (states at ``t_grid``, sparse
    products, 0). ``max_steps`` bounds the products, whose number is known before
    the first one."""
    a = block.static_part
    m = a.shape[0]
    centre, radius, half_re = _spectral_rectangle(a)
    d = half_re / radius if radius else 0.0
    rho = d + math.sqrt(1.0 + d * d)

    # one coefficient set per distinct spacing; spacings that differ by rounding share one
    spacing = np.diff(t_grid)
    _, which = np.unique(np.rint(spacing / (t_grid[-1] - t_grid[0]) * 1e12), return_inverse=True)
    plans = []
    for level in range(which.max() + 1):
        h = float(np.mean(spacing[which == level]))
        n_sub = max(1, math.ceil(h * max(radius / _CHEB_TAU, half_re / _CHEB_SPREAD)))
        coef = _chebyshev_coefficients(radius * h / n_sub, rho, centre * h / n_sub)
        plans.append((n_sub, coef))
    products = sum(plans[level][0] * (plans[level][1].size - 1) for level in which)
    if products > max_steps:
        raise StiffnessError(
            f"step budget {max_steps} exhausted: the Chebyshev propagation needs "
            f"{products} sparse products",
            fastest_timescale=_fastest_timescale(liouv),
        )

    x = (a - centre * sp.identity(m, format="csr")) * (-1j / radius) if radius else a
    indptr, indices = x.indptr, x.indices
    rows = np.empty((_CHEB_ROWS, m), dtype=complex)
    views = list(rows)
    # v_0 = w, v_1 = X w and v_{k+1} = v_{k-1} + (-1)^k 2X v_k give v_k = s_k T_k(X) w,
    # s_k = +, +, -, -, ...; ``coef`` carries the signs. A full ``rows`` holds
    # v_first .. v_{first+ROWS-1}; all but the last two go into the sum, and those two
    # move up, so ``first`` stays even and row j always takes the sign of (-1)^j.
    two_x = 2.0 * x.data
    chunk = [(two_x if j % 2 == 0 else -two_x, views[j], views[j + 1], views[j - 1])
             for j in range(1, _CHEB_ROWS - 1)]
    partial = np.empty(m, dtype=complex)
    vectors = np.empty((t_grid.size, m), dtype=complex)
    vectors[0] = y0
    w = y0.copy()
    for i, level in enumerate(which):
        n_sub, coef = plans[level]
        for _ in range(n_sub):
            rows[0] = w
            np.multiply(w, coef[0], out=w)
            if coef.size == 1:
                continue
            views[1].fill(0.0)
            csr_matvec(m, m, indptr, indices, x.data, views[0], views[1])
            first = 0
            while True:
                count = min(len(chunk), coef.size - 2 - first)
                for data, src, dst, prev in chunk[:count]:
                    dst[:] = prev
                    csr_matvec(m, m, indptr, indices, data, src, dst)
                if first + count + 2 == coef.size:
                    break
                np.dot(coef[first + 1 : first + count + 1], rows[1 : count + 1], out=partial)
                w += partial
                rows[:2] = rows[count : count + 2]
                first += count
            np.dot(coef[first + 1 :], rows[1 : count + 2], out=partial)
            w += partial
        vectors[i + 1] = w
    return vectors, products, 0


def _spectral_rectangle(a):
    """(c, R, R_re) of a rectangle c +- (R_re + i R_im) that holds the spectrum of the
    Lindblad generator ``a``, with R = max(R_re, R_im). The Gershgorin discs of its
    Hermitian and skew-Hermitian parts bound the real and imaginary parts of its field
    of values, which holds the spectrum, and no eigenvalue of a Lindblad generator has
    a positive real part. The real extent is cut there: centred on the spectrum, no
    partial sum of the series outgrows the states it sums to, while the Gershgorin
    centre can sit above the spectrum and let them grow by e^{R_re h}."""
    ah = a.conj().T
    bounds = []
    for part in ((a + ah) * 0.5, (a - ah) * -0.5j):
        centres = part.diagonal().real
        radii = np.asarray(abs(part).sum(axis=1)).ravel() - np.abs(centres)
        bounds.append((float(np.min(centres - radii)), float(np.max(centres + radii))))
    (re_lo, re_hi), (im_lo, im_hi) = bounds
    re_hi = min(re_hi, 0.0)
    half_re, half_im = 0.5 * (re_hi - re_lo), 0.5 * (im_hi - im_lo)
    return complex(re_lo + re_hi, im_lo + im_hi) / 2, max(half_re, half_im), half_re


def _chebyshev_coefficients(tau, rho, ch):
    """2 i^k J_k(tau) e^{ch} (k = 0 halved), times the signs s_k of :func:`_chebyshev`,
    up to the last k with |J_k(tau)| rho^k >= _CHEB_CUT."""
    j = _bessel_j(tau, rho)
    k = np.arange(j.size)
    coef = np.where(k % 2, 2j, 2.0) * j * np.exp(ch)  # i^k s_k = 1, i, 1, i, ...
    coef[0] /= 2.0
    return coef


def _bessel_j(tau, rho):
    """J_0(tau), ..., J_K(tau), K the last order with |J_K| rho^K >= _CHEB_CUT, by
    Miller's backward recurrence J_{k-1} = (2k / tau) J_k - J_{k+1} normalized by
    J_0 + 2 sum_k J_2k = 1 (Abramowitz & Stegun 9.1.27 and 9.1.46)."""
    if tau == 0.0:
        return np.ones(1)
    n = int(tau + 10.0 * tau ** (1.0 / 3.0) + 20.0)
    log_cut, log_rho = math.log(_CHEB_CUT), math.log(rho)
    while True:
        start = n + 40  # J_start / J_n is far below rounding, so is the error of J_n
        j = [0.0] * (start + 2)
        j[start] = 1e-300
        for k in range(start, 0, -1):
            j[k - 1] = (2.0 * k / tau) * j[k] - j[k + 1]
            if abs(j[k - 1]) > 1e250:  # rescale before the growing values overflow
                j[k - 1 :] = [v * 1e-250 for v in j[k - 1 :]]
        j = np.array(j[: n + 1])
        j /= j[0] + 2.0 * np.sum(j[2::2])
        with np.errstate(divide="ignore"):
            weighted = np.log(np.abs(j)) + log_rho * np.arange(n + 1)
        last = int(np.flatnonzero(weighted >= log_cut)[-1])
        if last < n - 10:
            return j[: last + 1]
        n *= 2


def _dp5(liouv, block, y0, t_grid, rtol, atol, max_steps):
    """The DP5 loop: (states at ``t_grid``, accepted steps, rejected steps)."""
    keep = block.keep
    n2 = liouv.dim**2
    t = float(t_grid[0])

    vectors = np.empty((t_grid.size, keep.size), dtype=complex)

    # v -> L(t) v is one CSR matvec: the static part and every beat term sit side by
    # side in one CSR [static T_1 T_2 ...], applied to a stacked input [v; e^{-i w_1 t} v;
    # ...], so each row sums its static entries and then its beat entries, as one
    # product of each would. The native kernel checks no sizes or types.
    fused = sp.csr_matrix(sp.hstack([block.static_part] + [op for op, _ in block.td_terms]))
    n, indptr, indices, data = fused.shape[0], fused.indptr, fused.indices, fused.data.astype(complex)
    rates = -1j * np.array([w for _, w in block.td_terms])

    # Preallocated rows: y, then the stages k0..k6. A stage is three calls: one dot
    # of the h-scaled tableau with the real view of these rows into row 0 of its
    # stacked input, one product by this step's phases into its beat rows, and one
    # matvec that accumulates k_i. Stage i holds (tableau row, rows it combines,
    # input as reals, input, phases, beat rows, stacked input flat, k_i).
    stack = np.zeros((8, keep.size), dtype=complex)
    stack[0] = vectors[0] = y0
    stack_re = stack.view(float)
    stage_in = np.empty((6, 1 + rates.size, n), dtype=complex)
    y, y_new = stack[0], stage_in[5, 0]
    h_rows = np.empty_like(_DP_ROWS)
    phases = np.empty((6, rates.size), dtype=complex)  # e^{-i w_k (t + c_i h)}
    stages = [
        (h_rows[i - 1, : i + 1], stack_re[: i + 1], stage_in[i - 1, 0].view(float), stage_in[i - 1, 0],
         phases[i - 1, :, None], stage_in[i - 1, 1:], stage_in[i - 1].reshape(-1), stack[i + 1])
        for i in range(1, 7)
    ]
    err_vec = np.empty(2 * y.size)  # the error estimate as (re, im) pairs, then / scale
    scale = np.empty(y.size)
    err_pairs, scale_col = err_vec.reshape(-1, 2), scale[:, None]

    # k0 = f(t, y), through stage 1's stacked input
    stage_in[0, 0] = y
    np.multiply(np.exp(rates * t)[:, None], y, out=stage_in[0, 1:])
    csr_matvec(n, stage_in[0].size, indptr, indices, data, stage_in[0].reshape(-1), stack[1])
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
        np.exp(np.multiply.outer(_DP_C[1:] * h_try + t, rates), out=phases)
        stack[2:].fill(0.0)
        for row, combined, y_i_re, y_i, phase, beats, flat, k_i in stages:
            np.dot(row, combined, out=y_i_re)
            np.multiply(phase, y_i, out=beats)
            csr_matvec(n, flat.size, indptr, indices, data, flat, k_i)
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
    return vectors, n_steps, n_rejected


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


def state_population(rho: DensityMatrix, layout: HilbertLayout, state) -> float | np.ndarray:
    """Population of one atomic sublevel over all photon numbers, one per state."""
    diagonal = np.arange(layout.dim)[layout.block(state)] * (rho.dim + 1)
    values = np.sum(rho._entries(diagonal).real, axis=-1)
    return values if values.ndim else float(values)
