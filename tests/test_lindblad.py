import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from ioncavity import lindblad
from ioncavity.constants import mhz
from ioncavity.errors import FrameConsistencyError, SteadyStateError, StiffnessError
from ioncavity.hilbert import HilbertLayout, commutator_superoperator, vec
from ioncavity.lindblad import (
    _check_uniqueness,
    _laser_coupling,
    _ReducedSteadyState,
    _splu,
    Liouvillian,
    build_hamiltonian,
    build_liouvillian,
    collapse_operators,
    detected_mode_numbers,
    drive_detuning_shift_superoperator,
    evolve,
    expectation,
    operator_dump,
    photon_flux,
    state_population,
    steady_state,
)
from ioncavity.polarization import Polarization, spherical_unit_vector
from ioncavity.system import (
    LaserField,
    SystemModel,
    Tone,
    beam_a_polarization,
    beam_b_polarization,
    standard_model,
)

from conftest import (
    assert_density_matrix,
    density_matrix,
    dp5_evolve,
    khz,
    manifold_populations,
    trace_preservation_defect,
    with_drive_tones,
)


def tls_model(atom, rabi=mhz(1.0), detuning=0.0):
    """sigma-minus drive at zero field: |S,-1/2> <-> |P,-3/2| is closed."""
    return standard_model(
        drive_rabi=rabi,
        drive_detuning=detuning,
        drive_polarization=beam_b_polarization(),
        repump_854_rabi=0.0,
        repump_866_rabi=0.0,
        atom=atom,
        coupling_scale=0.0,
        delta_cav=0.0,
        b_gauss=0.0,
    )


# -- layout -------------------------------------------------------------------


def _unindex(layout, idx):
    """Inverse of :meth:`HilbertLayout.index`: (atomic state, n_h, n_v)."""
    nd = layout.mode_dim
    a, rem = divmod(idx, nd * nd)
    n_h, n_v = divmod(rem, nd)
    return layout.atom.all_states()[a], n_h, n_v


def _atom_operator(layout, op18):
    """Lift an 18x18 atomic operator to the full space."""
    return sp.kron(sp.csr_matrix(op18), sp.identity(layout.mode_dim**2), format="csr")


def test_layout_dimensions(atom):
    for n_max in (1, 2, 3):
        layout = HilbertLayout(atom=atom, n_max=n_max)
        assert layout.dim == 18 * (n_max + 1) ** 2


def test_index_round_trip(atom):
    layout = HilbertLayout(atom=atom, n_max=2)
    seen = set()
    for state in atom.all_states():
        for n_h in range(3):
            for n_v in range(3):
                idx = layout.index(state, n_h, n_v)
                assert idx not in seen
                seen.add(idx)
                back_state, back_h, back_v = _unindex(layout, idx)
                assert (back_state, back_h, back_v) == (state, n_h, n_v)
        block = range(layout.dim)[layout.block(state)]
        assert list(block) == sorted(layout.index(state, h, v) for h in range(3) for v in range(3))
    assert seen == set(range(layout.dim))


def test_layout_requires_cutoff(atom):
    with pytest.raises(ValueError):
        HilbertLayout(atom=atom, n_max=0)


# -- Hamiltonian structure ------------------------------------------------------


def test_empty_hamiltonian_is_zero(atom_no_decay):
    model = standard_model(
        drive_rabi=0.0,
        drive_detuning=0.0,
        repump_854_rabi=0.0,
        repump_866_rabi=0.0,
        atom=atom_no_decay,
        coupling_scale=0.0,
        delta_cav=0.0,
        b_gauss=0.0,
    )
    layout = HilbertLayout(atom=atom_no_decay, n_max=1)
    parts = build_hamiltonian(model, layout)
    assert abs(parts.full_static()).max() == 0.0


def test_two_level_block_matches_rabi_hamiltonian(atom):
    """The (S-1/2, P-3/2) block is the textbook driven two-level Hamiltonian."""
    delta = -mhz(37.0)
    rabi = mhz(5.0)
    model = tls_model(atom, rabi=rabi, detuning=delta)
    layout = HilbertLayout(atom=atom, n_max=1)
    h = build_hamiltonian(model, layout).full_static().toarray()
    i_s = layout.index(atom.state("S1/2", -0.5), 0, 0)
    i_p = layout.index(atom.state("P3/2", -1.5), 0, 0)
    block = h[np.ix_([i_s, i_p], [i_s, i_p])]
    assert block[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert block[1, 1] == pytest.approx(-delta, rel=1e-12)
    assert abs(block[0, 1]) == pytest.approx(rabi / 2, rel=1e-12)  # alpha = 1 path
    assert np.allclose(block, block.conj().T)


def test_cavity_coupling_block_value(atom):
    """|<P,-3/2,0| H |D,-5/2,1_H>| = beta g with beta = cg/sqrt(2)."""
    model = standard_model(
        drive_rabi=0.0,
        drive_detuning=0.0,
        repump_854_rabi=0.0,
        repump_866_rabi=0.0,
        atom=atom,
        b_gauss=0.0,
        delta_cav=0.0,
    )
    layout = HilbertLayout(atom=atom, n_max=1)
    h = build_hamiltonian(model, layout).full_static().toarray()
    i_p = layout.index(atom.state("P3/2", -1.5), 0, 0)
    i_d = layout.index(atom.state("D5/2", -2.5), 1, 0)
    beta = math.sqrt(2.0 / 3.0) / math.sqrt(2.0)
    assert abs(h[i_p, i_d]) == pytest.approx(beta * model.cavity.g, rel=1e-12)
    # pi transition feeds the V mode with full projection
    i_d2 = layout.index(atom.state("D5/2", -1.5), 0, 1)
    assert abs(h[i_p, i_d2]) == pytest.approx(math.sqrt(4.0 / 15.0) * model.cavity.g, rel=1e-12)


def test_duplicate_laser_roles_rejected(atom):
    laser = LaserField(
        role="repump_854", tones=(Tone(rabi=mhz(1.0), detuning=0.0),), polarization=beam_b_polarization()
    )
    with pytest.raises(FrameConsistencyError):
        SystemModel(
            atom=atom,
            b_gauss=1.0,
            orientation="perpendicular",
            cavity=standard_model(drive_rabi=0.0, drive_detuning=0.0, atom=atom).cavity,
            lasers=(laser, laser),
        )


def test_multi_tone_repump_rejected():
    with pytest.raises(FrameConsistencyError):
        LaserField(
            role="repump_866",
            tones=(Tone(rabi=1.0, detuning=0.0), Tone(rabi=1.0, detuning=1.0)),
            polarization=beam_b_polarization(),
        )


# -- Liouvillian properties -------------------------------------------------------


def test_trace_preservation(atom):
    model = standard_model(drive_rabi=mhz(88.0), drive_detuning=-mhz(400.0), atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    liouv = build_liouvillian(model, layout)
    assert trace_preservation_defect(liouv) < 1e-10 * abs(liouv.static_part).max()


def test_restricted_block_knows_its_entries(atom, layout):
    """A block reports the true dim and its own keep, its trace-preservation defect is
    the full one's over the kept rows, and restricting a block composes keep."""
    model = standard_model(drive_rabi=mhz(10.0), drive_detuning=-mhz(400.0), atom=atom)
    n = layout.dim
    liouv = build_liouvillian(model, layout)
    populations = liouv.restrict(np.arange(n) * (n + 1))
    assert populations.dim == n
    assert populations.static_part.shape == (populations.keep.size,) * 2 and populations.keep.size < n * n
    outside = np.setdiff1d(np.arange(n * n), populations.keep)[0]
    wider = liouv.restrict(np.r_[np.arange(n) * (n + 1), outside])
    assert np.isin(populations.keep, wider.keep).all() and outside in wider.keep
    rows = np.abs(liouv.static_part.conj().T @ vec(np.eye(n, dtype=complex)))
    for block in (populations, wider):
        assert trace_preservation_defect(block) == rows[block.keep].max()
    inner = wider.restrict(np.arange(n) * (n + 1))
    assert np.array_equal(inner.keep, populations.keep)
    assert abs(inner.static_part - populations.static_part).max() == 0.0


def test_liouvillian_annihilates_nothing_but_steady_state(atom):
    """Applying L to the maximally mixed state changes nothing about its trace."""
    model = standard_model(drive_rabi=mhz(10.0), drive_detuning=-mhz(400.0), atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    liouv = build_liouvillian(model, layout)
    mixed = np.eye(layout.dim) / layout.dim
    image = (liouv.static_part @ vec(mixed)).reshape((layout.dim, layout.dim), order="F")
    # zero up to float cancellation of O(|L|) terms
    assert abs(np.trace(image)) < 1e-12 * abs(liouv.static_part).max()


def test_branching_decay_oracle(atom):
    """Populations leaving the stretched P3/2 state follow the branching table."""
    model = standard_model(
        drive_rabi=0.0, drive_detuning=0.0, repump_854_rabi=0.0, repump_866_rabi=0.0,
        atom=atom, coupling_scale=0.0, delta_cav=0.0, b_gauss=0.0,
    )
    layout = HilbertLayout(atom=atom, n_max=1)
    liouv = build_liouvillian(model, layout)
    rho0 = layout.basis_state(atom.state("P3/2", 1.5))
    t_grid = np.linspace(0.0, 60e-9, 7)
    traj = evolve(liouv, rho0, t_grid, rtol=1e-9)
    gamma = atom["P3/2"].decay_rate
    for state, t in zip(traj.states, t_grid):
        pops = manifold_populations(state, layout)
        survived = math.exp(-gamma * t)
        assert pops["P3/2"] == pytest.approx(survived, abs=1e-7)
        for target, fraction in atom["P3/2"].branching.items():
            assert pops[target] == pytest.approx(fraction * (1 - survived), abs=1e-7)


def test_empty_cavity_decay(atom_no_decay):
    model = standard_model(
        drive_rabi=0.0, drive_detuning=0.0, repump_854_rabi=0.0, repump_866_rabi=0.0,
        atom=atom_no_decay, coupling_scale=0.0, delta_cav=0.0,
    )
    layout = HilbertLayout(atom=atom_no_decay, n_max=1)
    liouv = build_liouvillian(model, layout)
    rho0 = layout.basis_state(atom_no_decay.state("S1/2", -0.5), n_h=1, n_v=0)
    t_grid = np.linspace(0.0, 4e-6, 11)
    traj = evolve(liouv, rho0, t_grid, rtol=1e-9)
    n_op = layout.number("H")
    kappa = model.cavity.kappa
    assert kappa == pytest.approx(khz(50))
    for state, t in zip(traj.states, t_grid):
        assert expectation(state, n_op).real == pytest.approx(math.exp(-2 * kappa * t), abs=1e-7)


def test_undamped_rabi_oscillation(atom_no_decay):
    rabi = mhz(1.0)
    model = tls_model(atom_no_decay, rabi=rabi)
    layout = HilbertLayout(atom=atom_no_decay, n_max=1)
    liouv = build_liouvillian(model, layout)
    rho0 = layout.basis_state(atom_no_decay.state("S1/2", -0.5))
    t_grid = np.linspace(0.0, 3e-6, 31)
    traj = evolve(liouv, rho0, t_grid, rtol=1e-9)
    p_state = atom_no_decay.state("P3/2", -1.5)
    for state, t in zip(traj.states, t_grid):
        assert state_population(state, layout, p_state) == pytest.approx(
            math.sin(rabi * t / 2) ** 2, abs=1e-6
        )


def test_vacuum_coupling_exchange(atom_no_decay):
    """Excitation swaps between P and the bright D+photon state at 2 g_tot.

    With the field along the cavity axis the one-excitation sector from
    |P,+3/2> is exactly closed: the pi channel is dark and the two
    sigma channels (beta^2 = 2/3 and 1/15) couple straight back, so the
    dynamics are a two-state oscillation at the quadrature-summed
    coupling g_tot = g sqrt(11/15), checking each beta weight.
    """
    model = standard_model(
        drive_rabi=0.0, drive_detuning=0.0, repump_854_rabi=0.0, repump_866_rabi=0.0,
        atom=atom_no_decay, delta_cav=0.0, b_gauss=0.0, orientation="parallel",
    )
    # the decay-free atom carries no partial rate to derive g from, and the
    # exchange needs a lossless mode: set both explicitly
    model = replace(model, cavity=replace(model.cavity, g=mhz(1.43), kappa=0.0))
    layout = HilbertLayout(atom=atom_no_decay, n_max=1)
    liouv = build_liouvillian(model, layout)
    rho0 = layout.basis_state(atom_no_decay.state("P3/2", 1.5))
    g_tot = model.cavity.g * math.sqrt(11.0 / 15.0)
    period_points = np.linspace(0.0, 2 * math.pi / (2 * g_tot), 17)
    traj = evolve(liouv, rho0, period_points, rtol=1e-9)
    p_state = atom_no_decay.state("P3/2", 1.5)
    for state, t in zip(traj.states, period_points):
        assert state_population(state, layout, p_state) == pytest.approx(
            math.cos(g_tot * t) ** 2, abs=1e-6
        )


def test_driven_damped_lorentzian(atom_closed_tls):
    """Long-time excited population matches the optical Bloch closed form.

    With decay rerouted entirely to S1/2 the sigma-minus cycle from
    |S,-1/2> is a closed driven two-level system; the trajectory is run
    far past the transient (hundreds of lifetimes).
    """
    rabi = mhz(3.0)
    gamma = atom_closed_tls["P3/2"].decay_rate
    layout = HilbertLayout(atom=atom_closed_tls, n_max=1)
    p_state = atom_closed_tls.state("P3/2", -1.5)
    rho0 = layout.basis_state(atom_closed_tls.state("S1/2", -0.5))
    for delta in (0.0, mhz(5.0), -mhz(12.0)):
        model = tls_model(atom_closed_tls, rabi=rabi, detuning=delta)
        liouv = build_liouvillian(model, layout)
        traj = evolve(liouv, rho0, np.linspace(0.0, 4e-6, 5), rtol=1e-9)
        expected = (rabi**2 / 4) / (delta**2 + rabi**2 / 2 + gamma**2 / 4)
        assert state_population(traj.states[-1], layout, p_state) == pytest.approx(
            expected, rel=1e-6
        )


def _two_level_liouvillian(rabi, delta, gamma):
    """Standalone 2-level Liouvillian built from raw operators."""
    h = sp.csr_matrix(np.array([[0.0, rabi / 2], [rabi / 2, -delta]], dtype=complex))
    c = math.sqrt(gamma) * sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    from ioncavity.hilbert import dissipator_superoperator

    static = commutator_superoperator(h) + dissipator_superoperator(c)
    return Liouvillian(dim=2, keep=np.arange(4), static_part=static.tocsr())


def test_steady_state_matches_dense_null_space():
    """On a small truncation the solve agrees with an independent dense SVD."""
    from scipy.linalg import null_space

    rabi, delta, gamma = mhz(3.0), -mhz(4.0), mhz(20.0)
    liouv = _two_level_liouvillian(rabi, delta, gamma)
    ss = steady_state(liouv, check_unique=False)
    null = null_space(liouv.static_part.toarray(), rcond=1e-12)
    assert null.shape[1] == 1
    rho_dense = null[:, 0].reshape(2, 2, order="F")
    rho_dense = rho_dense / np.trace(rho_dense)
    assert np.allclose(ss.matrix, rho_dense, atol=1e-8)
    expected = (rabi**2 / 4) / (delta**2 + rabi**2 / 2 + gamma**2 / 4)
    assert ss.matrix[1, 1].real == pytest.approx(expected, rel=1e-10)


def test_steady_state_residual_and_validity(atom):
    model = standard_model(drive_rabi=mhz(99.0), drive_detuning=-mhz(407.0),
                           drive_polarization=beam_b_polarization(), atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    liouv = build_liouvillian(model, layout)
    ss, info = steady_state(liouv, check_unique=True, return_info=True)
    assert info["residual"] <= 1e-10 * info["residual_scale"]
    assert_density_matrix(ss)


def test_degenerate_dark_manifold_raises(atom):
    """No drive: both S sub-levels are stationary, so the solve must refuse."""
    model = standard_model(drive_rabi=0.0, drive_detuning=0.0, atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    liouv = build_liouvillian(model, layout)
    with pytest.raises(SteadyStateError):
        steady_state(liouv, check_unique=True)


def test_dark_manifold_accumulation(atom):
    """Time evolution drains everything into the S1/2 manifold without a drive."""
    model = standard_model(drive_rabi=0.0, drive_detuning=0.0, atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    liouv = build_liouvillian(model, layout)
    rho0 = layout.basis_state(atom.state("D5/2", -2.5))
    t_grid = np.linspace(0.0, 8e-6, 9)
    traj = evolve(liouv, rho0, t_grid, rtol=1e-7)
    pops = manifold_populations(traj.states[-1], layout)
    assert pops["S1/2"] > 0.999


def test_frame_invariance_global_offset(atom, monkeypatch):
    """A global energy offset leaves populations and |coherences| unchanged."""
    model = standard_model(drive_rabi=mhz(50.0), drive_detuning=-mhz(403.0),
                           drive_polarization=beam_b_polarization(), atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    base = build_liouvillian(model, layout)
    offset = mhz(3.7) * sp.identity(layout.dim, format="csr")

    def shifted_hamiltonian(model, layout):
        parts = build_hamiltonian(model, layout)
        return replace(parts, static=(parts.static + offset).tocsr())

    monkeypatch.setattr(lindblad, "build_hamiltonian", shifted_hamiltonian)
    shifted = build_liouvillian(model, layout)
    ss_a = steady_state(base, check_unique=False)
    ss_b = steady_state(shifted, check_unique=False)
    assert np.allclose(np.abs(ss_a.matrix), np.abs(ss_b.matrix), atol=1e-10)


def test_detuning_shift_superoperator(atom):
    """L(delta) = L(delta0) - (delta - delta0) * S reproduces a direct build."""
    layout = HilbertLayout(atom=atom, n_max=1)
    d0, d1 = -mhz(400.0), -mhz(396.5)
    model = standard_model(drive_rabi=mhz(30.0), drive_detuning=d0,
                           drive_polarization=beam_b_polarization(), atom=atom)
    base = build_liouvillian(model, layout)
    shift = drive_detuning_shift_superoperator(layout)
    direct = build_liouvillian(model.replace_drive(detuning=d1), layout)
    assembled = base.static_part - (d1 - d0) * shift
    assert abs(assembled - direct.static_part).max() < 1e-6


def test_evolve_fixed_point(atom):
    model = standard_model(drive_rabi=mhz(99.0), drive_detuning=-mhz(407.0),
                           drive_polarization=beam_b_polarization(), atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    liouv = build_liouvillian(model, layout)
    ss = steady_state(liouv, check_unique=False)
    t_grid = np.linspace(0.0, 2e-6, 5)
    traj = evolve(liouv, ss, t_grid, rtol=1e-8)
    assert np.max(np.abs(traj.states[-1].matrix - ss.matrix)) < 1e-7


def test_positivity_along_trajectory(atom):
    model = standard_model(drive_rabi=mhz(99.0), drive_detuning=-mhz(407.0),
                           drive_polarization=beam_b_polarization(), atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    liouv = build_liouvillian(model, layout)
    rho0 = layout.basis_state(atom.state("S1/2", -0.5))
    traj = evolve(liouv, rho0, np.linspace(0.0, 5e-6, 26), rtol=1e-7)
    assert traj.min_eigenvalue() > -1e-7
    assert traj.max_trace_drift < 1e-7


def _block_sizes(keep, n):
    """Sizes of the diagonal blocks of rho that the (row, col) pairs of ``keep`` join."""
    edges = sp.coo_matrix((np.ones(keep.size), (keep % n, keep // n)), (n, n))
    return np.bincount(connected_components(edges, directed=False)[1])


def assert_min_eigenvalue_by_time(traj):
    """The block-wise minimum eigenvalue of each output, and of the run, equals the
    full matrices'."""
    dense = [np.linalg.eigvalsh(s.matrix).min() for s in traj.states]
    for i, want in enumerate(dense):
        one = replace(traj, times=traj.times[i : i + 1], vectors=traj.vectors[i : i + 1])
        assert abs(one.min_eigenvalue() - want) <= 1e-14
    assert abs(traj.min_eigenvalue() - min(dense)) <= 1e-14


def test_min_eigenvalue_by_block_on_the_sigma_minus_pulse(atom, layout):
    """The weak block of a sigma-minus pulse from |S1/2,-1/2> has 384 entries, 32 whole
    diagonal blocks of rho: four 9x9, four 3x3 and 24 1x1. The 150 entries the pulse
    steps join into two 8x8, two 3x3 and 50 1x1 blocks, with 46 entries of those blocks
    never reached: they read 0, as they do on the weak block."""
    model = standard_model(drive_rabi=mhz(106.0), drive_detuning=-mhz(406.0),
                           drive_polarization=beam_b_polarization(),
                           repump_854_rabi=0.0, repump_866_rabi=0.0, atom=atom)
    rho0 = layout.basis_state(atom.state("S1/2", -0.5))
    liouv = build_liouvillian(model, layout)
    weak = liouv.restrict(np.flatnonzero(vec(rho0))).keep
    sizes = _block_sizes(weak, layout.dim)
    assert sorted(zip(*np.unique(sizes, return_counts=True))) == [(1, 24), (3, 4), (9, 4)]
    assert np.sum(sizes**2) == weak.size == 384
    traj = evolve(liouv, rho0, np.linspace(0.0, 1e-6, 11), rtol=1e-6)
    sizes = _block_sizes(traj.keep, layout.dim)
    assert sorted(zip(*np.unique(sizes, return_counts=True))) == [(1, 50), (3, 2), (8, 2)]
    assert np.sum(sizes**2) - 46 == traj.keep.size == 150
    assert np.isin(traj.keep, weak).all()
    assert_min_eigenvalue_by_time(traj)


@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_min_eigenvalue_by_block_on_random_models(atom, layout, data):
    _, driven = data.draw(random_models(atom))
    rho0 = layout.basis_state(atom.state("S1/2", -0.5))
    traj = evolve(build_liouvillian(driven, layout), rho0, np.linspace(0.0, 0.3e-6, 4), rtol=1e-6)
    assert_min_eigenvalue_by_time(traj)


def test_min_eigenvalue_counts_the_rows_a_run_never_touches(atom_no_decay):
    """Without P decay, the P3/2 and P1/2 sublevels the sigma-minus drive misses hold no
    kept entry; each is a 1x1 block reading [0], a zero eigenvalue of the full matrix."""
    layout = HilbertLayout(atom=atom_no_decay, n_max=1)
    rho0 = layout.basis_state(atom_no_decay.state("S1/2", -0.5))
    liouv = build_liouvillian(tls_model(atom_no_decay), layout)
    traj = evolve(liouv, rho0, np.linspace(0.0, 0.5e-6, 6), rtol=1e-8)
    untouched = np.setdiff1d(np.arange(layout.dim), traj.keep % layout.dim)
    assert untouched.size > 0
    assert layout.index(atom_no_decay.state("P3/2", 1.5), 0, 0) in untouched
    assert_min_eigenvalue_by_time(traj)
    # every kept block positive definite: only the untouched rows give the 0
    n = layout.dim
    mixed = replace(traj, times=traj.times[:1], keep=np.array([0, n + 1]),
                    vectors=np.full((1, 2), 0.5 + 0j))
    assert mixed.min_eigenvalue() == 0.0
    assert_min_eigenvalue_by_time(mixed)


def test_stiffness_error_carries_the_fastest_timescale(atom, layout):
    """An exhausted step budget reports 1 / max|L_static| as its timescale."""
    model = standard_model(drive_rabi=mhz(99.0), drive_detuning=-mhz(407.0),
                           drive_polarization=beam_b_polarization(), atom=atom)
    liouv = build_liouvillian(model, layout)
    rho0 = layout.basis_state(atom.state("S1/2", -0.5))
    with pytest.raises(StiffnessError, match="step budget 2 exhausted") as caught:
        evolve(liouv, rho0, np.linspace(0.0, 1e-6, 3), max_steps=2)
    timescale = caught.value.fastest_timescale
    assert math.isfinite(timescale) and timescale > 0
    assert timescale == 1.0 / abs(liouv.static_part).max()


# -- observables ---------------------------------------------------------------


def test_expectation_identity_and_mismatch(atom, layout):
    rho = density_matrix(np.eye(layout.dim) / layout.dim)
    ident = sp.identity(layout.dim, format="csr")
    assert expectation(rho, ident) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        expectation(rho, np.eye(3))


def test_flux_of_empty_cavity_is_dark_counts(atom, layout):
    model = standard_model(drive_rabi=0.0, drive_detuning=0.0, atom=atom)
    rho = density_matrix(layout.basis_state(atom.state("S1/2", -0.5)))
    flux = photon_flux(rho, layout, model.cavity.kappa, model.detection)
    assert flux == pytest.approx([33.1, 33.6])


def test_flux_linear_in_photon_number(atom, layout):
    model = standard_model(drive_rabi=0.0, drive_detuning=0.0, atom=atom)
    s = atom.state("S1/2", -0.5)
    one = layout.basis_state(s, n_h=1, n_v=0)
    half = 0.5 * one + 0.5 * layout.basis_state(s, 0, 0)
    f_one = photon_flux(density_matrix(one), layout, model.cavity.kappa, model.detection, include_dark=False)
    f_half = photon_flux(density_matrix(half), layout, model.cavity.kappa, model.detection, include_dark=False)
    assert f_half[0] == pytest.approx(0.5 * f_one[0], rel=1e-12)
    assert f_one[1] == 0.0


def test_rotated_analysis_basis_mixes_modes(atom, layout):
    from ioncavity.cavity import DetectionChain

    chain = DetectionChain.rotated(math.radians(30.0))
    rho = density_matrix(layout.basis_state(atom.state("S1/2", -0.5), n_h=1, n_v=0))
    numbers = detected_mode_numbers(rho, layout, chain)
    assert numbers[0] == pytest.approx(math.cos(math.radians(30.0)) ** 2, abs=1e-12)
    assert numbers[1] == pytest.approx(math.sin(math.radians(30.0)) ** 2, abs=1e-12)


def test_trajectory_readouts_match_the_states(atom, layout):
    """expectation, photon_flux and the populations over a trajectory are its per-state
    values; on a state that keeps every entry of a full matrix they are Tr(rho O) and
    sums of its diagonal."""
    from ioncavity.cavity import DetectionChain

    model = standard_model(drive_rabi=mhz(106.0), drive_detuning=-mhz(406.0),
                           drive_polarization=beam_b_polarization(), atom=atom)
    rho0 = layout.basis_state(atom.state("S1/2", -0.5))
    traj = evolve(build_liouvillian(model, layout), rho0, np.linspace(0.0, 1e-6, 11), rtol=1e-6)
    states = traj.states
    rng = np.random.default_rng(3)
    re, im = rng.normal(size=(2, layout.dim, layout.dim))
    dense = re + 1j * im
    for op in (*layout.mode_flux_operators, layout.number("V"), dense):
        got = expectation(traj, op)
        want = np.array([expectation(s, op) for s in states])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        direct = np.array([np.trace(s.matrix @ op) for s in states])
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()
    chain, kappa = DetectionChain.rotated(math.radians(30.0)), model.cavity.kappa
    for dark in (True, False):
        got = photon_flux(traj, layout, kappa, chain, include_dark=dark)
        want = np.array([photon_flux(s, layout, kappa, chain, include_dark=dark) for s in states])
        assert got.shape == (len(traj.times), 2)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    with pytest.raises(ValueError):
        expectation(traj, np.eye(3))
    sublevels = [atom.state("S1/2", -0.5), atom.state("P3/2", -1.5), atom.state("D5/2", -2.5)]
    for sub in sublevels:
        got = state_population(traj, layout, sub)
        assert got.shape == traj.times.shape
        assert np.array_equal(got, [state_population(s, layout, sub) for s in states])
    for label, got in manifold_populations(traj, layout).items():
        assert np.array_equal(got, [manifold_populations(s, layout)[label] for s in states])

    full = density_matrix(states[-1].matrix)
    assert full.keep.size == layout.dim**2
    for op in (*layout.mode_flux_operators, dense):
        direct = np.trace(states[-1].matrix @ op)
        assert abs(expectation(full, op) - direct) <= 1e-12 * abs(direct)
    diagonal = np.real(np.diag(states[-1].matrix))
    for sub in sublevels:
        assert state_population(full, layout, sub) == np.sum(diagonal[layout.block(sub)])


def test_operator_dump(atom):
    model = standard_model(drive_rabi=mhz(10.0), drive_detuning=-mhz(400.0), atom=atom)
    layout = HilbertLayout(atom=atom, n_max=1)
    texts = operator_dump(model, layout)
    assert "hamiltonian_static.txt" in texts and "hamiltonian_drive.txt" in texts
    collapses = collapse_operators(model, layout)
    assert sum(1 for name in texts if name.startswith("collapse_")) == len(collapses)
    row, col, re, im = texts["hamiltonian_static.txt"].splitlines()[0].split()
    int(row), int(col), float(re), float(im)


def test_steady_state_requires_static(atom_no_decay):
    model = with_drive_tones(
        standard_model(
            drive_rabi=mhz(1.0), drive_detuning=0.0,
            drive_polarization=beam_b_polarization(),
            repump_854_rabi=0.0, repump_866_rabi=0.0,
            atom=atom_no_decay, coupling_scale=0.0, delta_cav=0.0, b_gauss=0.0,
        ),
        (Tone(rabi=mhz(1.0), detuning=0.0), Tone(rabi=mhz(0.5), detuning=mhz(3.0))),
    )
    layout = HilbertLayout(atom=atom_no_decay, n_max=1)
    liouv = build_liouvillian(model, layout)
    with pytest.raises(SteadyStateError):
        steady_state(liouv)


# -- reachable-subspace restriction -------------------------------------------


@st.composite
def random_models(draw, atom):
    """A single-tone model and a variant that may have a second tone."""
    weights = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    assume(max(abs(w) for w in weights) > 0.1)
    phases = [draw(st.floats(0.0, 2 * math.pi)) for _ in range(3)]
    c_minus, c_zero, c_plus = (complex(w * np.exp(1j * p)) for w, p in zip(weights, phases))
    polarization = Polarization(
        vector=c_minus * spherical_unit_vector(-1)
        + c_zero * spherical_unit_vector(0)
        + c_plus * spherical_unit_vector(+1)
    )
    rabi = mhz(draw(st.floats(5.0, 120.0)))
    detuning = mhz(draw(st.floats(-430.0, -380.0)))
    common = dict(
        drive_polarization=polarization,
        delta_cav=mhz(draw(st.floats(-450.0, -350.0))),
        b_gauss=draw(st.floats(0.5, 10.0)),
        repump_854_rabi=mhz(5.0) if draw(st.booleans()) else 0.0,
        repump_854_detuning=mhz(draw(st.floats(-3.0, 3.0))),
        repump_866_rabi=mhz(5.0) if draw(st.booleans()) else 0.0,
        atom=atom,
    )
    tones = [Tone(rabi=rabi, detuning=detuning)]
    if draw(st.booleans()):
        tones.append(Tone(rabi=rabi / 2, detuning=detuning + mhz(draw(st.floats(-20.0, 20.0))), phase=0.3))
    static = standard_model(drive_rabi=rabi, drive_detuning=detuning, **common)
    driven = with_drive_tones(static, tones)
    return static, driven


def assert_block_closed(liouv, keep):
    """No nonzero entry of any term couples a kept index to a dropped one."""
    dropped = np.setdiff1d(np.arange(liouv.dim**2), keep)
    for op in [liouv.static_part] + [op for op, _ in liouv.td_terms]:
        op = op.tocsr()
        assert op[keep][:, dropped].count_nonzero() == 0
        assert op[dropped][:, keep].count_nonzero() == 0


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_reachable_subspace_is_exact(atom, layout, data):
    static_model, driven_model = data.draw(random_models(atom))
    n = layout.dim

    # (a) + (b): the steady-state block, seeded by the populations
    liouv = build_liouvillian(static_model, layout)
    keep = liouv.restrict(np.arange(n) * (n + 1)).keep
    assert_block_closed(liouv, keep)
    ss = steady_state(liouv, check_unique=False)
    scale = abs(liouv.static_part).max()
    assert np.linalg.norm(liouv.static_part @ vec(ss.matrix)) <= 1e-10 * scale

    # (a) + (c): the block an evolution from |S1/2,-1/2> stays in
    liouv = build_liouvillian(driven_model, layout)
    y0 = vec(layout.basis_state(atom.state("S1/2", -0.5)))
    block = liouv.restrict(np.flatnonzero(y0))
    keep = block.keep
    assert keep.size < n * n
    assert_block_closed(liouv, keep)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = np.zeros(n * n, dtype=complex)
    v[keep] = rng.standard_normal(keep.size) + 1j * rng.standard_normal(keep.size)
    for t in rng.uniform(0.0, 1.5e-6, size=3):
        full = liouv._rhs(t, v, np.empty_like(v))
        embedded = np.zeros_like(full)
        embedded[keep] = block._rhs(t, v[keep], np.empty(keep.size, dtype=complex))
        assert np.max(np.abs(full - embedded)) <= 1e-12 * np.max(np.abs(full))


def evolution_seeds(layout, data):
    """|S1/2,-1/2>, and the superposition cos(a)|S,-1/2> + e^{i phi} sin(a)|S,+1/2> that
    `map_state` prepares, at a drawn a and phi."""
    atom = layout.atom
    alpha, phi = data.draw(st.floats(0.1, 1.4)), data.draw(st.floats(0.0, 2 * math.pi))
    psi = np.zeros(layout.dim, dtype=complex)
    psi[layout.index(atom.state("S1/2", -0.5), 0, 0)] = math.cos(alpha)
    psi[layout.index(atom.state("S1/2", 0.5), 0, 0)] = np.exp(1j * phi) * math.sin(alpha)
    return layout.basis_state(atom.state("S1/2", -0.5)), np.outer(psi, psi.conj())


@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_evolve_block_is_the_forward_closure(atom, layout, data):
    """The block `evolve` steps is forward-closed: no nonzero L[i, j] of any term takes
    a kept j to a dropped i, so a dropped entry stays 0. It holds the seed, lies in
    the weak block of :meth:`Liouvillian.restrict`, and is what repeated products
    of |L| reach from the seed."""
    for model in data.draw(random_models(atom)):
        liouv = build_liouvillian(model, layout)
        terms = [liouv.static_part] + [op for op, _ in liouv.td_terms]
        for rho0 in evolution_seeds(layout, data):
            seed = np.flatnonzero(vec(rho0))
            keep = liouv.reachable(seed).keep
            weak = liouv.restrict(seed).keep
            assert np.isin(seed, keep).all() and np.isin(keep, weak).all()
            dropped = np.setdiff1d(np.arange(liouv.dim**2), keep)
            for op in terms:
                assert op.tocsr()[dropped][:, keep].count_nonzero() == 0
            reached = np.isin(np.arange(liouv.dim**2), seed)
            while True:
                rows = np.concatenate([op.tocsc()[:, reached].nonzero()[0] for op in terms])
                if reached[rows].all():
                    break
                reached[rows] = True
            assert np.array_equal(np.flatnonzero(reached), keep)
            traj = evolve(liouv, rho0, np.linspace(0.0, 0.1e-6, 3), rtol=1e-6)
            assert np.array_equal(traj.keep, keep)


def test_steady_state_reports_its_path(atom, layout):
    """The info dict names the block size, the LU fill and the path taken."""
    driven = standard_model(drive_rabi=mhz(99.0), drive_detuning=-mhz(407.0),
                            drive_polarization=beam_b_polarization(), atom=atom)
    _, info = steady_state(build_liouvillian(driven, layout), check_unique=False, return_info=True)
    assert (info["reduced_dim"], info["path"]) == (1296, "lu")
    assert info["lu_fill"] > info["reduced_dim"]
    # no drive: the block is singular, so the block's inverse iteration answers
    dark = standard_model(drive_rabi=0.0, drive_detuning=0.0, atom=atom)
    _, info = steady_state(build_liouvillian(dark, layout), check_unique=False, return_info=True)
    assert (info["path"], info["lu_fill"]) == ("inverse_iteration", None)


def test_reduction_refuses_a_shift_with_off_diagonal_entries(atom, layout):
    """A shift that couples entries would change the block and its order, so only
    self-loops are accepted: the drive-detuning shift is, a drive commutator is not."""
    model = standard_model(drive_rabi=mhz(88.0), drive_detuning=-mhz(400.0),
                           drive_polarization=beam_a_polarization(), atom=atom)
    liouv = build_liouvillian(model, layout)
    _ReducedSteadyState(liouv, shift=drive_detuning_shift_superoperator(layout))
    coupling = _laser_coupling(layout, "drive", beam_a_polarization(), mhz(10.0))
    with pytest.raises(ValueError, match="diagonal"):
        _ReducedSteadyState(liouv, shift=commutator_superoperator(coupling + coupling.conj().T))


def _full_space_probe(liouv, scale):
    """The probe on the whole operator: on an LU of L with its first row replaced
    by ``scale`` x the trace row (None if that LU fails)."""
    n, L = liouv.dim, liouv.static_part.tocsr()
    trace = sp.csr_matrix((np.full(n, scale, dtype=complex), np.arange(n) * (n + 1), [0, n]), (1, n * n))
    try:
        lu = _splu(sp.vstack([trace, L[1:]], format="csc"))
    except RuntimeError:
        lu = None
    _check_uniqueness(lu, L, scale)


def _uniqueness_verdicts(liouv):
    """Verdicts of the probe on the reduced block and on the full operator."""
    n = liouv.dim
    _, info = steady_state(liouv, check_unique=False, return_info=True)
    verdicts = []
    for probe in (
        lambda: steady_state(liouv, check_unique=True),
        lambda: _full_space_probe(liouv, info["residual_scale"]),
    ):
        try:
            probe()
            verdicts.append("unique")
        except SteadyStateError:
            verdicts.append("degenerate")
    assert info["reduced_dim"] < n * n
    return verdicts


def assert_block_hermitization_matches_dense(liouv, rng):
    """The block Hermitian part over its trace is the dense 0.5 (M + M^H) / tr M,
    gathered back, bit for bit; the solved state holds one block vector."""
    solver = _ReducedSteadyState(liouv)
    n, keep = liouv.dim, solver.keep
    v = rng.standard_normal(keep.size) + 1j * rng.standard_normal(keep.size)
    m = np.zeros(n * n, dtype=complex)
    m[keep] = v
    m = m.reshape((n, n), order="F")
    m = 0.5 * (m + m.conj().T)
    m /= np.trace(m).real
    assert np.array_equal(solver._hermitian_unit_trace(v), vec(m)[keep])
    assert not np.delete(vec(m), keep).any()
    state, _ = solver.solve()
    assert state.vectors.shape == keep.shape


def test_block_hermitization_on_the_fig4_block(atom, layout):
    model = standard_model(drive_rabi=mhz(88.0), drive_detuning=-mhz(400.0),
                           drive_polarization=beam_a_polarization(), atom=atom)
    liouv = build_liouvillian(model, layout)
    assert liouv.restrict(np.arange(layout.dim) * (layout.dim + 1)).keep.size == 1296
    assert_block_hermitization_matches_dense(liouv, np.random.default_rng(12))


@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_block_hermitization_on_random_models(atom, layout, data):
    static_model, _ = data.draw(random_models(atom))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    assert_block_hermitization_matches_dense(build_liouvillian(static_model, layout), rng)


def test_block_probe_matches_full_space_without_drive(atom, layout):
    model = standard_model(drive_rabi=0.0, drive_detuning=0.0, atom=atom)
    assert _uniqueness_verdicts(build_liouvillian(model, layout)) == ["degenerate"] * 2


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_block_probe_matches_full_space(atom, layout, data):
    static_model, _ = data.draw(random_models(atom))
    reduced, full = _uniqueness_verdicts(build_liouvillian(static_model, layout))
    assert reduced == full


# -- one-pass assembly against the kron-by-kron reference ----------------------
#
# `kron_by_kron_liouvillian` is the assembly as it stood before the static part
# was summed from one set of COO triplets: one `kron` and one sparse add per
# Zeeman path, per collapse operator and per superoperator.


def _ref_transition(layout, to_state, from_state):
    op = sp.csr_matrix(
        ([1.0], ([layout.atom_index(to_state)], [layout.atom_index(from_state)])), shape=(18, 18)
    )
    return _atom_operator(layout, op)


def _ref_coupling_operator(layout, lower_label, upper_label, polarization, amplitude):
    from ioncavity.atom import ZeemanState, cg_coefficient

    atom = layout.atom
    op = sp.csr_matrix((layout.dim, layout.dim), dtype=complex)
    for lo in atom[lower_label].sublevels():
        for q in (-1, 0, 1):
            c = polarization.component(q)
            if abs(c) < 1e-15:
                continue
            two_m_up = lo.two_m + 2 * q
            if abs(two_m_up) > atom[upper_label].two_j:
                continue
            up = ZeemanState(atom[upper_label], two_m_up)
            cg = cg_coefficient(lo, up, q)
            if cg == 0.0:
                continue
            op = op + (amplitude / 2.0) * c * cg * _ref_transition(layout, up, lo)
    return op.tocsr()


def _ref_cavity_coupling(model, layout):
    from ioncavity.atom import ZeemanState, cg_coefficient
    from ioncavity.polarization import spherical_unit_vector

    atom = layout.atom
    op = sp.csr_matrix((layout.dim, layout.dim), dtype=complex)
    if model.cavity.g == 0.0:
        return op
    for channel in ("H", "V"):
        a_mode = layout.destroy(channel)
        mode_vec = model.mode_basis.mode_vector(channel)
        for d in atom["D5/2"].sublevels():
            for q in (-1, 0, 1):
                proj = np.vdot(mode_vec, spherical_unit_vector(q))
                if abs(proj) < 1e-15:
                    continue
                two_m_p = d.two_m + 2 * q
                if abs(two_m_p) > atom["P3/2"].two_j:
                    continue
                p = ZeemanState(atom["P3/2"], two_m_p)
                cg = cg_coefficient(d, p, q)
                if cg == 0.0:
                    continue
                raise_op = _ref_transition(layout, p, d) @ a_mode
                coup = model.cavity.g * proj * cg
                op = op + coup * raise_op + np.conj(coup) * raise_op.conj().T
    return op.tocsr()


def kron_by_kron_liouvillian(model, layout):
    """(static part, [time-dependent superoperators]) summed term by term."""
    from ioncavity.atom import decay_channels, zeeman_shift
    from ioncavity.hilbert import dissipator_superoperator
    from ioncavity.lindblad import TRANSITION_MANIFOLDS, frame_offsets

    offsets = frame_offsets(model)
    nd = layout.mode_dim
    diag = np.zeros(layout.dim)
    for state in layout.atom.all_states():
        base = layout.atom_index(state) * nd * nd
        diag[base : base + nd * nd] += zeeman_shift(state, model.b_gauss) + offsets[state.manifold.label]
    h_static = sp.diags(diag).tocsr() + offsets["photon"] * (layout.number("H") + layout.number("V"))
    for role in ("repump_854", "repump_866"):
        laser = model.laser(role)
        if laser is not None:
            a_op = _ref_coupling_operator(layout, *TRANSITION_MANIFOLDS[role], laser.polarization, laser.tones[0].amplitude)
            h_static = h_static + a_op + a_op.conj().T
    h_static = (h_static + _ref_cavity_coupling(model, layout)).tocsr()

    collapses = []
    for upper_label in ("P3/2", "P1/2", "D5/2", "D3/2"):
        for up, lo, _, rate in decay_channels(layout.atom, upper_label):
            collapses.append(math.sqrt(rate) * _ref_transition(layout, lo, up))
    if model.cavity.kappa > 0:
        collapses += [math.sqrt(2 * model.cavity.kappa) * layout.destroy(ch) for ch in ("H", "V")]

    static = commutator_superoperator(h_static)
    for c_op in collapses:
        static = static + dissipator_superoperator(c_op)
    td = []
    drive = model.laser("drive")
    if drive is not None:
        lower, upper = TRANSITION_MANIFOLDS["drive"]
        a1 = _ref_coupling_operator(layout, lower, upper, drive.polarization, drive.tones[0].amplitude)
        static = static + commutator_superoperator((a1 + a1.conj().T).tocsr())
        for tone in drive.tones[1:]:
            a_k = _ref_coupling_operator(layout, lower, upper, drive.polarization, tone.amplitude)
            td += [commutator_superoperator(a_k), commutator_superoperator(a_k.conj().T.tocsr())]
    return static.tocsr(), td


def assert_assembly_matches_reference(model, layout):
    liouv = build_liouvillian(model, layout)
    static, td = kron_by_kron_liouvillian(model, layout)
    scale = abs(static).max()
    assert abs(liouv.static_part - static).max() <= 1e-13 * scale
    assert len(liouv.td_terms) == len(td)
    for (op, _), ref in zip(liouv.td_terms, td):
        assert abs(op - ref).max() <= 1e-13 * scale
    # same reachable blocks, so the same entries are stepped and solved
    seed = np.flatnonzero(vec(layout.basis_state(layout.atom.state("S1/2", -0.5))))
    ref_liouv = replace(liouv, static_part=static, td_terms=[(op, None) for op in td])
    assert np.array_equal(liouv.restrict(seed).keep, ref_liouv.restrict(seed).keep)


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_one_pass_assembly_matches_kron_by_kron(atom, layout, data):
    for model in data.draw(random_models(atom)):
        assert_assembly_matches_reference(model, layout)


def test_one_pass_assembly_matches_kron_by_kron_at_n_max_2(atom):
    model = standard_model(drive_rabi=mhz(99.0), drive_detuning=-mhz(407.0),
                           drive_polarization=beam_b_polarization(), atom=atom)
    assert_assembly_matches_reference(model, HilbertLayout(atom=atom, n_max=2))


# -- the DP5 kernel against the step it replaced -------------------------------


def test_csr_matvec_matches_sparse_product():
    """`evolve` accumulates y += A x through scipy's CSR kernel; pin it to `A @ x`."""
    from scipy.sparse._sparsetools import csr_matvec

    rng = np.random.default_rng(5)
    for n_row, n_col, density in ((40, 40, 0.2), (70, 25, 0.1), (9, 1, 0.5), (12, 12, 0.0)):
        a = sp.random(n_row, n_col, density=density, format="csr", random_state=rng)
        a = a + 1j * sp.random(n_row, n_col, density=density, format="csr", random_state=rng)
        a = (sp.diags((np.arange(n_row) % 3 != 1).astype(float)) @ a).tocsr()  # every third row empty
        a.eliminate_zeros()
        assert np.all(np.diff(a.indptr)[1::3] == 0)
        x = rng.standard_normal(n_col) + 1j * rng.standard_normal(n_col)
        y = rng.standard_normal(n_row) + 1j * rng.standard_normal(n_row)
        expected = y + a @ x
        csr_matvec(n_row, n_col, a.indptr, a.indices, a.data.astype(complex), x, y)
        assert np.allclose(y, expected, rtol=1e-14, atol=1e-14)


def reference_evolve(liouv, rho0, t_grid, rtol=1e-8, atol=1e-12):
    """The DP5 loop of `evolve` as it stood before its buffer-reusing step.

    Verbatim but for the checks, which the kernel under test keeps; the
    right-hand side is the sparse product per term that `Liouvillian.apply`
    then was.
    """
    from ioncavity.lindblad import _DP_A, _DP_C, _DP_ERR, _initial_step, _rms

    _DP_B5 = np.append(_DP_A[6, :6], 0.0)
    t_grid = np.asarray(t_grid, dtype=float)
    y_full = vec(rho0).astype(complex)
    block = liouv.restrict(np.flatnonzero(y_full))
    keep = block.keep
    y = y_full[keep]
    n2 = y_full.size
    t = float(t_grid[0])

    def apply(t, v):
        out = block.static_part @ v
        for superop, w in block.td_terms:
            out = out + np.exp(-1j * w * t) * (superop @ v)
        return out

    rhs = apply if block.td_terms else (lambda _t, v: block.static_part @ v)
    states = [rho0.copy()]
    k = np.empty((7, y.size), dtype=complex)
    k[0] = rhs(t, y)
    h = _initial_step(y, k[0], rtol, atol, n2)
    t_end = float(t_grid[-1])
    next_out = 1
    n_steps = n_rejected = 0
    while t < t_end:
        clamped = False
        if t + h >= t_grid[next_out]:
            h_try = t_grid[next_out] - t
            clamped = True
        else:
            h_try = h
        for i in range(1, 7):
            yi = y + h_try * (_DP_A[i, :i] @ k[:i])
            k[i] = rhs(t + _DP_C[i] * h_try, yi)
        y_new = y + h_try * (_DP_B5 @ k)
        err_vec = h_try * (_DP_ERR @ k)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(err_vec / sc, n2)
        if err <= 1.0:
            t = t_grid[next_out] if clamped else t + h_try
            y = y_new
            k[0] = k[6]  # FSAL
            n_steps += 1
            if clamped:
                y_full = np.zeros(n2, dtype=complex)
                y_full[keep] = y
                states.append(y_full.reshape((liouv.dim, liouv.dim), order="F"))
                next_out += 1
        else:
            n_rejected += 1  # FSAL stage k[0] still holds f(t, y)
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = h_try * min(5.0, max(0.2, factor))
    return states, n_steps, n_rejected


def test_evolve_repeats_the_reference_dp5_loop(atom, layout):
    """Static and beat models: the same steps and rejections, the same states to 1e-12.
    The reference steps the weak block; every entry of it that `evolve` drops stays
    exactly 0 there. The DP5 loop runs on the forward closure directly
    (`dp5_evolve`), so static blocks take it too. The draws are fixed: some
    models make the reference loop take tens of thousands of steps, and a fixed draw
    keeps the time of the test fixed; at least one of them carries beat terms."""
    rho0 = layout.basis_state(atom.state("S1/2", -0.5))
    t_grid = np.linspace(0.0, 0.3e-6, 4)
    beat_blocks = []

    @given(data=st.data())
    @settings(max_examples=6, deadline=None, derandomize=True)
    def check(data):
        for model in data.draw(random_models(atom)):
            liouv = build_liouvillian(model, layout)
            traj = dp5_evolve(liouv, rho0, t_grid, rtol=1e-6)
            states, n_steps, n_rejected = reference_evolve(liouv, rho0, t_grid, rtol=1e-6)
            assert (traj.n_steps, traj.n_rejected) == (n_steps, n_rejected)
            for got, want in zip(traj.states, states):
                assert np.max(np.abs(got.matrix - want)) <= 1e-12
                assert not np.delete(vec(want), traj.keep).any()  # the weak block's rest stays 0
            beat_blocks.append(bool(liouv.restrict(np.flatnonzero(vec(rho0))).td_terms))

    check()
    assert any(beat_blocks)


# -- the Chebyshev propagator of static blocks ---------------------------------


def _fig4_model(atom):
    """The bundled fig4 spectrum's model (beam A, both repumps) on its first line."""
    from ioncavity import cli
    from ioncavity.raman import enumerate_paths

    cfg = cli.merge_config(cli._bundled_config("fig4"))
    line = enumerate_paths(cli.raman_setting_from_config(cfg))[0]
    return cli.model_from_config(cfg, drive_detuning=float(line.detuning))


CHEBYSHEV_CASES = {
    # name: (model, initial sublevel, weak block size, evolved block size)
    "sigma_minus_pulse": (
        lambda atom: standard_model(drive_rabi=mhz(106.0), drive_detuning=-mhz(406.0),
                                    drive_polarization=beam_b_polarization(),
                                    repump_854_rabi=0.0, repump_866_rabi=0.0, atom=atom),
        ("S1/2", -0.5), 384, 150,
    ),
    "fig4_from_S": (_fig4_model, ("S1/2", -0.5), 1296, 1296),
    "fig4_from_P": (_fig4_model, ("P3/2", 1.5), 1296, 1296),
    # slow 2 MHz dynamics under a wide spectrum (R ~ 7.8e9 /s): long series, small steps
    "weak_drive_with_repumps": (
        lambda atom: standard_model(drive_rabi=mhz(2.0), drive_detuning=-mhz(403.0),
                                    drive_polarization=beam_b_polarization(), atom=atom),
        ("S1/2", -0.5), 1296, 1296,
    ),
    "no_drive": (lambda atom: standard_model(drive_rabi=0.0, drive_detuning=0.0, atom=atom),
                 ("D5/2", -2.5), 960, 960),
}


def dense_propagation(liouv, rho0, t_grid):
    """(keep, block vectors at ``t_grid``) by the dense `expm` of the weak block of the
    support of ``rho0`` (:meth:`Liouvillian.restrict`), one `expm` per spacing."""
    from scipy.linalg import expm

    y = vec(rho0).astype(complex)
    block = liouv.restrict(np.flatnonzero(y))
    dense = block.static_part.toarray()
    steps = {}
    vectors = [y[block.keep]]
    for h in np.diff(t_grid):
        key = round(h * 1e15)
        if key not in steps:
            steps[key] = expm(dense * h)
        vectors.append(steps[key] @ vectors[-1])
    return block.keep, np.array(vectors)


def on_block(traj, keep):
    """The vectors of ``traj`` on the entries ``keep``, 0 at those it does not step,
    which must all lie in ``keep``."""
    assert np.isin(traj.keep, keep).all()
    return traj._entries(keep)


@pytest.mark.parametrize("case", sorted(CHEBYSHEV_CASES))
def test_chebyshev_matches_dense_expm(atom, layout, case):
    """Every output of the static path, scattered into the weak block, within 1e-10 of
    the largest entry of dense `expm` propagation there; its trace kept to rounding,
    its products counted as steps."""
    build, (manifold, m), weak_size, size = CHEBYSHEV_CASES[case]
    liouv = build_liouvillian(build(atom), layout)
    rho0 = layout.basis_state(atom.state(manifold, m))
    t_grid = np.linspace(0.0, 2e-6, 21)
    traj = evolve(liouv, rho0, t_grid)
    assert traj.keep.size == size
    keep, want = dense_propagation(liouv, rho0, t_grid)
    assert keep.size == weak_size
    assert np.abs(on_block(traj, keep) - want).max() <= 1e-10 * np.abs(want).max()
    assert traj.max_trace_drift < 1e-12
    assert traj.n_steps > 0 and traj.n_rejected == 0


def test_chebyshev_takes_each_spacing_of_the_grid(atom, layout):
    """A grid with two spacings: one coefficient set each, both exact."""
    build, (manifold, m), _, _ = CHEBYSHEV_CASES["sigma_minus_pulse"]
    liouv = build_liouvillian(build(atom), layout)
    rho0 = layout.basis_state(atom.state(manifold, m))
    t_grid = np.array([0.0, 0.1, 0.2, 0.25, 0.3, 0.35, 0.45]) * 1e-6
    traj = evolve(liouv, rho0, t_grid)
    keep, want = dense_propagation(liouv, rho0, t_grid)
    assert np.abs(on_block(traj, keep) - want).max() <= 1e-10 * np.abs(want).max()


def test_chebyshev_budget_is_known_before_the_first_product(atom, layout):
    """max_steps bounds the sparse products: the exact count passes, one fewer raises."""
    build, (manifold, m), _, _ = CHEBYSHEV_CASES["sigma_minus_pulse"]
    liouv = build_liouvillian(build(atom), layout)
    rho0 = layout.basis_state(atom.state(manifold, m))
    t_grid = np.linspace(0.0, 0.5e-6, 6)
    needed = evolve(liouv, rho0, t_grid).n_steps
    assert evolve(liouv, rho0, t_grid, max_steps=needed).n_steps == needed
    with pytest.raises(StiffnessError, match=f"step budget {needed - 1} exhausted"):
        evolve(liouv, rho0, t_grid, max_steps=needed - 1)


def test_bessel_recurrence_matches_scipy():
    """Miller's recurrence gives J_k(tau) to rounding, and ends where |J_k| rho^k < 1e-17."""
    from scipy.special import jv

    for tau in (0.0, 0.3, 7.0, 120.0, 350.0):
        for rho in (1.0, 1.05, 2.4):
            j = lindblad._bessel_j(tau, rho)
            k = np.arange(j.size)
            assert np.abs(j - jv(k, tau)).max() <= 1e-14
            tail = np.arange(j.size, j.size + 50)
            with np.errstate(divide="ignore"):
                weighted = np.log(np.abs(jv(tail, tau))) + tail * math.log(rho)
            assert np.all(weighted < math.log(lindblad._CHEB_CUT))
