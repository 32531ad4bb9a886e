import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ioncavity.atom import load_atom, zeeman_shift
from ioncavity.constants import TWO_PI, mhz, to_mhz
from ioncavity.errors import PolarizationError, SelectionRuleError
from ioncavity.polarization import (
    CavityModeBasis,
    Polarization,
    X,
    Y,
    Z,
    spherical_unit_vector,
)
from ioncavity.raman import (
    RamanSetting,
    effective_coupling,
    effective_decay,
    enumerate_paths,
    pair_strengths,
    resonance_detuning,
    select_optimal_pair,
    stark_shift_ground,
)


def perp_sigma_setting(rabi=mhz(99.0), b=4.77, atom=None):
    return RamanSetting(
        b_gauss=b,
        orientation="perpendicular",
        drive_polarization=Polarization.sigma_minus(),
        drive_rabi=rabi,
        delta_cav=-mhz(400.0),
        atom=atom or load_atom(),
    )


def beam_a_setting(rabi=mhz(88.0), b=4.77):
    k = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    return RamanSetting(
        b_gauss=b,
        orientation="perpendicular",
        drive_polarization=Polarization.linear(Y, k=k),
        drive_rabi=rabi,
        delta_cav=-mhz(400.0),
    )


def parallel_pi_setting(rabi=mhz(88.0), b=4.77):
    return RamanSetting(
        b_gauss=b,
        orientation="parallel",
        drive_polarization=Polarization.linear(Z, k=X),
        drive_rabi=rabi,
        delta_cav=-mhz(400.0),
    )


# -- brute-force strength oracle ----------------------------------------------


def oracle_strength(atom, initial_m, final_m, drive_components, basis, channel):
    """alpha*beta from first principles: sympy CG values times projections.

    Sums the signed product over all intermediate P3/2 states, entirely
    independent of the package's path enumeration.
    """
    from sympy import Rational
    from sympy.physics.quantum.cg import CG

    def cg(two_j1, two_m1, two_q, two_j2, two_m2):
        return float(
            CG(
                Rational(two_j1, 2),
                Rational(two_m1, 2),
                1,
                Rational(two_q, 2),
                Rational(two_j2, 2),
                Rational(two_m2, 2),
            )
            .doit()
            .evalf()
        )

    total = 0.0 + 0.0j
    for two_m_p in (-3, -1, 1, 3):
        q_drv = (two_m_p - int(round(2 * initial_m))) // 2
        q_emit = (two_m_p - int(round(2 * final_m))) // 2
        if abs(q_drv) > 1 or abs(q_emit) > 1:
            continue
        c = drive_components.get(q_drv, 0.0)
        if c == 0.0:
            continue
        a = c * cg(1, int(round(2 * initial_m)), 2 * q_drv, 3, two_m_p)
        proj = np.vdot(basis.mode_vector(channel), spherical_unit_vector(q_emit))
        b = proj * cg(5, int(round(2 * final_m)), 2 * q_emit, 3, two_m_p)
        total += a * b
    return abs(total)


def test_perpendicular_pair_strengths_match_oracle(atom):
    """sigma-minus drive, field perpendicular to the cavity: (0.58, 0.52)."""
    setting = perp_sigma_setting()
    lines = {(l.initial.m, l.final.m): l for l in enumerate_paths(setting)}
    basis = CavityModeBasis.for_orientation("perpendicular")
    drive = {-1: 1.0}
    for (mi, mf, ch), quoted in [
        ((-0.5, -2.5, "H"), 0.58),
        ((-0.5, -1.5, "V"), 0.52),
    ]:
        mine = lines[(mi, mf)].amplitude
        ref = oracle_strength(atom, mi, mf, drive, basis, ch)
        assert abs(mine - ref) < 1e-3  # 3-decimal agreement with the oracle
        assert round(mine, 2) == quoted
    a = lines[(-0.5, -2.5)]
    b = lines[(-0.5, -1.5)]
    assert pair_strengths(a, b) == pytest.approx((0.5774, 0.5164), abs=5e-5)


def test_parallel_pair_strengths_match_oracle(atom):
    """pi drive, field along the cavity: (0.52, 0.37)."""
    setting = parallel_pi_setting()
    lines = {(l.initial.m, l.final.m): l for l in enumerate_paths(setting)}
    basis = CavityModeBasis.for_orientation("parallel")
    drive = {0: 1.0}
    for (mi, mf), quoted in [((-0.5, -1.5), 0.52), ((-0.5, 0.5), 0.37)]:
        line = lines[(mi, mf)]
        ref = oracle_strength(atom, mi, mf, drive, basis, line.channel)
        assert abs(line.amplitude - ref) < 1e-3
        assert round(line.amplitude, 2) == quoted


def test_mirror_pairs_have_identical_strengths():
    """The m -> -m mirror (which also flips the drive helicity) preserves strengths."""
    minus = enumerate_paths(perp_sigma_setting())
    plus_setting = RamanSetting(
        b_gauss=4.77,
        orientation="perpendicular",
        drive_polarization=Polarization.sigma_plus(),
        drive_rabi=mhz(99.0),
        delta_cav=-mhz(400.0),
    )
    plus = {(l.initial.m, l.final.m): l for l in enumerate_paths(plus_setting)}
    for line in minus:
        mirror = plus[(-line.initial.m, -line.final.m)]
        assert mirror.amplitude == pytest.approx(line.amplitude, abs=1e-12)
        assert mirror.channel == line.channel


def test_beam_a_merges_to_ten_lines():
    lines = enumerate_paths(beam_a_setting())
    assert len(lines) == 10
    merged = [l for l in lines if len(l.paths) == 2]
    assert len(merged) == 2  # one per initial state, through both P sub-states
    for line in merged:
        assert {p.intermediate.two_m for p in line.paths} == {line.initial.two_m - 2, line.initial.two_m + 2}
    # channel parity: sigma-emitting lines in H, pi-emitting in V
    for line in lines:
        q_emit = {p.q_emit for p in line.paths}
        assert line.channel == ("V" if q_emit == {0} else "H")


def test_beam_b_gives_six_lines_three_per_initial_state():
    lines = enumerate_paths(perp_sigma_setting())
    assert len(lines) == 6
    for m_init in (-0.5, 0.5):
        assert sum(1 for l in lines if l.initial.m == m_init) == 3


def test_longitudinal_polarization_is_an_error():
    with pytest.raises(PolarizationError):
        RamanSetting(
            b_gauss=4.77,
            orientation="perpendicular",
            drive_polarization=Polarization(vector=Z.astype(complex), k=Z),
            drive_rabi=mhz(50.0),
            delta_cav=-mhz(400.0),
        )


def test_pair_strengths_requires_common_initial_state():
    lines = enumerate_paths(perp_sigma_setting())
    a = next(l for l in lines if l.initial.m == -0.5)
    b = next(l for l in lines if l.initial.m == 0.5)
    with pytest.raises(SelectionRuleError):
        pair_strengths(a, b)


def test_select_optimal_pair_perpendicular():
    pairs = select_optimal_pair(perp_sigma_setting())
    a, b = pairs[0]
    assert {a.final.m, b.final.m} == {-2.5, -1.5}
    assert {a.channel, b.channel} == {"H", "V"}
    assert a.initial.m == -0.5


def test_select_optimal_pair_parallel():
    pairs = select_optimal_pair(parallel_pi_setting())
    a, b = pairs[0]
    assert a.initial.m == -0.5
    strengths = sorted((a.amplitude, b.amplitude), reverse=True)
    assert strengths[0] == pytest.approx(0.5164, abs=1e-4)
    assert strengths[1] == pytest.approx(0.3651, abs=1e-4)


def test_single_line_yields_no_pair():
    """With a pure circular emission basis and one available channel, no pair."""
    setting = parallel_pi_setting(b=0.0)
    pairs = select_optimal_pair(setting)
    for a, b in pairs:
        assert a.channel != b.channel


# -- effective parameters ------------------------------------------------------


def test_effective_coupling_values():
    g0 = TWO_PI * 1.43e6
    val = effective_coupling(1.0, 1.0, mhz(88.0), -mhz(400.0), g0)
    assert val == pytest.approx(TWO_PI * 88e6 * 2 * 1.43e6 * TWO_PI / (2 * TWO_PI * 400e6), rel=1e-12)
    assert to_mhz(val) == pytest.approx(0.3146, abs=5e-4)
    assert round(to_mhz(val), 2) == 0.31
    val99 = effective_coupling(1.0, 1.0, mhz(99.0), -mhz(400.0), g0)
    assert round(to_mhz(val99), 2) == 0.35
    assert effective_coupling(0.0, 1.0, mhz(88.0), -mhz(400.0), g0) == 0.0


def test_effective_decay_values():
    val = effective_decay(mhz(88.0), -mhz(400.0), mhz(21.0))
    assert to_mhz(val) == pytest.approx(21.0 * (88.0 / 800.0) ** 2, rel=1e-12)
    assert abs(to_mhz(val) - 0.25) / 0.25 < 0.15
    val99 = effective_decay(mhz(99.0), -mhz(400.0), mhz(21.0))
    assert abs(to_mhz(val99) - 0.32) / 0.32 < 0.15
    assert effective_decay(0.0, -mhz(400.0), mhz(21.0)) == 0.0


def test_effective_rates_diverge_at_zero_detuning():
    with pytest.raises(ZeroDivisionError):
        effective_coupling(1.0, 1.0, mhz(88.0), 0.0, TWO_PI * 1.4e6)
    with pytest.raises(ZeroDivisionError):
        effective_decay(mhz(88.0), 0.0, mhz(21.0))


@given(
    scale=st.floats(0.1, 10.0),
    rabi=st.floats(1e6, 1e9),
    delta=st.floats(1e8, 1e10),
    g=st.floats(1e4, 1e7),
)
@settings(max_examples=40, deadline=None)
def test_effective_coupling_homogeneity(scale, rabi, delta, g):
    base = effective_coupling(0.5, 0.6, rabi, delta, g)
    assert effective_coupling(0.5, 0.6, scale * rabi, delta, scale * g) == pytest.approx(
        scale**2 * base, rel=1e-12
    )
    assert effective_coupling(0.5, 0.6, rabi, scale * delta, g) == pytest.approx(
        base / scale, rel=1e-12
    )


# -- resonance condition --------------------------------------------------------


def test_zero_field_all_lines_degenerate():
    """At B = 0 (and no Stark shift) every transition is resonant at delta_cav."""
    setting = perp_sigma_setting(rabi=0.0, b=0.0)
    lines = enumerate_paths(setting)
    assert len(lines) == 6
    for line in lines:
        assert line.detuning == pytest.approx(setting.delta_cav, abs=1e-6)


def test_line_spacing_matches_zeeman_arithmetic(atom):
    """Without a drive field, adjacent-line spacings are pure Zeeman differences."""
    setting = perp_sigma_setting(rabi=0.0)
    lines = {(l.initial.m, l.final.m): l for l in enumerate_paths(setting)}
    for (mi, mf), line in lines.items():
        expected = setting.delta_cav + (
            zeeman_shift(atom.state("D5/2", mf), 4.77) - zeeman_shift(atom.state("S1/2", mi), 4.77)
        )
        assert line.detuning == pytest.approx(expected, abs=1e-3)


def test_stark_shift_linear_in_intensity():
    low = perp_sigma_setting(rabi=mhz(50.0))
    high = perp_sigma_setting(rabi=mhz(50.0) * math.sqrt(2.0))  # doubled intensity
    line_low = enumerate_paths(low)[0]
    line_high = next(
        l
        for l in enumerate_paths(high)
        if (l.initial.m, l.final.m) == (line_low.initial.m, line_low.final.m)
    )
    shift_low = line_low.detuning - perp_sigma_setting(rabi=0.0).delta_cav - (
        zeeman_shift(line_low.final, 4.77) - zeeman_shift(line_low.initial, 4.77)
    )
    shift_high = line_high.detuning - line_low.detuning + shift_low
    assert shift_high == pytest.approx(2 * shift_low, rel=2e-2)


def test_stark_shift_sign_for_red_detuning(atom):
    """Red-detuned drive pushes the ground state down, the line up."""
    setting = perp_sigma_setting(rabi=mhz(99.0))
    s = stark_shift_ground(atom.state("S1/2", -0.5), setting, -mhz(400.0))
    assert s < 0
    assert to_mhz(s) == pytest.approx(-6.1, abs=0.3)


def test_emission_completeness_under_basis_rotation(atom):
    """Sum over channels and final states of strength^2 does not depend on
    how the two orthogonal cavity polarizations are chosen."""
    from ioncavity.atom import cg_coefficient

    base = CavityModeBasis.for_orientation("perpendicular")
    initial = atom.state("S1/2", -0.5)
    p = atom.state("P3/2", -1.5)

    def total_for_basis(e_h, e_v):
        total = 0.0
        for d in atom["D5/2"].sublevels():
            q = (p.two_m - d.two_m) // 2
            if abs(q) > 1 or p.two_m - d.two_m != 2 * q:
                continue
            cg = cg_coefficient(d, p, q)
            for e in (e_h, e_v):
                total += abs(np.vdot(e, spherical_unit_vector(q)) * cg) ** 2
        return total

    ref = total_for_basis(base.e_h, base.e_v)
    rng = np.random.default_rng(3)
    for _ in range(5):
        # random unitary mix of the two transverse modes
        theta, phase = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        e1 = math.cos(theta) * base.e_h + math.sin(theta) * np.exp(1j * phase) * base.e_v
        e2 = -math.sin(theta) * np.exp(-1j * phase) * base.e_h + math.cos(theta) * base.e_v
        assert total_for_basis(e1, e2) == pytest.approx(ref, abs=1e-10)


def test_merged_lines_count_constant_under_rabi():
    for rabi in (mhz(10.0), mhz(50.0), mhz(88.0)):
        assert len(enumerate_paths(beam_a_setting(rabi=rabi))) == 10


def test_raman_paths_read_the_hamiltonian_amplitudes(atom):
    """Each beam-B path's drive and cavity amplitudes are the entries of H.

    (Omega/2) amp_drive is <P,0,0|A|S,0,0> of the drive coupling and
    g amp_emit is <P,0,0|H_static|D,1_ch> of the cavity coupling.
    """
    from ioncavity.hilbert import HilbertLayout
    from ioncavity.lindblad import build_hamiltonian
    from ioncavity.system import beam_b_polarization, standard_model

    rabi = mhz(99.0)
    model = standard_model(
        drive_rabi=rabi,
        drive_detuning=-mhz(400.0),
        drive_polarization=beam_b_polarization(),
        delta_cav=-mhz(400.0),
        b_gauss=4.77,
        orientation="perpendicular",
        atom=atom,
    )
    setting = RamanSetting(
        b_gauss=4.77,
        orientation="perpendicular",
        drive_polarization=beam_b_polarization(),
        drive_rabi=rabi,
        delta_cav=-mhz(400.0),
        atom=atom,
    )
    layout = HilbertLayout(atom=atom, n_max=1)
    parts = build_hamiltonian(model, layout)
    drive, static = parts.drive_coupling.toarray(), parts.static.toarray()
    paths = [path for line in enumerate_paths(setting) for path in line.paths]
    assert {path.channel for path in paths} == {"H", "V"}
    for path in paths:
        i_s = layout.index(path.initial, 0, 0)
        i_p = layout.index(path.intermediate, 0, 0)
        i_d = layout.index(path.final, *((1, 0) if path.channel == "H" else (0, 1)))
        assert drive[i_p, i_s] == pytest.approx(rabi / 2 * path.amp_drive, rel=1e-12)
        assert static[i_p, i_d] == pytest.approx(model.cavity.g * path.amp_emit, rel=1e-12)
