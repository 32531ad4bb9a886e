import math

import pytest
from hypothesis import given, settings, strategies as st

from ioncavity.atom import (
    MANIFOLD_LABELS,
    ZeemanState,
    cg_coefficient,
    clebsch_gordan,
    decay_channels,
    dipole_pairs,
    lande_g,
    load_atom,
    zeeman_shift,
)
from ioncavity.constants import mhz
from ioncavity.errors import SelectionRuleError


def test_manifold_inventory(atom):
    assert sum(atom[l].multiplicity for l in MANIFOLD_LABELS) == 18
    for label in MANIFOLD_LABELS:
        man = atom[label]
        assert man.multiplicity == man.two_j + 1
        if man.branching:
            assert abs(sum(man.branching.values()) - 1.0) < 1e-12


def test_zeeman_states_are_keyed_by_manifold_and_m(atom):
    """Equal m in two manifolds is two states; equal states from two loads hash equal."""
    s_up, p_up = atom.state("S1/2", 0.5), atom.state("P1/2", 0.5)
    assert s_up != p_up
    assert len({s_up, p_up}) == 2
    a, b = load_atom().state("D5/2", -1.5), load_atom().state("D5/2", -1.5)
    assert a == b and hash(a) == hash(b)
    assert len(set(atom.all_states())) == 18


def test_lande_factors(atom):
    assert lande_g(atom["S1/2"]) == pytest.approx(2.0, abs=1e-15)
    assert lande_g(atom["D5/2"]) == pytest.approx(1.2, abs=1e-12)
    assert lande_g(atom["P3/2"]) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert lande_g(atom["P1/2"]) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert lande_g(atom["D3/2"]) == pytest.approx(0.8, abs=1e-12)


def test_zeeman_shift_examples(atom):
    assert zeeman_shift(atom.state("S1/2", 0.5), 0.0) == 0.0
    # adjacent D5/2 splitting at 4.77 G
    split = zeeman_shift(atom.state("D5/2", 1.5), 4.77) - zeeman_shift(
        atom.state("D5/2", 0.5), 4.77
    )
    assert split == pytest.approx(mhz(8.0115), rel=1e-3)
    s_split = zeeman_shift(atom.state("S1/2", 0.5), 4.77) - zeeman_shift(
        atom.state("S1/2", -0.5), 4.77
    )
    assert s_split == pytest.approx(mhz(13.352), rel=1e-3)


@given(
    label=st.sampled_from(MANIFOLD_LABELS),
    b=st.floats(0.0, 50.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_zeeman_odd_and_linear(label, b):
    atom = load_atom()
    man = atom[label]
    for state in man.sublevels():
        plus = zeeman_shift(state, b)
        minus = zeeman_shift(ZeemanState(man, -state.two_m), b)
        assert plus == pytest.approx(-minus, abs=1e-6)
        assert zeeman_shift(state, 2 * b) == pytest.approx(2 * plus, rel=1e-12, abs=1e-9)


def test_zeeman_rejects_negative_field(atom):
    with pytest.raises(ValueError):
        zeeman_shift(atom.state("S1/2", 0.5), -1.0)


# -- Clebsch-Gordan coefficients ---------------------------------------------


def sympy_cg(two_j1, two_m1, two_j2, two_m2, two_j3, two_m3):
    from sympy import Rational
    from sympy.physics.quantum.cg import CG

    return float(
        CG(
            Rational(two_j1, 2),
            Rational(two_m1, 2),
            Rational(two_j2, 2),
            Rational(two_m2, 2),
            Rational(two_j3, 2),
            Rational(two_m3, 2),
        )
        .doit()
        .evalf()
    )


def test_stretched_state_coefficient(atom):
    lo = atom.state("S1/2", -0.5)
    up = atom.state("P3/2", -1.5)
    assert cg_coefficient(lo, up, -1) == pytest.approx(1.0, abs=1e-14)


def test_m_selection_rule(atom):
    lo = atom.state("S1/2", -0.5)
    up = atom.state("P3/2", 1.5)
    assert cg_coefficient(lo, up, -1) == 0.0


def test_same_manifold_is_an_error(atom):
    with pytest.raises(SelectionRuleError):
        cg_coefficient(atom.state("D5/2", 0.5), atom.state("D5/2", 1.5), 1)


def test_cg_tables_match_independent_oracle(atom):
    """Full S1/2<->P3/2 and P3/2<->D5/2 tables against the sympy evaluation."""
    pairs = [("S1/2", "P3/2"), ("D5/2", "P3/2"), ("D3/2", "P1/2"), ("S1/2", "P1/2")]
    checked = 0
    for lo_label, up_label in pairs:
        lo_man, up_man = atom[lo_label], atom[up_label]
        for lo in lo_man.sublevels():
            for q in (-1, 0, 1):
                two_m_up = lo.two_m + 2 * q
                if abs(two_m_up) > up_man.two_j:
                    continue
                up = ZeemanState(up_man, two_m_up)
                mine = cg_coefficient(lo, up, q)
                ref = sympy_cg(lo_man.two_j, lo.two_m, 2, 2 * q, up_man.two_j, up.two_m)
                assert mine == pytest.approx(ref, abs=1e-12)
                checked += 1
    assert checked == 28  # every dipole-allowed (lower m, q) pair of the four branches


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_cg_sum_rule_independent_of_lower_m(data):
    """Sum over upper states and q of cg^2 is the same for every lower m."""
    atom = load_atom()
    lo_label, up_label = data.draw(
        st.sampled_from([("S1/2", "P3/2"), ("D5/2", "P3/2"), ("D3/2", "P3/2"), ("S1/2", "P1/2")])
    )
    lo_man, up_man = atom[lo_label], atom[up_label]
    sums = []
    for lo in lo_man.sublevels():
        total = 0.0
        for q in (-1, 0, 1):
            two_m_up = lo.two_m + 2 * q
            if abs(two_m_up) > up_man.two_j:
                continue
            amp = cg_coefficient(lo, ZeemanState(up_man, two_m_up), q)
            total += amp * amp
        sums.append(total)
    assert max(sums) - min(sums) < 1e-12


def test_decay_channel_rates_sum_to_manifold_rate(atom):
    for label in ("P3/2", "P1/2"):
        channels = decay_channels(atom, label)
        for up in atom[label].sublevels():
            total = sum(rate for u, _, _, rate in channels if u == up)
            assert total == pytest.approx(atom[label].decay_rate, rel=1e-12)


def test_dipole_pairs_match_brute_force_scan(atom):
    """Every nonzero cg between two manifolds, by lower m then q; none where L differs by 2."""
    for lower_label in MANIFOLD_LABELS:
        for upper_label in MANIFOLD_LABELS:
            if lower_label == upper_label:
                continue
            want = [
                (lo.label, up.label, q, cg_coefficient(lo, up, q))
                for lo in atom[lower_label].sublevels()
                for q in (-1, 0, 1)
                for up in atom[upper_label].sublevels()
                if cg_coefficient(lo, up, q) != 0.0
            ]
            got = dipole_pairs(atom, lower_label, upper_label)
            assert isinstance(got, tuple)
            assert [(lo.label, up.label, q, cg) for lo, up, q, cg in got] == want
            assert dipole_pairs(atom, lower_label, upper_label) is got  # memoized
    assert dipole_pairs(atom, "S1/2", "D5/2") == ()
    assert len(dipole_pairs(atom, "S1/2", "P3/2")) == 6
    with pytest.raises(SelectionRuleError):
        dipole_pairs(atom, "D5/2", "D5/2")
    other = load_atom()  # the memo lives on the atom, not in the module
    assert dipole_pairs(other, "D5/2", "P3/2") is not dipole_pairs(atom, "D5/2", "P3/2")


def test_emission_branching_from_p_minus_3_2(atom):
    """The three P3/2,-3/2 -> D5/2 channels carry weights 2/3, 4/15, 1/15."""
    up = atom.state("P3/2", -1.5)
    weights = {}
    for q in (-1, 0, 1):
        lo = ZeemanState(atom["D5/2"], up.two_m - 2 * q)
        weights[q] = cg_coefficient(lo, up, q) ** 2
    assert weights[1] == pytest.approx(2 / 3, abs=1e-12)  # to D5/2,-5/2
    assert weights[0] == pytest.approx(4 / 15, abs=1e-12)  # to D5/2,-3/2
    assert weights[-1] == pytest.approx(1 / 15, abs=1e-12)  # to D5/2,-1/2


def test_clebsch_gordan_orthogonality():
    """Rows of the coupling matrix for 3/2 x 1 are orthonormal."""
    two_j1, two_j2 = 3, 2
    for two_j3 in (1, 3, 5):
        for two_m3 in range(-two_j3, two_j3 + 1, 2):
            total = 0.0
            for two_m1 in range(-two_j1, two_j1 + 1, 2):
                total += clebsch_gordan(two_j1, two_m1, two_j2, two_m3 - two_m1, two_j3, two_m3) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)


def test_atom_override_and_validation():
    patched = load_atom(overrides={"P3/2": {"decay_rate_hz": 1e6}})
    assert patched["P3/2"].decay_rate == pytest.approx(2 * math.pi * 1e6)
    with pytest.raises(ValueError):
        load_atom(overrides={"P3/2": {"branching": {"S1/2": 0.5}}})
    with pytest.raises(ValueError):
        load_atom(overrides={"X1/2": {"decay_rate_hz": 0.0}})


def test_bad_zeeman_state(atom):
    with pytest.raises(ValueError):
        ZeemanState(atom["S1/2"], 3)
