"""Static atomic structure of the Ca-40 ion.

Five fine-structure manifolds (S1/2, P1/2, P3/2, D3/2, D5/2) with their
18 Zeeman sub-states, Lande factors, Zeeman shifts, decay rates and
branching fractions, and dipole Clebsch-Gordan coefficients.

Conventions
-----------
* Angular frequencies in rad/s throughout.
* Half-integer angular momenta are stored doubled (``two_j``, ``two_m``)
  so all bookkeeping stays exact in integer arithmetic.
* ``decay_rate`` is the total population decay rate Gamma of a manifold;
  amplitude decay rates are Gamma/2 and are always labelled as such.
* Quantization axis along the magnetic field everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from fractions import Fraction

from .constants import BOHR_MAGNETON_RAD_PER_S_PER_GAUSS, TWO_PI
from .errors import SelectionRuleError

MANIFOLD_LABELS = ("S1/2", "D3/2", "D5/2", "P1/2", "P3/2")

_SPIN_TWO_S = 1  # single valence electron


@dataclass(frozen=True)
class LevelManifold:
    """One fine-structure manifold: quantum numbers plus decay data."""

    label: str
    L: int
    two_j: int
    decay_rate: float  # total population decay rate, rad/s
    branching: dict[str, float] = field(default_factory=dict)

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def multiplicity(self) -> int:
        return self.two_j + 1

    def sublevels(self):
        """All Zeeman sub-states, ordered by increasing m."""
        return [ZeemanState(self, two_m) for two_m in range(-self.two_j, self.two_j + 1, 2)]

    def validate(self):
        if self.label not in MANIFOLD_LABELS:
            raise ValueError(f"unknown manifold label {self.label!r}")
        if self.branching:
            total = sum(self.branching.values())
            if abs(total - 1.0) > 1e-12:
                raise ValueError(
                    f"{self.label} branching fractions sum to {total!r}, expected 1"
                )
        if self.decay_rate < 0:
            raise ValueError("decay rate must be non-negative")
        return self


@dataclass(frozen=True, order=True)
class ZeemanState:
    """A single |L_J, m_J> sub-state, equal, hashed and ordered by (manifold label, m)."""

    manifold: LevelManifold = field(compare=False)
    two_m: int = field(default=0, compare=False)
    key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if abs(self.two_m) > self.manifold.two_j:
            raise ValueError(
                f"|m|={abs(self.two_m)/2} exceeds J={self.manifold.j} in {self.manifold.label}"
            )
        if (self.two_m - self.manifold.two_j) % 2 != 0:
            raise ValueError("m must differ from J by an integer")
        object.__setattr__(self, "key", (self.manifold.label, self.two_m))

    @property
    def m(self) -> float:
        return self.two_m / 2.0

    @property
    def label(self) -> str:
        frac = Fraction(self.two_m, 2)
        return f"{self.manifold.label},{'+' if frac >= 0 else ''}{frac}"

    def __repr__(self):
        return f"|{self.label}>"


class AtomData:
    """Level data for the ion, indexable by manifold label."""

    def __init__(self, manifolds: dict[str, LevelManifold]):
        missing = set(MANIFOLD_LABELS) - set(manifolds)
        if missing:
            raise ValueError(f"missing manifolds: {sorted(missing)}")
        self.manifolds = {label: manifolds[label].validate() for label in MANIFOLD_LABELS}
        n_states = sum(m.multiplicity for m in self.manifolds.values())
        if n_states != 18:
            raise ValueError(f"expected 18 sub-states, got {n_states}")
        self._dipole_pairs = {}  # (lower label, upper label) -> dipole_pairs result

    def __getitem__(self, label: str) -> LevelManifold:
        return self.manifolds[label]

    def state(self, label: str, m) -> ZeemanState:
        two_m = int(round(2 * m))
        return ZeemanState(self.manifolds[label], two_m)

    def all_states(self):
        """The 18 sub-states in canonical order (manifolds by energy, m ascending)."""
        out = []
        for label in MANIFOLD_LABELS:
            out.extend(self.manifolds[label].sublevels())
        return out


def load_atom(overrides: dict | None = None) -> AtomData:
    """Load the bundled Ca-40 level data, optionally overriding entries.

    ``overrides`` maps manifold label to a partial dict with any of the
    keys ``decay_rate_hz`` and ``branching``; useful for reduced test
    models (e.g. switching decay off) and for config-level replacements.
    """
    with resources.files("ioncavity.data").joinpath("ca40_levels.json").open() as fh:
        raw = json.load(fh)["manifolds"]
    if overrides:
        for label, patch in overrides.items():
            if label not in raw:
                raise ValueError(f"unknown manifold {label!r} in override")
            raw[label] = {**raw[label], **patch}
    manifolds = {}
    for label, entry in raw.items():
        manifolds[label] = LevelManifold(
            label=label,
            L=int(entry["L"]),
            two_j=int(round(2 * entry["J"])),
            decay_rate=TWO_PI * float(entry["decay_rate_hz"]),
            branching=dict(entry.get("branching", {})),
        )
    return AtomData(manifolds)


def lande_g(manifold: LevelManifold) -> float:
    """Lande g-factor g_J = 3/2 + [S(S+1) - L(L+1)] / [2 J(J+1)] for S = 1/2."""
    s = _SPIN_TWO_S / 2.0
    j = manifold.j
    L = manifold.L
    return 1.5 + (s * (s + 1) - L * (L + 1)) / (2 * j * (j + 1))


def zeeman_shift(state: ZeemanState, b_gauss: float) -> float:
    """Linear Zeeman shift g_J * m_J * mu_B * B of a sub-state, in rad/s.

    Transition splittings are differences of two such shifts, each level
    paired with its own manifold's g-factor.
    """
    if b_gauss < 0:
        raise ValueError("magnetic field must be non-negative")
    return lande_g(state.manifold) * state.m * BOHR_MAGNETON_RAD_PER_S_PER_GAUSS * b_gauss


def _triangle_coefficient(two_a, two_b, two_c):
    def f(two_n):
        if two_n % 2 != 0 or two_n < 0:
            return None
        return math.factorial(two_n // 2)

    parts = [
        f(two_a + two_b - two_c),
        f(two_a - two_b + two_c),
        f(-two_a + two_b + two_c),
    ]
    denom = f(two_a + two_b + two_c + 2)
    if any(p is None for p in parts) or denom is None:
        return None
    return math.sqrt(parts[0] * parts[1] * parts[2] / denom)


def clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_j3, two_m3) -> float:
    """<j1 m1; j2 m2 | j3 m3> by the closed-form Racah sum (Condon-Shortley).

    Doubled integer arguments; exact integer factorials, one final sqrt.
    """
    if two_m1 + two_m2 != two_m3:
        return 0.0
    if abs(two_m1) > two_j1 or abs(two_m2) > two_j2 or abs(two_m3) > two_j3:
        return 0.0
    tri = _triangle_coefficient(two_j1, two_j2, two_j3)
    if tri is None:
        return 0.0

    def fact(two_n):
        return math.factorial(two_n // 2)

    pref = math.sqrt(
        (two_j3 + 1)
        * fact(two_j1 + two_m1)
        * fact(two_j1 - two_m1)
        * fact(two_j2 + two_m2)
        * fact(two_j2 - two_m2)
        * fact(two_j3 + two_m3)
        * fact(two_j3 - two_m3)
    )
    total = 0.0
    # Sum over all k (doubled: even steps) with non-negative factorial args.
    two_k_min = max(0, two_j2 - two_j3 - two_m1, two_j1 + two_m2 - two_j3)
    two_k_max = min(two_j1 + two_j2 - two_j3, two_j1 - two_m1, two_j2 + two_m2)
    for two_k in range(two_k_min, two_k_max + 1, 2):
        denom = (
            fact(two_k)
            * fact(two_j1 + two_j2 - two_j3 - two_k)
            * fact(two_j1 - two_m1 - two_k)
            * fact(two_j2 + two_m2 - two_k)
            * fact(two_j3 - two_j2 + two_m1 + two_k)
            * fact(two_j3 - two_j1 - two_m2 + two_k)
        )
        total += (-1) ** (two_k // 2) / denom
    return tri * pref * total


def _dipole_allowed(lower: ZeemanState, upper: ZeemanState) -> bool:
    dl = abs(upper.manifold.L - lower.manifold.L)
    dj = abs(upper.manifold.two_j - lower.manifold.two_j)
    return dl == 1 and dj <= 2


def cg_coefficient(lower: ZeemanState, upper: ZeemanState, q: int) -> float:
    """Dipole coupling amplitude <J_lo m_lo; 1 q | J_up m_up>.

    ``q`` is the spherical photon component (absorption raises m by q).
    Returns 0 when a selection rule fails; raises when both states sit
    in the same manifold, where a dipole coupling is meaningless.
    """
    if lower.manifold.label == upper.manifold.label:
        raise SelectionRuleError(
            f"no dipole transition inside manifold {lower.manifold.label}"
        )
    if abs(q) > 1:
        return 0.0
    if not _dipole_allowed(lower, upper):
        return 0.0
    if lower.two_m + 2 * q != upper.two_m:
        return 0.0
    return clebsch_gordan(
        lower.manifold.two_j, lower.two_m, 2, 2 * q, upper.manifold.two_j, upper.two_m
    )


def dipole_pairs(atom: AtomData, lower_label: str, upper_label: str):
    """Every dipole-coupled ``(lower, upper, q, cg)`` between two manifolds.

    ``cg = cg_coefficient(lower, upper, q)`` is nonzero; the pairs are
    ordered by lower sub-state (m ascending), then by q = -1, 0, +1. The
    tuple is computed once per atom and manifold pair.
    """
    key = (lower_label, upper_label)
    if key not in atom._dipole_pairs:
        upper = atom[upper_label]
        pairs = []
        for lo in atom[lower_label].sublevels():
            for q in (-1, 0, 1):
                if abs(lo.two_m + 2 * q) > upper.two_j:
                    continue
                up = ZeemanState(upper, lo.two_m + 2 * q)
                cg = cg_coefficient(lo, up, q)
                if cg != 0.0:
                    pairs.append((lo, up, q, cg))
        atom._dipole_pairs[key] = tuple(pairs)
    return atom._dipole_pairs[key]


def decay_channels(atom: AtomData, upper_label: str):
    """Spontaneous-emission sub-channels of a manifold.

    Yields ``(upper_state, lower_state, q, rate)`` with
    ``rate = Gamma_total * branching * cg**2`` so that the rates out of
    every upper sub-state sum to the manifold's total decay rate. Within
    each lower manifold the channels run by upper m, then by q.
    """
    upper_manifold = atom[upper_label]
    if upper_manifold.decay_rate == 0.0:
        return []
    channels = []
    for lower_label, fraction in upper_manifold.branching.items():
        branch_rate = upper_manifold.decay_rate * fraction
        pairs = dipole_pairs(atom, lower_label, upper_label)
        for lo, up, q, cg in sorted(pairs, key=lambda pair: (pair[1].two_m, pair[2])):
            channels.append((up, lo, q, branch_rate * cg * cg))
    return channels
