"""Polarization vectors and their decomposition onto atomic dipoles.

Coordinates are Cartesian in the atomic frame: the quantization axis
(along the magnetic field) is z. Spherical unit vectors follow the
usual phase convention

    e_{+1} = -(x + i y)/sqrt(2),   e_0 = z,   e_{-1} = (x - i y)/sqrt(2),

and the component of a field polarization driving a Delta-m = q
transition is c_q = e_q^dagger . eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PolarizationError

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def spherical_unit_vector(q: int, axis=Z) -> np.ndarray:
    """Spherical basis vector e_q in the frame whose z-axis is ``axis`` (read-only)."""
    if q not in (-1, 0, 1):
        raise ValueError("q must be -1, 0 or +1")
    if axis is Z:
        return _Z_UNIT_VECTORS[q]
    return _unit_vector(q, *_frame(axis))


def _unit_vector(q, ex, ey, ez):
    if q == 0:
        v = ez.astype(complex)
    elif q == 1:
        v = -(ex + 1j * ey) / np.sqrt(2.0)
    else:
        v = (ex - 1j * ey) / np.sqrt(2.0)
    v.setflags(write=False)
    return v


def _frame(axis):
    """Right-handed orthonormal frame (x', y', z') with z' = axis."""
    z = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(z)
    if not np.isclose(norm, 1.0, atol=1e-9):
        raise ValueError("axis must be a unit vector")
    z = z / norm
    # pick any vector not parallel to z to seed the transverse pair
    seed = X if abs(z[0]) < 0.9 else Y
    x = seed - np.dot(seed, z) * z
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return x, y, z


# the frame of Z is (X, Y, Z), so these are the vectors _frame(Z) gives
_Z_UNIT_VECTORS = {q: _unit_vector(q, X, Y, Z) for q in (-1, 0, 1)}


@dataclass(frozen=True)
class Polarization:
    """A unit polarization, optionally tied to a propagation direction.

    ``vector`` is the complex Cartesian field polarization; ``k`` is the
    unit propagation direction or ``None`` for an abstract polarization
    given directly by its spherical components.
    """

    vector: np.ndarray
    k: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex)
        n = np.linalg.norm(v)
        if n == 0:
            raise PolarizationError("zero polarization vector")
        object.__setattr__(self, "vector", v / n)
        if self.k is not None:
            k = np.asarray(self.k, dtype=float)
            k = k / np.linalg.norm(k)
            object.__setattr__(self, "k", k)
            longitudinal = abs(np.dot(k, self.vector))
            if longitudinal > 1e-9:
                raise PolarizationError(
                    f"polarization has longitudinal component {longitudinal:.2e} "
                    "along its propagation direction"
                )

    @classmethod
    def sigma_minus(cls) -> "Polarization":
        """Circular polarization driving q = -1 for propagation along +z."""
        return cls(vector=spherical_unit_vector(-1), k=Z)

    @classmethod
    def sigma_plus(cls) -> "Polarization":
        return cls(vector=spherical_unit_vector(+1), k=Z)

    @classmethod
    def linear(cls, direction, k=None) -> "Polarization":
        return cls(vector=np.asarray(direction, dtype=float).astype(complex), k=k)

    def component(self, q: int, axis=Z) -> complex:
        return np.vdot(spherical_unit_vector(q, axis), self.vector)


def dipole_projection(pol: Polarization, q: int, quantization_axis=Z) -> complex:
    """Overlap of a field polarization with the spherical dipole component q.

    The magnitude never exceeds 1 and the squared magnitudes over
    q = -1, 0, +1 sum to 1 for any unit polarization.
    """
    axis = np.asarray(quantization_axis, dtype=float)
    if not np.isclose(np.linalg.norm(axis), 1.0, atol=1e-9):
        raise ValueError("quantization axis must be a unit vector")
    return pol.component(q, axis)


@dataclass(frozen=True)
class CavityModeBasis:
    """The two orthogonal cavity polarization modes, in the atomic frame.

    With the magnetic field perpendicular to the cavity axis the modes
    are linear: H lies in the plane perpendicular to B, so circularly
    emitted photons (q = +-1) project onto it with amplitude 1/sqrt(2),
    and V lies along B, collecting pi photons with amplitude 1.  With
    the field along the cavity axis the two modes are the circular pair.
    """

    e_h: np.ndarray
    e_v: np.ndarray
    axis: np.ndarray
    orientation: str

    @classmethod
    def for_orientation(cls, orientation: str) -> "CavityModeBasis":
        if orientation == "perpendicular":
            # cavity along x, B (quantization) along z
            return cls(
                e_h=Y.astype(complex), e_v=Z.astype(complex), axis=X, orientation=orientation
            )
        if orientation == "parallel":
            # cavity along z = B; transverse modes are circular
            return cls(
                e_h=spherical_unit_vector(+1),
                e_v=spherical_unit_vector(-1),
                axis=Z,
                orientation=orientation,
            )
        raise ValueError("orientation must be 'perpendicular' or 'parallel'")

    def mode_vector(self, channel: str) -> np.ndarray:
        return {"H": self.e_h, "V": self.e_v}[channel]

    def emission_projection(self, channel: str, q: int) -> complex:
        """Amplitude with which a q-polarized dipole radiates into a mode."""
        return np.vdot(self.mode_vector(channel), spherical_unit_vector(q))
