"""Simulation toolkit for a single trapped Ca-40 ion in a two-mode optical cavity.

Covers the static atomic structure (Zeeman sub-levels, dipole coupling
coefficients), cavity geometry and detection, the analytic Raman-path
layer, an 18-level two-mode Lindblad solver, experiment drivers
(spectra, single-photon pulses, bichromatic entanglement and state
mapping, qubit coherence), and ion-localization models with fitting.
"""

from .atom import AtomData, LevelManifold, ZeemanState, cg_coefficient, lande_g, load_atom, zeeman_shift
from .cavity import CavityGeometry, DetectionChain, channel_efficiency, max_coupling, mode_waist
from .hilbert import HilbertLayout
from .lindblad import (
    DensityMatrix,
    Liouvillian,
    build_hamiltonian,
    build_liouvillian,
    evolve,
    expectation,
    photon_flux,
    steady_state,
)
from .polarization import CavityModeBasis, Polarization, dipole_projection
from .raman import (
    RamanLine,
    RamanPath,
    RamanSetting,
    effective_coupling,
    effective_decay,
    enumerate_paths,
    pair_strengths,
    resonance_detuning,
    select_optimal_pair,
)
from .system import CavityParams, LaserField, SystemModel, Tone, standard_model

__all__ = [
    "AtomData",
    "CavityGeometry",
    "CavityModeBasis",
    "CavityParams",
    "DensityMatrix",
    "DetectionChain",
    "HilbertLayout",
    "LaserField",
    "LevelManifold",
    "Liouvillian",
    "Polarization",
    "RamanLine",
    "RamanPath",
    "RamanSetting",
    "SystemModel",
    "Tone",
    "ZeemanState",
    "build_hamiltonian",
    "build_liouvillian",
    "cg_coefficient",
    "channel_efficiency",
    "dipole_projection",
    "effective_coupling",
    "effective_decay",
    "enumerate_paths",
    "evolve",
    "expectation",
    "lande_g",
    "load_atom",
    "max_coupling",
    "mode_waist",
    "pair_strengths",
    "photon_flux",
    "resonance_detuning",
    "select_optimal_pair",
    "standard_model",
    "steady_state",
    "zeeman_shift",
]

__version__ = "0.1.0"
