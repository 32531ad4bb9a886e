"""The benchmark's tracer still finds what it wraps and reads.

`perfbench/tracing.py` wraps functions by (module, name) and reads
`dim`, `static_part` and `td_terms` off the Liouvillian of every
`steady_state` and `evolve` call, and `n_steps` off each trajectory. A
function the solvers no longer call (the superoperator builders the
one-pass assembly replaced) must stay importable for it. The tracer is
imported, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from ioncavity.constants import mhz
from ioncavity.lindblad import build_liouvillian, evolve, steady_state
from ioncavity.system import Tone, beam_b_polarization, standard_model

from conftest import with_drive_tones

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_target_resolves():
    for name, targets in tracing.TARGETS.items():
        for module_name, attr in targets:
            assert callable(getattr(importlib.import_module(module_name), attr)), (name, attr)


def test_evolve_counters_read_from_a_result(atom, layout):
    d = -mhz(400.0)
    common = dict(drive_rabi=mhz(25.0), drive_detuning=d,
                  drive_polarization=beam_b_polarization(), atom=atom)
    beat = with_drive_tones(
        standard_model(**common), (Tone(rabi=mhz(25.0), detuning=d), Tone(rabi=mhz(12.0), detuning=d + mhz(8.0))),
    )
    rho0 = layout.basis_state(atom.state("S1/2", -0.5))
    for model, generator, n_td in ((standard_model(**common), "static", 0), (beat, "beat", 2)):
        liouv = build_liouvillian(model, layout)
        assert len(liouv.td_terms) == n_td
        traj = evolve(liouv, rho0, np.linspace(0.0, 2e-8, 3), rtol=1e-6)
        span = {"name": "lindblad.evolve", "counters": {}}
        tracing._count(span, (liouv, rho0), {}, traj)
        assert span["counters"] == {"steps": traj.n_steps, "rejected": traj.n_rejected}
        assert span["generator"] == generator
        assert span["size"]["liouville_dim"] == layout.dim**2
        nnz = liouv.static_part.nnz + sum(op.nnz for op, _ in liouv.td_terms)
        assert span["size"]["liouvillian_nnz"] == nnz > 0

    liouv = build_liouvillian(standard_model(**common), layout)
    span = {"name": "lindblad.steady_state", "counters": {}}
    tracing._count(span, (liouv,), {"check_unique": False}, steady_state(liouv, check_unique=False))
    assert span["counters"] == {}
    assert span["size"] == {"liouville_dim": layout.dim**2, "liouvillian_nnz": liouv.static_part.nnz}
