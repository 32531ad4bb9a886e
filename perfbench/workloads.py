"""The benchmark's two workloads: their inputs, operations and checks.

Each workload runs whole rounds of the same operations. `run_op` returns
the operation's output; `check` returns the problems found in one round's
outputs (an empty list per operation that passed); `same` compares two
rounds' outputs exactly. `known_faults` names the operations that fail on
every run because of a known fault in the program (see the README); any
other failing operation makes the run incorrect.

The timed inputs are the paper's fixed configurations and do not depend on
the seed, so that the spread between seeds measures the machine, not the
inputs. The seed chooses which outputs are cross-checked against the dense
references and the order of operations within a round.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

from ioncavity import cli, experiments
from ioncavity.constants import TWO_PI, to_mhz
from ioncavity.hilbert import HilbertLayout
from ioncavity.io_utils import format_number
from ioncavity.lindblad import build_liouvillian
from ioncavity.raman import enumerate_paths
from ioncavity.system import beam_b_polarization

import reference

REL_TOL_STEADY = 1e-7
REL_TOL_PULSE = 1e-6


def _files(directory):
    directory = Path(directory)
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _read_csv(path):
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class Spectrum:
    """`ioncavity reproduce fig4`: the complete beam-A spectrum (steady state)."""

    name = "spectrum"
    known_faults = frozenset()
    n_points = 154
    n_peaks = 10
    n_reference_peaks = 2

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.rng = random.Random(seed)
        self.operations = ["fig4"]
        self.cfg = cli.merge_config(cli._bundled_config("fig4"))

    def setup_args(self):
        return ["--figure", "fig4"]

    def run_op(self, op, k):
        out = self.out_dir / f"round{k}"
        code = cli.main(["--out", str(out), "--seed", str(self.seed), "reproduce", "fig4"])
        if code != 0:
            raise RuntimeError(f"ioncavity reproduce fig4 exited with {code}")
        return out / "fig4"

    def same(self, op, a, b):
        return _files(a) == _files(b)

    def read(self, directory):
        header, rows = _read_csv(directory / "spectrum.csv")
        table = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        summary = json.loads((directory / "spectrum.json").read_text())
        return table, summary

    def check(self, outputs):
        return {op: self.check_outputs(*self.read(out)) for op, out in outputs.items()}

    def check_outputs(self, table, summary):
        problems = []
        cfg = self.cfg
        lines = enumerate_paths(cli.raman_setting_from_config(cfg))
        spec = cfg["spectrum"]
        grid = experiments.spectrum_grid(
            lines,
            window=TWO_PI * spec["window_2pi_mhz"] * 1e6,
            points_per_line=spec["points_per_line"],
            baseline_points=spec["baseline_points"],
        )
        if len(table["detuning_2pi_mhz"]) != self.n_points or len(grid) != self.n_points:
            return [f"expected {self.n_points} points, got {len(table['detuning_2pi_mhz'])}"]
        if table["detuning_2pi_mhz"] != [format_number(float(x)) for x in to_mhz(grid)]:
            problems.append("detuning column differs from the spectrum grid")
        if any(c != "1" for c in table["converged"]):
            problems.append("not every point converged")
        rates = np.array([[float(x) for x in table["rate_h_hz"]], [float(x) for x in table["rate_v_hz"]]])

        peaks = summary["peaks"]
        if len(peaks) != self.n_peaks or summary["n_peaks"] != self.n_peaks:
            problems.append(f"expected {self.n_peaks} peaks, found {len(peaks)}")
        for p in peaks:
            half = 0.5 * (p["fwhm_2pi_mhz"] or 0.0)
            near = [
                ln for ln in lines
                if ln.channel == p["channel"] and abs(to_mhz(ln.detuning) - p["detuning_2pi_mhz"]) <= half
            ]
            if not near:
                problems.append(
                    f"peak at {p['detuning_2pi_mhz']:.4f} MHz ({p['channel']}) is not within "
                    "half its FWHM of a line on its channel"
                )
        if len(peaks) < self.n_reference_peaks:
            return problems

        model0 = cli.model_from_config(cfg, drive_detuning=float(grid[0]))
        layout = HilbertLayout(atom=model0.atom, n_max=cfg["solver"]["n_max"])
        chosen = self.rng.sample(range(len(peaks)), self.n_reference_peaks)
        for pi in sorted(chosen):
            target = TWO_PI * 1e6 * peaks[pi]["detuning_2pi_mhz"]
            i = int(np.argmin(np.abs(grid - target)))
            model = model0.replace_drive(detuning=float(grid[i]))
            ref, null_dim = reference.steady_state_rates(
                build_liouvillian(model, layout), model, layout.n_max
            )
            if null_dim != 1:
                problems.append(f"reference null space at point {i} has dimension {null_dim}")
                continue
            for ci, ch in enumerate("HV"):
                err = _rel(rates[ci, i], ref[ci])
                if err > REL_TOL_STEADY:
                    problems.append(
                        f"{ch} rate at {to_mhz(grid[i]):.6f} MHz is {rates[ci, i]:.9g}, "
                        f"the dense null-space reference {ref[ci]:.9g} (rel. {err:.2e})"
                    )
        return problems


class Pulse:
    """`ioncavity --config ... pulse` on both target transitions (static DP5)."""

    duration_us = 2.0
    bin_ns = 200.0
    rabi_mhz = 106.0
    targets = {"H": "D5/2,-5/2", "V": "D5/2,-3/2"}
    min_share = 0.97

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.operations = sorted(self.targets)
        random.Random(seed).shuffle(self.operations)
        inputs = self.out_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.config_paths = {}
        for op, target in self.targets.items():
            user = {
                "lasers": {
                    "drive": {"polarization": "sigma_minus", "rabi_2pi_mhz": self.rabi_mhz},
                    "repump_854": {"rabi_2pi_mhz": 0.0},
                    "repump_866": {"rabi_2pi_mhz": 0.0},
                },
                "pulse": {
                    "duration_us": self.duration_us,
                    "bin_ns": self.bin_ns,
                    "target_line": target,
                    "rabi_2pi_mhz": self.rabi_mhz,
                },
            }
            path = inputs / f"pulse_{op}.json"
            path.write_text(json.dumps(user, indent=2, sort_keys=True) + "\n")
            self.config_paths[op] = path

    def run_op(self, op, k):
        out = self.out_dir / f"round{k}" / op
        code = cli.main(
            ["--config", str(self.config_paths[op]), "--out", str(out), "--seed", str(self.seed), "pulse"]
        )
        if code != 0:
            raise RuntimeError(f"ioncavity pulse exited with {code}")
        return out

    def same(self, a, b):
        return _files(a) == _files(b)

    def read(self, directory):
        header, rows = _read_csv(directory / "pulse.csv")
        probs = np.array([[float(r[header.index(c)]) for r in rows] for c in ("prob_h", "prob_v")])
        summary = json.loads((directory / "pulse.json").read_text())
        return probs, summary

    def expected(self, op):
        """The S1/2,-1/2 line to the target state, and its model."""
        cfg = cli.load_config(str(self.config_paths[op]))
        setting = cli.raman_setting_from_config(cfg)
        line = next(
            ln for ln in enumerate_paths(setting)
            if ln.initial.label == "S1/2,-1/2" and ln.final.label == self.targets[op]
        )
        model = cli.model_from_config(
            cfg,
            drive_detuning=line.detuning,
            drive_rabi=self.rabi_mhz,
            polarization=beam_b_polarization,
            repumps=False,
        )
        return cfg, line, model

    def reference_efficiencies(self, op):
        cfg, line, model = self.expected(op)
        layout = HilbertLayout(atom=model.atom, n_max=cfg["solver"]["n_max"])
        rho0 = np.zeros((layout.dim, layout.dim), dtype=complex)
        i = layout.index(model.atom.state("S1/2", -0.5), 0, 0)
        rho0[i, i] = 1.0
        return line.channel, reference.pulse_efficiencies(
            build_liouvillian(model, layout),
            model,
            rho0,
            self.duration_us * 1e-6,
            self.bin_ns * 1e-9,
            2,
            layout.n_max,
        )

    def check(self, outputs):
        return {
            op: self.check_outputs(*self.read(out), *self.reference_efficiencies(op))
            for op, out in outputs.items()
        }

    def check_outputs(self, probs, summary, channel, ref):
        problems = []
        if summary["designated_channel"] != channel:
            problems.append(
                f"designated channel {summary['designated_channel']}, but the S1/2,-1/2 "
                f"line to {summary['target_line']} emits {channel}"
            )
        totals = probs.sum(axis=1)
        share = totals["HV".index(channel)] / max(totals.sum(), 1e-300)
        if not share > self.min_share:
            problems.append(f"share of detections in {channel} is {share:.4f} <= {self.min_share}")
        for ci, ch in enumerate("HV"):
            err = _rel(totals[ci], ref[ci])
            if err > REL_TOL_PULSE:
                problems.append(
                    f"{ch} efficiency {totals[ci]:.9g}, exact-propagator reference "
                    f"{ref[ci]:.9g} (rel. {err:.2e})"
                )
        return problems


class Entangle:
    """`experiments.entangle_bichromatic`, calibrated, then rerun at phase 0.7."""

    rabi_mhz = 25.0
    duration_us = 1.0
    phase_step = 0.7
    max_imbalance = 0.02
    phase_tol = 0.02
    max_fidelity_drift = 5e-3
    tol = 1e-12

    def __init__(self):
        self.operations = ["base", "rerun"]
        self._base = None

    def run_op(self, op, k):
        kwargs = dict(rabi_tone1=TWO_PI * self.rabi_mhz * 1e6, duration=self.duration_us * 1e-6)
        if op == "base":
            self._base = experiments.entangle_bichromatic(**kwargs)
            return self._base
        return experiments.entangle_bichromatic(
            **kwargs, relative_phase=self.phase_step, calibration=self._base.calibration
        )

    @staticmethod
    def _record(report):
        return (
            report.joint.tobytes(),
            report.emission_probability,
            tuple(sorted(report.channel_probabilities.items())),
            report.fidelity,
            report.fidelity_max,
            report.coherence_phase,
            tuple(sorted(report.calibration.items())),
        )

    def same(self, a, b):
        return self._record(a) == self._record(b)

    def check(self, outputs):
        found = {}
        if "base" in outputs:
            found["base"] = self.check_report(outputs["base"])
        if "rerun" in outputs:
            found["rerun"] = (
                self.check_report(outputs["rerun"], outputs["base"])
                if "base" in outputs
                else ["no base run to compare the phase step with"]
            )
        return found

    def check_report(self, report, base=None):
        problems = []
        j = report.joint
        if np.max(np.abs(j - j.conj().T)) > self.tol:
            problems.append("joint state is not Hermitian")
        if np.linalg.eigvalsh(0.5 * (j + j.conj().T)).min() < -self.tol:
            problems.append("joint state is not positive semidefinite")
        if abs(np.trace(j) - 1.0) > self.tol:
            problems.append(f"joint state has trace {np.trace(j)!r}")
        p_h, p_v = report.channel_probabilities["H"], report.channel_probabilities["V"]
        imbalance = abs(p_h - p_v) / (p_h + p_v)
        if imbalance > self.max_imbalance:
            problems.append(f"H/V imbalance {imbalance:.4f} > {self.max_imbalance}")
        if base is not None:
            step = (report.coherence_phase - base.coherence_phase + math.pi) % (2 * math.pi) - math.pi
            if abs(step - self.phase_step) > self.phase_tol:
                problems.append(
                    f"coherence phase steps by {step:.4f} rad, not {self.phase_step} +- {self.phase_tol}"
                )
            drift = abs(report.fidelity_max - base.fidelity_max)
            if drift > self.max_fidelity_drift:
                problems.append(f"fidelity_max drifts by {drift:.2e} > {self.max_fidelity_drift}")
        return problems


class Dynamics:
    """Both photon pulses and the entangle pair, in one round (DP5).

    The pulses run `ioncavity --config ... pulse` (static generator); the
    entangle pair calls `experiments.entangle_bichromatic` (beat terms).
    Operations are named `<part>_<op>`, e.g. `pulse_V` or `entangle_rerun`.
    """

    name = "dynamics"
    # The CLI picks the Raman line by final state alone; for D5/2,-3/2 it
    # drives the S1/2,+1/2 line (H) instead of the S1/2,-1/2 line (V).
    known_faults = frozenset({"pulse_V"})

    def __init__(self, seed, out_dir):
        self.parts = {"pulse": Pulse(seed, out_dir), "entangle": Entangle()}
        self.operations = [f"{n}_{op}" for n, part in self.parts.items() for op in part.operations]

    def setup_args(self):
        return ["--config", str(self.parts["pulse"].config_paths["H"])]

    def _part(self, op):
        name, sub = op.split("_", 1)
        return self.parts[name], sub

    def run_op(self, op, k):
        part, sub = self._part(op)
        return part.run_op(sub, k)

    def same(self, op, a, b):
        return self._part(op)[0].same(a, b)

    def check(self, outputs):
        found = {}
        for name, part in self.parts.items():
            mine = {op.split("_", 1)[1]: out for op, out in outputs.items() if op.startswith(name + "_")}
            found.update({f"{name}_{op}": problems for op, problems in part.check(mine).items()})
        return found


WORKLOADS = {w.name: w for w in (Spectrum, Dynamics)}
