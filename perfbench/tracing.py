"""Span tracing of the calls into each ioncavity layer, from outside the package.

`install` replaces each traced public function, in every ioncavity module
that binds it, by a wrapper that records one span per call: name, start,
end, parent span, counters (DP5 steps, bytes written) and the size of the
Liouvillian a solver was given. Nothing under `src/` changes and nothing is recorded until
`install` is called; `uninstall` puts the original functions back.

Spans are kept in memory. `aggregate` turns the spans of one round into the
per-layer metrics; `write_jsonl` writes every span when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# span name -> (defining module, function) pairs traced under that name
TARGETS = {
    "cli.main": [("ioncavity.cli", "main")],
    "io_utils.write": [
        ("ioncavity.io_utils", "write_csv"),
        ("ioncavity.io_utils", "write_json"),
        ("ioncavity.io_utils", "write_svg_plot"),
    ],
    "raman.enumerate_paths": [("ioncavity.raman", "enumerate_paths")],
    "system.standard_model": [("ioncavity.system", "standard_model")],
    "lindblad.build_liouvillian": [("ioncavity.lindblad", "build_liouvillian")],
    "lindblad.shift_superoperator": [
        ("ioncavity.lindblad", "drive_detuning_shift_superoperator")
    ],
    "hilbert.superoperators": [
        ("ioncavity.hilbert", "commutator_superoperator"),
        ("ioncavity.hilbert", "dissipator_superoperator"),
        ("ioncavity.lindblad", "commutator_superoperator_nonherm"),
    ],
    "lindblad.steady_state": [("ioncavity.lindblad", "steady_state")],
    "lindblad.evolve": [("ioncavity.lindblad", "evolve")],
    "lindblad.observables": [
        ("ioncavity.lindblad", "photon_flux"),
        ("ioncavity.lindblad", "detected_mode_numbers"),
        ("ioncavity.lindblad", "state_population"),
        ("ioncavity.lindblad", "expectation"),
    ],
    "experiments.raman_spectrum": [("ioncavity.experiments", "raman_spectrum")],
    "experiments.photon_pulse": [("ioncavity.experiments", "photon_pulse")],
    "experiments.entangle_bichromatic": [
        ("ioncavity.experiments", "entangle_bichromatic")
    ],
    "experiments.find_peaks": [("ioncavity.experiments", "find_peaks")],
}

DRIVERS = ("raman_spectrum", "photon_pulse", "entangle_bichromatic")

# (metric, unit) in the order they are reported
PER_LAYER = [
    ("lindblad.steady_state.s", "s"),
    ("lindblad.steady_state.calls", "count"),
    ("lindblad.steady_state.ms_per_call", "ms"),
    ("lindblad.evolve.s", "s"),
    ("lindblad.evolve.calls", "count"),
    ("lindblad.evolve.steps", "count"),
    ("lindblad.evolve.rejected", "count"),
    ("lindblad.evolve.us_per_step", "us"),
    ("lindblad.evolve.static.s", "s"),
    ("lindblad.evolve.static.steps", "count"),
    ("lindblad.evolve.beat.s", "s"),
    ("lindblad.evolve.beat.steps", "count"),
    ("lindblad.liouville_dim", "count"),
    ("lindblad.liouvillian_nnz", "count"),
    ("lindblad.build_liouvillian.s", "s"),
    ("hilbert.superoperators.s", "s"),
    ("lindblad.observables.s", "s"),
    ("lindblad.observables.calls", "count"),
    *[(f"experiments.{d}.self_s", "s") for d in DRIVERS],
    ("experiments.find_peaks.s", "s"),
    ("raman.enumerate_paths.s", "s"),
    ("system.standard_model.s", "s"),
    ("cli.main.self_s", "s"),
    ("io_utils.write.s", "s"),
    ("io_utils.write.bytes", "B"),
    ("io_utils.write.files", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self.round = None

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n.startswith("ioncavity") and m]
        for name, targets in TARGETS.items():
            for module_name, attr in targets:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name,
                "function": fn.__name__,
                "round": self.round,
                "counters": {},
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            _count(span, args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path, header):
        with open(path, "w", newline="\n") as fh:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _count(span, args, kwargs, result):
    """Counters measured at the layer boundary, from arguments and results.

    ``counters`` add up over calls; ``size`` keeps the largest Liouvillian
    a solver call saw (its static part plus any time-dependent terms).
    """
    name, counters = span["name"], span["counters"]
    if name in ("lindblad.steady_state", "lindblad.evolve"):
        liouv = args[0] if args else kwargs["liouv"]
        span["size"] = {
            "liouville_dim": liouv.dim**2,
            "liouvillian_nnz": liouv.static_part.nnz + sum(op.nnz for op, _ in liouv.td_terms),
        }
        if name == "lindblad.evolve":
            counters["steps"] = result.n_steps
            counters["rejected"] = result.n_rejected
            span["generator"] = "beat" if liouv.td_terms else "static"
    elif name == "io_utils.write":
        counters["bytes"] = os.path.getsize(result)


def aggregate(spans):
    """Per-layer metrics of one round's spans (trace.overhead_s excluded).

    A span nested inside a span of the same name (an observable calling
    another) is counted once, through its outermost ancestor. Self time is
    a span's duration minus the durations of its direct children. Evolve
    calls are also split by generator: static, or with beat terms.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def outermost(s):
        parent = by_id.get(s["parent"])
        while parent is not None:
            if parent["name"] == s["name"]:
                return False
            parent = by_id.get(parent["parent"])
        return True

    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    counts, size = defaultdict(Counter), Counter()
    for s in filter(outermost, spans):
        duration = s["end"] - s["start"]
        self_time[s["name"]] += duration - child_time[s["id"]]
        for key in (s["name"], f"{s['name']}.{s['generator']}" if "generator" in s else None):
            if key:
                total[key] += duration
                calls[key] += 1
                counts[key].update(s["counters"])
        for key, value in s.get("size", {}).items():
            size[key] = max(size[key], value)

    ss, ev = "lindblad.steady_state", "lindblad.evolve"
    attempted_steps = counts[ev]["steps"] + counts[ev]["rejected"]
    out = {
        f"{ss}.s": total[ss],
        f"{ss}.calls": calls[ss],
        f"{ss}.ms_per_call": 1e3 * total[ss] / calls[ss] if calls[ss] else 0.0,
        f"{ev}.s": total[ev],
        f"{ev}.calls": calls[ev],
        f"{ev}.steps": counts[ev]["steps"],
        f"{ev}.rejected": counts[ev]["rejected"],
        f"{ev}.us_per_step": 1e6 * total[ev] / attempted_steps if attempted_steps else 0.0,
        **{f"{ev}.{g}.s": total[f"{ev}.{g}"] for g in ("static", "beat")},
        **{f"{ev}.{g}.steps": counts[f"{ev}.{g}"]["steps"] for g in ("static", "beat")},
        "lindblad.liouville_dim": size["liouville_dim"],
        "lindblad.liouvillian_nnz": size["liouvillian_nnz"],
        "cli.main.self_s": self_time["cli.main"],
        "io_utils.write.bytes": counts["io_utils.write"]["bytes"],
        "io_utils.write.files": calls["io_utils.write"],
        "lindblad.observables.calls": calls["lindblad.observables"],
    }
    for name in (
        "lindblad.build_liouvillian", "hilbert.superoperators", "lindblad.observables",
        "experiments.find_peaks", "raman.enumerate_paths", "system.standard_model", "io_utils.write",
    ):
        out[f"{name}.s"] = total[name]
    for d in DRIVERS:
        out[f"experiments.{d}.self_s"] = self_time[f"experiments.{d}"]
    return out
