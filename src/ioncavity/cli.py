"""Command-line front end: config ingestion, dispatch, serialization.

Subcommands: plan, spectrum, sidebands, pulse, overlap, entangle, map,
rabi, ramsey, localize {fit,visibility,coupling,scan}, cavity {waist,g0},
reproduce {fig3a,...,fig10}. Each handler returns one `Result`, and
`write_result` writes its files. Exit codes: 0 success, 2 configuration
error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import localization
from .atom import load_atom
from .cavity import CavityGeometry, DetectionChain, max_coupling, mode_waist
from .constants import TWO_PI, mhz, to_mhz
from .errors import BinningMismatchError, ConfigError, IonCavityError
from .io_utils import config_hash, write_csv, write_json, write_svg_plot
from .polarization import Polarization
from .raman import RamanSetting, effective_coupling, effective_decay, enumerate_paths, select_optimal_pair
from .system import (
    beam_a_polarization,
    beam_b_polarization,
    gamma_pd_amplitude,
    pi_drive_polarization,
    standard_model,
)

# -- configuration schema ----------------------------------------------------

_NUM = (int, float)


def _schema():
    """Nested schema: key -> (type(s), default) or a nested dict."""
    return {
        "atom": {"overrides": (dict, {})},
        "b_field": {"gauss": (_NUM, 4.77), "orientation": (str, "perpendicular")},
        "cavity": {
            "length_mm": (_NUM, 19.96),
            "mirror_radius_mm": (_NUM, 10.02),
            "wavelength_nm": (_NUM, 854.0),
            "kappa_2pi_khz": (_NUM, 50.0),
            "detuning_2pi_mhz": (_NUM, -400.0),
            "coupling_scale": (_NUM, 1.0),
        },
        "detection": {
            "apd_efficiency": (list, [0.49, 0.46]),
            "path_transmission": (list, [0.87, 0.86]),
            "output_coupling": (_NUM, 0.19),
            "dark_counts_hz": (list, [33.1, 33.6]),
            "analysis_rotation_deg": (_NUM, 0.0),
            "fitted_path_efficiency": ((_NUM[0], _NUM[1], type(None)), None),
        },
        "lasers": {
            "drive": {
                "rabi_2pi_mhz": (_NUM, 88.0),
                "detuning_2pi_mhz": ((_NUM[0], _NUM[1], type(None)), None),
                "polarization": (str, "linear_perp_b"),
            },
            "repump_854": {"rabi_2pi_mhz": (_NUM, 5.0), "detuning_2pi_mhz": (_NUM, 0.0)},
            "repump_866": {"rabi_2pi_mhz": (_NUM, 5.0), "detuning_2pi_mhz": (_NUM, 0.0)},
        },
        "solver": {
            "n_max": (int, 1),
            "rtol": (_NUM, 1e-6),
            "max_steps": (int, 20_000_000),
            "check_unique": (bool, True),
        },
        "spectrum": {
            "window_2pi_mhz": (_NUM, 1.5),
            "points_per_line": (int, 13),
            "baseline_points": (int, 24),
            "dwell_us": (_NUM, 300.0),
        },
        "sidebands": {
            "nu_axial_2pi_mhz": (_NUM, 1.1),
            "nu_radial_2pi_mhz": (list, [3.0, 3.05]),
            "eta_axial": (_NUM, 0.12),
            "eta_radial": (_NUM, 0.05),
            "nbar": (list, [0.04, 0.1, 1.0]),
            "micromotion_freq_mhz": (_NUM, 23.4),
            "micromotion_index": (_NUM, 0.0),
            "target_line": (str, "D5/2,-5/2"),
            "window_2pi_mhz": (_NUM, 2.5),
            "points": (int, 101),
        },
        "pulse": {
            "duration_us": (_NUM, 80.0),
            "bin_ns": (_NUM, 200.0),
            "target_line": (str, "D5/2,-5/2"),
            "rabi_2pi_mhz": (_NUM, 106.0),
        },
        "overlap": {
            "rabi_2pi_mhz": (_NUM, 106.0),
            "duration_us": (_NUM, 40.0),
            "bin_ns": (_NUM, 400.0),
            "rabi_scale_grid": (list, [1.0]),
            "detuning_offset_2pi_mhz": (list, [0.0]),
        },
        "entangle": {
            "rabi_2pi_mhz": (_NUM, 25.0),
            "duration_us": (_NUM, 40.0),
            "relative_phase_rad": (_NUM, 0.0),
            "calibrate": (bool, True),
            "check_overlap": (bool, False),
            "t_points": (int, 200),
        },
        "map": {
            "rabi_2pi_mhz": (_NUM, 25.0),
            "duration_us": (_NUM, 40.0),
            "alpha_rad": (_NUM, math.pi / 4),
            "phi_rad": (_NUM, 0.0),
            "calibrate": (bool, True),
            "t_points": (int, 160),
        },
        "rabi": {
            "rabi_2pi_khz": (_NUM, 200.0),
            "eta": (list, [0.12, 0.05, 0.05]),
            "nbar": (list, [0.04, 0.1, 1.0]),
            "t_max_us": (_NUM, 50.0),
            "points": (int, 600),
        },
        "ramsey": {
            "tau_us": (_NUM, 250.0),
            "amplitude0": (_NUM, 0.97),
            "t_wait_us": (list, [10, 25, 50, 80, 120, 170, 230, 300, 380, 470]),
            "n_phases": (int, 24),
            "noise": (_NUM, 0.0),
        },
        "localize": {
            "fit": {
                "csv": ((str, type(None)), None),
                "wavelength_nm": (_NUM, 866.0),
                "theta_deg": (_NUM, 4.0),
                "waist_um": (_NUM, 13.2),
                "sigma_x_um": (_NUM, 4.7),
                "sigma_z_nm": (_NUM, 48.0),
                "span_um": (_NUM, 60.0),
                "points": (int, 61),
                "noise": (_NUM, 0.0),
            },
            "visibility": {"value": (_NUM, 0.98), "wavelength_nm": (_NUM, 854.0)},
            "coupling": {"sigma_x_um": (_NUM, 4.7), "waist_um": ((_NUM[0], _NUM[1], type(None)), None)},
            "scan": {
                "visibility": (_NUM, 0.98),
                "wavelength_nm": (_NUM, 854.0),
                "amplitude_hz": (_NUM, 4000.0),
                "background_hz": (_NUM, 33.0),
                "points": (int, 81),
            },
        },
        "notes": (dict, {}),
    }


def _walk_defaults(spec):
    out = {}
    for key, value in spec.items():
        if isinstance(value, dict):
            out[key] = _walk_defaults(value)
        else:
            _, default = value
            out[key] = default if not isinstance(default, (list, dict)) else json.loads(json.dumps(default))
    return out


def default_config() -> dict:
    return _walk_defaults(_schema())


def schema_description() -> dict:
    """JSON-serializable description of the config schema (types + defaults)."""

    def describe(spec):
        out = {}
        for key, value in spec.items():
            if isinstance(value, dict):
                out[key] = describe(value)
            else:
                types, default = value
                if not isinstance(types, tuple):
                    types = (types,)
                names = sorted(
                    {"number" if t in (int, float) else
                     ("null" if t is type(None) else t.__name__) for t in types}
                )
                out[key] = {"type": names, "default": default}
        return out

    return describe(_schema())


def _validate(cfg, spec, path, problems):
    for key in cfg:
        if key not in spec:
            problems.append(f"unknown key {'.'.join(path + [key])!r}")
    for key, rule in spec.items():
        if key not in cfg:
            continue
        value = cfg[key]
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                problems.append(f"{'.'.join(path + [key])} must be an object")
            else:
                _validate(value, rule, path + [key], problems)
        else:
            types, _ = rule
            if not isinstance(types, tuple):
                types = (types,)
            if isinstance(value, bool) and bool not in types:
                problems.append(f"{'.'.join(path + [key])} has wrong type bool")
            elif not isinstance(value, types):
                problems.append(
                    f"{'.'.join(path + [key])} has wrong type {type(value).__name__}"
                )


POLARIZATIONS = {
    "sigma_minus": beam_b_polarization,
    "sigma_plus": lambda: Polarization.sigma_plus(),
    "pi": pi_drive_polarization,
    "linear_perp_b": beam_a_polarization,
}

_ENUM_KEYS = {
    ("b_field", "orientation"): ("perpendicular", "parallel"),
    ("lasers", "drive", "polarization"): tuple(POLARIZATIONS),
}


def merge_config(user: dict | None) -> dict:
    """Defaults overlaid with the user's file; unknown keys rejected."""
    spec = _schema()
    problems: list[str] = []
    user = user or {}
    _validate(user, spec, [], problems)
    if problems:
        raise ConfigError("configuration failed validation", problems=problems)

    def merge(base, over):
        for key, value in over.items():
            if isinstance(value, dict) and isinstance(base.get(key), dict):
                merge(base[key], value)
            else:
                base[key] = value
        return base

    merged = merge(default_config(), user)
    for path, allowed in _ENUM_KEYS.items():
        node = merged
        for key in path[:-1]:
            node = node[key]
        if node[path[-1]] not in allowed:
            problems.append(f"{'.'.join(path)} must be one of {sorted(allowed)}")
    if problems:
        raise ConfigError("configuration failed validation", problems=problems)
    return merged


def load_config(path: str | None) -> dict:
    if path is None:
        return merge_config({})
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not raw:
        missing = ", ".join(sorted(_schema().keys() - {"notes"}))
        raise ConfigError(
            "config file must be a non-empty JSON object",
            problems=[f"expected top-level sections among: {missing}"],
        )
    return merge_config(raw)


# -- config -> physics objects -----------------------------------------------


def geometry_from_config(cfg) -> CavityGeometry:
    cav = cfg["cavity"]
    return CavityGeometry(
        length=cav["length_mm"] * 1e-3,
        mirror_radius=cav["mirror_radius_mm"] * 1e-3,
        wavelength=cav["wavelength_nm"] * 1e-9,
        kappa=TWO_PI * cav["kappa_2pi_khz"] * 1e3,
    )


def detection_from_config(cfg) -> DetectionChain:
    det = cfg["detection"]
    angle = math.radians(det["analysis_rotation_deg"])
    return DetectionChain.rotated(
        angle,
        apd_efficiency=tuple(det["apd_efficiency"]),
        path_transmission=tuple(det["path_transmission"]),
        output_coupling=det["output_coupling"],
        dark_counts=tuple(det["dark_counts_hz"]),
        fitted_path_efficiency=det["fitted_path_efficiency"],
    )


def model_from_config(cfg, drive_detuning=None, drive_rabi=None, polarization=None, repumps=True):
    drv = cfg["lasers"]["drive"]
    rabi = mhz(drive_rabi if drive_rabi is not None else drv["rabi_2pi_mhz"])
    detuning = drive_detuning
    if detuning is None:
        detuning = mhz(drv["detuning_2pi_mhz"]) if drv["detuning_2pi_mhz"] is not None else 0.0
    return standard_model(
        drive_rabi=rabi,
        drive_detuning=detuning,
        drive_polarization=(polarization or POLARIZATIONS[drv["polarization"]])(),
        delta_cav=mhz(cfg["cavity"]["detuning_2pi_mhz"]),
        b_gauss=cfg["b_field"]["gauss"],
        orientation=cfg["b_field"]["orientation"],
        repump_854_rabi=mhz(cfg["lasers"]["repump_854"]["rabi_2pi_mhz"]) if repumps else 0.0,
        repump_854_detuning=mhz(cfg["lasers"]["repump_854"]["detuning_2pi_mhz"]),
        repump_866_rabi=mhz(cfg["lasers"]["repump_866"]["rabi_2pi_mhz"]) if repumps else 0.0,
        repump_866_detuning=mhz(cfg["lasers"]["repump_866"]["detuning_2pi_mhz"]),
        coupling_scale=cfg["cavity"]["coupling_scale"],
        atom=load_atom(cfg["atom"]["overrides"] or None),
        detection=detection_from_config(cfg),
    )


def raman_setting_from_config(cfg, rabi_override=None, polarization=None) -> RamanSetting:
    drv = cfg["lasers"]["drive"]
    return RamanSetting(
        b_gauss=cfg["b_field"]["gauss"],
        orientation=cfg["b_field"]["orientation"],
        drive_polarization=(polarization or POLARIZATIONS[drv["polarization"]])(),
        drive_rabi=mhz(rabi_override if rabi_override is not None else drv["rabi_2pi_mhz"]),
        delta_cav=mhz(cfg["cavity"]["detuning_2pi_mhz"]),
        atom=load_atom(cfg["atom"]["overrides"] or None),
    )


def _line_by_label(lines, label):
    """The line from S1/2,-1/2, the state the ion is prepared in, to ``label``."""
    for line in lines:
        if line.initial.label == "S1/2,-1/2" and line.final.label == label:
            return line
    raise ConfigError(f"no Raman line leads from S1/2,-1/2 to state {label!r}")


# -- result records and the one writer ---------------------------------------


@dataclass
class Result:
    """Everything one command produced; `write_result` serializes it.

    ``message`` is the stdout line, with ``{out}`` standing for the output
    directory. ``tables`` maps CSV file names to (columns, rows),
    ``summaries`` JSON file names to payloads and ``texts`` text file names
    (``operators/...`` for --dump-operators) to their content. ``plot`` is
    (SVG file name, curves, x label, y label), drawn only with --plot.
    ``meta`` holds the keys written next to the config hash.
    """

    message: str
    tables: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)
    texts: dict = field(default_factory=dict)
    plot: tuple | None = None
    meta: dict = field(default_factory=dict)


def write_result(result: Result, cfg, out: Path, plot: bool):
    """Write every file of ``result`` into ``out`` with one meta, then print its message."""
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_sha256": config_hash(cfg), **result.meta}
    for name, (columns, rows) in result.tables.items():
        write_csv(out / name, columns, rows, meta)
    for name, payload in result.summaries.items():
        write_json(out / name, payload, meta)
    for name, text in result.texts.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, newline="\n")
    if plot and result.plot:
        name, curves, xlabel, ylabel = result.plot
        write_svg_plot(out / name, curves, xlabel, ylabel, meta=meta)
    print(result.message.replace("{out}", str(out)))


def _single_row(name, message, **values):
    """One value set, written as one JSON object and one CSV row."""
    return Result(
        message,
        tables={f"{name}.csv": (list(values), [tuple(values.values())])},
        summaries={f"{name}.json": values},
    )


# -- subcommand handlers -----------------------------------------------------

DETUNING = "drive detuning / 2pi [MHz]"
RATE = "count rate [1/s]"
# thermal occupations (axial, radial, radial) after Doppler cooling alone
DOPPLER_NBAR = (10.0, 5.0, 5.0)


def cmd_plan(cfg, args):
    setting = raman_setting_from_config(cfg)
    rows = [
        (ln.initial.label, ln.final.label, ln.channel, max(p.alpha for p in ln.paths),
         max(p.beta for p in ln.paths), ln.amplitude, to_mhz(ln.detuning))
        for ln in enumerate_paths(setting)
    ]
    header = f"{'initial':>12} {'final':>12} {'ch':>3} {'alpha':>7} {'beta':>7} {'a*b':>7} {'detuning/2pi [MHz]':>20}"
    table = [header, "-" * len(header)]
    for r in rows:
        table.append(f"{r[0]:>12} {r[1]:>12} {r[2]:>3} {r[3]:7.4f} {r[4]:7.4f} {r[5]:7.4f} {r[6]:20.4f}")
    table += ["", "ranked orthogonal-channel pairs (same initial state):"]
    for a, b in select_optimal_pair(setting)[:4]:
        table.append(
            f"  {a.initial.label}: {a.final.label}({a.channel}) {a.amplitude:.4f}"
            f"  &  {b.final.label}({b.channel}) {b.amplitude:.4f}"
        )
    g0 = max_coupling(geometry_from_config(cfg), gamma_pd_amplitude(setting.atom))
    omega_eff = effective_coupling(1.0, 1.0, setting.drive_rabi, -mhz(400.0), g0)
    gamma_eff = effective_decay(setting.drive_rabi, -mhz(400.0), setting.atom["P3/2"].decay_rate)
    columns = ["initial", "final", "channel", "alpha", "beta", "alpha_beta", "detuning_2pi_mhz"]
    keys = columns[:5] + ["strength", "detuning_2pi_mhz"]
    return Result(
        "\n".join(table),
        tables={"plan.csv": (columns, rows)},
        summaries={"plan.json": {
            "lines": [dict(zip(keys, r)) for r in rows],
            "effective_coupling_unit_2pi_mhz": to_mhz(omega_eff),
            "effective_decay_2pi_mhz": to_mhz(gamma_eff),
        }},
        texts={"plan.txt": "\n".join(table) + "\n"},
    )


def _spectrum_scan(cfg):
    from .experiments import raman_spectrum, spectrum_grid

    setting = raman_setting_from_config(cfg)
    lines = enumerate_paths(setting)
    spec_cfg = cfg["spectrum"]
    grid = spectrum_grid(
        lines,
        window=mhz(spec_cfg["window_2pi_mhz"]),
        points_per_line=spec_cfg["points_per_line"],
        baseline_points=spec_cfg["baseline_points"],
    )
    model = model_from_config(cfg, drive_detuning=float(grid[0]))
    scan = raman_spectrum(
        model,
        grid,
        dwell=spec_cfg["dwell_us"] * 1e-6,
        n_max=cfg["solver"]["n_max"],
        check_unique_first=cfg["solver"]["check_unique"],
    )
    return setting, lines, scan


def cmd_spectrum(cfg, args):
    from .experiments import annotate_peaks, find_peaks

    _, lines, scan = _spectrum_scan(cfg)
    det = to_mhz(scan.detunings)
    rows = [(d, rh, rv, int(c), res) for d, rh, rv, c, res in zip(det, *scan.rates, scan.converged, scan.residuals)]
    peaks = annotate_peaks(find_peaks(scan), lines)
    texts = {}
    if args.dump_operators:
        from .hilbert import HilbertLayout
        from .lindblad import operator_dump

        model = model_from_config(cfg, drive_detuning=float(scan.detunings[0]))
        layout = HilbertLayout(atom=model.atom, n_max=cfg["solver"]["n_max"])
        texts = {f"operators/{name}": text for name, text in operator_dump(model, layout).items()}
    summary = [
        {"detuning_2pi_mhz": to_mhz(p.detuning), "height_hz": p.height, "channel": p.channel,
         "fwhm_2pi_mhz": to_mhz(p.fwhm) if np.isfinite(p.fwhm) else None, "label": p.label}
        for p in peaks
    ]
    return Result(
        f"spectrum: {len(scan.detunings)} points, {len(peaks)} peaks -> {{out}}",
        tables={"spectrum.csv": (["detuning_2pi_mhz", "rate_h_hz", "rate_v_hz", "converged", "residual"], rows)},
        summaries={"spectrum.json": {"peaks": summary, "n_peaks": len(peaks)}},
        plot=("spectrum.svg", [(det, scan.rates[0], "H channel"), (det, scan.rates[1], "V channel")], DETUNING, RATE),
        texts=texts,
        meta={"n_max": cfg["solver"]["n_max"], "rtol": cfg["solver"]["rtol"]},
    )


def _sideband_scan(cfg):
    """Grid around the target line, its motion-free spectrum and the configured trap motion."""
    from .experiments import TrapMotion, raman_spectrum

    sb = cfg["sidebands"]
    line = _line_by_label(enumerate_paths(raman_setting_from_config(cfg)), sb["target_line"])
    window = mhz(sb["window_2pi_mhz"])
    grid = np.linspace(line.detuning - window, line.detuning + window, sb["points"])
    model = model_from_config(cfg, drive_detuning=float(grid[0]))
    base = raman_spectrum(model, grid, n_max=cfg["solver"]["n_max"],
                          check_unique_first=cfg["solver"]["check_unique"])
    nu_r = sb["nu_radial_2pi_mhz"]
    trap = TrapMotion(
        frequencies=(mhz(sb["nu_axial_2pi_mhz"]), mhz(nu_r[0]), mhz(nu_r[1])),
        lamb_dicke=(sb["eta_axial"], sb["eta_radial"], sb["eta_radial"]),
        nbar=tuple(sb["nbar"]),
        micromotion_frequency=mhz(sb["micromotion_freq_mhz"]),
        micromotion_index=sb["micromotion_index"],
    )
    return grid, base, trap


def cmd_sidebands(cfg, args):
    from .experiments import sideband_overlay

    sb = cfg["sidebands"]
    grid, base, trap = _sideband_scan(cfg)
    if sb["micromotion_index"] != 0.0:
        grid = np.unique(np.concatenate([grid, grid - trap.micromotion_frequency, grid + trap.micromotion_frequency]))
    overlay = sideband_overlay(base, trap, out_detunings=grid)
    det = to_mhz(overlay.detunings)
    return Result(
        f"sidebands: {len(overlay.detunings)} points -> {{out}}",
        tables={"sidebands.csv": (["detuning_2pi_mhz", "rate_h_hz", "rate_v_hz"], list(zip(det, *overlay.rates)))},
        summaries={"sidebands.json": {
            "target_line": sb["target_line"],
            "nbar": sb["nbar"],
            "lamb_dicke": list(trap.lamb_dicke),
            "micromotion_index": sb["micromotion_index"],
            "n_points": int(len(overlay.detunings)),
        }},
        plot=("sidebands.svg", [(det, overlay.rates[0], "H"), (det, overlay.rates[1], "V")], DETUNING, RATE),
    )


def cmd_cooling_comparison(cfg, args):
    """Fig. 6a: the target line's H spectrum after Doppler and after sideband cooling."""
    from .experiments import sideband_overlay

    _, base, trap = _sideband_scan(cfg)
    doppler = sideband_overlay(base, replace(trap, nbar=DOPPLER_NBAR))
    cooled = sideband_overlay(base, trap)
    det = to_mhz(doppler.detunings)
    return Result(
        "cooling comparison -> {out}",
        tables={"cooling_comparison.csv": (
            ["detuning_2pi_mhz", "doppler_h_hz", "cooled_h_hz"], list(zip(det, doppler.rates[0], cooled.rates[0]))
        )},
        plot=("cooling_comparison.svg", [(det, doppler.rates[0], "Doppler cooled"),
                                         (det, cooled.rates[0], "sideband cooled")], DETUNING, RATE),
    )


def _pulse(cfg, section, label, rabi, detuning_offset=0.0):
    """Photon pulse driven by sigma-minus light on the line from S1/2,-1/2 to ``label``.

    ``rabi`` and ``detuning_offset`` (from the line) are in 2pi x MHz; the duration
    and bins come from ``cfg[section]``, the tolerance and step budget from
    ``cfg["solver"]``. Returns (line, shape).
    """
    from .experiments import photon_pulse

    setting = raman_setting_from_config(cfg, rabi_override=rabi, polarization=beam_b_polarization)
    line = _line_by_label(enumerate_paths(setting), label)
    model = model_from_config(cfg, drive_detuning=line.detuning + mhz(detuning_offset), drive_rabi=rabi,
                              polarization=beam_b_polarization, repumps=False)
    s = cfg[section]
    try:
        shape = photon_pulse(model, s["duration_us"] * 1e-6, bin_width=s["bin_ns"] * 1e-9,
                             designated_channel=line.channel, rtol=cfg["solver"]["rtol"],
                             max_steps=cfg["solver"]["max_steps"])
    except BinningMismatchError as exc:
        raise ConfigError(f"{section}.duration_us must be a whole multiple of {section}.bin_ns: {exc}") from exc
    return line, shape


def _pulse_table(shape):
    return ["time_us", "prob_h", "prob_v"], list(zip(shape.bin_centers * 1e6, *shape.probabilities))


def cmd_pulse(cfg, args):
    p = cfg["pulse"]
    line, shape = _pulse(cfg, "pulse", p["target_line"], p["rabi_2pi_mhz"])
    t_us = shape.bin_centers * 1e6
    return Result(
        f"pulse: total efficiency {shape.total_efficiency*100:.2f}%, "
        f"leak {shape.leak_fraction*100:.2f}% -> {{out}}",
        tables={"pulse.csv": _pulse_table(shape)},
        summaries={"pulse.json": {
            "target_line": p["target_line"],
            "designated_channel": shape.designated_channel,
            "total_efficiency": shape.total_efficiency,
            "leak_fraction": shape.leak_fraction,
            "detuning_2pi_mhz": to_mhz(line.detuning),
        }},
        plot=("pulse.svg", [(t_us, shape.probabilities[0], "H"), (t_us, shape.probabilities[1], "V")],
              "time [us]", "detection probability per bin"),
        meta={"rtol": cfg["solver"]["rtol"], "bin_ns": p["bin_ns"]},
    )


def cmd_both_pulses(cfg, args):
    """Fig. 8: the H pulse on D5/2,-5/2 and the V pulse on D5/2,-3/2."""
    p = cfg["pulse"]
    tables, results, curves = {}, {}, []
    for label in ("D5/2,-5/2", "D5/2,-3/2"):
        _, shape = _pulse(cfg, "pulse", label, p["rabi_2pi_mhz"])
        tables[f"pulse_{label.replace('/', '').replace(',', '_')}.csv"] = _pulse_table(shape)
        results[label] = {
            "channel": shape.designated_channel,
            "total_efficiency": shape.total_efficiency,
            "leak_fraction": shape.leak_fraction,
        }
        idx = 0 if shape.designated_channel == "H" else 1
        curves.append((shape.bin_centers * 1e6, shape.probabilities[idx], label))
    return Result("pulse shapes -> {out}", tables=tables, summaries={"pulse.json": results},
                  plot=("pulse.svg", curves, "time [us]", "detection probability per bin"))


def cmd_overlap(cfg, args):
    from .experiments import pulse_overlap

    o = cfg["overlap"]
    _, ref = _pulse(cfg, "overlap", "D5/2,-5/2", o["rabi_2pi_mhz"])
    rows = []
    for scale in o["rabi_scale_grid"]:
        for doff in o["detuning_offset_2pi_mhz"]:
            _, shape = _pulse(cfg, "overlap", "D5/2,-3/2", o["rabi_2pi_mhz"] * scale, doff)
            rows.append((scale, doff, pulse_overlap(ref, shape), shape.total_efficiency))
    best = max(rows, key=lambda row: row[2])
    return Result(
        f"overlap: best {best[2]:.4f} at scale {best[0]}, offset {best[1]} MHz -> {{out}}",
        tables={"overlap.csv": (["rabi_scale", "detuning_offset_2pi_mhz", "overlap", "total_efficiency"], rows)},
        summaries={"overlap.json": {
            "best": {"rabi_scale": best[0], "detuning_offset_2pi_mhz": best[1], "overlap": best[2]}
        }},
    )


def _two_tone_options(cfg, section):
    """Keyword options of the two-tone driver from ``cfg[section]``."""
    s = cfg[section]
    return dict(
        rabi_tone1=mhz(s["rabi_2pi_mhz"]),
        duration=s["duration_us"] * 1e-6,
        b_gauss=cfg["b_field"]["gauss"],
        delta_cav=mhz(cfg["cavity"]["detuning_2pi_mhz"]),
        rtol=cfg["solver"]["rtol"],
        t_points=s["t_points"],
        calibrate=s["calibrate"],
    )


def _joint_result(report, name, message):
    joint = report.joint
    rows = [(i, j, joint[i, j].real, joint[i, j].imag) for i in range(joint.shape[0]) for j in range(joint.shape[1])]
    return Result(
        message,
        tables={f"{name}_state.csv": (["row", "col", "re", "im"], rows)},
        summaries={f"{name}.json": {
            "basis": list(report.basis),
            "emission_probability": report.emission_probability,
            "channel_probabilities": report.channel_probabilities,
            "fidelity": report.fidelity,
            "fidelity_max": report.fidelity_max,
            "coherence_phase_rad": report.coherence_phase,
            "target_phase_rad": report.target_phase,
            "calibration": report.calibration,
            "warnings": report.warnings,
        }},
    )


def cmd_entangle(cfg, args):
    from .experiments import entangle_bichromatic

    e = cfg["entangle"]
    report = entangle_bichromatic(relative_phase=e["relative_phase_rad"], check_overlap=e["check_overlap"],
                                  **_two_tone_options(cfg, "entangle"))
    return _joint_result(
        report, "entangle",
        f"entangle: emission {report.emission_probability:.3f}, fidelity(max) {report.fidelity_max:.4f} -> {{out}}",
    )


def cmd_map(cfg, args):
    from .experiments import map_state

    m = cfg["map"]
    report = map_state(m["alpha_rad"], m["phi_rad"], **_two_tone_options(cfg, "map"))
    return _joint_result(
        report, "map", f"map: emission {report.emission_probability:.3f}, fidelity {report.fidelity:.4f} -> {{out}}"
    )


def _rabi_grid(cfg):
    """Carrier Rabi frequency [rad/s] and the pulse-length grid [s]."""
    r = cfg["rabi"]
    return TWO_PI * r["rabi_2pi_khz"] * 1e3, np.linspace(0.0, r["t_max_us"] * 1e-6, r["points"])


def cmd_rabi(cfg, args):
    from .experiments import thermal_rabi

    r = cfg["rabi"]
    rabi0, t = _rabi_grid(cfg)
    prob = thermal_rabi(rabi0, r["eta"], r["nbar"], t)
    return Result(
        f"rabi: {len(t)} points -> {{out}}",
        tables={"rabi.csv": (["time_us", "excitation"], list(zip(t * 1e6, prob)))},
        summaries={"rabi.json": {"rabi_2pi_khz": r["rabi_2pi_khz"], "eta": r["eta"], "nbar": r["nbar"],
                                 "max_excitation": float(np.max(prob))}},
        plot=("rabi.svg", [(t * 1e6, prob, "")], "pulse length [us]", "D excitation"),
    )


def cmd_rabi_pair(cfg, args):
    """Fig. 9: carrier Rabi flops after Doppler and after sideband cooling."""
    from .experiments import thermal_rabi

    r = cfg["rabi"]
    rabi0, t = _rabi_grid(cfg)
    doppler = thermal_rabi(rabi0, r["eta"], DOPPLER_NBAR, t)
    cooled = thermal_rabi(rabi0, r["eta"], tuple(r["nbar"]), t)
    return Result(
        "rabi pair -> {out}",
        tables={"rabi.csv": (["time_us", "doppler", "sideband_cooled"], list(zip(t * 1e6, doppler, cooled)))},
        plot=("rabi.svg", [(t * 1e6, doppler, "Doppler"), (t * 1e6, cooled, "sideband cooled")],
              "pulse length [us]", "D excitation"),
    )


def cmd_ramsey(cfg, args):
    from .experiments import ramsey_coherence, ramsey_fringe

    r = cfg["ramsey"]
    rng = np.random.default_rng(args.seed)
    t_wait = np.asarray(r["t_wait_us"], dtype=float) * 1e-6
    phases = np.linspace(0.0, 2 * math.pi, r["n_phases"], endpoint=False)
    result = ramsey_coherence(t_wait, phases, r["tau_us"] * 1e-6, r["amplitude0"], noise=r["noise"], rng=rng)
    fringe = ramsey_fringe(phases, 50e-6, r["amplitude0"], r["tau_us"] * 1e-6)
    return Result(
        f"ramsey: tau = {result.coherence_time*1e6:.1f} us, A0 = {result.amplitude0:.3f} -> {{out}}",
        tables={
            "ramsey_amplitudes.csv": (["t_wait_us", "amplitude"], list(zip(t_wait * 1e6, result.amplitudes))),
            "ramsey_fringe_50us.csv": (["phase_rad", "excitation"], list(zip(phases, fringe))),
        },
        summaries={"ramsey.json": {
            "amplitude0": result.amplitude0,
            "coherence_time_us": result.coherence_time * 1e6,
            "stderr": result.stderr,
            "gaussian_cost": result.gaussian_cost,
            "exponential_params": result.exponential_params,
            "exponential_cost": result.exponential_cost,
        }},
        plot=("ramsey.svg", [(t_wait * 1e6, result.amplitudes, "fringe amplitude")],
              "waiting time [us]", "amplitude"),
    )


def cmd_localize_fit(cfg, args):
    """Fit the transverse waist scan: the configured CSV, or a synthetic one."""
    f = cfg["localize"]["fit"]
    lam = f["wavelength_nm"] * 1e-9
    theta = math.radians(f["theta_deg"])
    waist = f["waist_um"] * 1e-6
    tables = {}
    if f["csv"]:
        data = localization.ScanDataset.from_csv(f["csv"])
    else:
        rng = np.random.default_rng(args.seed)
        x = np.linspace(-f["span_um"] / 2, f["span_um"] / 2, f["points"]) * 1e-6
        truth = localization.waist_scan_model(
            [f["sigma_x_um"] * 1e-6, f["sigma_z_nm"] * 1e-9, 1000.0, 0.0, 30.0], x, lam, waist, theta
        )
        counts = truth * (1 + f["noise"] * rng.standard_normal(len(x))) if f["noise"] else truth
        data = localization.ScanDataset(position=x, counts=counts)
        tables["localize_scan.csv"] = (["position_um", "counts"], list(zip(x * 1e6, counts)))
    result = localization.fit_waist_scan(data, lam, theta, waist)
    fitted = localization.waist_scan_model(result.params, data.position, lam, waist, theta)
    x_um = data.position * 1e6
    return Result(
        f"fit: sigma_x = {result.params[0]*1e6:.3f} um, sigma_z = {result.params[1]*1e9:.2f} nm",
        tables=tables,
        summaries={"localize_fit.json": {
            "sigma_x_um": result.params[0] * 1e6,
            "sigma_z_nm": result.params[1] * 1e9,
            "amplitude": result.params[2],
            "center_um": result.params[3] * 1e6,
            "offset": result.params[4],
            "stderr": result.stderr,
            "cost": result.cost,
            "n_iterations": result.n_iterations,
        }},
        plot=("localize_fit.svg", [(x_um, data.counts, "data"), (x_um, fitted, "fit")], "position [um]", "counts"),
    )


def cmd_localize_visibility(cfg, args):
    v = cfg["localize"]["visibility"]["value"]
    lam = cfg["localize"]["visibility"]["wavelength_nm"] * 1e-9
    sigma = localization.visibility_to_sigma(v, lam)
    return _single_row("visibility", f"visibility {v} -> sigma_z = {sigma*1e9:.2f} nm",
                       visibility=v, wavelength_nm=lam * 1e9, sigma_z_nm=sigma * 1e9)


def cmd_localize_coupling(cfg, args):
    c = cfg["localize"]["coupling"]
    sx = c["sigma_x_um"] * 1e-6
    waist = c["waist_um"] * 1e-6 if c["waist_um"] is not None else mode_waist(geometry_from_config(cfg))
    factor = localization.coupling_reduction(sx, waist)
    return _single_row("coupling", f"coupling reduction g_obs/g0 = {factor:.4f}",
                       sigma_x_um=sx * 1e6, waist_um=waist * 1e6, g_obs_over_g0=factor)


def cmd_localize_scan(cfg, args):
    """Count rate across one standing-wave period of the cavity mode."""
    sc = cfg["localize"]["scan"]
    lam = sc["wavelength_nm"] * 1e-9
    z = np.linspace(0.0, lam, sc["points"])
    rate = localization.axial_scan_rate(z, sc["amplitude_hz"], sc["visibility"], lam, background=sc["background_hz"])
    sigma = localization.visibility_to_sigma(sc["visibility"], lam)
    return Result(
        f"axial scan: visibility {sc['visibility']} -> sigma_z {sigma*1e9:.1f} nm",
        tables={"axial_scan.csv": (["position_nm", "rate_hz"], list(zip(z * 1e9, rate)))},
        summaries={"axial_scan.json": {"visibility": sc["visibility"], "sigma_z_nm": sigma * 1e9}},
        plot=("axial_scan.svg", [(z * 1e9, rate, "")], "standing-wave position [nm]", "rate [1/s]"),
    )


def cmd_cavity_waist(cfg, args):
    geom = geometry_from_config(cfg)
    w0 = mode_waist(geom)
    return _single_row("waist", f"mode waist = {w0*1e6:.4f} um",
                       waist_um=w0 * 1e6, rayleigh_um=geom.rayleigh_range * 1e6)


def cmd_cavity_g0(cfg, args):
    atom = load_atom(cfg["atom"]["overrides"] or None)
    g0 = to_mhz(max_coupling(geometry_from_config(cfg), gamma_pd_amplitude(atom)))
    return _single_row("g0", f"g0 = 2pi x {g0:.4f} MHz", g0_2pi_mhz=g0)


# (command, action) -> handler; the action is None for commands without one
COMMANDS = {
    ("plan", None): cmd_plan,
    ("spectrum", None): cmd_spectrum,
    ("sidebands", None): cmd_sidebands,
    ("pulse", None): cmd_pulse,
    ("overlap", None): cmd_overlap,
    ("entangle", None): cmd_entangle,
    ("map", None): cmd_map,
    ("rabi", None): cmd_rabi,
    ("ramsey", None): cmd_ramsey,
    ("localize", "fit"): cmd_localize_fit,
    ("localize", "visibility"): cmd_localize_visibility,
    ("localize", "coupling"): cmd_localize_coupling,
    ("localize", "scan"): cmd_localize_scan,
    ("cavity", "waist"): cmd_cavity_waist,
    ("cavity", "g0"): cmd_cavity_g0,
}

# figure id -> handler, run on the bundled configs/<figure>.json
REPRODUCE_COMMAND = {
    "fig3a": cmd_localize_scan,
    "fig3b": cmd_localize_fit,
    "fig4": cmd_spectrum,
    "fig5": cmd_spectrum,
    "fig6a": cmd_cooling_comparison,
    "fig6b": cmd_sidebands,
    "fig8": cmd_both_pulses,
    "fig9": cmd_rabi_pair,
    "fig10": cmd_ramsey,
}


def _bundled_config(figure):
    path = resources.files("ioncavity.configs").joinpath(f"{figure}.json")
    if not path.is_file():
        raise ConfigError(f"unknown figure id {figure!r}")
    return json.loads(path.read_text())


def build_parser():
    parser = argparse.ArgumentParser(prog="ioncavity", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--plot", action="store_true", help="emit SVG plots")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--json-errors", action="store_true", help="machine-readable errors")
    parser.add_argument("--dump-operators", action="store_true",
                        help="dump Hamiltonian/collapse operators as sparse triplets")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(command for command, _ in COMMANDS):
        p = sub.add_parser(name)
        actions = [action for command, action in COMMANDS if command == name and action]
        if actions:
            p.add_argument("action", choices=actions)
    rep = sub.add_parser("reproduce")
    rep.add_argument("figure")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = Path(args.out)
        if args.command == "reproduce":
            if args.figure not in REPRODUCE_COMMAND:
                raise ConfigError(
                    f"unknown figure id {args.figure!r}",
                    problems=[f"choose one of {sorted(REPRODUCE_COMMAND)}"],
                )
            handler = REPRODUCE_COMMAND[args.figure]
            cfg = merge_config(_bundled_config(args.figure))
            out = out / args.figure
        else:
            handler = COMMANDS[args.command, getattr(args, "action", None)]
            cfg = load_config(args.config)
        write_result(handler(cfg, args), cfg, out, args.plot)
        return 0
    except ConfigError as exc:
        _report_error(args, exc, kind="config")
        return 2
    except IonCavityError as exc:
        _report_error(args, exc, kind="solver")
        return 3


def _report_error(args, exc, kind):
    if getattr(args, "json_errors", False):
        payload = {"error": type(exc).__name__, "kind": kind, "message": str(exc)}
        problems = getattr(exc, "problems", None)
        if problems:
            payload["problems"] = problems
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"{kind} error: {exc}", file=sys.stderr)
        for problem in getattr(exc, "problems", None) or []:
            print(f"  - {problem}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
