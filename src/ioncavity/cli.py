"""Command-line front end: config ingestion, dispatch, serialization.

Subcommands: plan, spectrum, sidebands, pulse, overlap, entangle, map,
rabi, ramsey, localize {fit,visibility,coupling,scan}, cavity {waist,g0},
reproduce {fig3a,...,fig10}. Exit codes: 0 success, 2 configuration
error (also --plot without matplotlib), 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import localization
from .atom import load_atom
from .cavity import CavityGeometry, DetectionChain, max_coupling, mode_waist
from .constants import TWO_PI, mhz, to_mhz
from .errors import ConfigError, IonCavityError
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


_ENUM_KEYS = {
    ("b_field", "orientation"): ("perpendicular", "parallel"),
    ("lasers", "drive", "polarization"): ("sigma_minus", "sigma_plus", "pi", "linear_perp_b"),
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

POLARIZATIONS = {
    "sigma_minus": beam_b_polarization,
    "sigma_plus": lambda: Polarization.sigma_plus(),
    "pi": pi_drive_polarization,
    "linear_perp_b": beam_a_polarization,
}


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
    pol_name = drv["polarization"]
    if pol_name not in POLARIZATIONS:
        raise ConfigError(
            f"unknown drive polarization {pol_name!r}",
            problems=[f"choose one of {sorted(POLARIZATIONS)}"],
        )
    rabi = mhz(drive_rabi if drive_rabi is not None else drv["rabi_2pi_mhz"])
    detuning = drive_detuning
    if detuning is None:
        detuning = mhz(drv["detuning_2pi_mhz"]) if drv["detuning_2pi_mhz"] is not None else 0.0
    return standard_model(
        drive_rabi=rabi,
        drive_detuning=detuning,
        drive_polarization=(polarization or POLARIZATIONS[pol_name])(),
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


# -- subcommand handlers -----------------------------------------------------


def cmd_plan(cfg, out, args):
    setting = raman_setting_from_config(cfg)
    lines = enumerate_paths(setting)
    meta = {"config_sha256": config_hash(cfg)}
    rows = [
        (
            ln.initial.label,
            ln.final.label,
            ln.channel,
            max(p.alpha for p in ln.paths),
            max(p.beta for p in ln.paths),
            ln.amplitude,
            to_mhz(ln.detuning),
        )
        for ln in lines
    ]
    write_csv(
        out / "plan.csv",
        ["initial", "final", "channel", "alpha", "beta", "alpha_beta", "detuning_2pi_mhz"],
        rows,
        meta,
    )
    header = f"{'initial':>12} {'final':>12} {'ch':>3} {'alpha':>7} {'beta':>7} {'a*b':>7} {'detuning/2pi [MHz]':>20}"
    table = [header, "-" * len(header)]
    for r in rows:
        table.append(f"{r[0]:>12} {r[1]:>12} {r[2]:>3} {r[3]:7.4f} {r[4]:7.4f} {r[5]:7.4f} {r[6]:20.4f}")
    pairs = select_optimal_pair(setting)
    table.append("")
    table.append("ranked orthogonal-channel pairs (same initial state):")
    for a, b in pairs[:4]:
        table.append(
            f"  {a.initial.label}: {a.final.label}({a.channel}) {a.amplitude:.4f}"
            f"  &  {b.final.label}({b.channel}) {b.amplitude:.4f}"
        )
    (out / "plan.txt").write_text("\n".join(table) + "\n", newline="\n")
    print("\n".join(table))
    g0 = max_coupling(geometry_from_config(cfg), gamma_pd_amplitude(setting.atom))
    omega_eff = effective_coupling(1.0, 1.0, setting.drive_rabi, -mhz(400.0), g0)
    gamma_eff = effective_decay(setting.drive_rabi, -mhz(400.0), setting.atom["P3/2"].decay_rate)
    write_json(
        out / "plan.json",
        {
            "lines": [
                {
                    "initial": r[0],
                    "final": r[1],
                    "channel": r[2],
                    "alpha": r[3],
                    "beta": r[4],
                    "strength": r[5],
                    "detuning_2pi_mhz": r[6],
                }
                for r in rows
            ],
            "effective_coupling_unit_2pi_mhz": to_mhz(omega_eff),
            "effective_decay_2pi_mhz": to_mhz(gamma_eff),
        },
        meta,
    )
    return {"lines": rows}


def _spectrum_scan(cfg, args, model=None):
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
    model = model or model_from_config(cfg, drive_detuning=float(grid[0]))
    scan = raman_spectrum(
        model,
        grid,
        dwell=spec_cfg["dwell_us"] * 1e-6,
        n_max=cfg["solver"]["n_max"],
        jobs=args.jobs,
        check_unique_first=cfg["solver"]["check_unique"],
    )
    return setting, lines, scan


def cmd_spectrum(cfg, out, args):
    from .experiments import annotate_peaks, find_peaks

    setting, lines, scan = _spectrum_scan(cfg, args)
    meta = {
        "config_sha256": config_hash(cfg),
        "n_max": cfg["solver"]["n_max"],
        "rtol": cfg["solver"]["rtol"],
    }
    rows = [
        (to_mhz(d), rh, rv, int(c), res)
        for d, rh, rv, c, res in zip(
            scan.detunings, scan.rates[0], scan.rates[1], scan.converged, scan.residuals
        )
    ]
    write_csv(
        out / "spectrum.csv",
        ["detuning_2pi_mhz", "rate_h_hz", "rate_v_hz", "converged", "residual"],
        rows,
        meta,
    )
    peaks = annotate_peaks(find_peaks(scan), lines)
    write_json(
        out / "spectrum.json",
        {
            "peaks": [
                {
                    "detuning_2pi_mhz": to_mhz(p.detuning),
                    "height_hz": p.height,
                    "channel": p.channel,
                    "fwhm_2pi_mhz": to_mhz(p.fwhm) if np.isfinite(p.fwhm) else None,
                    "label": p.label,
                }
                for p in peaks
            ],
            "n_peaks": len(peaks),
        },
        meta,
    )
    if args.plot:
        write_svg_plot(
            out / "spectrum.svg",
            [
                (to_mhz(scan.detunings), scan.rates[0], "H channel"),
                (to_mhz(scan.detunings), scan.rates[1], "V channel"),
            ],
            "drive detuning / 2pi [MHz]",
            "count rate [1/s]",
            meta=meta,
        )
    if args.dump_operators:
        from .hilbert import HilbertLayout
        from .lindblad import build_liouvillian

        model = model_from_config(cfg, drive_detuning=float(scan.detunings[0]))
        layout = HilbertLayout(atom=model.atom, n_max=cfg["solver"]["n_max"])
        build_liouvillian(model, layout).dump_operators(out / "operators")
    print(f"spectrum: {len(scan.detunings)} points, {len(peaks)} peaks -> {out}")
    return {"n_peaks": len(peaks)}


def cmd_sidebands(cfg, out, args):
    from .experiments import TrapMotion, raman_spectrum, sideband_overlay

    sb = cfg["sidebands"]
    setting = raman_setting_from_config(cfg)
    lines = enumerate_paths(setting)
    line = _line_by_label(lines, sb["target_line"])
    window = mhz(sb["window_2pi_mhz"])
    grid = np.linspace(line.detuning - window, line.detuning + window, sb["points"])
    model = model_from_config(cfg, drive_detuning=float(grid[0]))
    base = raman_spectrum(model, grid, n_max=cfg["solver"]["n_max"], jobs=args.jobs,
                          check_unique_first=cfg["solver"]["check_unique"])
    nu_r = sb["nu_radial_2pi_mhz"]
    trap = TrapMotion(
        frequencies=(mhz(sb["nu_axial_2pi_mhz"]), mhz(nu_r[0]), mhz(nu_r[1])),
        lamb_dicke=(sb["eta_axial"], sb["eta_radial"], sb["eta_radial"]),
        nbar=tuple(sb["nbar"]),
        micromotion_frequency=mhz(sb["micromotion_freq_mhz"]),
        micromotion_index=sb["micromotion_index"],
    )
    if sb["micromotion_index"] != 0.0:
        out_grid = np.unique(
            np.concatenate(
                [grid, grid - trap.micromotion_frequency, grid + trap.micromotion_frequency]
            )
        )
    else:
        out_grid = grid
    overlay = sideband_overlay(base, trap, out_detunings=out_grid)
    meta = {"config_sha256": config_hash(cfg)}
    write_csv(
        out / "sidebands.csv",
        ["detuning_2pi_mhz", "rate_h_hz", "rate_v_hz"],
        [(to_mhz(d), rh, rv) for d, rh, rv in zip(overlay.detunings, overlay.rates[0], overlay.rates[1])],
        meta,
    )
    write_json(
        out / "sidebands.json",
        {
            "target_line": sb["target_line"],
            "nbar": sb["nbar"],
            "lamb_dicke": [sb["eta_axial"], sb["eta_radial"], sb["eta_radial"]],
            "micromotion_index": sb["micromotion_index"],
            "n_points": int(len(overlay.detunings)),
        },
        meta,
    )
    if args.plot:
        write_svg_plot(
            out / "sidebands.svg",
            [
                (to_mhz(overlay.detunings), overlay.rates[0], "H"),
                (to_mhz(overlay.detunings), overlay.rates[1], "V"),
            ],
            "drive detuning / 2pi [MHz]",
            "count rate [1/s]",
            meta=meta,
        )
    print(f"sidebands: {len(overlay.detunings)} points -> {out}")
    return {}


def _pulse_for_line(cfg, label, rabi_mhz_value, duration, bin_width, rtol, max_steps=20_000_000):
    from .experiments import photon_pulse

    setting = raman_setting_from_config(
        cfg, rabi_override=rabi_mhz_value, polarization=beam_b_polarization
    )
    line = _line_by_label(enumerate_paths(setting), label)
    channel = line.channel
    model = model_from_config(
        cfg,
        drive_detuning=line.detuning,
        drive_rabi=rabi_mhz_value,
        polarization=beam_b_polarization,
        repumps=False,
    )
    shape = photon_pulse(
        model, duration, bin_width=bin_width, designated_channel=channel, rtol=rtol,
        max_steps=max_steps,
    )
    return line, shape


def cmd_pulse(cfg, out, args):
    p = cfg["pulse"]
    line, shape = _pulse_for_line(
        cfg,
        p["target_line"],
        p["rabi_2pi_mhz"],
        p["duration_us"] * 1e-6,
        p["bin_ns"] * 1e-9,
        cfg["solver"]["rtol"],
        max_steps=cfg["solver"]["max_steps"],
    )
    meta = {
        "config_sha256": config_hash(cfg),
        "rtol": cfg["solver"]["rtol"],
        "bin_ns": p["bin_ns"],
    }
    write_csv(
        out / "pulse.csv",
        ["time_us", "prob_h", "prob_v"],
        [
            (t * 1e6, ph, pv)
            for t, ph, pv in zip(shape.bin_centers, shape.probabilities[0], shape.probabilities[1])
        ],
        meta,
    )
    write_json(
        out / "pulse.json",
        {
            "target_line": p["target_line"],
            "designated_channel": shape.designated_channel,
            "total_efficiency": shape.total_efficiency,
            "leak_fraction": shape.leak_fraction,
            "detuning_2pi_mhz": to_mhz(line.detuning),
        },
        meta,
    )
    if args.plot:
        write_svg_plot(
            out / "pulse.svg",
            [
                (shape.bin_centers * 1e6, shape.probabilities[0], "H"),
                (shape.bin_centers * 1e6, shape.probabilities[1], "V"),
            ],
            "time [us]",
            "detection probability per bin",
            meta=meta,
        )
    print(
        f"pulse: total efficiency {shape.total_efficiency*100:.2f}%, "
        f"leak {shape.leak_fraction*100:.2f}% -> {out}"
    )
    return {"total_efficiency": shape.total_efficiency}


def cmd_overlap(cfg, out, args):
    from .experiments import pulse_overlap

    o = cfg["overlap"]
    duration = o["duration_us"] * 1e-6
    bin_width = o["bin_ns"] * 1e-9
    rtol = cfg["solver"]["rtol"]
    meta = {"config_sha256": config_hash(cfg)}
    _, ref = _pulse_for_line(cfg, "D5/2,-5/2", o["rabi_2pi_mhz"], duration, bin_width, rtol)
    rows = []
    best = None
    for scale in o["rabi_scale_grid"]:
        for doff in o["detuning_offset_2pi_mhz"]:
            setting = raman_setting_from_config(
                cfg, rabi_override=o["rabi_2pi_mhz"] * scale, polarization=beam_b_polarization
            )
            line = _line_by_label(enumerate_paths(setting), "D5/2,-3/2")
            from .experiments import photon_pulse

            model = model_from_config(
                cfg,
                drive_detuning=line.detuning + mhz(doff),
                drive_rabi=o["rabi_2pi_mhz"] * scale,
                polarization=beam_b_polarization,
                repumps=False,
            )
            shape = photon_pulse(model, duration, bin_width=bin_width, designated_channel="V", rtol=rtol)
            value = pulse_overlap(ref, shape)
            rows.append((scale, doff, value, shape.total_efficiency))
            if best is None or value > best[2]:
                best = rows[-1]
    write_csv(
        out / "overlap.csv",
        ["rabi_scale", "detuning_offset_2pi_mhz", "overlap", "total_efficiency"],
        rows,
        meta,
    )
    write_json(
        out / "overlap.json",
        {"best": {"rabi_scale": best[0], "detuning_offset_2pi_mhz": best[1], "overlap": best[2]}},
        meta,
    )
    print(f"overlap: best {best[2]:.4f} at scale {best[0]}, offset {best[1]} MHz -> {out}")
    return {"best_overlap": best[2]}


def cmd_entangle(cfg, out, args):
    from .experiments import entangle_bichromatic

    e = cfg["entangle"]
    report = entangle_bichromatic(
        rabi_tone1=mhz(e["rabi_2pi_mhz"]),
        duration=e["duration_us"] * 1e-6,
        relative_phase=e["relative_phase_rad"],
        b_gauss=cfg["b_field"]["gauss"],
        delta_cav=mhz(cfg["cavity"]["detuning_2pi_mhz"]),
        rtol=cfg["solver"]["rtol"],
        t_points=e["t_points"],
        calibrate=e["calibrate"],
        check_overlap=e["check_overlap"],
    )
    _write_joint_report(report, cfg, out, "entangle")
    print(
        f"entangle: emission {report.emission_probability:.3f}, "
        f"fidelity(max) {report.fidelity_max:.4f} -> {out}"
    )
    return {"fidelity_max": report.fidelity_max}


def cmd_map(cfg, out, args):
    from .experiments import map_state

    m = cfg["map"]
    report = map_state(
        m["alpha_rad"],
        m["phi_rad"],
        rabi_tone1=mhz(m["rabi_2pi_mhz"]),
        duration=m["duration_us"] * 1e-6,
        b_gauss=cfg["b_field"]["gauss"],
        delta_cav=mhz(cfg["cavity"]["detuning_2pi_mhz"]),
        rtol=cfg["solver"]["rtol"],
        t_points=m["t_points"],
        calibrate=m["calibrate"],
    )
    _write_joint_report(report, cfg, out, "map")
    print(
        f"map: emission {report.emission_probability:.3f}, fidelity {report.fidelity:.4f} -> {out}"
    )
    return {"fidelity": report.fidelity}


def _write_joint_report(report, cfg, out, name):
    meta = {"config_sha256": config_hash(cfg)}
    n = report.joint.shape[0]
    write_csv(
        out / f"{name}_state.csv",
        ["row", "col", "re", "im"],
        [
            (i, j, report.joint[i, j].real, report.joint[i, j].imag)
            for i in range(n)
            for j in range(n)
        ],
        meta,
    )
    write_json(
        out / f"{name}.json",
        {
            "basis": list(report.basis),
            "emission_probability": report.emission_probability,
            "channel_probabilities": report.channel_probabilities,
            "fidelity": report.fidelity,
            "fidelity_max": report.fidelity_max,
            "coherence_phase_rad": report.coherence_phase,
            "target_phase_rad": report.target_phase,
            "calibration": report.calibration,
            "warnings": report.warnings,
        },
        meta,
    )


def cmd_rabi(cfg, out, args):
    from .experiments import thermal_rabi

    r = cfg["rabi"]
    rabi0 = TWO_PI * r["rabi_2pi_khz"] * 1e3
    t = np.linspace(0.0, r["t_max_us"] * 1e-6, r["points"])
    prob = thermal_rabi(rabi0, r["eta"], r["nbar"], t)
    meta = {"config_sha256": config_hash(cfg)}
    write_csv(out / "rabi.csv", ["time_us", "excitation"], list(zip(t * 1e6, prob)), meta)
    write_json(
        out / "rabi.json",
        {"rabi_2pi_khz": r["rabi_2pi_khz"], "eta": r["eta"], "nbar": r["nbar"],
         "max_excitation": float(np.max(prob))},
        meta,
    )
    if args.plot:
        write_svg_plot(
            out / "rabi.svg", [(t * 1e6, prob, "")], "pulse length [us]", "D excitation", meta=meta
        )
    print(f"rabi: {len(t)} points -> {out}")
    return {}


def cmd_ramsey(cfg, out, args):
    from .experiments import ramsey_coherence, ramsey_fringe

    r = cfg["ramsey"]
    rng = np.random.default_rng(args.seed)
    t_wait = np.asarray(r["t_wait_us"], dtype=float) * 1e-6
    phases = np.linspace(0.0, 2 * math.pi, r["n_phases"], endpoint=False)
    result = ramsey_coherence(
        t_wait, phases, r["tau_us"] * 1e-6, r["amplitude0"], noise=r["noise"], rng=rng
    )
    meta = {"config_sha256": config_hash(cfg)}
    write_csv(
        out / "ramsey_amplitudes.csv",
        ["t_wait_us", "amplitude"],
        list(zip(t_wait * 1e6, result.amplitudes)),
        meta,
    )
    fringe = ramsey_fringe(phases, 50e-6, r["amplitude0"], r["tau_us"] * 1e-6)
    write_csv(
        out / "ramsey_fringe_50us.csv", ["phase_rad", "excitation"], list(zip(phases, fringe)), meta
    )
    write_json(
        out / "ramsey.json",
        {
            "amplitude0": result.amplitude0,
            "coherence_time_us": result.coherence_time * 1e6,
            "stderr": result.stderr,
            "gaussian_cost": result.gaussian_cost,
            "exponential_params": result.exponential_params,
            "exponential_cost": result.exponential_cost,
        },
        meta,
    )
    if args.plot:
        write_svg_plot(
            out / "ramsey.svg",
            [(t_wait * 1e6, result.amplitudes, "fringe amplitude")],
            "waiting time [us]",
            "amplitude",
            meta=meta,
        )
    print(
        f"ramsey: tau = {result.coherence_time*1e6:.1f} us, A0 = {result.amplitude0:.3f} -> {out}"
    )
    return {"coherence_time_us": result.coherence_time * 1e6}


def cmd_localize(cfg, out, args):
    meta = {"config_sha256": config_hash(cfg)}
    action = args.action
    loc = cfg["localize"]
    if action == "visibility":
        v = loc["visibility"]["value"]
        lam = loc["visibility"]["wavelength_nm"] * 1e-9
        sigma = localization.visibility_to_sigma(v, lam)
        write_json(
            out / "visibility.json",
            {"visibility": v, "wavelength_nm": lam * 1e9, "sigma_z_nm": sigma * 1e9},
            meta,
        )
        write_csv(
            out / "visibility.csv",
            ["visibility", "wavelength_nm", "sigma_z_nm"],
            [(v, lam * 1e9, sigma * 1e9)],
            meta,
        )
        print(f"visibility {v} -> sigma_z = {sigma*1e9:.2f} nm")
        return {"sigma_z_nm": sigma * 1e9}
    if action == "coupling":
        sx = loc["coupling"]["sigma_x_um"] * 1e-6
        w0 = loc["coupling"]["waist_um"]
        waist = w0 * 1e-6 if w0 is not None else mode_waist(geometry_from_config(cfg))
        factor = localization.coupling_reduction(sx, waist)
        write_json(
            out / "coupling.json",
            {"sigma_x_um": sx * 1e6, "waist_um": waist * 1e6, "g_obs_over_g0": factor},
            meta,
        )
        write_csv(
            out / "coupling.csv",
            ["sigma_x_um", "waist_um", "g_obs_over_g0"],
            [(sx * 1e6, waist * 1e6, factor)],
            meta,
        )
        print(f"coupling reduction g_obs/g0 = {factor:.4f}")
        return {"g_obs_over_g0": factor}
    if action == "scan":
        return _localize_axial_scan(cfg, out, args)
    # fit
    f = loc["fit"]
    lam = f["wavelength_nm"] * 1e-9
    theta = math.radians(f["theta_deg"])
    waist = f["waist_um"] * 1e-6
    if f["csv"]:
        data = localization.ScanDataset.from_csv(f["csv"])
    else:
        rng = np.random.default_rng(args.seed)
        x = np.linspace(-f["span_um"] / 2, f["span_um"] / 2, f["points"]) * 1e-6
        truth = localization.waist_scan_model(
            [f["sigma_x_um"] * 1e-6, f["sigma_z_nm"] * 1e-9, 1000.0, 0.0, 30.0],
            x,
            lam,
            waist,
            theta,
        )
        counts = truth * (1 + f["noise"] * rng.standard_normal(len(x))) if f["noise"] else truth
        data = localization.ScanDataset(position=x, counts=counts)
        write_csv(
            out / "localize_scan.csv",
            ["position_um", "counts"],
            list(zip(x * 1e6, counts)),
            meta,
        )
    result = localization.fit_waist_scan(data, lam, theta, waist)
    if args.plot:
        fitted = localization.waist_scan_model(result.params, data.position, lam, waist, theta)
        write_svg_plot(
            out / "localize_fit.svg",
            [
                (data.position * 1e6, data.counts, "data"),
                (data.position * 1e6, fitted, "fit"),
            ],
            "position [um]",
            "counts",
            meta=meta,
        )
    write_json(
        out / "localize_fit.json",
        {
            "sigma_x_um": result.params[0] * 1e6,
            "sigma_z_nm": result.params[1] * 1e9,
            "amplitude": result.params[2],
            "center_um": result.params[3] * 1e6,
            "offset": result.params[4],
            "stderr": result.stderr,
            "cost": result.cost,
            "n_iterations": result.n_iterations,
        },
        meta,
    )
    print(
        f"fit: sigma_x = {result.params[0]*1e6:.3f} um, sigma_z = {result.params[1]*1e9:.2f} nm"
    )
    return {"sigma_x_um": result.params[0] * 1e6}


def cmd_cavity(cfg, out, args):
    geom = geometry_from_config(cfg)
    meta = {"config_sha256": config_hash(cfg)}
    atom = load_atom(cfg["atom"]["overrides"] or None)
    if args.action == "waist":
        w0 = mode_waist(geom)
        write_json(out / "waist.json", {"waist_um": w0 * 1e6, "rayleigh_um": geom.rayleigh_range * 1e6}, meta)
        write_csv(out / "waist.csv", ["waist_um", "rayleigh_um"], [(w0 * 1e6, geom.rayleigh_range * 1e6)], meta)
        print(f"mode waist = {w0*1e6:.4f} um")
        return {"waist_um": w0 * 1e6}
    g0 = max_coupling(geom, gamma_pd_amplitude(atom))
    write_json(out / "g0.json", {"g0_2pi_mhz": to_mhz(g0)}, meta)
    write_csv(out / "g0.csv", ["g0_2pi_mhz"], [(to_mhz(g0),)], meta)
    print(f"g0 = 2pi x {to_mhz(g0):.4f} MHz")
    return {"g0_2pi_mhz": to_mhz(g0)}


def _bundled_config(figure):
    path = resources.files("ioncavity.configs").joinpath(f"{figure}.json")
    if not path.is_file():
        raise ConfigError(f"unknown figure id {figure!r}")
    return json.loads(path.read_text())


REPRODUCE_COMMAND = {
    "fig3a": ("localize", "scan"),
    "fig3b": ("localize", "fit"),
    "fig4": ("spectrum", None),
    "fig5": ("spectrum", None),
    "fig6a": ("sidebands", None),
    "fig6b": ("sidebands", None),
    "fig8": ("pulse", None),
    "fig9": ("rabi", None),
    "fig10": ("ramsey", None),
}


def cmd_reproduce(args):
    figure = args.figure
    if figure not in REPRODUCE_COMMAND:
        raise ConfigError(
            f"unknown figure id {figure!r}",
            problems=[f"choose one of {sorted(REPRODUCE_COMMAND)}"],
        )
    cfg = merge_config(_bundled_config(figure))
    out = Path(args.out) / figure
    out.mkdir(parents=True, exist_ok=True)
    command, action = REPRODUCE_COMMAND[figure]
    if figure == "fig6a":
        return _reproduce_cooling_comparison(cfg, out, args)
    if figure == "fig8":
        return _reproduce_both_pulses(cfg, out, args)
    if figure == "fig9":
        return _reproduce_rabi_pair(cfg, out, args)
    handler = COMMANDS[command]
    if action:
        args.action = action
    return handler(cfg, out, args)


def _localize_axial_scan(cfg, out, args):
    """Count rate across one standing-wave period of the cavity mode."""
    sc = cfg["localize"]["scan"]
    lam = sc["wavelength_nm"] * 1e-9
    z = np.linspace(0.0, lam, sc["points"])
    rate = localization.axial_scan_rate(
        z, sc["amplitude_hz"], sc["visibility"], lam, background=sc["background_hz"]
    )
    meta = {"config_sha256": config_hash(cfg)}
    write_csv(out / "axial_scan.csv", ["position_nm", "rate_hz"], list(zip(z * 1e9, rate)), meta)
    sigma = localization.visibility_to_sigma(sc["visibility"], lam)
    write_json(
        out / "axial_scan.json",
        {"visibility": sc["visibility"], "sigma_z_nm": sigma * 1e9},
        meta,
    )
    if args.plot:
        write_svg_plot(
            out / "axial_scan.svg", [(z * 1e9, rate, "")], "standing-wave position [nm]", "rate [1/s]", meta=meta
        )
    print(f"axial scan: visibility {sc['visibility']} -> sigma_z {sigma*1e9:.1f} nm")
    return {}


def _reproduce_cooling_comparison(cfg, out, args):
    from .experiments import TrapMotion, raman_spectrum, sideband_overlay

    sb = cfg["sidebands"]
    setting = raman_setting_from_config(cfg)
    lines = enumerate_paths(setting)
    line = _line_by_label(lines, sb["target_line"])
    window = mhz(sb["window_2pi_mhz"])
    grid = np.linspace(line.detuning - window, line.detuning + window, sb["points"])
    model = model_from_config(cfg, drive_detuning=float(grid[0]))
    base = raman_spectrum(model, grid, n_max=cfg["solver"]["n_max"], jobs=args.jobs,
                          check_unique_first=cfg["solver"]["check_unique"])
    nu_r = sb["nu_radial_2pi_mhz"]
    common = dict(
        frequencies=(mhz(sb["nu_axial_2pi_mhz"]), mhz(nu_r[0]), mhz(nu_r[1])),
        lamb_dicke=(sb["eta_axial"], sb["eta_radial"], sb["eta_radial"]),
        micromotion_frequency=mhz(sb["micromotion_freq_mhz"]),
        micromotion_index=sb["micromotion_index"],
    )
    doppler = sideband_overlay(base, TrapMotion(nbar=(10.0, 5.0, 5.0), **common))
    cooled = sideband_overlay(base, TrapMotion(nbar=tuple(sb["nbar"]), **common))
    meta = {"config_sha256": config_hash(cfg)}
    write_csv(
        out / "cooling_comparison.csv",
        ["detuning_2pi_mhz", "doppler_h_hz", "cooled_h_hz"],
        [
            (to_mhz(d), rd, rc)
            for d, rd, rc in zip(doppler.detunings, doppler.rates[0], cooled.rates[0])
        ],
        meta,
    )
    if args.plot:
        write_svg_plot(
            out / "cooling_comparison.svg",
            [
                (to_mhz(doppler.detunings), doppler.rates[0], "Doppler cooled"),
                (to_mhz(cooled.detunings), cooled.rates[0], "sideband cooled"),
            ],
            "drive detuning / 2pi [MHz]",
            "count rate [1/s]",
            meta=meta,
        )
    print(f"cooling comparison -> {out}")
    return {}


def _reproduce_both_pulses(cfg, out, args):
    p = cfg["pulse"]
    meta = {"config_sha256": config_hash(cfg)}
    results = {}
    curves = []
    for label in ("D5/2,-5/2", "D5/2,-3/2"):
        line, shape = _pulse_for_line(
            cfg, label, p["rabi_2pi_mhz"], p["duration_us"] * 1e-6, p["bin_ns"] * 1e-9,
            cfg["solver"]["rtol"],
        )
        tag = label.replace("/", "").replace(",", "_")
        write_csv(
            out / f"pulse_{tag}.csv",
            ["time_us", "prob_h", "prob_v"],
            [
                (t * 1e6, ph, pv)
                for t, ph, pv in zip(
                    shape.bin_centers, shape.probabilities[0], shape.probabilities[1]
                )
            ],
            meta,
        )
        results[label] = {
            "channel": shape.designated_channel,
            "total_efficiency": shape.total_efficiency,
            "leak_fraction": shape.leak_fraction,
        }
        idx = 0 if shape.designated_channel == "H" else 1
        curves.append((shape.bin_centers * 1e6, shape.probabilities[idx], label))
    write_json(out / "pulse.json", results, meta)
    if args.plot:
        write_svg_plot(
            out / "pulse.svg", curves, "time [us]", "detection probability per bin", meta=meta
        )
    print(f"pulse shapes -> {out}")
    return results


def _reproduce_rabi_pair(cfg, out, args):
    from .experiments import thermal_rabi

    r = cfg["rabi"]
    rabi0 = TWO_PI * r["rabi_2pi_khz"] * 1e3
    t = np.linspace(0.0, r["t_max_us"] * 1e-6, r["points"])
    doppler = thermal_rabi(rabi0, r["eta"], (10.0, 5.0, 5.0), t)
    cooled = thermal_rabi(rabi0, r["eta"], tuple(r["nbar"]), t)
    meta = {"config_sha256": config_hash(cfg)}
    write_csv(
        out / "rabi.csv",
        ["time_us", "doppler", "sideband_cooled"],
        list(zip(t * 1e6, doppler, cooled)),
        meta,
    )
    if args.plot:
        write_svg_plot(
            out / "rabi.svg",
            [(t * 1e6, doppler, "Doppler"), (t * 1e6, cooled, "sideband cooled")],
            "pulse length [us]",
            "D excitation",
            meta=meta,
        )
    print(f"rabi pair -> {out}")
    return {}


COMMANDS = {
    "plan": cmd_plan,
    "spectrum": cmd_spectrum,
    "sidebands": cmd_sidebands,
    "pulse": cmd_pulse,
    "overlap": cmd_overlap,
    "entangle": cmd_entangle,
    "map": cmd_map,
    "rabi": cmd_rabi,
    "ramsey": cmd_ramsey,
    "localize": cmd_localize,
    "cavity": cmd_cavity,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="ioncavity", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--plot", action="store_true", help="emit SVG plots")
    parser.add_argument("--jobs", type=int, default=1, help="parallel scan workers")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--json-errors", action="store_true", help="machine-readable errors")
    parser.add_argument("--dump-operators", action="store_true",
                        help="dump Hamiltonian/collapse operators as sparse triplets")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name in ("localize", "cavity"):
            choices = ["fit", "visibility", "coupling", "scan"] if name == "localize" else ["waist", "g0"]
            p.add_argument("action", choices=choices)
    rep = sub.add_parser("reproduce")
    rep.add_argument("figure")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce":
            cmd_reproduce(args)
        else:
            cfg = load_config(args.config)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            COMMANDS[args.command](cfg, out, args)
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
