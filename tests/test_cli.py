import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ioncavity.cli import REPRODUCE_COMMAND, default_config, main, merge_config
from ioncavity.errors import ConfigError


def run_cli(args, tmp_path, config=None):
    argv = ["--out", str(tmp_path)]
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv = ["--config", str(cfg_path)] + argv
    return main(argv + args)


def test_plan_emits_tables_and_strength_pair(tmp_path, capsys):
    code = run_cli(["plan"], tmp_path, config={"lasers": {"drive": {"polarization": "sigma_minus", "rabi_2pi_mhz": 99.0}}})
    assert code == 0
    assert (tmp_path / "plan.csv").exists()
    assert (tmp_path / "plan.txt").exists()
    payload = json.loads((tmp_path / "plan.json").read_text())
    strengths = sorted((l["strength"] for l in payload["lines"]), reverse=True)
    assert strengths[0] == pytest.approx(0.5774, abs=1e-4)
    assert strengths[1] == pytest.approx(0.5164, abs=1e-4)
    text = (tmp_path / "plan.txt").read_text()
    assert "ranked orthogonal-channel pairs" in text


def test_csv_output_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    out_a.mkdir(), out_b.mkdir()
    cfg = {"lasers": {"drive": {"polarization": "sigma_minus"}}}
    for out in (out_a, out_b):
        code = run_cli(["plan"], out, config=cfg)
        assert code == 0
    assert (out_a / "plan.csv").read_bytes() == (out_b / "plan.csv").read_bytes()
    assert (out_a / "plan.json").read_bytes() == (out_b / "plan.json").read_bytes()


def test_csv_embeds_config_hash(tmp_path):
    run_cli(["plan"], tmp_path)
    first = (tmp_path / "plan.csv").read_text().splitlines()[0]
    assert first.startswith("# config_sha256=")
    assert len(first.split("=")[1]) == 64


def test_cavity_waist_and_g0(tmp_path):
    assert run_cli(["cavity", "waist"], tmp_path) == 0
    waist = json.loads((tmp_path / "waist.json").read_text())
    assert waist["waist_um"] == pytest.approx(13.1055, abs=1e-3)
    assert run_cli(["cavity", "g0"], tmp_path) == 0
    g0 = json.loads((tmp_path / "g0.json").read_text())
    assert g0["g0_2pi_mhz"] == pytest.approx(1.43, abs=0.015)


def test_empty_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text("{}")
    code = main(["--config", str(cfg_path), "--out", str(tmp_path), "--json-errors", "plan"])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert any("b_field" in p for p in payload["problems"])


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as err:
        merge_config({"cavityy": {"length_mm": 1.0}})
    assert any("cavityy" in p for p in err.value.problems)
    with pytest.raises(ConfigError) as err:
        merge_config({"cavity": {"length_mm": "long"}})
    assert any("wrong type" in p for p in err.value.problems)


def test_unknown_figure_exits_2(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "reproduce", "fig99"])
    assert code == 2


def test_bad_polarization_exits_2(tmp_path):
    code = run_cli(["plan"], tmp_path, config={"lasers": {"drive": {"polarization": "elliptical"}}})
    assert code == 2


@pytest.mark.parametrize("command", ["pulse", "overlap"])
def test_pulse_duration_of_partial_bins_exits_2(command, tmp_path, capsys):
    config = {"lasers": {"drive": {"polarization": "sigma_minus"}},
              command: {"duration_us": 1.0, "bin_ns": 300.0}}
    assert run_cli([command], tmp_path, config=config) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {command}.duration_us must be a whole multiple of {command}.bin_ns:")
    assert "duration 1e-06 s is not a whole number of 3e-07 s bins" in err


def test_localize_visibility_and_coupling(tmp_path):
    assert run_cli(["localize", "visibility"], tmp_path) == 0
    vis = json.loads((tmp_path / "visibility.json").read_text())
    assert vis["sigma_z_nm"] == pytest.approx(13.66, abs=0.05)
    assert run_cli(["localize", "coupling"], tmp_path) == 0
    coup = json.loads((tmp_path / "coupling.json").read_text())
    # the default config derives the mode size from the geometry (13.106 um)
    assert coup["g_obs_over_g0"] == pytest.approx(0.8919, abs=1e-3)
    assert abs(coup["g_obs_over_g0"] - 0.89) < 0.01


def test_localize_fit_synthetic_round_trip(tmp_path):
    assert run_cli(["localize", "fit"], tmp_path) == 0
    fit = json.loads((tmp_path / "localize_fit.json").read_text())
    assert fit["sigma_x_um"] == pytest.approx(4.7, rel=1e-4)
    assert fit["sigma_z_nm"] == pytest.approx(48.0, rel=1e-4)
    assert (tmp_path / "localize_scan.csv").exists()


def test_rabi_and_ramsey_commands(tmp_path):
    assert run_cli(["rabi"], tmp_path) == 0
    lines = [l for l in (tmp_path / "rabi.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "time_us,excitation"
    assert run_cli(["ramsey"], tmp_path) == 0
    fit = json.loads((tmp_path / "ramsey.json").read_text())
    assert fit["coherence_time_us"] == pytest.approx(250.0, rel=0.02)
    assert (tmp_path / "ramsey_fringe_50us.csv").exists()


def test_reproduce_fig3a_and_fig10(tmp_path):
    assert main(["--out", str(tmp_path), "reproduce", "fig3a"]) == 0
    payload = json.loads((tmp_path / "fig3a" / "axial_scan.json").read_text())
    assert payload["sigma_z_nm"] == pytest.approx(13.66, abs=0.05)
    assert main(["--out", str(tmp_path), "reproduce", "fig10"]) == 0
    assert (tmp_path / "fig10" / "ramsey_amplitudes.csv").exists()


def test_reproduce_fig9_and_fig3b(tmp_path):
    assert main(["--out", str(tmp_path), "reproduce", "fig9"]) == 0
    header = [l for l in (tmp_path / "fig9" / "rabi.csv").read_text().splitlines() if not l.startswith("#")][0]
    assert header == "time_us,doppler,sideband_cooled"
    assert main(["--out", str(tmp_path), "reproduce", "fig3b"]) == 0
    fit = json.loads((tmp_path / "fig3b" / "localize_fit.json").read_text())
    assert fit["sigma_x_um"] == pytest.approx(4.7, rel=1e-3)
    assert fit["sigma_z_nm"] == pytest.approx(48.0, rel=1e-3)


def test_all_bundled_figures_listed():
    from importlib import resources

    for figure in REPRODUCE_COMMAND:
        assert resources.files("ioncavity.configs").joinpath(f"{figure}.json").is_file()
        cfg = json.loads(resources.files("ioncavity.configs").joinpath(f"{figure}.json").read_text())
        merge_config(cfg)  # bundled configs must validate


def test_default_config_round_trips():
    cfg = merge_config(default_config())
    assert cfg["cavity"]["length_mm"] == 19.96
    assert cfg["solver"]["n_max"] == 1


def test_missing_config_file(tmp_path):
    code = main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path), "plan"])
    assert code == 2


def test_spectrum_command_small_grid(tmp_path):
    cfg = {
        "lasers": {"drive": {"polarization": "sigma_minus", "rabi_2pi_mhz": 99.0}},
        "spectrum": {"points_per_line": 3, "baseline_points": 4, "window_2pi_mhz": 0.4},
    }
    assert run_cli(["spectrum"], tmp_path, config=cfg) == 0
    lines = [l for l in (tmp_path / "spectrum.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "detuning_2pi_mhz,rate_h_hz,rate_v_hz,converged,residual"
    assert len(lines) > 10
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["n_peaks"] >= 3


def test_pulse_command_short(tmp_path):
    cfg = {
        "lasers": {"drive": {"polarization": "sigma_minus"}},
        "pulse": {"duration_us": 2.0, "bin_ns": 500.0, "rabi_2pi_mhz": 106.0},
        "solver": {"rtol": 1e-5},
    }
    assert run_cli(["pulse"], tmp_path, config=cfg) == 0
    payload = json.loads((tmp_path / "pulse.json").read_text())
    assert payload["designated_channel"] == "H"
    assert 0.0 < payload["total_efficiency"] < 0.06
    rows = [l for l in (tmp_path / "pulse.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 4  # header + 4 bins


def test_sidebands_command_small(tmp_path):
    cfg = {
        "lasers": {"drive": {"polarization": "sigma_minus", "rabi_2pi_mhz": 33.0}},
        "sidebands": {"points": 9, "window_2pi_mhz": 1.6, "micromotion_index": 0.3},
    }
    assert run_cli(["sidebands"], tmp_path, config=cfg) == 0
    rows = [l for l in (tmp_path / "sidebands.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "detuning_2pi_mhz,rate_h_hz,rate_v_hz"
    assert len(rows) > 10  # micromotion satellites extend the grid


def test_entangle_and_map_commands_smoke(tmp_path):
    cfg = {
        "entangle": {"rabi_2pi_mhz": 40.0, "duration_us": 6.0, "calibrate": False, "t_points": 40},
        "map": {"rabi_2pi_mhz": 40.0, "duration_us": 6.0, "alpha_rad": 0.0, "calibrate": False, "t_points": 40},
        "solver": {"rtol": 1e-5},
    }
    assert run_cli(["entangle"], tmp_path, config=cfg) == 0
    payload = json.loads((tmp_path / "entangle.json").read_text())
    assert 0.0 < payload["emission_probability"] < 1.0
    assert set(payload["channel_probabilities"]) == {"H", "V"}
    assert run_cli(["map"], tmp_path, config=cfg) == 0
    mp = json.loads((tmp_path / "map.json").read_text())
    assert mp["channel_probabilities"]["V"] > 0.9  # alpha = 0 emits V only


def test_shipped_schema_file_matches():
    from pathlib import Path

    from ioncavity.cli import schema_description

    shipped = json.loads(Path("docs/config.schema.json").read_text())
    assert shipped == json.loads(json.dumps(schema_description()))


def test_overlap_command_single_point(tmp_path):
    cfg = {
        "lasers": {"drive": {"polarization": "sigma_minus"}},
        "overlap": {
            "rabi_2pi_mhz": 106.0,
            "duration_us": 4.0,
            "bin_ns": 800.0,
            "rabi_scale_grid": [1.0],
            "detuning_offset_2pi_mhz": [0.0],
        },
        "solver": {"rtol": 1e-5},
    }
    assert run_cli(["overlap"], tmp_path, config=cfg) == 0
    payload = json.loads((tmp_path / "overlap.json").read_text())
    assert 0.0 <= payload["best"]["overlap"] <= 1.0
    rows = [l for l in (tmp_path / "overlap.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "rabi_scale,detuning_offset_2pi_mhz,overlap,total_efficiency"


def test_reproduce_fig6_sideband_figures(tmp_path):
    assert main(["--out", str(tmp_path), "reproduce", "fig6a"]) == 0
    rows = [l for l in (tmp_path / "fig6a" / "cooling_comparison.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "detuning_2pi_mhz,doppler_h_hz,cooled_h_hz"
    import numpy as np

    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.max(data[:, 1]) > np.max(data[:, 2]) * 0.5  # both curves populated
    assert main(["--out", str(tmp_path), "reproduce", "fig6b"]) == 0
    rows_b = [l for l in (tmp_path / "fig6b" / "sidebands.csv").read_text().splitlines() if not l.startswith("#")]
    dets = [float(r.split(",")[0]) for r in rows_b[1:]]
    assert max(dets) - min(dets) > 40.0  # micromotion satellites extend the span


def test_localize_scan_runs_the_axial_standing_wave_scan(tmp_path):
    assert run_cli(["localize", "scan"], tmp_path / "cmd") == 0
    assert not (tmp_path / "cmd" / "localize_fit.json").exists()
    payload = json.loads((tmp_path / "cmd" / "axial_scan.json").read_text())
    assert payload["sigma_z_nm"] == pytest.approx(13.66, abs=0.05)
    assert main(["--out", str(tmp_path), "reproduce", "fig3a"]) == 0

    def table(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    rows = table(tmp_path / "cmd" / "axial_scan.csv")
    assert rows[0] == "position_nm,rate_hz"
    assert len(rows) == 1 + 81
    assert rows == table(tmp_path / "fig3a" / "axial_scan.csv")


def test_pulse_v_line_starts_in_the_prepared_state(tmp_path):
    """D5/2,-3/2 is reached from S1/2,-1/2 by a V photon; from S1/2,+1/2 by H."""
    cfg = {
        "lasers": {"drive": {"polarization": "sigma_minus"}},
        "pulse": {"duration_us": 0.2, "bin_ns": 100.0, "target_line": "D5/2,-3/2", "rabi_2pi_mhz": 106.0},
    }
    assert run_cli(["pulse"], tmp_path, config=cfg) == 0
    payload = json.loads((tmp_path / "pulse.json").read_text())
    assert payload["designated_channel"] == "V"
    assert payload["detuning_2pi_mhz"] == pytest.approx(-398.17, abs=0.005)


def test_pulse_line_is_taken_from_the_driven_polarization(tmp_path):
    """The pulse drives sigma-minus, so its line comes from the sigma-minus table
    (-406.32 MHz), not from the default beam-A polarization's (-408.74 MHz)."""
    cfg = {"pulse": {"duration_us": 0.2, "bin_ns": 100.0}}
    assert run_cli(["pulse"], tmp_path, config=cfg) == 0
    payload = json.loads((tmp_path / "pulse.json").read_text())
    assert payload["designated_channel"] == "H"
    assert payload["detuning_2pi_mhz"] == pytest.approx(-406.32, abs=0.005)


def test_plot_writes_one_polyline_per_curve(tmp_path):
    import xml.etree.ElementTree as ET

    for figure, svg, n_curves in (("fig3a", "axial_scan.svg", 1), ("fig3b", "localize_fit.svg", 2)):
        assert main(["--plot", "--out", str(tmp_path), "reproduce", figure]) == 0
        root = ET.parse(tmp_path / figure / svg).getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == n_curves
        assert "config_sha256" in root.find("{http://www.w3.org/2000/svg}desc").text


@pytest.mark.parametrize("command", ["pulse", "overlap"])
def test_solver_failure_exits_3(command, tmp_path, capsys):
    """Every pulse-driven command spends at most solver.max_steps DP5 steps."""
    code = run_cli(["--json-errors", command], tmp_path, config={"solver": {"max_steps": 10}})
    assert code == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "StiffnessError"
    assert payload["kind"] == "solver"


def test_reproduce_all_writes_data_without_matplotlib(tmp_path, monkeypatch):
    import importlib.util

    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_all.py"
    spec = importlib.util.spec_from_file_location("reproduce_all", script)
    reproduce_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reproduce_all)
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import matplotlib now fails
    assert reproduce_all.run(["fig3a"], out=tmp_path) == {}
    for name in ("axial_scan.csv", "axial_scan.json", "axial_scan.svg"):
        assert (tmp_path / "fig3a" / name).is_file()


# -- golden CLI outputs --------------------------------------------------------
#
# `tests/data/golden_cli.json` holds, for every (command, action) on the smoke
# configs above, `spectrum --dump-operators` and `reproduce fig3a/fig3b/fig10`,
# what the CLI wrote: file names, CSV meta lines and headers, JSON keys and
# plan.txt and stdout line by line, with every number to GOLDEN_REL. The one
# exception is the spectrum's `residual` column: it is the round-off of the LU
# solve (~1e-7 against a convergence check at 1e-10 * scale ~ 0.8) and moves in
# its third digit with the BLAS thread count, so it is held to RESIDUAL_ABS.
# The `re`/`im` columns of the joint-state matrices in JOINT_STATES are held to
# GOLDEN_REL x the largest |entry| of that file's matrix, as test_golden holds
# the joint matrix: a relative check per entry would pin the round-off imaginary
# part of a real diagonal entry (5e-17 against 0.64) to its own digits.
# JSON outputs are parsed strictly: NaN or Infinity in one fails the case.
# Plots are not covered. Regenerate only when an output is meant to change; name the
# cases to rewrite, the others are left as they are:
#
#     PYTHONPATH=src python tests/test_cli.py plan spectrum

GOLDEN_CLI = Path(__file__).parent / "data" / "golden_cli.json"
GOLDEN_REL = 1e-9
RESIDUAL_ABS = 1e-6
JOINT_STATES = ("entangle_state.csv", "map_state.csv")

_SIGMA_MINUS = {"lasers": {"drive": {"polarization": "sigma_minus"}}}
_SMOKE_SPECTRUM = {
    "lasers": {"drive": {"polarization": "sigma_minus", "rabi_2pi_mhz": 99.0}},
    "spectrum": {"points_per_line": 3, "baseline_points": 4, "window_2pi_mhz": 0.4},
}
_SMOKE_TWO_TONE = {
    "entangle": {"rabi_2pi_mhz": 40.0, "duration_us": 6.0, "calibrate": False, "t_points": 40},
    "map": {"rabi_2pi_mhz": 40.0, "duration_us": 6.0, "alpha_rad": 0.0, "calibrate": False, "t_points": 40},
    "solver": {"rtol": 1e-5},
}

# case id -> (user config or None, CLI arguments after --out)
CLI_CASES = {
    "plan": ({"lasers": {"drive": {"polarization": "sigma_minus", "rabi_2pi_mhz": 99.0}}}, ["plan"]),
    "spectrum": (_SMOKE_SPECTRUM, ["spectrum"]),
    "spectrum_dump_operators": (_SMOKE_SPECTRUM, ["--dump-operators", "spectrum"]),
    "sidebands": (
        {
            "lasers": {"drive": {"polarization": "sigma_minus", "rabi_2pi_mhz": 33.0}},
            "sidebands": {"points": 9, "window_2pi_mhz": 1.6, "micromotion_index": 0.3},
        },
        ["sidebands"],
    ),
    "pulse": (
        {
            **_SIGMA_MINUS,
            "pulse": {"duration_us": 2.0, "bin_ns": 500.0, "rabi_2pi_mhz": 106.0},
            "solver": {"rtol": 1e-5},
        },
        ["pulse"],
    ),
    "overlap": (
        {
            **_SIGMA_MINUS,
            "overlap": {
                "rabi_2pi_mhz": 106.0,
                "duration_us": 4.0,
                "bin_ns": 800.0,
                "rabi_scale_grid": [1.0],
                "detuning_offset_2pi_mhz": [0.0],
            },
            "solver": {"rtol": 1e-5},
        },
        ["overlap"],
    ),
    "entangle": (_SMOKE_TWO_TONE, ["entangle"]),
    "map": (_SMOKE_TWO_TONE, ["map"]),
    "rabi": (None, ["rabi"]),
    "ramsey": (None, ["ramsey"]),
    "localize_fit": (None, ["localize", "fit"]),
    "localize_visibility": (None, ["localize", "visibility"]),
    "localize_coupling": (None, ["localize", "coupling"]),
    "localize_scan": (None, ["localize", "scan"]),
    "cavity_waist": (None, ["cavity", "waist"]),
    "cavity_g0": (None, ["cavity", "g0"]),
    "reproduce_fig3a": (None, ["reproduce", "fig3a"]),
    "reproduce_fig3b": (None, ["reproduce", "fig3b"]),
    "reproduce_fig10": (None, ["reproduce", "fig10"]),
}

_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _text_lines(text):
    """Each line split into its numbers and the text between them."""
    import re

    return [[_cell(tok) for tok in re.split(f"({_NUMBER})", line) if tok] for line in text.splitlines()]


def _operator_dump(text):
    """Line count and column sums of a (row, col, re, im) triplet dump."""
    data = np.loadtxt(text.splitlines(), ndmin=2) if text else np.zeros((0, 4))
    return {
        "lines": int(data.shape[0]),
        "sum_row": float(data[:, 0].sum()),
        "sum_col": float(data[:, 1].sum()),
        "sum_abs_re": float(np.abs(data[:, 2]).sum()),
        "sum_abs_im": float(np.abs(data[:, 3]).sum()),
    }


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def _file_record(path, out):
    text = path.read_text()
    if path.suffix == ".csv":
        lines = text.splitlines()
        meta = [line for line in lines if line.startswith("#")]
        table = [line for line in lines if not line.startswith("#")]
        return {"meta": meta, "header": table[0], "rows": [[_cell(c) for c in r.split(",")] for r in table[1:]]}
    if path.suffix == ".json":
        return json.loads(text, parse_constant=_reject_constant)
    if path.parent.name == "operators":
        return _operator_dump(text)
    return _text_lines(text)


def cli_outputs(case, tmp):
    """Run one golden case through `main` in process; record what it wrote."""
    import contextlib
    import io

    config, args = CLI_CASES[case]
    tmp = Path(tmp)
    out = tmp / "out"
    argv = ["--out", str(out)]
    if config is not None:
        cfg_path = tmp / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv = ["--config", str(cfg_path)] + argv
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + args)
    files = {
        path.relative_to(out).as_posix(): _file_record(path, out)
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    return {
        "exit_code": code,
        "stdout": _text_lines(stdout.getvalue().replace(str(out), "<out>")),
        "files": files,
    }


def assert_same(got, want, where):
    """Same structure and strings; numbers to GOLDEN_REL relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), f"{where}: {got!r} is not a number"
        if math.isnan(want):
            assert math.isnan(got), f"{where}: {got!r} != nan"
            return
        assert got == pytest.approx(want, rel=GOLDEN_REL, abs=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _pop_residuals(files):
    """Take the `residual` column out of every CSV record: {file: column}."""
    columns = {}
    for name, record in files.items():
        if name.endswith(".csv") and "residual" in record["header"].split(","):
            i = record["header"].split(",").index("residual")
            columns[name] = [row.pop(i) for row in record["rows"]]
    return columns


def _pop_joint_states(files):
    """Take the `re` and `im` columns out of each joint-state CSV: {file: complex entries}."""
    entries = {}
    for name in JOINT_STATES:
        if name in files:
            rows = files[name]["rows"]
            entries[name] = np.array([complex(row.pop(2), row.pop(2)) for row in rows])
    return entries


def assert_joint_states_match(got, want):
    assert got.keys() == want.keys()
    for name, entries in want.items():
        bound = GOLDEN_REL * np.max(np.abs(entries))
        for part in (np.real, np.imag):
            assert np.allclose(part(got[name]), part(entries), rtol=0.0, atol=bound), name


@pytest.fixture(scope="module")
def golden_cli():
    return json.loads(GOLDEN_CLI.read_text())


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_outputs_match_golden(case, golden_cli, tmp_path):
    got, want = cli_outputs(case, tmp_path), json.loads(json.dumps(golden_cli[case]))
    got_residuals, want_residuals = _pop_residuals(got["files"]), _pop_residuals(want["files"])
    got_states, want_states = _pop_joint_states(got["files"]), _pop_joint_states(want["files"])
    assert_same(got, want, case)
    assert_joint_states_match(got_states, want_states)
    assert got_residuals.keys() == want_residuals.keys()
    for name, column in want_residuals.items():
        assert np.allclose(got_residuals[name], column, rtol=0.0, atol=RESIDUAL_ABS), name


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or list(CLI_CASES)
    unknown = sorted(set(names) - set(CLI_CASES))
    if unknown:
        sys.exit(f"unknown golden cases {unknown}; choose from {list(CLI_CASES)}")
    values = json.loads(GOLDEN_CLI.read_text()) if GOLDEN_CLI.exists() else {}
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            values[name] = cli_outputs(name, tmp)
    GOLDEN_CLI.parent.mkdir(exist_ok=True)
    GOLDEN_CLI.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n", newline="\n")
    print(f"wrote {', '.join(names)} to {GOLDEN_CLI}")
