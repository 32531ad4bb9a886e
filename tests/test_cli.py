import json
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


def test_plot_without_matplotlib_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import matplotlib now fails
    assert main(["--plot", "--out", str(tmp_path), "reproduce", "fig3a"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: --plot requires matplotlib (install the 'plot' extra)"]


def test_solver_failure_exits_3(tmp_path, capsys):
    code = run_cli(["--json-errors", "pulse"], tmp_path, config={"solver": {"max_steps": 10}})
    assert code == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "StiffnessError"
    assert payload["kind"] == "solver"


def test_reproduce_all_writes_data_without_matplotlib(tmp_path, capsys, monkeypatch):
    import importlib.util

    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_all.py"
    spec = importlib.util.spec_from_file_location("reproduce_all", script)
    reproduce_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reproduce_all)
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import matplotlib now fails
    assert reproduce_all.run(["fig3a"], out=tmp_path) == {}
    assert capsys.readouterr().out.count("without plots") == 1
    assert (tmp_path / "fig3a").is_dir()
