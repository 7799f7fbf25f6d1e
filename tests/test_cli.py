"""End-to-end tests of the command-line interface (in-process)."""

import ctypes
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hotbrownian
from hotbrownian import default_zfs_law, simulate_esr, write_esr
from hotbrownian.cli import main
from hotbrownian.twobath import HeatingLaw, internal_temperature


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# =============================================================================
# simulate -> psd -> fit-psd chain
# =============================================================================

class TestTraceChain:
    def test_full_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_json(tmp_path / "sim.json", {
            "duration_s": 0.1, "dt_s": 1e-6,
            "laser_power_mw": 100.0, "pressure_hpa": 45.0,
        })

        code, out, _ = run(capsys, "simulate", "--config", cfg,
                           "--seed", "3", "--out", "trace.csv")
        assert code == 0
        assert out.strip() == "trace.csv"
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "trace.json").exists()

        code, out, _ = run(capsys, "psd", "trace.csv", "--axis", "y")
        assert code == 0
        assert out.strip() == "psd_y.csv"
        assert (tmp_path / "psd_y.csv").exists()

        code, out, _ = run(capsys, "fit-psd", "psd_y.csv")
        assert code == 0
        fit = json.loads(out)
        assert fit["converged"] is True
        # f_q = (stiffness/2pi) * sqrt(P[W]) for the bundled y axis
        assert fit["f_q"] == pytest.approx(1.549e5 * np.sqrt(0.1), rel=0.01)
        assert fit["gamma"] > 0

    def test_out_directory_receives_default_name(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", {"duration_s": 0.01, "dt_s": 1e-6})
        code, out, _ = run(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "runs"))
        assert code == 0
        assert (tmp_path / "runs" / "trace.csv").exists()


# =============================================================================
# fit-esr
# =============================================================================

@pytest.fixture
def esr_csv(tmp_path):
    sweep = simulate_esr(HeatingLaw(kappa_heat=17.0, T0=294.0), default_zfs_law(),
                         laser_power=60.0, pressure=45.0, strain_E=8e6, contrast=0.25,
                         linewidth=2e6, noise_level=0.5, rng_seed=6)
    write_esr(sweep, tmp_path / "esr.csv")
    return str(tmp_path / "esr.csv")


class TestFitEsrCommand:
    def test_reports_fit_and_temperature(self, esr_csv, capsys):
        code, out, _ = run(capsys, "fit-esr", esr_csv)
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        t_true = internal_temperature(HeatingLaw(kappa_heat=17.0, T0=294.0), 60.0, 45.0)
        assert payload["temperature_k"] == pytest.approx(t_true, abs=1.0)
        assert payload["temperature_sigma_k"] > 0

    @pytest.mark.parametrize("law", [
        {"coefficients": [2.87e9, -7.0e4], "T_max": 600.0},
        {"coefficients": [2.87e9, "abc"], "T_min": 250.0, "T_max": 600.0},
    ], ids=["no_T_min", "non_numeric_coefficient"])
    def test_malformed_zfs_law_exits_3_naming_the_file(self, esr_csv, tmp_path, capsys, law):
        law_path = write_json(tmp_path / "law.json", law)
        cfg = write_json(tmp_path / "cfg.json", {"zfs_law": law_path})
        code, _, err = run(capsys, "fit-esr", esr_csv, "--config", cfg)
        assert code == 3
        assert law_path in err


# =============================================================================
# calibrate / extract-k
# =============================================================================

AREA_HEADER = ("pressure_hpa,axis,laser_power_mw,repetition,"
               "normalized_area,sigma,f_q_hz,gamma_hz\n")


def area_table(path, rows):
    path.write_text(AREA_HEADER + "\n".join(",".join(str(v) for v in r) for r in rows))
    return str(path)


class TestCalibrateCommand:
    def test_recovers_the_intercept(self, tmp_path, capsys):
        a0, slope = 4.0e-9, 2.5e-11
        rows = [
            (45.0, "x", p, 0, a0 + slope * p, 0.0, 5e4, 3e3)
            for p in (20.0, 60.0, 100.0, 140.0)
        ]
        table = area_table(tmp_path / "areas.csv", rows)
        code, out, _ = run(capsys, "calibrate", table)
        assert code == 0
        result = json.loads(out)
        assert result["intercept"]["x"] == pytest.approx(a0, rel=1e-9)
        assert result["pressure_hpa"] == 45.0

    def test_unconstrained_intercept_exits_2(self, tmp_path, capsys):
        # Steep power dependence extrapolates to a negative zero-power area.
        rows = [
            (45.0, "x", p, 0, 1.0e-10 + 2.5e-11 * (p - 20.0), 0.0, 5e4, 3e3)
            for p in (20.0, 60.0, 100.0)
        ]
        table = area_table(tmp_path / "areas.csv", rows)
        code, _, err = run(capsys, "calibrate", table)
        assert code == 2
        assert "error" in err
        assert "axis 'x'" in err                   # a str label, not np.str_('x')

    def test_nan_area_exits_3(self, tmp_path, capsys):
        rows = [
            (45.0, "x", p, 0, 4.0e-9 + 2.5e-11 * p, 0.0, 5e4, 3e3)
            for p in (20.0, 60.0, 100.0, 140.0)
        ]
        rows[1] = rows[1][:4] + ("nan",) + rows[1][5:]
        code, out, err = run(capsys, "calibrate", area_table(tmp_path / "areas.csv", rows))
        assert code == 3
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("short_at", [0, -1])
    def test_point_without_an_axis_exits_2(self, tmp_path, capsys, short_at):
        # Every (power, repetition) point has x and y, but one lacks y.
        rows = [
            (45.0, axis, p, 0, 4.0e-9 + 2.5e-11 * p, 0.0, 5e4, 3e3)
            for p in (20.0, 60.0, 100.0, 140.0) for axis in ("x", "y")
        ]
        del rows[1 if short_at == 0 else -1]
        table = area_table(tmp_path / "areas.csv", rows)
        code, out, err = run(capsys, "calibrate", table)
        assert code == 2
        assert out == ""
        assert "different axes (x) vs (x, y)" in err

    def test_pressure_of_no_row_exits_3_naming_the_table_pressures(self, tmp_path, capsys):
        rows = [
            (pressure, "x", p, 0, 4.0e-9 + 2.5e-11 * p, 0.0, 5e4, 3e3)
            for pressure in (45.0, 100.0) for p in (20.0, 60.0, 100.0, 140.0)
        ]
        cfg = write_json(tmp_path / "cal.json", {"pressure_hpa": 50.0})
        code, out, err = run(capsys, "calibrate", area_table(tmp_path / "areas.csv", rows),
                             "--config", cfg)
        assert code == 3
        assert out == ""
        assert "pressure_hpa 50.0 matches no row" in err and "45, 100 hPa" in err

    def test_three_column_table_exits_3_naming_the_file(self, tmp_path, capsys):
        table = tmp_path / "areas.csv"
        table.write_text("pressure_hpa,axis,laser_power_mw\n45.0,x,20.0\n45.0,x,60.0\n")
        code, _, err = run(capsys, "calibrate", str(table))
        assert code == 3
        assert "areas.csv" in err


def k_table(tmp_path, k_true=0.3, slope_t=0.17, powers=(20.0, 60.0, 100.0, 140.0)):
    """Area table of both axes at 45 hPa whose K against 294 + slope_t*P is k_true."""
    a0 = {"x": 4.0e-9, "y": 6.0e-9}
    rows = [
        (45.0, axis, p, 0, a0[axis] * (1.0 + k_true * slope_t * p / 294.0), 0.0, 5e4, 3e3)
        for p in powers for axis in ("x", "y")
    ]
    return area_table(tmp_path / "areas.csv", rows)


class TestExtractKCommand:
    def test_inline_series(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "k.json", {
            "temperature": [[p, 294.0 + 0.17 * p] for p in (20, 60, 100, 140)],
        })
        code, out, _ = run(capsys, "extract-k", k_table(tmp_path), "--config", cfg)
        assert code == 0
        result = json.loads(out)
        assert list(result) == ["x", "y"]
        for m in result.values():
            assert m["pressure"] == 45.0
            assert m["K"] == pytest.approx(0.3, rel=1e-9)
            assert m["sigma"] >= 0

    def test_flat_temperatures_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "k.json", {
            "temperature": [[p, 294.0] for p in (20, 60, 100, 140)],
        })
        code, _, err = run(capsys, "extract-k", k_table(tmp_path), "--config", cfg)
        assert code == 2
        assert "error" in err

    def test_different_powers_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "k.json", {
            "temperature": [[p + 5.0, 294.0 + 0.17 * p] for p in (20, 60, 100, 140)],
        })
        code, out, err = run(capsys, "extract-k", k_table(tmp_path), "--config", cfg)
        assert code == 2
        assert out == ""
        assert "different powers" in err

    def test_reproduces_the_campaign_k(self, tmp_path, capsys):
        """calibrate -> extract_k is the campaign's K route: the CLI on a
        campaign's own tables gives its per-pressure K.  Not bit for bit,
        since the command rebuilds A as area * f_q^2."""
        cfg = write_json(tmp_path / "camp.json", {
            "pressures_hpa": [45.0, 100.0], "laser_powers_mw": [30.0, 90.0, 150.0],
            "repetitions": 2, "duration_s": 0.1, "dt_s": 1e-6, "seed": 21,
        })
        outdir = tmp_path / "camp"
        assert run(capsys, "campaign", "--config", cfg, "--out", str(outdir))[0] == 0
        report = json.loads((outdir / "report.json").read_text())
        rows = np.loadtxt(outdir / "internal_temperature_vs_power.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        for pressure in (45.0, 100.0):
            at = rows[rows[:, 0] == pressure]
            k_cfg = write_json(tmp_path / "k.json", {
                "pressure_hpa": pressure,
                "temperature": [[p, t, s] for p, t, s in at[:, [1, 4, 3]].tolist()],
            })
            code, out, _ = run(capsys, "extract-k",
                               str(outdir / "normalized_area_vs_power.csv"), "--config", k_cfg)
            assert code == 0
            result = json.loads(out)
            assert list(result) == ["x", "y"]
            for axis, m in result.items():
                (expected,) = [e for e in report["estimate"]["per_pressure"][axis]
                               if e["pressure"] == pressure]
                assert m["pressure"] == pressure
                assert m["K"] == pytest.approx(expected["K"], rel=1e-12)
                assert m["sigma"] == pytest.approx(expected["sigma"], rel=1e-12)


# =============================================================================
# campaign
# =============================================================================

class TestCampaignCommand:
    def test_small_campaign_writes_report(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "camp.json", {
            "pressures_hpa": [45.0, 100.0],
            "laser_powers_mw": [30.0, 90.0, 150.0],
            "repetitions": 1,
            "duration_s": 0.1,
            "dt_s": 1e-6,
            "seed": 21,
        })
        outdir = tmp_path / "camp"
        code, out, _ = run(capsys, "campaign", "--config", cfg, "--out", str(outdir))
        assert code == 0
        summary = json.loads(out)
        assert summary["n_points"] == 6
        assert summary["n_temperatures"] == 6
        assert summary["n_errors"] == 0
        assert summary["kappa_heat"] == pytest.approx(17.0, abs=0.3)
        assert set(summary["classification"]) == {"x", "y"}
        assert (outdir / "report.json").exists()
        assert (outdir / "coupling_vs_pressure.csv").exists()

    def test_verbose_logs_each_pressure_to_stderr(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "camp.json", {
            "pressures_hpa": [45.0, 100.0],
            "laser_powers_mw": [30.0, 90.0, 150.0],
            "repetitions": 0,
            "duration_s": 0.01,
            "dt_s": 1e-6,
            "thermometry_only": True,
        })
        argv = ["campaign", "--config", cfg, "--out", str(tmp_path), "--format", "json"]
        code, quiet_out, quiet_err = run(capsys, *argv)
        assert code == 0
        assert quiet_err == ""
        logger = logging.getLogger("hotbrownian")
        handlers = list(logger.handlers)
        for _ in range(2):           # a second call logs each line once too
            code, out, err = run(capsys, *argv, "-v")
            assert code == 0
            assert out == quiet_out
            assert err.splitlines() == [
                "INFO hotbrownian.pipeline: campaign: pressure 45 hPa",
                "INFO hotbrownian.pipeline: campaign: pressure 100 hPa",
            ]
        assert logger.handlers == handlers
        assert run(capsys, *argv)[1:] == (quiet_out, "")

    def test_json_format_skips_tables(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "camp.json", {
            "pressures_hpa": [45.0, 100.0],
            "laser_powers_mw": [30.0, 90.0, 150.0],
            "repetitions": 0,
            "duration_s": 0.01,
            "dt_s": 1e-6,
            "thermometry_only": True,
        })
        outdir = tmp_path / "thermo"
        code, out, _ = run(capsys, "campaign", "--config", cfg,
                           "--out", str(outdir), "--format", "json")
        assert code == 0
        assert {p.name for p in outdir.iterdir()} == {"report.json"}
        summary = json.loads(out)
        assert summary["n_points"] == 0
        assert summary["n_temperatures"] == 6


# =============================================================================
# cylinder-k
# =============================================================================

class TestCylinderKCommand:
    def test_single_shape_json(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cyl.json", {
            "radius_m": 40e-9, "length_m": 160e-9, "pressure_hpa": 45.0,
        })
        code, out, _ = run(capsys, "cylinder-k", "--config", cfg)
        assert code == 0
        result = json.loads(out)
        assert result["length_over_diameter"] == pytest.approx(2.0)
        assert result["g"] > 1.0
        assert result["k_parallel"] < result["k_sphere"] < result["k_perpendicular"]

    def test_aspect_ratio_sweep_writes_csv(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cyl.json", {"aspect_ratios": [1.0, 2.0, 4.0]})
        outdir = tmp_path / "shapes"
        code, out, _ = run(capsys, "cylinder-k", "--config", cfg, "--out", str(outdir))
        assert code == 0
        table = outdir / "cylinder_coupling_vs_anisotropy.csv"
        assert table.exists()
        data = np.loadtxt(table, delimiter=",", skiprows=1)
        assert data.shape == (3, 5)

    def test_out_with_a_suffix_names_the_csv(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cyl.json", {"aspect_ratios": [1.0, 2.0]})
        table = tmp_path / "cylinder.csv"
        code, out, _ = run(capsys, "cylinder-k", "--config", cfg, "--out", str(table))
        assert code == 0
        assert out.strip() == str(table)
        assert table.is_file()
        assert np.loadtxt(table, delimiter=",", skiprows=1).shape == (2, 5)


# =============================================================================
# error exit codes
# =============================================================================

class TestErrorExits:
    def test_broken_config_json_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "simulate", "--config", str(bad))
        assert code == 3
        assert "invalid configuration" in err

    def test_missing_input_file_exits_3(self, tmp_path, capsys):
        code, _, err = run(capsys, "psd", str(tmp_path / "nowhere.csv"))
        assert code == 3

    def test_missing_input_argument_exits_3(self, capsys):
        code, _, err = run(capsys, "psd")
        assert code == 3
        assert "missing input" in err

    def test_unknown_noise_floor_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sim = write_json(tmp_path / "sim.json", {"duration_s": 0.01, "dt_s": 1e-6})
        assert run(capsys, "simulate", "--config", sim, "--out", "trace.csv")[0] == 0
        assert run(capsys, "psd", "trace.csv")[0] == 0
        fit_cfg = write_json(tmp_path / "fit.json", {"noise_floor": "subtract"})
        code, _, err = run(capsys, "fit-psd", "psd_x.csv", "--config", fit_cfg)
        assert code == 3
        assert "noise_floor" in err

    def test_non_numeric_psd_exits_3_naming_the_file(self, tmp_path, capsys):
        sim = write_json(tmp_path / "sim.json", {"duration_s": 0.01, "dt_s": 1e-6})
        trace, psd = str(tmp_path / "trace.csv"), tmp_path / "bad.csv"
        assert run(capsys, "simulate", "--config", sim, "--out", trace)[0] == 0
        assert run(capsys, "psd", trace, "--out", str(psd))[0] == 0
        lines = psd.read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + ",abc"
        psd.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "fit-psd", str(psd))
        assert code == 3
        assert "bad.csv" in err

    def test_nan_psd_exits_3(self, tmp_path, capsys):
        sim = write_json(tmp_path / "sim.json", {"duration_s": 0.01, "dt_s": 1e-6})
        trace, psd = str(tmp_path / "trace.csv"), tmp_path / "psd.csv"
        assert run(capsys, "simulate", "--config", sim, "--out", trace)[0] == 0
        assert run(capsys, "psd", trace, "--out", str(psd))[0] == 0
        lines = psd.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",nan"
        psd.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "fit-psd", str(psd))
        assert code == 3
        assert "not finite" in err

    def test_cylinder_trace_simulation_exits_3(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", {
            "duration_s": 0.01, "dt_s": 1e-6,
            "particle": {"radius_m": 40e-9, "length_m": 160e-9},
        })
        code, _, err = run(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "t.csv"))
        assert code == 3
        assert "spher" in err


# =============================================================================
# config keys, flags and usage errors
# =============================================================================

# Keys a command no longer reads: refused like any unknown key.
GONE_KEYS = {
    "fit-psd": ("weighting", "log_space", "alias_fold"),
    "psd": ("window", "overlap_fraction"),
    "campaign": ("noise_floor", "fit_band"),
}

# One key each command reads, to find among the valid keys an error names.
VALID_KEY = {
    "simulate": "duration_s",
    "psd": "segment_length",
    "fit-psd": "noise_floor",
    "fit-esr": "zfs_law",
    "calibrate": "room_temperature",
    "extract-k": "temperature",
    "campaign": "pressures_hpa",
    "cylinder-k": "aspect_ratios",
}


class TestConfigChecks:
    @pytest.mark.parametrize("command", sorted(VALID_KEY))
    def test_unknown_key_exits_3_naming_the_valid_keys(self, command, tmp_path, capsys):
        for key in ("no_such_key",) + GONE_KEYS.get(command, ()):
            cfg = write_json(tmp_path / "cfg.json", {key: 1})
            code, _, err = run(capsys, command, "--config", cfg)
            assert code == 3
            assert f"'{key}'" in err
            assert "valid keys" in err and VALID_KEY[command] in err

    def test_misspelled_duration_exits_3_without_simulating(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", {"duraton_s": 0.01, "dt_s": 1e-6})
        code, _, err = run(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "trace.csv"))
        assert code == 3
        assert "duraton_s" in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("value", ["abc", [1], True])
    def test_wrong_typed_value_exits_3_naming_the_key(self, value, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", {"duration_s": value})
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == 3
        assert "'duration_s'" in err

    def test_unknown_nested_key_exits_3(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "camp.json", {"esr": {"linewidth": 1e6}})
        code, _, err = run(capsys, "campaign", "--config", cfg)
        assert code == 3
        assert "linewidth_hz" in err

    def test_duplicate_pressures_exit_3(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "camp.json", {"pressures_hpa": [45.0, 45.0, 100.0]})
        code, out, err = run(capsys, "campaign", "--config", cfg, "--out", str(tmp_path / "c"))
        assert code == 3
        assert out == ""
        assert "distinct" in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("command, text, token", [
        ("simulate", '{"duration_s": NaN}', "NaN"),
        ("extract-k", '{"temperature": [[20, 297.4], [60, NaN, 0.1], [100, 311.0], '
                      '[140, 317.8]]}', "NaN"),
        ("extract-k", '{"temperature": [[20, 297.4], [60, Infinity], [100, 311.0], '
                      '[140, 317.8]]}', "Infinity"),
        ("extract-k", '{"temperature": [[20, 297.4], [60, 304.2], [100, 311.0], '
                      '[140, -Infinity]]}', "-Infinity"),
        ("simulate", '{"duration_s": 1e400}', "1e400"),    # overflows to inf
        pytest.param("simulate", '{"duration_s": 1' + 400 * "0" + "}", "1" + 400 * "0",
                     id="simulate-integer-past-the-float-range"),
    ])
    def test_non_json_number_exits_3_naming_it(self, command, text, token, tmp_path,
                                               capsys, monkeypatch):
        # Python's json reads these tokens as non-finite floats.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        inputs = [k_table(tmp_path)] if command == "extract-k" else []
        code, out, err = run(capsys, command, *inputs, "--config", str(cfg))
        assert code == 3
        assert out == ""
        assert f"{token} is not a finite JSON number" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python reads integers of any length")
    def test_integer_past_the_digit_limit_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1' + sys.get_int_max_str_digits() * "0" + "}")
        code, out, err = run(capsys, "simulate", "--config", str(cfg),
                             "--out", str(tmp_path / "t.csv"))
        assert code == 3
        assert out == ""
        assert "digits" in err

    @pytest.mark.parametrize("change, match", [
        ({"duration_s": 1e-4, "dt_s": 1e-6}, "fewer than 1000 steps"),
        ({"segment_length": 1}, "segment_length"),
    ])
    def test_campaign_no_trace_cell_can_run_exits_3(self, change, match, tmp_path, capsys):
        cfg = write_json(tmp_path / "camp.json", {"pressures_hpa": [45.0],
                                                  "laser_powers_mw": [30.0, 60.0, 90.0],
                                                  "repetitions": 1, **change})
        code, out, err = run(capsys, "campaign", "--config", cfg, "--out", str(tmp_path / "c"))
        assert code == 3
        assert out == ""
        assert match in err
        assert not (tmp_path / "c").exists()

    def test_one_element_series_row_exits_3(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "k.json", {
            "temperature": [[20.0, 297.4], [60.0], [100.0, 311.0]],
        })
        code, _, err = run(capsys, "extract-k", k_table(tmp_path), "--config", cfg)
        assert code == 3
        assert "'temperature'" in err

    def test_missing_series_exits_3(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "k.json", {"room_temperature": 294.0})
        code, _, err = run(capsys, "extract-k", k_table(tmp_path), "--config", cfg)
        assert code == 3
        assert "'temperature'" in err

    def test_unknown_axis_exits_3_naming_the_trace_axes(self, tmp_path, capsys):
        sim = write_json(tmp_path / "sim.json", {"duration_s": 0.01, "dt_s": 1e-6})
        trace = str(tmp_path / "trace.csv")
        assert run(capsys, "simulate", "--config", sim, "--out", trace)[0] == 0
        code, _, err = run(capsys, "psd", trace, "--axis", "z",
                           "--out", str(tmp_path / "psd.csv"))
        assert code == 3
        assert "'z'" in err and "x, y" in err
        assert not (tmp_path / "psd.csv").exists()

    def test_library_bug_propagates(self, tmp_path, capsys, monkeypatch):
        sim = write_json(tmp_path / "sim.json", {"duration_s": 0.01, "dt_s": 1e-6})
        trace, psd = str(tmp_path / "trace.csv"), str(tmp_path / "psd.csv")
        assert run(capsys, "simulate", "--config", sim, "--out", trace)[0] == 0
        assert run(capsys, "psd", trace, "--out", psd)[0] == 0

        def broken(*args, **kwargs):
            raise TypeError("a bug")

        monkeypatch.setattr("hotbrownian.cli.fit_psd", broken)
        with pytest.raises(TypeError, match="a bug"):
            main(["fit-psd", psd])


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["psd", "--seed", "9"],
        ["psd", "--format", "json"],
        ["fit-psd", "--out", "nowhere/"],
        ["extract-k", "--seed", "1"],
        ["cylinder-k", "--format", "csv"],
        ["psd", "--bogus"],
    ])
    def test_flag_the_command_does_not_read_exits_3(self, argv, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "unrecognized arguments" in err
        assert not (tmp_path / "nowhere").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["psd", "--help"])
        assert exc.value.code == 0
        assert "--axis" in capsys.readouterr().out

    def test_cylinder_out_without_a_table_exits_3(self, tmp_path, capsys):
        code, _, err = run(capsys, "cylinder-k", "--out", str(tmp_path / "c.csv"))
        assert code == 3
        assert "aspect_ratios" in err


# =============================================================================
# Fresh interpreters: heap memory and imports
# =============================================================================

def fresh_python(script, *args):
    """Stdout of ``script`` run in a fresh interpreter on this package."""
    src = str(Path(hotbrownian.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, check=True)
    return done.stdout


# Run in a fresh interpreter; prints the exit code and the free heap before
# and after the command.
_HEAP_SCRIPT = """
import ctypes, sys
import numpy as np
from hotbrownian.cli import main

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2
# Freeing a 32 MB mmapped block raises glibc's trim threshold to 64 MB,
# so the 32 MB of blocks freed next stay in the heap.
np.ones(4_000_000)
blocks = [np.ones(1_000_000) for _ in range(4)]
del blocks
free_before = mallinfo2().fordblks
code = main(["fit-psd", sys.argv[1]])
print(code, free_before, mallinfo2().fordblks)
"""


def test_command_hands_freed_heap_memory_back(tmp_path):
    """Freed arrays left at the top of the heap do not outlive a command.

    The command runs in a fresh interpreter, so the heap that earlier
    tests left behind does not count.
    """
    if getattr(ctypes.CDLL(None), "mallinfo2", None) is None:
        pytest.skip("needs glibc's mallinfo2")
    out = fresh_python(_HEAP_SCRIPT, str(tmp_path / "missing.csv"))
    code, free_before, free_after = map(int, out.split())
    assert code == 3
    assert free_before > 30e6
    assert free_before - free_after > 25e6


# The trace chain of every CLI process, run in a fresh interpreter; prints
# the scipy subpackages it loaded that the package must not need.
_IMPORT_SCRIPT = """
import sys
import hotbrownian, hotbrownian.cli
from hotbrownian import GasEnvironment, HeatingLaw, ParticleModel, SimulationConfig, Sphere
from hotbrownian import TrapAxis, fit_psd, simulate_trace, welch_psd

axis = TrapAxis(label="x", stiffness_coefficient=1.1e6, detection_gain=1e9)
trace = simulate_trace(SimulationConfig(
    dt=1e-6, duration=0.05, rng_seed=1, axes=(axis,), laser_power=0.1,
    gas=GasEnvironment(pressure=45.0),
    particle=ParticleModel(shape=Sphere(radius=500e-9), density=3500.0),
    heating=HeatingLaw(kappa_heat=17.0, T0=294.0)))
fit_psd(welch_psd(trace, segment_length=4096))
print(" ".join(m for m in ("scipy.signal", "scipy.stats") if m in sys.modules))
"""


def test_trace_chain_does_not_import_scipy_signal():
    """Simulating, a Hann Welch PSD and its fit load neither scipy.signal
    nor scipy.stats, which together take most of a bare import's time."""
    assert fresh_python(_IMPORT_SCRIPT).split() == []


# A process that only reads and fits spectra, run in a fresh interpreter;
# the trace is white noise shaped by a Lorentzian in numpy, not simulated.
# Prints whether scipy.linalg was loaded.
_SPECTRUM_IMPORT_SCRIPT = """
import sys
import numpy as np
import hotbrownian, hotbrownian.cli
from hotbrownian import TimeTrace, fit_psd, read_psd, welch_psd, write_psd

dt, n, f0, gamma = 1e-6, 2**16, 1.5e5, 2e4
f = np.fft.rfftfreq(n, dt)
shape = 1.0 / np.sqrt((f0**2 - f**2) ** 2 + (gamma * f) ** 2)
noise = np.random.default_rng(1).standard_normal(n)
trace = TimeTrace(dt=dt, signals={"x": np.fft.irfft(np.fft.rfft(noise) * shape, n)})
write_psd(welch_psd(trace, segment_length=4096), sys.argv[1])
fit_psd(read_psd(sys.argv[1]))
print("scipy.linalg" in sys.modules)
"""


def test_spectrum_chain_does_not_import_scipy_linalg(tmp_path):
    """The package, the CLI, reading, estimating and fitting a PSD leave
    scipy.linalg unloaded; only trace simulation needs it."""
    assert fresh_python(_SPECTRUM_IMPORT_SCRIPT, str(tmp_path / "psd.csv")).split() == ["False"]
