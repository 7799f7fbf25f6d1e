"""Tests for CSV/JSON persistence of traces, spectra, laws, and reports."""

import csv
import json
import math

import numpy as np
import pytest

import hotbrownian as hb
from hotbrownian import (
    CampaignConfig,
    ConfigError,
    DomainError,
    SimulationConfig,
    default_zfs_law,
    load_zfs_law,
    read_esr,
    read_psd,
    read_trace,
    run_campaign,
    save_zfs_law,
    simulate_esr,
    simulate_trace,
    welch_psd,
    write_cylinder_k_csv,
    write_esr,
    write_psd,
    write_report,
    write_trace,
)
from hotbrownian.io import _BLOCK_ROWS
from hotbrownian.twobath import cylinder_k, sphere_k


@pytest.fixture(scope="module")
def small_trace(axes_pair, sphere_particle, heating17, gas45):
    config = SimulationConfig(
        dt=1e-6, duration=0.002, rng_seed=13, axes=axes_pair, laser_power=0.1,
        gas=gas45, particle=sphere_particle, heating=heating17,
    )
    return simulate_trace(config)


@pytest.fixture(scope="module")
def report_campaign(axes_pair, sphere_particle, heating17):
    config = CampaignConfig(
        pressures_hpa=(45.0, 100.0),
        laser_powers_mw=(30.0, 90.0, 150.0),
        repetitions=1,
        duration_s=0.1,
        dt_s=1e-6,
        axes=axes_pair,
        particle=sphere_particle,
        heating=heating17,
        rng_seed=21,
    )
    report = run_campaign(config)
    assert report.errors == []
    return report


# =============================================================================
# Trace round trip
# =============================================================================

class TestTraceIo:
    def test_bit_exact_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        sidecar = write_trace(small_trace, path)
        assert sidecar == tmp_path / "trace.json"
        assert path.exists() and sidecar.exists()

        back = read_trace(path)
        assert back.dt == small_trace.dt
        assert sorted(back.signals) == ["x", "y"]
        for axis in ("x", "y"):
            np.testing.assert_array_equal(back.signals[axis], small_trace.signals[axis])

    def test_metadata_survives(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(small_trace, path)
        back = read_trace(path)
        assert back.metadata["laser_power_mw"] == 100.0
        assert back.metadata["pressure_hpa"] == 45.0
        assert back.metadata["seed"] == 13
        # JSON emits float64 repr, so the ground truth returns exactly
        truth_in = small_trace.metadata["true_parameters"]["x"]
        truth_out = back.metadata["true_parameters"]["x"]
        assert truth_out["omega0"] == truth_in["omega0"]
        assert truth_out["t_eff"] == truth_in["t_eff"]

    def test_csv_header_names_the_axes(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(small_trace, path)
        header = path.read_text().splitlines()[0]
        assert header == "t_s,Vx,Vy"

    def test_missing_sidecar_is_an_io_error(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(small_trace, path)
        (tmp_path / "trace.json").unlink()
        with pytest.raises(OSError):
            read_trace(path)

    def test_missing_column_is_a_config_error_naming_the_file(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(small_trace, path)
        rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        path.write_text("\n".join(rows) + "\n")          # drop the Vy column
        with pytest.raises(ConfigError, match="trace.csv"):
            read_trace(path)

    def test_subset_read_is_bit_identical_to_the_full_read(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(small_trace, path)
        full, subset = read_trace(path), read_trace(path, axes=["y"])
        assert list(subset.signals) == ["y"]
        assert subset.dt == full.dt and subset.metadata == full.metadata
        assert subset.signals["y"].flags.c_contiguous
        np.testing.assert_array_equal(subset.signals["y"].view(np.uint64),
                                      full.signals["y"].view(np.uint64))

    @pytest.mark.parametrize("edit, axes", [
        (lambda fields: fields[:-1], ["x"]),
        (lambda fields: fields + ["0.5"], ["x"]),
        (lambda fields: fields[:2] + ["abc"], ["y"]),
        (lambda fields: fields[:1] + ["abc"] + fields[2:], None),
    ], ids=["short_row", "long_row", "text_in_requested_axis", "text_in_full_read"])
    def test_malformed_row_is_a_config_error_naming_the_file(
        self, edit, axes, small_trace, tmp_path
    ):
        path = tmp_path / "trace.csv"
        write_trace(small_trace, path)
        lines = path.read_text().splitlines()
        lines[7] = ",".join(edit(lines[7].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="trace.csv"):
            read_trace(path, axes=axes)

    def test_unknown_axis_is_a_config_error_naming_the_trace_axes(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(small_trace, path)
        with pytest.raises(ConfigError, match="'z'; the trace holds x, y"):
            read_trace(path, axes=["x", "z"])


class TestBlockWriter:
    """The block-formatted writer emits the bytes np.savetxt would."""

    @staticmethod
    def write(kind, n, path):
        """Write an n-row file of ``kind``; return its header and columns."""
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n) * 1e-3, rng.exponential(1e4, n)
        if kind == "trace":
            trace = hb.TimeTrace(dt=5e-7, signals={"x": a, "y": b})
            write_trace(trace, path)
            return "t_s,Vx,Vy", [trace.times(), a, b]
        f = np.linspace(2.87e9 - 3e7, 2.87e9 + 3e7, n)
        if kind == "psd":
            write_psd(hb.Psd(frequencies=f, values=b, segment_count=3,
                             window_name="hann", dt=5e-7), path)
            return "f_Hz,S", [f, b]
        write_esr(hb.EsrSpectrum(microwave_frequencies=f, pl_counts=b), path)
        return "f_Hz,counts", [f, b]

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 3])
    @pytest.mark.parametrize("kind", ["trace", "psd", "esr"])
    def test_bytes_match_savetxt(self, kind, n, tmp_path):
        header, columns = self.write(kind, n, tmp_path / "new.csv")
        np.savetxt(tmp_path / "ref.csv", np.column_stack(columns), delimiter=",",
                   header=header, comments="", fmt="%.17g")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# =============================================================================
# PSD and ESR round trips
# =============================================================================

class TestSpectrumIo:
    def test_psd_round_trip(self, small_trace, tmp_path):
        psd = welch_psd(small_trace, axis="x", segment_length=512)
        path = tmp_path / "psd_x.csv"
        write_psd(psd, path)
        back = read_psd(path)
        np.testing.assert_array_equal(back.frequencies, psd.frequencies)
        np.testing.assert_array_equal(back.values, psd.values)
        assert back.segment_count == psd.segment_count
        assert back.window_name == psd.window_name
        assert back.dt == psd.dt

    def test_null_sampling_step_is_a_config_error_naming_the_file(self, small_trace, tmp_path):
        path = tmp_path / "psd_x.csv"
        sidecar = write_psd(welch_psd(small_trace, axis="x", segment_length=512), path)
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "dt_s": None}))
        with pytest.raises(ConfigError, match="psd_x.csv"):
            read_psd(path)

    def test_esr_round_trip(self, heating17, tmp_path):
        sweep = simulate_esr(heating17, default_zfs_law(), laser_power=60.0,
                             pressure=45.0, strain_E=5.2e6, contrast=0.22,
                             linewidth=2.5e6, noise_level=1.0, rng_seed=4)
        path = tmp_path / "esr.csv"
        write_esr(sweep, path)
        back = read_esr(path)
        np.testing.assert_array_equal(back.microwave_frequencies,
                                      sweep.microwave_frequencies)
        np.testing.assert_array_equal(back.pl_counts, sweep.pl_counts)
        assert back.metadata["t_int"] == sweep.metadata["t_int"]
        assert back.metadata["d_true"] == sweep.metadata["d_true"]
        assert back.metadata["seed"] == 4

    @pytest.mark.parametrize("reader, writer", [(read_psd, write_psd), (read_esr, write_esr)])
    def test_non_numeric_value_is_a_config_error_naming_the_file(
        self, reader, writer, small_trace, heating17, tmp_path
    ):
        path = tmp_path / "spectrum.csv"
        if writer is write_psd:
            writer(welch_psd(small_trace, axis="x", segment_length=512), path)
        else:
            writer(simulate_esr(heating17, default_zfs_law(), laser_power=60.0,
                                pressure=45.0, strain_E=5.2e6, contrast=0.22,
                                linewidth=2.5e6, noise_level=1.0, rng_seed=4), path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",abc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="spectrum.csv"):
            reader(path)


class TestZfsLawIo:
    def test_save_load_round_trip(self, tmp_path):
        law = default_zfs_law()
        path = tmp_path / "law.json"
        save_zfs_law(law, path)
        back = load_zfs_law(path)
        assert back.coefficients == law.coefficients
        assert (back.T_min, back.T_max) == (law.T_min, law.T_max)
        assert back.source == law.source

    def test_loading_validates_the_law(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "coefficients": [2.87e9, 1e5],   # increasing: not invertible
            "T_min": 250.0, "T_max": 600.0,
        }))
        with pytest.raises(DomainError, match="decrease"):
            load_zfs_law(path)


# =============================================================================
# Campaign reports
# =============================================================================

class TestWriteReport:
    def test_csv_format_writes_every_table(self, report_campaign, tmp_path):
        report_path = write_report(report_campaign, tmp_path)
        assert report_path == tmp_path / "report.json"
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "report.json",
            "normalized_area_vs_power.csv",
            "com_energy_vs_power.csv",
            "internal_temperature_vs_power.csv",
            "coupling_vs_pressure.csv",
        }

    def test_report_json_structure(self, report_campaign, tmp_path):
        write_report(report_campaign, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert set(data) == {
            "pressures_hpa", "laser_powers_mw", "points", "temperatures",
            "calibrations", "heating_fit", "estimate", "hydrodynamic_radius_m",
            "errors", "runtime_s",
        }
        assert data["pressures_hpa"] == [45.0, 100.0]
        assert sorted(data["calibrations"]) == ["100.0", "45.0"]
        assert data["heating_fit"]["kappa_heat"] == pytest.approx(
            report_campaign.heating_fit.kappa_heat
        )
        assert data["errors"] == []

    def test_area_table_has_one_row_per_fit(self, report_campaign, tmp_path):
        write_report(report_campaign, tmp_path)
        with (tmp_path / "normalized_area_vs_power.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["pressure_hpa", "axis", "laser_power_mw", "repetition",
                           "normalized_area", "sigma", "f_q_hz", "gamma_hz"]
        # 2 pressures x 3 powers x 1 rep x 2 axes
        assert len(rows) - 1 == 12

    def test_single_repetition_energy_sigma_is_nan(self, report_campaign, tmp_path):
        # One repetition has no spread to take a standard error from.
        write_report(report_campaign, tmp_path)
        with (tmp_path / "com_energy_vs_power.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12
        for row in rows:
            assert row["n_reps"] == "1"
            assert math.isnan(float(row["sigma_j"]))
            assert float(row["energy_j"]) > 0

    def test_temperature_table_applies_the_strain_offset(self, report_campaign, tmp_path):
        write_report(report_campaign, tmp_path)
        offset = report_campaign.heating_fit.strain_offset_K
        with (tmp_path / "internal_temperature_vs_power.csv").open() as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == 6
        for row in rows:
            t_raw, t_corr = float(row[2]), float(row[4])
            assert t_corr == pytest.approx(t_raw - offset, rel=1e-12)

    def test_coupling_table_lists_axis_pressure_pairs(self, report_campaign, tmp_path):
        write_report(report_campaign, tmp_path)
        with (tmp_path / "coupling_vs_pressure.csv").open() as handle:
            rows = list(csv.reader(handle))[1:]
        keys = {(r[0], float(r[1])) for r in rows}
        assert keys == {("x", 45.0), ("x", 100.0), ("y", 45.0), ("y", 100.0)}

    def test_json_format_writes_no_tables(self, report_campaign, tmp_path):
        write_report(report_campaign, tmp_path, format="json")
        assert {p.name for p in tmp_path.iterdir()} == {"report.json"}

    def test_rejects_unknown_format(self, report_campaign, tmp_path):
        with pytest.raises(DomainError, match="format"):
            write_report(report_campaign, tmp_path, format="yaml")


# =============================================================================
# Cylinder coupling table
# =============================================================================

class TestCylinderKCsv:
    def test_table_contents(self, gas45, tmp_path):
        path = tmp_path / "cyl.csv"
        write_cylinder_k_csv(path, radius=40e-9, aspect_ratios=(1.0, 1.5, 3.0),
                             gas=gas45)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert data.shape == (3, 5)

        x1 = data[0]
        assert x1[0] == 1.0
        assert x1[1] == 1.0                      # isotropic drag at x = 1
        # at unit aspect ratio both cylinder axes reproduce the sphere
        assert x1[2] == x1[3] == x1[4]
        k_sph = sphere_k(t0=gas45.temperature)
        assert x1[4] == k_sph

        for row in data[1:]:
            assert row[1] > 1.0                  # anisotropy grows with x
            assert row[2] < k_sph < row[3]       # parallel < sphere < perpendicular

    def test_directory_target_uses_default_name(self, gas45, tmp_path):
        write_cylinder_k_csv(tmp_path, radius=40e-9, aspect_ratios=(2.0,), gas=gas45)
        assert (tmp_path / "cylinder_coupling_vs_anisotropy.csv").exists()

    def test_returns_the_csv_it_wrote(self, gas45, tmp_path):
        table = tmp_path / "cylinder_coupling_vs_anisotropy.csv"
        assert write_cylinder_k_csv(tmp_path, radius=40e-9, aspect_ratios=(2.0,),
                                    gas=gas45) == table
        named = tmp_path / "shapes.csv"
        assert write_cylinder_k_csv(named, radius=40e-9, aspect_ratios=(2.0,),
                                    gas=gas45) == named

    def test_matches_direct_evaluation(self, gas45, tmp_path):
        path = tmp_path / "cyl.csv"
        write_cylinder_k_csv(path, radius=40e-9, aspect_ratios=(2.5,), gas=gas45)
        row = np.loadtxt(path, delimiter=",", skiprows=1)
        particle = hb.ParticleModel(
            shape=hb.Cylinder(radius=40e-9, length=2 * 40e-9 * 2.5), density=3500.0
        )
        assert row[2] == cylinder_k(particle, gas45, "parallel")
        assert row[3] == cylinder_k(particle, gas45, "perpendicular")
