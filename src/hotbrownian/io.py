"""File formats: traces, spectra, splitting laws, campaign reports.

Arrays go to CSV with 17 significant digits (bit-exact float64 round
trips); scalars and provenance go to JSON sidecars named after the CSV
with a ``.json`` extension.  :func:`read_trace` parses only the axes the
caller asks for, so ``hotbrownian psd`` converts one column of a trace.
Campaign reports serialize to one JSON document plus one CSV per
figure-ready table, named by content.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, HotBrownianError
from .pipeline import CampaignReport, com_energy
from .simulate import TimeTrace
from .spectral import Psd
from .thermometry import EsrSpectrum, ZfsLaw, _parse_zfs_law
from .twobath import cylinder_drag, cylinder_k, sphere_k
from .core import Cylinder, GasEnvironment, ParticleModel

__all__ = [
    "write_trace",
    "read_trace",
    "write_psd",
    "read_psd",
    "write_esr",
    "read_esr",
    "save_zfs_law",
    "load_zfs_law",
    "write_report",
    "write_cylinder_k_csv",
]

_FMT = "%.17g"               # fixed 17 significant digits: exact for float64
_BLOCK_ROWS = 16384          # rows per % call; larger blocks add to peak memory


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".json")


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _dump_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, default=_json_default) + "\n")


def _write_columns(path, header: str, columns: list, meta: dict) -> Path:
    """Write ``columns`` as CSV under ``header`` and ``meta`` as its sidecar.

    The text is that of ``np.savetxt(path, np.column_stack(columns),
    delimiter=",", header=header, comments="", fmt=_FMT)``, formatted a
    block of rows at a time without stacking all columns at once.
    """
    path = Path(path)
    row = ",".join([_FMT] * len(columns)) + "\n"
    with path.open("w") as handle:
        handle.write(header + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns])
            handle.write(row * len(block) % tuple(block.ravel().tolist()))
    _dump_json(meta, _sidecar(path))
    return _sidecar(path)


@contextlib.contextmanager
def _malformed(path):
    """Turn a parse failure while reading ``path`` into a ConfigError naming it.

    A non-numeric value, a missing column, or a missing or null sidecar
    key surfaces as ValueError, IndexError, KeyError or TypeError.  A
    toolkit error (a parsed value the toolkit refuses) passes unchanged.
    """
    try:
        yield
    except HotBrownianError:
        raise
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed file {path}: {exc}") from exc


def _read_columns(path) -> tuple[np.ndarray, dict]:
    """The data rows and the sidecar of a file written by :func:`_write_columns`."""
    path = Path(path)
    meta = json.loads(_sidecar(path).read_text())
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2), meta


# =============================================================================
# Time traces
# =============================================================================

def write_trace(trace: TimeTrace, path) -> Path:
    """Write a trace as CSV (t_s, V<axis>...) with a JSON sidecar.

    Returns the sidecar path.  Values use 17 significant digits, so
    :func:`read_trace` reproduces the samples bit-exactly.
    """
    labels = sorted(trace.signals.keys())
    meta = trace.metadata
    return _write_columns(
        path,
        ",".join(["t_s"] + [f"V{k}" for k in labels]),
        [trace.times()] + [np.asarray(trace.signals[k], float) for k in labels],
        {
            "power_mW": meta.get("laser_power_mw"),
            "pressure_hPa": meta.get("pressure_hpa"),
            "dt_s": trace.dt,
            "seed": meta.get("seed"),
            "axes": labels,
            "true_parameters": meta.get("true_parameters", {}),
        },
    )


def read_trace(path, axes: Sequence[str] | None = None) -> TimeTrace:
    """Load a trace written by :func:`write_trace`: every axis, or only ``axes``.

    Only the requested voltage columns are converted to floats; ``t_s``
    is never parsed, since ``dt`` comes from the sidecar.  Every row must
    still hold one field per column.  Trade-off: non-numeric text in a
    column that was not requested is not refused by a subset read; a full
    read refuses it.  An axis the trace does not hold is a ConfigError.
    """
    with _malformed(path):
        meta = json.loads(_sidecar(Path(path)).read_text())
        labels = list(meta["axes"])
    wanted = labels if axes is None else list(axes)
    for axis in wanted:
        if axis not in labels:
            raise ConfigError(
                f"unknown axis {axis!r}; the trace holds {', '.join(sorted(labels))}"
            )
    with _malformed(path):
        fields = [("t_s", "S1")] + [(f"V{k}", "f8" if k in wanted else "S1") for k in labels]
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1, dtype=fields)
        return TimeTrace(
            dt=float(meta["dt_s"]),
            signals={k: np.ascontiguousarray(data[f"V{k}"]) for k in labels if k in wanted},
            metadata={
                "laser_power_mw": meta.get("power_mW"),
                "pressure_hpa": meta.get("pressure_hPa"),
                "seed": meta.get("seed"),
                "true_parameters": meta.get("true_parameters", {}),
            },
        )


# =============================================================================
# Spectra
# =============================================================================

def write_psd(psd: Psd, path) -> Path:
    """Write a PSD as CSV (f_Hz, S) with window/segment sidecar."""
    return _write_columns(
        path, "f_Hz,S", [psd.frequencies, psd.values],
        {"window": psd.window_name, "segments": psd.segment_count, "dt_s": psd.dt},
    )


def read_psd(path) -> Psd:
    with _malformed(path):
        data, meta = _read_columns(path)
        return Psd(
            frequencies=data[:, 0],
            values=data[:, 1],
            segment_count=int(meta["segments"]),
            window_name=meta["window"],
            dt=float(meta["dt_s"]),
        )


def write_esr(spectrum: EsrSpectrum, path) -> Path:
    """Write an ESR sweep as CSV (f_Hz, counts) with metadata sidecar."""
    return _write_columns(
        path, "f_Hz,counts", [spectrum.microwave_frequencies, spectrum.pl_counts],
        dict(spectrum.metadata),
    )


def read_esr(path) -> EsrSpectrum:
    with _malformed(path):
        data, meta = _read_columns(path)
        return EsrSpectrum(microwave_frequencies=data[:, 0], pl_counts=data[:, 1],
                           metadata=meta)


# =============================================================================
# Splitting laws
# =============================================================================

def save_zfs_law(law: ZfsLaw, path) -> None:
    path = Path(path)
    _dump_json(
        {
            "coefficients": list(law.coefficients),
            "T_min": law.T_min,
            "T_max": law.T_max,
            "source": law.source,
        },
        path,
    )


def load_zfs_law(path) -> ZfsLaw:
    with _malformed(path):
        return _parse_zfs_law(Path(path).read_text())


# =============================================================================
# Campaign reports
# =============================================================================

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                f"{v:.17g}" if isinstance(v, float) else v for v in row
            ])


def write_report(report: CampaignReport, outdir, format: str = "csv") -> Path:
    """Write ``report.json`` plus (with format="csv") figure-ready tables.

    Tables, one CSV each, named by content:

    * ``normalized_area_vs_power.csv`` — every PSD fit's A/f_q^2
    * ``com_energy_vs_power.csv`` — calibrated energies, averaged over reps;
      ``sigma_j`` is the standard error of that mean over the repetitions
      (``nan`` with a single repetition)
    * ``internal_temperature_vs_power.csv`` — raw and corrected ESR temps
    * ``coupling_vs_pressure.csv`` — per-axis, per-pressure K

    Returns the path of ``report.json``.
    """
    if format not in ("csv", "json"):
        raise DomainError(f"unknown report format {format!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    report_path = outdir / "report.json"
    _dump_json(dataclasses.asdict(report), report_path)
    if format == "json":
        return report_path

    rows = []
    for pt in report.points:
        for axis in sorted(pt.fits):
            fit = pt.fits[axis]
            rows.append([
                float(pt.pressure_hpa), axis, float(pt.laser_power),
                int(pt.repetition_index),
                float(fit.normalized_area), float(fit.normalized_area_sigma),
                float(fit.f_q), float(fit.gamma),
            ])
    _write_csv(
        outdir / "normalized_area_vs_power.csv",
        ["pressure_hpa", "axis", "laser_power_mw", "repetition",
         "normalized_area", "sigma", "f_q_hz", "gamma_hz"],
        rows,
    )

    rows = []
    for pressure, calib in report.calibrations.items():
        sweep = [pt for pt in report.points if pt.pressure_hpa == pressure]
        for axis in sorted(calib.c_calib):
            for power in sorted({pt.laser_power for pt in sweep}):
                cell = [pt for pt in sweep if pt.laser_power == power]
                energies = [com_energy(pt, calib, axis) for pt in cell]
                n = len(energies)
                spread = float(np.std(energies, ddof=1)) / math.sqrt(n) if n > 1 else math.nan
                rows.append([
                    float(pressure), axis, float(power),
                    float(np.mean(energies)), spread, n,
                ])
    _write_csv(
        outdir / "com_energy_vs_power.csv",
        ["pressure_hpa", "axis", "laser_power_mw", "energy_j", "sigma_j", "n_reps"],
        rows,
    )

    heating_fit = report.heating_fit
    rows = [
        [float(t.pressure), float(t.laser_power), float(t.temperature),
         float(t.sigma) if t.sigma is not None else 0.0,
         float(heating_fit.corrected_temperature(t) if heating_fit else t.temperature)]
        for t in report.temperatures
    ]
    _write_csv(
        outdir / "internal_temperature_vs_power.csv",
        ["pressure_hpa", "laser_power_mw", "t_raw_k", "sigma_k", "t_corrected_k"],
        rows,
    )

    rows = []
    if report.estimate is not None:
        for axis, measurements in report.estimate.per_pressure.items():
            for m in measurements:
                rows.append([axis, float(m.pressure), float(m.K), float(m.sigma)])
    _write_csv(
        outdir / "coupling_vs_pressure.csv",
        ["axis", "pressure_hpa", "k", "sigma"],
        rows,
    )
    return report_path


_CYLINDER_COLUMNS = ["length_over_diameter", "g", "k_parallel", "k_perpendicular", "k_sphere"]


def _cylinder_row(
    particle: ParticleModel,
    aspect: float,
    gas: GasEnvironment,
    delta_t_grid: Sequence[float] | None,
) -> dict:
    """One cylinder's entry of the coupling table: its aspect ratio as
    given, the drag anisotropy factor g, the slope-procedure coupling
    constants of both axes, and the sphere value from the same procedure."""
    return dict(zip(_CYLINDER_COLUMNS, (
        float(aspect),
        float(cylinder_drag(particle, gas).anisotropy_g),
        float(cylinder_k(particle, gas, "parallel", delta_t_grid)),
        float(cylinder_k(particle, gas, "perpendicular", delta_t_grid)),
        float(sphere_k(t0=gas.temperature, delta_t_grid=delta_t_grid)),
    )))


def write_cylinder_k_csv(
    path,
    radius: float,
    aspect_ratios: Sequence[float],
    gas: GasEnvironment,
    density: float = ParticleModel.density,
    delta_t_grid: Sequence[float] | None = None,
) -> Path:
    """Tabulate cylinder coupling constants against shape anisotropy.

    One row per aspect ratio x = length/(2*radius): the drag anisotropy
    factor g and the slope-procedure coupling constants of both axes,
    next to the sphere value from the identical procedure.  Returns the
    CSV: ``path`` itself if it has a suffix, else an existing directory's
    ``cylinder_coupling_vs_anisotropy.csv``.
    """
    path = Path(path)
    if not path.suffix:
        path = path / "cylinder_coupling_vs_anisotropy.csv"
    rows = [
        _cylinder_row(
            ParticleModel(shape=Cylinder(radius=radius, length=2.0 * radius * float(x)),
                          density=density),
            x, gas, delta_t_grid,
        )
        for x in aspect_ratios
    ]
    _write_csv(path, _CYLINDER_COLUMNS, [list(row.values()) for row in rows])
    return path
