"""File formats: traces, spectra, splitting laws, campaign reports.

Arrays go to CSV as exact decimals: each float field holds the value's
17 correctly rounded significant digits, enough to give back any float64
bit for bit, written as an integer mantissa with its trailing zeros
stripped and a decimal exponent.  ``-0.22926543811155883`` is written
``-22926543811155883e-17``, ``2870000000.0`` is ``287e7``, an ESR count
of ``99981.0`` is ``99981``, and ``-0.0``, ``nan``, ``inf`` and ``-inf``
are ``-0``, ``nan``, ``inf`` and ``-inf``.  It is plain decimal float
syntax, which ``float``, ``np.loadtxt`` and ``np.genfromtxt`` parse.
Scalars and provenance go to JSON sidecars named after the CSV with a
``.json`` extension.  :func:`read_trace` parses only the axes the caller
asks for, so ``hotbrownian psd`` converts one column of a trace.
Campaign reports serialize to one JSON document plus one CSV per
figure-ready table, named by content; their fields use ``%.17g``.

The ``t_s`` column of a trace holds the exact decimal ``i*D`` of row
``i``, where ``D = repr(dt)``: an integer mantissa and a fixed exponent.
At ``dt = 5e-7`` the rows read ``0e-7,...``, ``5e-7,...``,
``10e-7,...``, and row 3 of a ``dt = 1.5e-6`` trace reads
``45e-7,-12345678901234567e-25,...``.  A correctly rounded parse of a
field gives the float nearest to ``i*D``.  A ``dt`` with a 17-digit
repr such as ``1/3e6`` gives fields of up to about 27 characters, longer
than ``%.17g`` would be but still exact.  :func:`read_trace` never
parses the column, so traces written with ``%.17g`` times read the same.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import decimal
import json
import math
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, HotBrownianError
from .pipeline import CampaignReport
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

_BLOCK_ROWS = 4096           # rows per % call; larger blocks add to peak memory


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


# =============================================================================
# Exact decimal fields
# =============================================================================
#
# A finite x with 1e-26 <= |x| < 1e16 is encoded a block at a time in
# numpy.  With p = 16 - floor(log10|x|), Dekker's exact product gives
# hi + lo = |x|*10**p exactly, and N = hi + rint(lo) is that product
# rounded half-even to an integer (hi >= 2**53 is itself an integer).
# N holds the 17 significant digits when 10**16 <= |x|*10**p < 10**17;
# a log10 one decade off is corrected by redoing the value at p +- 1.
# 10**p is an exact float up to p = 22; beyond, the two parts of the
# product at 10**22 are each multiplied exactly by 10**(p - 22), and the
# three small parts are summed in floats, so a value whose sum lies
# within 1e-12 of a half is left to the exact path.  Every other value
# takes the exact path: the ``decimal`` module, value by value.

_TEN = 10.0 ** np.arange(23)         # exact float64 powers 10**0 .. 10**22


def _split(a):
    """Veltkamp's split of ``a`` into two 26-bit halves, ``a == hi + lo``."""
    c = 134217729.0 * a              # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_TEN_HI, _TEN_LO = _split(_TEN)


def _two_product(a, k):
    """``hi, lo`` with ``hi + lo == a * 10**k`` exactly (Dekker 1971), 0 <= k <= 22."""
    hi = a * _TEN[k]
    a1, a2 = _split(a)
    b1, b2 = _TEN_HI[k], _TEN_LO[k]
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _scaled(a, p):
    """``a * 10**p`` rounded half-even to int64, for 0 <= p <= 44, and a
    mask of the values whose rounding the float sum left undecided."""
    hi, lo = _two_product(a, np.minimum(p, 22))
    unsure = np.zeros(a.shape, bool)
    big = np.flatnonzero(p > 22)
    if big.size:
        q = p[big] - 22
        h2, l2 = _two_product(hi[big], q)
        h3, l3 = _two_product(lo[big], q)
        rest = (l2 + h3) + l3
        hi[big], lo[big] = h2, rest
        unsure[big] = np.abs(rest - np.floor(rest) - 0.5) < 1e-12
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), unsure


def _digits17(a):
    """``N, p, unsure`` with ``N`` the 17 significant digits of ``a * 10**p``
    (``N`` is ``10**17`` when they round up to it), for 1e-26 <= a < 1e16."""
    p = 16 - np.floor(np.log10(a)).astype(np.int64)
    n, unsure = _scaled(a, p)
    # The product below 10**16 (it may round up to exactly 10**16): one
    # more digit.  N == 10**16 at p is right unless p + 1 gives fewer
    # than 10**17.
    low = np.flatnonzero(n <= 10**16)
    if low.size:
        n2, u2 = _scaled(a[low], p[low] + 1)
        keep = n2 < 10**17
        low = low[keep]
        n[low], unsure[low], p[low] = n2[keep], u2[keep], p[low] + 1
    high = np.flatnonzero(n > 10**17)
    if high.size:
        p[high] -= 1
        n[high], unsure[high] = _scaled(a[high], p[high])
    return n, p, unsure


def _suffix(exponent: int) -> str:
    return f"e{exponent}" if exponent else ""


_SUFFIX_MIN = -44                    # the fast path's exponents: -44 .. 17
_SUFFIXES = np.array([_suffix(e) for e in range(_SUFFIX_MIN, 18)], dtype=object)
_DIGITS17 = decimal.Context(prec=17, rounding=decimal.ROUND_HALF_EVEN)


def _exact_field(x: float) -> tuple[str, str]:
    """Mantissa and suffix of one value, from the ``decimal`` module."""
    if not math.isfinite(x) or x == 0.0:
        return "%.17g" % x, ""       # nan, inf, -inf, 0, -0
    sign, digits, exponent = _DIGITS17.plus(decimal.Decimal(x)).normalize(_DIGITS17).as_tuple()
    return ("-" if sign else "") + "".join(map(str, digits)), _suffix(exponent)


def _decimal_fields(values: np.ndarray) -> tuple[list, list]:
    """Per value, the integer mantissa and the exponent suffix (``""`` or
    ``"e<exp>"``) of its exact 17-digit decimal, trailing zeros stripped.

    ``"%s%s" % (mantissa, suffix)`` is the field.  A value outside the
    numpy path (module comment above), and -0, nan and +-inf, has a
    string mantissa from :func:`_exact_field`.
    """
    x = np.asarray(values, dtype=float)
    a = np.abs(x)
    with np.errstate(invalid="ignore"):
        fast = np.flatnonzero((a >= 1e-26) & (a < 1e16))
    n, p, unsure = _digits17(a[fast])
    exponent = -p
    zeros = np.flatnonzero(n % 10 == 0)
    if zeros.size:
        nz, ez = n[zeros], exponent[zeros]
        for k in (16, 8, 4, 2, 1):
            divisible = nz % 10**k == 0
            nz[divisible] //= 10**k
            ez[divisible] += k
        n[zeros], exponent[zeros] = nz, ez
    mantissas = np.zeros(x.shape, np.int64)
    exponents = np.zeros(x.shape, np.int64)
    mantissas[fast] = np.where(x[fast] < 0, -n, n)
    exponents[fast] = exponent
    mantissas = mantissas.tolist()
    suffixes = _SUFFIXES[exponents - _SUFFIX_MIN].tolist()
    slow = np.ones(x.shape, bool)
    slow[fast[~unsure]] = False
    for i in np.flatnonzero(slow).tolist():
        mantissas[i], suffixes[i] = _exact_field(float(x[i]))
    return mantissas, suffixes


# =============================================================================
# Columns
# =============================================================================

def _write_columns(path, header: str, columns: list, meta: dict) -> Path:
    """Write ``columns`` as CSV under ``header`` and ``meta`` as its sidecar.

    A column is a float array, written as exact decimals
    (:func:`_decimal_fields`), or a pair ``(mantissas, suffix)`` of a
    ``range`` of Python ints and a fixed exponent suffix, written
    ``"%d" + suffix``.  A block of rows at a time, the columns' fields
    are interleaved into one argument list for a single ``%``.
    """
    path = Path(path)
    row = ",".join("%d" + c[1] if isinstance(c, tuple) else "%s%s" for c in columns) + "\n"
    width = sum(1 if isinstance(c, tuple) else 2 for c in columns)
    length = len(columns[0][0] if isinstance(columns[0], tuple) else columns[0])
    with path.open("w") as handle:
        handle.write(header + "\n")
        for start in range(0, length, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, length)
            rows = stop - start
            fields = [None] * (width * rows)
            j = 0
            for column in columns:
                if isinstance(column, tuple):
                    fields[j::width] = column[0][start:stop]
                    j += 1
                else:
                    fields[j::width], fields[j + 1::width] = _decimal_fields(column[start:stop])
                    j += 2
            handle.write(row * rows % tuple(fields))
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

    Returns the sidecar path.  Each voltage is the exact decimal of its
    17 significant digits (module docstring), so :func:`read_trace`
    reproduces the samples bit-exactly; ``t_s`` is the exact decimal
    ``i*repr(dt)``.  A ``dt`` that is not a finite positive number, no
    axes, or axes of unequal length is a DomainError.
    """
    dt = float(trace.dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"trace sampling step dt must be finite and positive, got {dt!r}")
    labels = sorted(trace.signals.keys())
    signals = [np.asarray(trace.signals[k], float) for k in labels]
    lengths = {k: len(v) for k, v in zip(labels, signals)}
    if len(set(lengths.values())) != 1:
        raise DomainError(f"a trace needs axes of one length, got {lengths}")
    # repr(dt) = m * 10**e exactly; row i's time is the integer i*m with
    # exponent e.  Python ints, since i*m overflows int64 for 17-digit m.
    _, digits, exponent = decimal.Decimal(repr(dt)).as_tuple()
    mantissa = int("".join(map(str, digits)))
    meta = trace.metadata
    return _write_columns(
        path,
        ",".join(["t_s"] + [f"V{k}" for k in labels]),
        [(range(0, len(signals[0]) * mantissa, mantissa), f"e{exponent}")] + signals,
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
                energies = [calib.c_calib[axis] * pt.fits[axis].normalized_area for pt in cell]
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
