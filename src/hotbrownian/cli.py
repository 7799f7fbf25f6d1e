"""Command-line interface.

Subcommands cover the pipeline end to end: simulate traces, estimate
and fit spectra, calibrate sweeps, extract coupling constants, run whole
campaigns, and tabulate cylinder couplings.  Each reads an optional JSON
config (--config) keyed by the parameters of the library call it makes
(README, "Quickstart (CLI)").  A key left out takes the library default
or, where there is none, the bundled example in ``_EXAMPLE``.  Unknown
keys, wrong-typed values and flags a command does not read are refused.

``calibrate`` and ``extract-k`` read the same input, a table of PSD fits
like a campaign's ``normalized_area_vs_power.csv``; ``extract-k`` also
needs a ``temperature`` series of ESR temperatures at the table's powers.

``campaign`` takes ``-v``/``--verbose``, which logs its progress (INFO
and above of the ``hotbrownian`` logger, one line per pressure) to stderr.

Exit codes: 0 success, 2 fit/calibration failure, 3 invalid configuration,
usage, or unreadable or malformed file.  Any other exception is a bug: a
traceback.
"""

from __future__ import annotations

import argparse
import collections.abc
import ctypes
import dataclasses
import inspect
import json
import logging
import math
import os
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .core import Cylinder, GasEnvironment, ParticleModel, Sphere, mw_to_w
from .errors import CalibrationError, ConfigError, DomainError, EstimationError
from .io import (_cylinder_row, _malformed, load_zfs_law, read_esr, read_psd, read_trace,
                 write_cylinder_k_csv, write_psd, write_report, write_trace)
from .pipeline import (CalibrationResult, CampaignConfig, PowerSweepPoint, calibrate,
                       extract_k, run_campaign)
from .simulate import SimulationConfig, simulate_trace
from .spectral import PsdFit, fit_psd, welch_psd
from .thermometry import (TemperaturePoint, ZfsLaw, default_zfs_law, fit_esr,
                          temperature_from_esr)

__all__ = ["main"]

# The bundled example particle, trap and grids: the value of each config
# key whose library parameter has no default, so that every command runs
# on an empty config.  Nested objects are completed key by key.
_EXAMPLE = {
    "axes": [
        {"label": "x", "stiffness_coefficient": 2 * math.pi * 1.807e5, "detection_gain": 1.0e9},
        {"label": "y", "stiffness_coefficient": 2 * math.pi * 1.549e5, "detection_gain": 0.8e9},
    ],
    "particle": {"radius_m": 500e-9}, "heating": {"kappa_heat": 17.0},
    "seed": 0, "dt_s": 5e-7, "duration_s": 1.0, "laser_power_mw": 100.0, "pressure_hpa": 45.0,
    "pressures_hpa": [45.0, 60.0, 80.0, 100.0], "laser_powers_mw": list(range(15, 151, 15)),
    "repetitions": 3,
    "radius_m": 40e-9,                   # the cylinder of cylinder-k
}

_NO_DEFAULT = inspect.Parameter.empty


class _Key(typing.NamedTuple):
    """A config key: the library parameter it sets, its type and default."""

    param: str
    kind: object
    default: object = None


def _keys(target, **rename) -> dict[str, _Key]:
    """Config keys for the parameters of a function or dataclass.

    A key is named after its parameter unless ``rename`` maps the
    parameter to another key, or to None to leave it out.  An
    unannotated parameter is read as a string.
    """
    hints = typing.get_type_hints(target)
    return {
        rename.get(name, name): _Key(name, hints.get(name, str), p.default)
        for name, p in inspect.signature(target).parameters.items()
        if rename.get(name, name) is not None
    }


def _kwargs(cfg: dict, keys: dict[str, _Key]) -> dict:
    """Keyword arguments for the keys of ``keys`` present in ``cfg``."""
    return {spec.param: cfg[key] for key, spec in keys.items() if key in cfg}


def _read(where: str, raw, keys: dict[str, _Key]) -> dict:
    """Config object ``raw`` with every value converted to its key's type."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys: {', '.join(sorted(keys))}"
        )
    return {key: _convert(key, value, keys[key].kind) for key, value in raw.items()}


def _convert(key: str, value, kind):
    """``value`` of config key ``key`` checked against, and built as, ``kind``."""
    kind = _READERS.get(kind, kind)
    if inspect.isfunction(kind):
        return kind(key, value)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):        # X | None
        return _convert(key, value, args[0]) if value else None
    if origin in (tuple, collections.abc.Sequence):
        items = _convert(key, value, list)
        kinds = args if len(args) > 1 and args[1] is not Ellipsis else args[:1] * len(items)
        if len(kinds) != len(items):
            raise ConfigError(f"{key!r} must hold {len(kinds)} values, got {value!r}")
        return tuple(_convert(key, item, k) for item, k in zip(items, kinds))
    if dataclasses.is_dataclass(kind):
        keys = _keys(kind)
        cfg = _read(repr(key), value, keys)
        missing = [k for k, spec in keys.items() if spec.default is _NO_DEFAULT and k not in cfg]
        if missing:
            raise ConfigError(f"{key!r} needs {', '.join(map(repr, missing))}")
        return kind(**cfg)
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise ConfigError(f"{key!r} must be {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def _particle(key: str, value) -> ParticleModel:
    """A sphere of ``radius_m``, or a cylinder when ``length_m`` is given."""
    shape = _keys(Cylinder, radius="radius_m", length="length_m")
    material = _keys(ParticleModel, shape=None)
    cfg = _read(repr(key), value, {**shape, **material})
    dims = _kwargs(cfg, shape)
    return ParticleModel(
        shape=Cylinder(**dims) if "length" in dims else Sphere(**dims),
        **_kwargs(cfg, material),
    )


def _series(key: str, value) -> list[tuple]:
    """Rows ``[power, value]`` or ``[power, value, sigma]`` of an inline series."""
    rows = []
    for row in _convert(key, value, list):
        row = _convert(key, row, list)
        if len(row) not in (2, 3):
            raise ConfigError(f"{key!r} rows are [power, value] or [power, value, sigma]")
        power, val, sigma = row + [None] * (3 - len(row))
        rows.append((_convert(key, power, float), _convert(key, val, float),
                     None if sigma is None else _convert(key, sigma, float)))
    return rows


# The gas around the particle, for the commands that build one.
_GAS = _keys(GasEnvironment, pressure="pressure_hpa", temperature="room_temperature")

# Types read from something other than a JSON object of their fields.
_READERS = {
    ParticleModel: _particle,
    ZfsLaw: lambda key, value: load_zfs_law(_convert(key, value, str)),
}


def _config(args, keys: dict[str, _Key], input_key: str | None = None) -> dict:
    """The --config object of a command that reads ``keys``, converted.

    The flags --seed and --axis and the input file argument override the
    config keys ``seed``, ``axis`` and ``input_key``.  Keys without a
    library default take their ``_EXAMPLE`` value.
    """
    raw = json.loads(Path(args.config).read_text()) if args.config else {}
    if input_key:
        keys = {**keys, input_key: _Key(input_key, str)}
    if isinstance(raw, dict):
        flags = {"seed": "seed", "axis": "axis", "input": input_key}
        raw.update({flags[k]: v for k, v in vars(args).items() if k in flags and v is not None})
        for key, example in _EXAMPLE.items():
            if key in keys and keys[key].default is _NO_DEFAULT:
                given = raw.setdefault(key, example)
                if isinstance(example, dict) and isinstance(given, dict):
                    raw[key] = {**example, **given}
        if isinstance(raw.get("heating"), dict) and "room_temperature" in raw:
            # The heating law starts from the room unless it sets its own T0.
            raw["heating"] = {"T0": raw["room_temperature"], **raw["heating"]}
    cfg = _read(f"{args.command} --config", raw, keys)
    if input_key and input_key not in cfg:
        raise ConfigError(f"missing input: pass a file argument or {input_key!r} in --config")
    return cfg


def _out_file(args, default_name: str) -> Path:
    """--out as a file (it has a suffix) or a directory given ``default_name``."""
    out = Path(args.out or ".")
    path = out if out.suffix else out / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, default=str))


def _print_fit(payload: dict, converged: bool) -> int:
    _print_json(payload)
    if converged:
        return 0
    print("fit did not converge", file=sys.stderr)
    return 2


# =============================================================================
# Subcommands
# =============================================================================

def cmd_simulate(args) -> int:
    sim = _keys(SimulationConfig, dt="dt_s", duration="duration_s", rng_seed="seed",
                laser_power="laser_power_mw", anomaly_injection="anomaly", gas=None)
    cfg = _config(args, {**sim, **_GAS})
    kwargs = _kwargs(cfg, sim)
    kwargs["laser_power"] = mw_to_w(kwargs["laser_power"])
    trace = simulate_trace(SimulationConfig(gas=GasEnvironment(**_kwargs(cfg, _GAS)), **kwargs))
    path = _out_file(args, "trace.csv")
    write_trace(trace, path)
    print(path)
    return 0


def cmd_psd(args) -> int:
    keys = _keys(welch_psd)
    cfg = _config(args, keys, input_key="trace")
    axis = cfg.setdefault("axis", keys["axis"].default)
    cfg["trace"] = read_trace(cfg["trace"], axes=[axis])
    psd = welch_psd(**_kwargs(cfg, keys))
    path = _out_file(args, f"psd_{axis}.csv")
    write_psd(psd, path)
    print(path)
    return 0


def cmd_fit_psd(args) -> int:
    keys = _keys(fit_psd)
    cfg = _config(args, keys, input_key="psd")
    cfg["psd"] = read_psd(cfg["psd"])
    fit = fit_psd(**_kwargs(cfg, keys))
    return _print_fit(dataclasses.asdict(fit), fit.converged)


def cmd_fit_esr(args) -> int:
    cfg = _config(args, _keys(temperature_from_esr, fit=None, law="zfs_law"), input_key="esr")
    fit = fit_esr(read_esr(cfg["esr"]))
    payload = dataclasses.asdict(fit)
    if fit.converged:
        estimate = temperature_from_esr(fit, cfg.get("zfs_law") or default_zfs_law())
        payload["temperature_k"] = estimate.kelvin
        payload["temperature_sigma_k"] = estimate.sigma
    return _print_fit(payload, fit.converged)


# The keys of the commands that calibrate an area table: calibrate's
# own and the pressure whose rows to keep.
_CALIBRATE = _keys(calibrate, sweep=None)
_AREA_TABLE = {**_CALIBRATE, "pressure_hpa": _Key("pressure_hpa", float)}


def _calibrated_sweep(cfg: dict) -> tuple[list[PowerSweepPoint], CalibrationResult]:
    """The sweep points of area table ``points_csv`` (a campaign's
    ``normalized_area_vs_power.csv``), only those at ``pressure_hpa`` if
    it is given, and their calibration.  A fit's A is rebuilt as
    area * f_q^2, so its A/f_q^2 is the table's up to the last bit."""
    pressure_filter = cfg.get("pressure_hpa")
    grouped: dict[tuple, dict] = {}
    with _malformed(cfg["points_csv"]):
        rows = np.loadtxt(cfg["points_csv"], delimiter=",", skiprows=1, ndmin=2, dtype=str)
        for row in rows:
            pressure, axis, power = float(row[0]), row[1], float(row[2])
            rep = int(float(row[3]))
            if pressure_filter is not None and not math.isclose(pressure, pressure_filter):
                continue
            area, sigma, f_q, gamma = (float(v) for v in row[4:8])
            grouped.setdefault((pressure, power, rep), {})[axis] = PsdFit(
                A=area * f_q**2, f_q=f_q, gamma=gamma, floor=0.0, converged=True,
                uncertainties={"A": sigma * f_q**2, "f_q": 0.0, "gamma": 0.0},
            )
    sweep = [
        PowerSweepPoint(laser_power=power, repetition_index=rep,
                        pressure_hpa=pressure, fits=fits)
        for (pressure, power, rep), fits in sorted(grouped.items())
    ]
    return sweep, calibrate(sweep, **_kwargs(cfg, _CALIBRATE))


def cmd_calibrate(args) -> int:
    cfg = _config(args, _AREA_TABLE, input_key="points_csv")
    _, result = _calibrated_sweep(cfg)
    _print_json(dataclasses.asdict(result))
    return 0


def cmd_extract_k(args) -> int:
    cfg = _config(args, {**_AREA_TABLE, "temperature": _Key("temperature", _series)},
                  input_key="points_csv")
    if "temperature" not in cfg:
        raise ConfigError("extract-k needs a 'temperature' series in --config")
    sweep, calib = _calibrated_sweep(cfg)
    table = np.unique([pt.laser_power for pt in sweep])
    series = np.sort([power for power, _, _ in cfg["temperature"]])
    if table.size != series.size or not np.allclose(table, series, rtol=1e-9, atol=1e-12):
        raise EstimationError(
            f"area table and temperature series sample different powers: "
            f"{table.tolist()} vs {series.tolist()} mW"
        )
    temperatures = [TemperaturePoint(power, calib.pressure_hpa, t, sigma)
                    for power, t, sigma in cfg["temperature"]]
    result = extract_k(calib, temperatures)
    _print_json({axis: dataclasses.asdict(m) for axis, m in result.items()})
    return 0


def cmd_campaign(args) -> int:
    keys = _keys(CampaignConfig, rng_seed="seed")
    cfg = _config(args, keys)
    report = run_campaign(CampaignConfig(**_kwargs(cfg, keys)))
    path = write_report(report, args.out or ".",
                        **({"format": args.format} if args.format else {}))
    _print_json({
        "report": str(path),
        "n_points": len(report.points),
        "n_temperatures": len(report.temperatures),
        "n_errors": len(report.errors),
        "kappa_heat": report.heating_fit.kappa_heat if report.heating_fit else None,
        "classification": report.estimate.classification if report.estimate else None,
    })
    return 0


def cmd_cylinder_k(args) -> int:
    table = _keys(write_cylinder_k_csv, path=None, gas=None, radius="radius_m")
    cfg = _config(args, {**_GAS, **table, "length_m": _Key("length", float)})
    gas = GasEnvironment(**_kwargs(cfg, _GAS))
    if "aspect_ratios" in cfg:
        if "length_m" in cfg:
            raise ConfigError("give 'length_m' or 'aspect_ratios', not both")
        out = _out_file(args, "cylinder_coupling_vs_anisotropy.csv")
        print(write_cylinder_k_csv(out, gas=gas, **_kwargs(cfg, table)))
        return 0
    if args.out:
        raise ConfigError("--out writes the 'aspect_ratios' table; this config has none")

    radius, grid = cfg["radius_m"], cfg.get("delta_t_grid")
    length = cfg.get("length_m", 2.0 * radius)
    particle = ParticleModel(shape=Cylinder(radius=radius, length=length),
                             **_kwargs(cfg, {"density": table["density"]}))
    _print_json(_cylinder_row(particle, length / (2.0 * radius), gas, grid))
    return 0


# =============================================================================
# Parser and entry point
# =============================================================================

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`ConfigError` (exit 3)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


_FLAGS = {
    "--seed": {"type": int, "help": "RNG seed; overrides the config's 'seed'"},
    "--out": {"help": "output file or directory"},
    "--format": {"choices": ("csv", "json"), "help": "report format (json: no CSV tables)"},
    "--axis": {"help": "axis label; overrides the config's 'axis'"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hotbrownian",
        description="Hot Brownian motion simulator and estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext, *flags, takes_input=None):
        p = sub.add_parser(name, help=helptext)
        if takes_input:
            p.add_argument("input", nargs="?", default=None, help=takes_input)
        p.add_argument("--config", help="JSON configuration file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    add("simulate", cmd_simulate, "simulate a detector time trace", "--seed", "--out")
    add("psd", cmd_psd, "Welch PSD of a stored trace", "--axis", "--out",
        takes_input="trace CSV file")
    add("fit-psd", cmd_fit_psd, "Lorentzian fit of a stored PSD", takes_input="PSD CSV file")
    add("fit-esr", cmd_fit_esr, "double-dip fit of a stored ESR sweep",
        takes_input="ESR CSV file")
    add("calibrate", cmd_calibrate, "zero-power calibration from a sweep table",
        takes_input="normalized-area table CSV")
    add("extract-k", cmd_extract_k, "coupling constants from a sweep table and temperatures",
        takes_input="normalized-area table CSV")
    campaign = add("campaign", cmd_campaign, "run a full measurement campaign",
                   "--seed", "--out", "--format")
    campaign.add_argument("-v", "--verbose", action="store_true",
                          help="log each pressure (INFO) to stderr")
    add("cylinder-k", cmd_cylinder_k, "cylinder coupling constants and anisotropy", "--out")
    return parser


_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None


def main(argv=None) -> int:
    logger = logging.getLogger("hotbrownian")
    level, handler = logger.level, None
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "verbose", False):
            # For this call only, so repeated in-process calls add nothing.
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
            logger.addHandler(handler)
            logger.setLevel(logging.INFO)
        return args.func(args)
    except (CalibrationError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    finally:
        if handler is not None:
            logger.removeHandler(handler)
            logger.setLevel(level)
        # glibc keeps the tens of MB a trace command frees resident, or not,
        # by the order of earlier allocations: a process running several
        # commands peaked 30 MB higher in some runs than in others.
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


if __name__ == "__main__":
    sys.exit(main())
