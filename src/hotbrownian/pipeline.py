"""Estimation pipeline: calibration, coupling constants, overheating
classification, and full measurement campaigns.

The chain mirrors an actual levitation experiment:

1.  Power sweeps of PSD fits give the normalized area A/f_q^2 per axis.
    One line fit over every repetition, A/f_q^2 = a0 + b*P, calibrates
    detector units to energy, C = k_B * T_room / a0, because an unheated
    particle is at room temperature.
2.  ESR thermometry gives the internal temperature at the same powers.
3.  The hot-Brownian coupling constant is the slope ratio of the
    calibrated CoM temperature T_room * (A/f_q^2) / a0 over the internal
    temperature, K = T_room * (b/a0) / (dT_int/dP), with its sigma from
    the full (b, a0) covariance; alpha_c = K * (pi+8)/pi.
4.  K across pressures separates true overheating (grows as the gas
    thins) from detection artifacts (flat), feeding a three-way verdict:
    thermal / overheated / undetermined.
"""

from __future__ import annotations

import inspect
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._leastsq import line_fit, usable_sigma
from .core import CONSTANTS, GasEnvironment, ParticleModel, Sphere, TrapAxis, mw_to_w
from .errors import CalibrationError, ConfigError, DomainError, EstimationError, HotBrownianError
from .simulate import AnomalyInjection, SimulationConfig, simulate_esr, simulate_trace
from .spectral import PsdFit, fit_psd, welch_psd
from .thermometry import (
    HeatingFit,
    TemperaturePoint,
    ZfsLaw,
    default_zfs_law,
    fit_esr,
    fit_heating_law,
    temperature_from_esr,
)
from .twobath import _ALPHA_PER_COUPLING, HeatingLaw, sphere_drag

__all__ = [
    "PowerSweepPoint",
    "CalibrationResult",
    "EnergyPoint",
    "KEstimate",
    "KMeasurement",
    "ClassificationThresholds",
    "HbmEstimate",
    "EsrSettings",
    "CampaignConfig",
    "CampaignReport",
    "calibrate",
    "com_energy",
    "extract_k",
    "classify_overheating",
    "hydrodynamic_radius",
    "run_campaign",
]

log = logging.getLogger(__name__)


# =============================================================================
# Sweep points and calibration
# =============================================================================

@dataclass
class PowerSweepPoint:
    """PSD fits of one repetition at one laser power and pressure."""

    laser_power: float                   # [mW]
    repetition_index: int
    pressure_hpa: float
    fits: dict                           # axis label -> PsdFit


@dataclass
class CalibrationResult:
    """Zero-power calibration of detector units to CoM energy, per axis.

    ``c_calib[axis]`` converts a normalized PSD area into joules:
    E = c_calib * (A/f_q^2).  Valid only at its own gas pressure, since
    detection geometry is realigned whenever the chamber is cycled.
    """

    pressure_hpa: float
    room_temperature: float              # [K]
    intercept: dict                      # axis -> zero-power A/f_q^2
    intercept_sigma: dict
    slope: dict                          # axis -> d(A/f_q^2)/dP [per mW]
    slope_sigma: dict
    slope_intercept_cov: dict            # axis -> cov(slope, intercept)
    c_calib: dict                        # axis -> [J per (A/f_q^2 unit)]
    n_points: int


def calibrate(
    sweep: Sequence[PowerSweepPoint],
    room_temperature: float = CONSTANTS.room_temperature_T0,
) -> CalibrationResult:
    """Regress normalized areas against laser power; calibrate at P -> 0.

    Raises
    ------
    CalibrationError
        With fewer than three distinct powers, mixed pressures, points
        that do not all carry the same axes, a non-positive zero-power
        intercept, or an intercept uncertainty as large as the intercept
        itself.
    """
    if not sweep:
        raise CalibrationError("empty power sweep")
    pressures = {pt.pressure_hpa for pt in sweep}
    if len(pressures) != 1:
        raise CalibrationError(
            f"calibration sweep mixes pressures {sorted(pressures)}; "
            "detector gain is only stable within one pressure setting"
        )
    powers = np.array([pt.laser_power for pt in sweep], dtype=float)
    if np.unique(powers).size < 3:
        raise CalibrationError(
            f"need >= 3 distinct laser powers, got {np.unique(powers).size}"
        )

    axis_sets = {tuple(sorted(pt.fits)) for pt in sweep}
    if len(axis_sets) != 1:
        named = " vs ".join("(" + ", ".join(map(str, a)) + ")" for a in sorted(axis_sets))
        raise CalibrationError(
            f"sweep points carry different axes {named}; every point needs "
            "a fit of every calibrated axis"
        )
    (axes,) = axis_sets
    intercept, intercept_sigma, slope, slope_sigma, cov_b_a0, c_calib = {}, {}, {}, {}, {}, {}
    for axis in axes:
        areas = np.array([pt.fits[axis].normalized_area for pt in sweep])
        sigmas = [pt.fits[axis].normalized_area_sigma for pt in sweep]
        b, a0, cov = line_fit(powers, areas, usable_sigma(sigmas))
        sig_a0 = math.sqrt(max(cov[1, 1], 0.0))
        if a0 <= 0:
            raise CalibrationError(
                f"axis {axis!r}: zero-power intercept {a0} is not positive"
            )
        if sig_a0 >= a0:
            raise CalibrationError(
                f"axis {axis!r}: intercept consistent with zero "
                f"({a0} +- {sig_a0}); sweep does not constrain the calibration"
            )
        intercept[axis] = a0
        intercept_sigma[axis] = sig_a0
        slope[axis] = b
        slope_sigma[axis] = math.sqrt(max(cov[0, 0], 0.0))
        cov_b_a0[axis] = float(cov[0, 1])
        c_calib[axis] = CONSTANTS.k_B * room_temperature / a0

    return CalibrationResult(
        pressure_hpa=float(next(iter(pressures))),
        room_temperature=room_temperature,
        intercept=intercept,
        intercept_sigma=intercept_sigma,
        slope=slope,
        slope_sigma=slope_sigma,
        slope_intercept_cov=cov_b_a0,
        c_calib=c_calib,
        n_points=len(sweep),
    )


def com_energy(point: PowerSweepPoint, calib: CalibrationResult, axis: str) -> float:
    """Center-of-mass energy [J] of one axis: E = c_calib * A/f_q^2.

    Raises
    ------
    DomainError
        If the point was taken at a different pressure than the
        calibration — the conversion constant would not apply.
    """
    if not math.isclose(point.pressure_hpa, calib.pressure_hpa, rel_tol=1e-9):
        raise DomainError(
            f"point at {point.pressure_hpa} hPa cannot use a calibration "
            f"made at {calib.pressure_hpa} hPa"
        )
    return calib.c_calib[axis] * point.fits[axis].normalized_area


# =============================================================================
# Coupling-constant extraction
# =============================================================================

@dataclass(frozen=True)
class EnergyPoint:
    """CoM energy of one axis at one laser power."""

    laser_power: float                   # [mW]
    energy: float                        # [J]
    sigma: float | None = None           # [J]


@dataclass(frozen=True)
class KEstimate:
    """Coupling constant from the slope ratio dE/dP over k_B dT/dP."""

    K: float
    K_sigma: float
    alpha_c: float
    alpha_c_sigma: float
    slope_energy: float                  # [J/mW]
    slope_energy_sigma: float
    slope_temperature: float             # [K/mW]
    slope_temperature_sigma: float
    n_points: int


def _slope_ratio(rise: float, rise_sigma: float, temp_series: Sequence[TemperaturePoint]):
    """K = rise / (dT_int/dP), with ``rise`` the CoM energy slope over k_B [K/mW].

    Fits ``temp_series`` against power; returns ``(K, K_sigma, slope_t,
    slope_t_sigma)``.  Fewer than three points, or a temperature slope
    consistent with zero at two sigma (no heating), raise :class:`EstimationError`.
    """
    if len(temp_series) < 3:
        raise EstimationError(f"need >= 3 temperature points, got {len(temp_series)}")
    powers = np.array([pt.laser_power for pt in temp_series])
    temps = np.array([pt.temperature for pt in temp_series])
    slope_t, _, cov_t = line_fit(powers, temps, usable_sigma([pt.sigma for pt in temp_series]))
    sig_t = math.sqrt(max(cov_t[0, 0], 0.0))
    if abs(slope_t) <= 2.0 * sig_t:
        raise EstimationError(
            f"temperature slope {slope_t} +- {sig_t} K/mW is consistent with "
            "zero; no heating to reference the energy rise against"
        )
    k_value = rise / slope_t
    return k_value, math.hypot(rise_sigma, k_value * sig_t) / abs(slope_t), slope_t, sig_t


def extract_k(
    energy_series: Sequence[EnergyPoint],
    temp_series: Sequence[TemperaturePoint],
) -> KEstimate:
    """Slope-ratio coupling constant from user-supplied energies.

    :func:`run_campaign` takes its K straight from the calibration fit
    instead.  Both series must sample the same laser powers; each needs
    at least three points.  A temperature slope consistent with zero at
    two sigma raises :class:`EstimationError`.
    """
    if len(energy_series) < 3:
        raise EstimationError(f"need >= 3 energy points, got {len(energy_series)}")
    e_sorted = sorted(energy_series, key=lambda pt: pt.laser_power)
    p_e = np.array([pt.laser_power for pt in e_sorted])
    energies = np.array([pt.energy for pt in e_sorted])
    slope_e, _, cov_e = line_fit(p_e, energies, usable_sigma([pt.sigma for pt in e_sorted]))
    sig_e = math.sqrt(max(cov_e[0, 0], 0.0))
    k_value, k_sigma, slope_t, sig_t = _slope_ratio(
        slope_e / CONSTANTS.k_B, sig_e / CONSTANTS.k_B, temp_series
    )
    p_t = np.sort([pt.laser_power for pt in temp_series])
    if p_e.size != p_t.size or not np.allclose(p_e, p_t, rtol=1e-9, atol=1e-12):
        raise EstimationError("energy and temperature series sample different powers")
    return KEstimate(
        K=k_value,
        K_sigma=k_sigma,
        alpha_c=k_value * _ALPHA_PER_COUPLING,
        alpha_c_sigma=k_sigma * _ALPHA_PER_COUPLING,
        slope_energy=slope_e,
        slope_energy_sigma=sig_e,
        slope_temperature=slope_t,
        slope_temperature_sigma=sig_t,
        n_points=int(p_e.size),
    )


# =============================================================================
# Overheating classification
# =============================================================================

@dataclass(frozen=True)
class KMeasurement:
    """Coupling constant of one axis at one pressure."""

    pressure: float                      # [hPa]
    K: float
    sigma: float


@dataclass(frozen=True)
class ClassificationThresholds:
    """Decision levels for the three-way overheating verdict.

    ``overheated_k`` alone suffices for an overheated verdict; above
    ``elevated_k`` the verdict additionally requires a significant rise
    of K toward lower pressures.  ``n_sigma`` sets every significance
    margin.
    """

    overheated_k: float = 1.0
    elevated_k: float = 0.5
    n_sigma: float = 2.0


def _pooled_mean(values: np.ndarray, sigmas: np.ndarray) -> tuple[float, float]:
    weights = 1.0 / np.maximum(sigmas, 1e-12) ** 2
    mean = float(np.sum(weights * values) / np.sum(weights))
    return mean, float(1.0 / math.sqrt(np.sum(weights)))


def classify_overheating(
    measurements: Sequence[KMeasurement],
    thresholds: ClassificationThresholds = ClassificationThresholds(),
) -> str:
    """Classify one axis as ``"thermal"``, ``"overheated"`` or ``"undetermined"``.

    Threshold tests use the inverse-variance pooled K over all supplied
    pressures; the pressure dependence itself (K rising as the gas
    thins, the fingerprint of real excess CoM energy) is tested on the
    per-pressure values against 1/pressure.

    * thermal:     pooled K + n_sigma*sigma <= elevated_k
    * overheated:  pooled K - n_sigma*sigma > overheated_k, or a
      significant falling-pressure rise while pooled K - n_sigma*sigma
      still exceeds elevated_k
    * undetermined otherwise.
    """
    if not measurements:
        raise EstimationError("no coupling measurements to classify")
    k_values = np.array([m.K for m in measurements], dtype=float)
    sigmas = np.array([m.sigma for m in measurements], dtype=float)
    if np.any(sigmas < 0):
        raise DomainError("K uncertainties must be >= 0")
    pressures = np.array([m.pressure for m in measurements], dtype=float)
    if np.any(pressures <= 0):
        raise DomainError("pressures must be > 0")

    k_bar, sigma_bar = _pooled_mean(k_values, sigmas)
    ns = thresholds.n_sigma

    if k_bar + ns * sigma_bar <= thresholds.elevated_k:
        return "thermal"
    if k_bar - ns * sigma_bar > thresholds.overheated_k:
        return "overheated"
    if np.unique(pressures).size >= 2 and k_bar - ns * sigma_bar > thresholds.elevated_k:
        slope, _, cov = line_fit(1.0 / pressures, k_values, np.maximum(sigmas, 1e-12))
        if slope - ns * math.sqrt(max(cov[0, 0], 0.0)) > 0:
            return "overheated"
    return "undetermined"


# =============================================================================
# Hydrodynamic radius
# =============================================================================

def hydrodynamic_radius(
    gamma_hz: float,
    pressure_hpa: float,
    gas: GasEnvironment,
    particle_density: float = ParticleModel.density,
    room_temperature: float = CONSTANTS.room_temperature_T0,
) -> float:
    """Effective (Epstein) particle radius [m] from a fitted linewidth.

    The exact inverse of :func:`~hotbrownian.twobath.sphere_drag` at
    ambient temperature: the drag rate scales as 1/R, so the radius is
    the drag of a unit-radius sphere of ``particle_density``, in ``gas``
    at ``pressure_hpa`` and ``room_temperature``, over Gamma = 2*pi*gamma_hz.
    """
    if gamma_hz <= 0:
        raise DomainError(f"gamma must be > 0 Hz, got {gamma_hz}")
    ambient = replace(gas, pressure=pressure_hpa, temperature=room_temperature)
    unit_sphere = ParticleModel(shape=Sphere(radius=1.0), density=particle_density)
    return sphere_drag(unit_sphere, ambient) / (2.0 * math.pi * gamma_hz)


# =============================================================================
# Campaign orchestration
# =============================================================================

def _default(func, name: str):
    """The default of parameter ``name`` of ``func``, so it is written once."""
    return inspect.signature(func).parameters[name].default


@dataclass(frozen=True)
class EsrSettings:
    """Spin-resonance acquisition settings used by campaigns."""

    strain_e_hz: float = 5.2e6
    linewidth_hz: float = 2.5e6
    contrast: float = 0.22
    noise_level: float = 1.0
    baseline_counts: float = 1e5
    center_offset_hz: float = 0.0


@dataclass(frozen=True)
class CampaignConfig:
    """Full specification of a simulated measurement campaign."""

    pressures_hpa: tuple[float, ...]
    laser_powers_mw: tuple[float, ...]
    repetitions: int
    duration_s: float
    dt_s: float
    axes: tuple[TrapAxis, ...]
    particle: ParticleModel
    heating: HeatingLaw
    alpha_c: float = 1.0
    anomaly: AnomalyInjection | None = None
    zfs_law: ZfsLaw | None = None        # None -> packaged default
    molar_mass: float = GasEnvironment.molar_mass  # [kg/mol]
    room_temperature: float = CONSTANTS.room_temperature_T0  # [K]
    rng_seed: int = 0
    esr: EsrSettings = field(default_factory=EsrSettings)
    segment_length: int = _default(welch_psd, "segment_length")
    fit_band: tuple[float, float] | None = None
    noise_floor: str = _default(fit_psd, "noise_floor")
    measurement_noise_psd: float = 0.0
    thresholds: ClassificationThresholds = field(default_factory=ClassificationThresholds)
    thermometry_only: bool = False

    def __post_init__(self) -> None:
        if self.repetitions < 0:
            raise ConfigError("repetitions must be >= 0")
        if any(p <= 0 for p in self.pressures_hpa):
            raise ConfigError("pressures must be > 0 hPa")
        if any(p < 0 for p in self.laser_powers_mw):
            raise ConfigError("laser powers must be >= 0 mW")


@dataclass
class HbmEstimate:
    """Hot-Brownian coupling summary of one campaign."""

    k_per_axis: dict                     # axis -> (K, sigma), pooled over pressures
    alpha_per_axis: dict                 # axis -> (alpha_c, sigma)
    per_pressure: dict                   # axis -> tuple[KMeasurement, ...]
    k_mean: float                        # pooled over axes and pressures
    k_mean_sigma: float
    gamma_ratio_mean: float              # gamma_x / gamma_y across sweep points
    gamma_ratio_spread: float
    classification: dict                 # axis -> verdict string
    flags: tuple                         # human-readable notes


@dataclass
class CampaignReport:
    """Everything a campaign produced, including per-cell failures."""

    pressures_hpa: tuple
    laser_powers_mw: tuple
    points: list                         # PowerSweepPoint
    temperatures: list                   # raw TemperaturePoint per (pressure, power)
    calibrations: dict                   # pressure -> CalibrationResult
    heating_fit: HeatingFit | None
    estimate: HbmEstimate | None
    hydrodynamic_radius_m: dict          # pressure -> radius [m]
    errors: list                         # dicts: stage/pressure/power/repetition/message
    runtime_s: float = 0.0


def _record(errors: list, stage: str, message: str, **where) -> None:
    entry = {"stage": stage, "message": message, **where}
    errors.append(entry)
    log.warning("campaign %s failed (%s): %s", stage, where, message)


def _measure(
    config: CampaignConfig, law: ZfsLaw, gases: dict
) -> tuple[list, list, list]:
    """Simulate and measure every cell of the campaign grid.

    Each (pressure, power, repetition) cell fits the PSDs of one trace
    into a :class:`PowerSweepPoint`; each (pressure, power) cell turns
    one ESR spectrum into a :class:`TemperaturePoint`.  Returns
    ``(points, temperatures, errors)``; a failed cell is recorded in
    ``errors`` and skipped.
    """
    pressures = tuple(config.pressures_hpa)
    powers = tuple(config.laser_powers_mw)
    reps = config.repetitions
    errors: list[dict] = []
    points: list[PowerSweepPoint] = []
    temperatures: list[TemperaturePoint] = []

    n_trace = len(pressures) * len(powers) * reps
    n_esr = len(pressures) * len(powers)
    seeds = np.random.SeedSequence(config.rng_seed).generate_state(
        max(n_trace + n_esr, 1), dtype=np.uint64
    )

    for ip, pressure in enumerate(pressures):
        log.info("campaign: pressure %.6g hPa", pressure)
        for ipow, power_mw in enumerate(powers):
            if not config.thermometry_only:
                for rep in range(reps):
                    try:
                        sim = SimulationConfig(
                            dt=config.dt_s,
                            duration=config.duration_s,
                            rng_seed=int(seeds[(ip * len(powers) + ipow) * reps + rep]),
                            axes=tuple(config.axes),
                            laser_power=mw_to_w(power_mw),
                            gas=gases[pressure],
                            particle=config.particle,
                            heating=config.heating,
                            alpha_c=config.alpha_c,
                            anomaly_injection=config.anomaly,
                            measurement_noise_psd=config.measurement_noise_psd,
                        )
                        trace = simulate_trace(sim)
                        fits: dict[str, PsdFit] = {}
                        for axis in trace.signals:
                            psd = welch_psd(
                                trace, axis=axis, segment_length=config.segment_length
                            )
                            fit = fit_psd(
                                psd,
                                fit_band=config.fit_band,
                                noise_floor=config.noise_floor,
                            )
                            if not fit.converged:
                                raise EstimationError(
                                    f"PSD fit did not converge on axis {axis!r}"
                                )
                            fits[axis] = fit
                        points.append(
                            PowerSweepPoint(
                                laser_power=power_mw,
                                repetition_index=rep,
                                pressure_hpa=pressure,
                                fits=fits,
                            )
                        )
                    except (HotBrownianError, np.linalg.LinAlgError) as exc:
                        _record(
                            errors, "trace", str(exc),
                            pressure=pressure, power=power_mw, repetition=rep,
                        )
            try:
                spectrum = simulate_esr(
                    config.heating,
                    law,
                    power_mw,
                    pressure,
                    config.esr.strain_e_hz,
                    config.esr.contrast,
                    config.esr.linewidth_hz,
                    config.esr.noise_level,
                    int(seeds[n_trace + ip * len(powers) + ipow]),
                    baseline_counts=config.esr.baseline_counts,
                    center_offset_hz=config.esr.center_offset_hz,
                )
                esr_fit = fit_esr(spectrum)
                if not esr_fit.converged:
                    raise EstimationError("ESR fit did not converge")
                estimate_t = temperature_from_esr(esr_fit, law)
                temperatures.append(
                    TemperaturePoint(
                        laser_power=power_mw,
                        pressure=pressure,
                        temperature=estimate_t.kelvin,
                        sigma=estimate_t.sigma,
                    )
                )
            except (HotBrownianError, np.linalg.LinAlgError) as exc:
                _record(errors, "esr", str(exc), pressure=pressure, power=power_mw)
    return points, temperatures, errors


def _estimate(
    config: CampaignConfig,
    gases: dict,
    points: list,
    temperatures: list,
    errors: list,
) -> tuple[HeatingFit | None, dict, dict, HbmEstimate | None]:
    """Heating law, per-pressure calibrations and radii, and coupling estimate.

    Returns ``(heating_fit, calibrations, radius, estimate)``.  Failed
    steps are appended to ``errors``; without PSD points or a heating
    fit there is no calibration, radius or estimate.
    """
    heating_fit: HeatingFit | None = None
    if temperatures:
        try:
            heating_fit = fit_heating_law(temperatures, config.room_temperature)
        except HotBrownianError as exc:
            _record(errors, "heating_fit", str(exc))

    calibrations: dict[float, CalibrationResult] = {}
    radius: dict[float, float] = {}
    if not points or heating_fit is None:
        return heating_fit, calibrations, radius, None

    # Every point carries every configured axis: a cell that fails on one
    # axis is dropped whole.
    labels = sorted(points[0].fits)
    per_pressure: dict[str, list[KMeasurement]] = {a: [] for a in labels}
    for pressure in config.pressures_hpa:
        sweep_p = [pt for pt in points if pt.pressure_hpa == pressure]
        if not sweep_p:
            continue
        try:
            calib = calibrate(sweep_p, config.room_temperature)
        except CalibrationError as exc:
            _record(errors, "calibrate", str(exc), pressure=pressure)
            continue
        calibrations[pressure] = calib

        # Epstein radius from the zero-power linewidth of the first axis:
        # hot emerging gas adds drag at every heated power.
        fits = [pt.fits[labels[0]] for pt in sweep_p]
        _, gamma0, _ = line_fit(
            np.array([pt.laser_power for pt in sweep_p]),
            np.array([fit.gamma for fit in fits]),
            usable_sigma([fit.uncertainties.get("gamma") for fit in fits]),
        )
        radius[pressure] = hydrodynamic_radius(
            gamma0,
            pressure,
            gases[pressure],
            particle_density=config.particle.density,
            room_temperature=config.room_temperature,
        )

        powers = {pt.laser_power for pt in sweep_p}
        corrected = [
            replace(t, temperature=heating_fit.corrected_temperature(t))
            for t in temperatures
            if t.pressure == pressure and t.laser_power in powers
        ]
        for axis in labels:
            # The calibrated CoM temperature T_room * (A/f_q^2) / a0 rises by
            # T_room * b/a0 per mW; its sigma is the delta method's for b/a0.
            a0, ratio = calib.intercept[axis], calib.slope[axis] / calib.intercept[axis]
            var = (calib.slope_sigma[axis] ** 2 - 2.0 * ratio * calib.slope_intercept_cov[axis]
                   + (ratio * calib.intercept_sigma[axis]) ** 2) / a0**2
            t_room = calib.room_temperature
            try:
                k_value, k_sigma, _, _ = _slope_ratio(
                    t_room * ratio, t_room * math.sqrt(max(var, 0.0)), corrected
                )
                per_pressure[axis].append(KMeasurement(pressure, k_value, k_sigma))
            except (HotBrownianError, np.linalg.LinAlgError) as exc:
                _record(errors, "extract_k", str(exc), pressure=pressure, axis=axis)

    k_per_axis: dict[str, tuple[float, float]] = {}
    alpha_per_axis: dict[str, tuple[float, float]] = {}
    classification: dict[str, str] = {}
    flags: list[str] = []
    for axis in labels:
        if not per_pressure[axis]:
            flags.append(f"axis {axis}: no coupling estimate")
            continue
        k_bar, sigma_bar = _pooled_mean(
            np.array([m.K for m in per_pressure[axis]]),
            np.array([m.sigma for m in per_pressure[axis]]),
        )
        k_per_axis[axis] = (k_bar, sigma_bar)
        alpha_per_axis[axis] = (k_bar * _ALPHA_PER_COUPLING, sigma_bar * _ALPHA_PER_COUPLING)
        verdict = classify_overheating(per_pressure[axis], config.thresholds)
        classification[axis] = verdict
        flags.append(f"axis {axis}: {verdict}")
    if not k_per_axis:
        return heating_fit, calibrations, radius, None

    pooled = [m for axis in labels for m in per_pressure[axis]]
    k_mean, k_mean_sigma = _pooled_mean(
        np.array([m.K for m in pooled]), np.array([m.sigma for m in pooled])
    )
    # Axis labels are "x" and "y" only, so two labels are exactly those.
    ratios = (
        [pt.fits["x"].gamma / pt.fits["y"].gamma for pt in points]
        if len(labels) == 2 else []
    )
    estimate = HbmEstimate(
        k_per_axis=k_per_axis,
        alpha_per_axis=alpha_per_axis,
        per_pressure={a: tuple(v) for a, v in per_pressure.items()},
        k_mean=k_mean,
        k_mean_sigma=k_mean_sigma,
        gamma_ratio_mean=float(np.mean(ratios)) if ratios else float("nan"),
        gamma_ratio_spread=float(np.std(ratios, ddof=1)) if len(ratios) > 1 else 0.0,
        classification=classification,
        flags=tuple(flags),
    )
    return heating_fit, calibrations, radius, estimate


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the full simulate-measure-estimate loop over a campaign grid.

    Every (pressure, power, repetition) cell simulates a trace, fits its
    per-axis PSDs, and every (pressure, power) cell acquires one ESR
    spectrum.  Cell failures are recorded in the report and the campaign
    continues; an empty grid yields an empty report.
    """
    t_start = time.perf_counter()
    law = config.zfs_law if config.zfs_law is not None else default_zfs_law()
    gases = {
        pressure: GasEnvironment(
            pressure=pressure,
            molar_mass=config.molar_mass,
            temperature=config.room_temperature,
        )
        for pressure in config.pressures_hpa
    }
    points, temperatures, errors = _measure(config, law, gases)
    heating_fit, calibrations, radius, estimate = _estimate(
        config, gases, points, temperatures, errors
    )
    return CampaignReport(
        pressures_hpa=tuple(config.pressures_hpa),
        laser_powers_mw=tuple(config.laser_powers_mw),
        points=points,
        temperatures=temperatures,
        calibrations=calibrations,
        heating_fit=heating_fit,
        estimate=estimate,
        hydrodynamic_radius_m=radius,
        errors=errors,
        runtime_s=time.perf_counter() - t_start,
    )
