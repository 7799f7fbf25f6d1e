"""Estimation pipeline: calibration, coupling constants, overheating
classification, and full measurement campaigns.

The chain mirrors an actual levitation experiment:

1.  Power sweeps of PSD fits give the normalized area A/f_q^2 per axis.
    One line fit over every repetition, A/f_q^2 = a0 + b*P, calibrates
    detector units to energy, C = k_B * T_room / a0, because an unheated
    particle is at room temperature.
2.  ESR thermometry gives the internal temperature at the same powers.
3.  :func:`extract_k`, the one route to the hot-Brownian coupling
    constant, takes the slope ratio of the calibrated CoM temperature
    T_room * (A/f_q^2) / a0 over the internal temperature,
    K = T_room * (b/a0) / (dT_int/dP), per axis of one calibration, with
    its sigma from the full (b, a0) covariance; alpha_c = K * (pi+8)/pi.
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
from .simulate import AnomalyInjection, SimulationConfig, simulate_trace
from .spectral import PsdFit, fit_psd, welch_psd
from .thermometry import (
    HeatingFit,
    TemperaturePoint,
    ZfsLaw,
    default_zfs_law,
    fit_esr,
    fit_heating_law,
    simulate_esr,
    temperature_from_esr,
)
from .twobath import _ALPHA_PER_COUPLING, HeatingLaw, sphere_drag

__all__ = [
    "PowerSweepPoint",
    "CalibrationResult",
    "KMeasurement",
    "ClassificationThresholds",
    "HbmEstimate",
    "EsrSettings",
    "CampaignConfig",
    "CampaignReport",
    "calibrate",
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


# =============================================================================
# Coupling-constant extraction
# =============================================================================

@dataclass(frozen=True)
class KMeasurement:
    """Coupling constant of one axis at one pressure."""

    pressure: float                      # [hPa]
    K: float
    sigma: float


def extract_k(
    calib: CalibrationResult,
    temperatures: Sequence[TemperaturePoint],
) -> dict[str, KMeasurement]:
    """Coupling constant of every calibrated axis at the calibration's pressure.

    The calibrated CoM temperature T_room * (A/f_q^2) / a0 rises by
    T_room * b/a0 per mW, with its sigma from the delta method on the
    full (b, a0) covariance.  K is that rise over the slope of
    ``temperatures`` (internal temperatures against power, one line fit
    for every axis), and its sigma adds both relative errors in
    quadrature.

    Raises
    ------
    DomainError
        If a temperature point was taken at another pressure than the
        calibration.
    EstimationError
        With fewer than three temperature points, or a temperature slope
        consistent with zero at two sigma (no heating).
    """
    foreign = sorted({t.pressure for t in temperatures
                      if not math.isclose(t.pressure, calib.pressure_hpa, rel_tol=1e-9)})
    if foreign:
        raise DomainError(
            f"temperatures at {foreign} hPa cannot use a calibration "
            f"made at {calib.pressure_hpa} hPa"
        )
    if len(temperatures) < 3:
        raise EstimationError(f"need >= 3 temperature points, got {len(temperatures)}")
    slope_t, _, cov_t = line_fit(
        np.array([t.laser_power for t in temperatures]),
        np.array([t.temperature for t in temperatures]),
        usable_sigma([t.sigma for t in temperatures]),
    )
    sig_t = math.sqrt(max(cov_t[0, 0], 0.0))
    if abs(slope_t) <= 2.0 * sig_t:
        raise EstimationError(
            f"temperature slope {slope_t} +- {sig_t} K/mW is consistent with "
            "zero; no heating to reference the CoM temperature rise against"
        )
    t_room, measurements = calib.room_temperature, {}
    for axis, a0 in calib.intercept.items():
        ratio = calib.slope[axis] / a0
        var = (calib.slope_sigma[axis] ** 2 - 2.0 * ratio * calib.slope_intercept_cov[axis]
               + (ratio * calib.intercept_sigma[axis]) ** 2) / a0**2
        k_value = t_room * ratio / slope_t
        k_sigma = math.hypot(t_room * math.sqrt(max(var, 0.0)), k_value * sig_t) / abs(slope_t)
        measurements[axis] = KMeasurement(calib.pressure_hpa, k_value, k_sigma)
    return measurements


# =============================================================================
# Overheating classification
# =============================================================================

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
    baseline_counts: float = _default(simulate_esr, "baseline_counts")
    center_offset_hz: float = _default(simulate_esr, "center_offset_hz")


@dataclass(frozen=True)
class CampaignConfig:
    """Full specification of a simulated measurement campaign.

    Every trace axis gets a :func:`~hotbrownian.spectral.welch_psd` of
    ``segment_length`` samples and a Lorentzian fit over all bins above
    DC.  The fit takes in a constant noise floor exactly when
    ``measurement_noise_psd`` [V^2/Hz] is above zero.
    """

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
    measurement_noise_psd: float = 0.0
    thresholds: ClassificationThresholds = field(default_factory=ClassificationThresholds)
    thermometry_only: bool = False

    def __post_init__(self) -> None:
        if self.repetitions < 0:
            raise ConfigError("repetitions must be >= 0")
        if any(p <= 0 for p in self.pressures_hpa):
            raise ConfigError("pressures must be > 0 hPa")
        if len(set(self.pressures_hpa)) != len(self.pressures_hpa):
            raise ConfigError(
                f"pressures must be distinct, got {list(self.pressures_hpa)}: each "
                "pressure is calibrated once from all of its sweep points"
            )
        if any(p < 0 for p in self.laser_powers_mw):
            raise ConfigError("laser powers must be >= 0 mW")
        if self.thermometry_only or not (self.repetitions and self.pressures_hpa
                                         and self.laser_powers_mw):
            return
        # Refuse what fails every trace cell, checked at the lowest power: a
        # higher power only adds the Nyquist limit; zero power fails per cell.
        if self.segment_length < 2:
            raise ConfigError(f"segment_length must be >= 2, got {self.segment_length}")
        gas = GasEnvironment(self.pressures_hpa[0], self.molar_mass, self.room_temperature)
        self._simulation(gas, min(self.laser_powers_mw), self.rng_seed)

    def _simulation(self, gas: GasEnvironment, power: float, seed: int) -> SimulationConfig:
        """The trace of one campaign cell at ``power`` [mW] in ``gas``."""
        return SimulationConfig(
            dt=self.dt_s, duration=self.duration_s, rng_seed=seed, axes=tuple(self.axes),
            laser_power=mw_to_w(power), gas=gas, particle=self.particle, heating=self.heating,
            alpha_c=self.alpha_c, anomaly_injection=self.anomaly,
            measurement_noise_psd=self.measurement_noise_psd)


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


def _trace_cell(
    config: CampaignConfig, gas: GasEnvironment, power: float, rep: int, seed: int,
    held: dict,
) -> PowerSweepPoint:
    """PSD fits of repetition ``rep`` of one trace at ``power`` [mW] in ``gas``.

    Each fit takes in a constant floor exactly when the traces carry
    detector noise.  The trace and the last PSD stay in ``held`` until the
    next cell puts its own there (see :func:`run_campaign`).  Raises
    :class:`EstimationError` when the PSD fit of an axis does not converge.
    """
    held["trace"] = trace = simulate_trace(config._simulation(gas, power, seed))
    noise_floor = "fitted_constant" if config.measurement_noise_psd > 0 else "none"
    fits: dict[str, PsdFit] = {}
    for axis in trace.signals:
        held["psd"] = psd = welch_psd(trace, axis=axis, segment_length=config.segment_length)
        fits[axis] = fit_psd(psd, noise_floor=noise_floor)
        if not fits[axis].converged:
            raise EstimationError(f"PSD fit did not converge on axis {axis!r}")
    return PowerSweepPoint(laser_power=power, repetition_index=rep,
                           pressure_hpa=gas.pressure, fits=fits)


def _esr_cell(
    config: CampaignConfig, law: ZfsLaw, pressure: float, power: float, seed: int
) -> TemperaturePoint:
    """Internal temperature from one ESR spectrum at ``power`` [mW] and ``pressure``.

    Raises :class:`EstimationError` when the ESR fit does not converge.
    """
    esr = config.esr
    spectrum = simulate_esr(
        config.heating, law, power, pressure, esr.strain_e_hz, esr.contrast,
        esr.linewidth_hz, esr.noise_level, seed,
        baseline_counts=esr.baseline_counts, center_offset_hz=esr.center_offset_hz,
    )
    fit = fit_esr(spectrum)
    if not fit.converged:
        raise EstimationError("ESR fit did not converge")
    estimate = temperature_from_esr(fit, law)
    return TemperaturePoint(laser_power=power, pressure=pressure,
                            temperature=estimate.kelvin, sigma=estimate.sigma)


def _radius(config: CampaignConfig, gas: GasEnvironment, sweep: list, axis: str) -> float:
    """Epstein radius from the zero-power linewidth of ``axis`` in ``sweep``:
    hot emerging gas adds drag at every heated power."""
    fits = [pt.fits[axis] for pt in sweep]
    _, gamma0, _ = line_fit(
        np.array([pt.laser_power for pt in sweep]),
        np.array([fit.gamma for fit in fits]),
        usable_sigma([fit.uncertainties.get("gamma") for fit in fits]),
    )
    return hydrodynamic_radius(gamma0, gas.pressure, gas,
                               particle_density=config.particle.density,
                               room_temperature=config.room_temperature)


def _summarize(
    thresholds: ClassificationThresholds, points: list, per_pressure: dict
) -> HbmEstimate | None:
    """Pooled K and verdict of each axis of ``per_pressure`` (axis -> list of
    :class:`KMeasurement`), or None when no axis has a K."""
    k_per_axis: dict[str, tuple[float, float]] = {}
    alpha_per_axis: dict[str, tuple[float, float]] = {}
    classification: dict[str, str] = {}
    flags: list[str] = []
    for axis, measurements in per_pressure.items():
        if not measurements:
            flags.append(f"axis {axis}: no coupling estimate")
            continue
        k_bar, sigma_bar = _pooled_mean(
            np.array([m.K for m in measurements]), np.array([m.sigma for m in measurements])
        )
        k_per_axis[axis] = (k_bar, sigma_bar)
        alpha_per_axis[axis] = (k_bar * _ALPHA_PER_COUPLING, sigma_bar * _ALPHA_PER_COUPLING)
        classification[axis] = classify_overheating(measurements, thresholds)
        flags.append(f"axis {axis}: {classification[axis]}")
    if not k_per_axis:
        return None

    pooled = [m for measurements in per_pressure.values() for m in measurements]
    k_mean, k_mean_sigma = _pooled_mean(
        np.array([m.K for m in pooled]), np.array([m.sigma for m in pooled])
    )
    # Axis labels are "x" and "y" only, so two labels are exactly those.
    ratios = (
        [pt.fits["x"].gamma / pt.fits["y"].gamma for pt in points]
        if len(per_pressure) == 2 else []
    )
    return HbmEstimate(
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


def _estimate(
    config: CampaignConfig, gases: dict, points: list, temperatures: list, errors: list
) -> CampaignReport:
    """The report of the measured cells: the heating law, then per pressure
    :func:`calibrate`, the radius and :func:`extract_k`, then the pooled
    coupling estimate.

    ``errors`` lists the failed cells; the report's errors add the failed
    estimation steps.  Without PSD points or a heating fit there is no
    calibration, radius or estimate.
    """
    report = CampaignReport(
        pressures_hpa=tuple(config.pressures_hpa),
        laser_powers_mw=tuple(config.laser_powers_mw),
        points=points,
        temperatures=temperatures,
        calibrations={},
        heating_fit=None,
        estimate=None,
        hydrodynamic_radius_m={},
        errors=list(errors),
    )
    if temperatures:
        try:
            report.heating_fit = fit_heating_law(temperatures, config.room_temperature)
        except HotBrownianError as exc:
            _record(report.errors, "heating_fit", str(exc))
    if not points or report.heating_fit is None:
        return report

    # Every point carries every configured axis: a cell that fails on one
    # axis is dropped whole.
    labels = sorted(points[0].fits)
    per_pressure: dict[str, list[KMeasurement]] = {a: [] for a in labels}
    for pressure in config.pressures_hpa:
        sweep = [pt for pt in points if pt.pressure_hpa == pressure]
        if not sweep:
            continue
        try:
            calib = calibrate(sweep, config.room_temperature)
        except CalibrationError as exc:
            _record(report.errors, "calibrate", str(exc), pressure=pressure)
            continue
        report.calibrations[pressure] = calib
        report.hydrodynamic_radius_m[pressure] = _radius(
            config, gases[pressure], sweep, labels[0]
        )
        powers = {pt.laser_power for pt in sweep}
        corrected = [
            replace(t, temperature=report.heating_fit.corrected_temperature(t))
            for t in temperatures
            if t.pressure == pressure and t.laser_power in powers
        ]
        try:
            for axis, measurement in extract_k(calib, corrected).items():
                per_pressure[axis].append(measurement)
        except (HotBrownianError, np.linalg.LinAlgError) as exc:
            for axis in labels:
                _record(report.errors, "extract_k", str(exc), pressure=pressure, axis=axis)
    report.estimate = _summarize(config.thresholds, points, per_pressure)
    return report


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the full simulate-measure-estimate loop over a campaign grid.

    Each (pressure, power) cell runs its trace repetitions, each a
    :func:`_trace_cell`, then one :func:`_esr_cell`.  Cell failures are
    recorded in the report and the campaign continues; an empty grid
    yields an empty report.
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
    n_powers, reps = len(config.laser_powers_mw), config.repetitions
    n_trace = len(config.pressures_hpa) * n_powers * reps
    seeds = np.random.SeedSequence(config.rng_seed).generate_state(
        max(n_trace + len(config.pressures_hpa) * n_powers, 1), dtype=np.uint64
    )
    points: list[PowerSweepPoint] = []
    temperatures: list[TemperaturePoint] = []
    errors: list[dict] = []
    # The last trace and PSD stay referenced until the next trace cell
    # replaces them.  Freed at the end of each cell instead, they left the
    # top of the heap free, and glibc handed it back to the kernel and
    # faulted it in again in every cell: 307k minor page faults per
    # campaign_reps round against 5.5k, about a tenth of its wall time.
    held: dict = {}
    for ip, pressure in enumerate(config.pressures_hpa):
        log.info("campaign: pressure %.6g hPa", pressure)
        for ipow, power in enumerate(config.laser_powers_mw):
            cell = ip * n_powers + ipow
            for rep in range(0 if config.thermometry_only else reps):
                try:
                    points.append(_trace_cell(config, gases[pressure], power, rep,
                                              int(seeds[cell * reps + rep]), held))
                except (HotBrownianError, np.linalg.LinAlgError) as exc:
                    _record(errors, "trace", str(exc),
                            pressure=pressure, power=power, repetition=rep)
            try:
                temperatures.append(_esr_cell(config, law, pressure, power,
                                              int(seeds[n_trace + cell])))
            except (HotBrownianError, np.linalg.LinAlgError) as exc:
                _record(errors, "esr", str(exc), pressure=pressure, power=power)
    report = _estimate(config, gases, points, temperatures, errors)
    report.runtime_s = time.perf_counter() - t_start
    return report
