"""Hot Brownian motion of optically levitated nanoparticles.

Simulation and estimation toolkit for laser-heated particles in dilute
gas: exact Langevin trace generation, Welch/Lorentzian spectral
estimation, NV spin thermometry, zero-power energy calibration,
hot-Brownian coupling-constant extraction with cylinder-shape
extensions, and overheating classification — individually or as a full
measurement campaign.
"""

from .core import (
    CONSTANTS,
    Cylinder,
    GasEnvironment,
    ParticleModel,
    PhysicalConstants,
    Sphere,
    TrapAxis,
    hpa_to_pa,
    mw_to_w,
    trap_frequency,
)
from .errors import (
    AccommodationWarning,
    CalibrationError,
    ConfigError,
    DomainError,
    EstimationError,
    HotBrownianError,
)
from .io import (
    load_zfs_law,
    read_esr,
    read_psd,
    read_trace,
    save_zfs_law,
    write_cylinder_k_csv,
    write_esr,
    write_psd,
    write_report,
    write_trace,
)
from .pipeline import (
    CalibrationResult,
    CampaignConfig,
    CampaignReport,
    ClassificationThresholds,
    EsrSettings,
    HbmEstimate,
    KMeasurement,
    PowerSweepPoint,
    calibrate,
    classify_overheating,
    extract_k,
    hydrodynamic_radius,
    run_campaign,
)
from .simulate import (
    AnomalyInjection,
    SimulationConfig,
    TimeTrace,
    simulate_trace,
)
from .spectral import Psd, PsdFit, fit_psd, psd_model, welch_psd
from .thermometry import (
    EsrFit,
    EsrSpectrum,
    HeatingFit,
    TemperatureEstimate,
    TemperaturePoint,
    ZfsLaw,
    default_zfs_law,
    fit_esr,
    fit_heating_law,
    simulate_esr,
    temperature_from_esr,
)
from .twobath import (
    SPHERE_COUPLING_PER_ALPHA,
    CylinderDrag,
    HeatingLaw,
    cylinder_drag,
    cylinder_k,
    internal_temperature,
    sphere_drag,
    sphere_k,
    two_bath_tcom,
    two_bath_tcom_linearized,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "CONSTANTS", "PhysicalConstants", "GasEnvironment", "ParticleModel",
    "Sphere", "Cylinder", "TrapAxis", "trap_frequency", "mw_to_w", "hpa_to_pa",
    # errors
    "HotBrownianError", "DomainError", "ConfigError", "CalibrationError",
    "EstimationError", "AccommodationWarning",
    # two-bath physics
    "SPHERE_COUPLING_PER_ALPHA", "HeatingLaw", "CylinderDrag",
    "internal_temperature", "two_bath_tcom", "two_bath_tcom_linearized",
    "sphere_drag", "cylinder_drag", "cylinder_k", "sphere_k",
    # simulation
    "AnomalyInjection", "SimulationConfig", "TimeTrace",
    "simulate_trace",
    # spectral
    "Psd", "PsdFit", "welch_psd", "psd_model", "fit_psd",
    # thermometry
    "ZfsLaw", "default_zfs_law", "EsrSpectrum", "EsrFit",
    "TemperatureEstimate", "TemperaturePoint", "HeatingFit",
    "simulate_esr", "fit_esr", "temperature_from_esr", "fit_heating_law",
    # pipeline
    "PowerSweepPoint", "CalibrationResult",
    "KMeasurement", "ClassificationThresholds", "HbmEstimate",
    "EsrSettings", "CampaignConfig", "CampaignReport",
    "calibrate", "extract_k", "classify_overheating",
    "hydrodynamic_radius", "run_campaign",
    # persistence
    "write_trace", "read_trace", "write_psd", "read_psd",
    "write_esr", "read_esr", "save_zfs_law", "load_zfs_law",
    "write_report", "write_cylinder_k_csv",
]
