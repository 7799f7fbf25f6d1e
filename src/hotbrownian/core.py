"""Shared domain types, physical constants, and unit conventions.

Everything internal is SI (seconds, meters, kilograms, kelvin, watts,
hertz).  Two deliberate exceptions at API boundaries, matching how the
quantities are quoted in the levitation literature:

* gas pressure is accepted in **hPa** and converted in exactly one place
  (:func:`hpa_to_pa`),
* heating-law powers are quoted in **mW** (see :mod:`hotbrownian.twobath`).

Angular rates carry the symbol convention Omega, Gamma (rad/s); reduced
frequencies f, gamma (Hz) are related by a factor 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "GasEnvironment",
    "Sphere",
    "Cylinder",
    "ParticleModel",
    "TrapAxis",
    "trap_frequency",
    "hpa_to_pa",
    "mw_to_w",
    "w_to_mw",
]


# =============================================================================
# Unit conversions — pressure has exactly one conversion site, tested.
# =============================================================================

def hpa_to_pa(pressure_hpa: float) -> float:
    """Convert a pressure from hPa (= mbar) to Pa."""
    return pressure_hpa * 100.0


def mw_to_w(power_mw: float) -> float:
    """Convert a laser power from mW to W."""
    return power_mw * 1e-3


def w_to_mw(power_w: float) -> float:
    """Convert a laser power from W to mW."""
    return power_w * 1e3


# =============================================================================
# Constants and environment
# =============================================================================

@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants plus the ambient (room) temperature.

    Defaults use the 2019 SI exact values; ``room_temperature_T0`` is the
    ambient temperature of the gas far from the particle.
    """

    k_B: float = 1.380649e-23            # Boltzmann constant [J/K]
    N_A: float = 6.02214076e23           # Avogadro constant [1/mol]
    room_temperature_T0: float = 294.0   # ambient temperature [K]

    def __post_init__(self) -> None:
        if self.k_B <= 0 or self.N_A <= 0 or self.room_temperature_T0 <= 0:
            raise DomainError("physical constants must be strictly positive")


#: Module-level default constants instance.
CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class GasEnvironment:
    """Residual gas surrounding the trapped particle.

    Parameters
    ----------
    pressure:
        Gas pressure in hPa (the chamber-gauge unit).
    molar_mass:
        Molar mass in kg/mol; defaults to dry air.
    temperature:
        Gas (ambient) temperature in K.
    """

    pressure: float                      # [hPa]
    molar_mass: float = 0.02897          # [kg/mol], dry air
    temperature: float = CONSTANTS.room_temperature_T0  # [K]

    def __post_init__(self) -> None:
        if self.pressure <= 0:
            raise DomainError(f"pressure must be > 0 hPa, got {self.pressure}")
        if self.molar_mass <= 0:
            raise DomainError("molar_mass must be > 0")
        if self.temperature <= 0:
            raise DomainError("temperature must be > 0")

    @property
    def molecule_mass(self) -> float:
        """Mass of one gas molecule [kg]."""
        return self.molar_mass / CONSTANTS.N_A

    @property
    def pressure_pa(self) -> float:
        """Pressure in Pa."""
        return hpa_to_pa(self.pressure)


# =============================================================================
# Particle geometry
# =============================================================================

@dataclass(frozen=True)
class Sphere:
    """Spherical particle of the given radius [m]."""

    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise DomainError("sphere radius must be > 0")

    def volume(self) -> float:
        return 4.0 / 3.0 * math.pi * self.radius ** 3


@dataclass(frozen=True)
class Cylinder:
    """Cylindrical particle: radius R and length l [m], symmetry axis along l."""

    radius: float
    length: float

    def __post_init__(self) -> None:
        if self.radius <= 0 or self.length <= 0:
            raise DomainError("cylinder dimensions must be > 0")

    def volume(self) -> float:
        return math.pi * self.radius ** 2 * self.length


@dataclass(frozen=True)
class ParticleModel:
    """A particle: geometric shape plus mass density.

    The mass is derived from shape and density once and cached; diamond
    density 3500 kg/m^3 is the default.
    """

    shape: Sphere | Cylinder
    density: float = 3500.0              # [kg/m^3]
    mass: float = field(init=False)      # [kg], derived

    def __post_init__(self) -> None:
        if self.density <= 0:
            raise DomainError("density must be > 0")
        if not isinstance(self.shape, (Sphere, Cylinder)):
            raise TypeError(f"unsupported shape: {type(self.shape).__name__}")
        object.__setattr__(self, "mass", self.density * self.shape.volume())


# =============================================================================
# Trap axis
# =============================================================================

@dataclass(frozen=True)
class TrapAxis:
    """One transverse trap axis (x or y) of the optical tweezer.

    ``stiffness_coefficient`` (beta) converts laser power to trap angular
    frequency, Omega(P) = beta*sqrt(P); ``detection_gain`` (c0) converts
    displacement to detector signal through c_calib = c0*P_las, so the
    recorded signal is V = c0*P_las*q.  Neither is ever fitted: the
    zero-power calibration removes them, they only parameterize the
    forward model.
    """

    label: str                           # "x" or "y"
    stiffness_coefficient: float         # beta [rad/(s*sqrt(W))]
    detection_gain: float                # c0 [signal/(m*W)]

    def __post_init__(self) -> None:
        if self.label not in ("x", "y"):
            raise DomainError(f"axis label must be 'x' or 'y', got {self.label!r}")
        if self.stiffness_coefficient <= 0:
            raise DomainError("stiffness coefficient must be > 0")
        if self.detection_gain <= 0:
            raise DomainError("detection gain must be > 0")


def trap_frequency(axis: TrapAxis, laser_power: float) -> float:
    """Trap frequency [Hz] of an axis at the given laser power [W].

    The optical restoring force scales linearly with power, hence
    Omega = beta*sqrt(P) and f = beta*sqrt(P)/(2*pi).  Returns 0 at P=0.

    Raises
    ------
    DomainError
        If ``laser_power`` is negative.
    """
    if laser_power < 0:
        raise DomainError(f"laser power must be >= 0, got {laser_power}")
    return axis.stiffness_coefficient * math.sqrt(laser_power) / (2.0 * math.pi)
