"""Hot-Brownian-motion physics: the two-bath model and its consequences.

A laser-heated particle in dilute gas sits between two effective thermal
baths (Millen et al., Nat. Nanotechnol. 9, 425 (2014)): molecules
*impinging* at the ambient temperature T0, and molecules *emerging* from
the surface at temperature

    T_em = T0 + alpha_c * (T_int - T0),

where ``alpha_c`` is the thermal accommodation coefficient.  Each bath
contributes friction; the stationary center-of-mass (CoM) temperature is
the friction-weighted mean of the two bath temperatures, with the
emerging/impinging friction ratio r*sqrt(T_em/T0): r = pi/8 for a sphere
in the free-molecular regime (:func:`two_bath_tcom`).  Linearizing in the
internal-temperature excess defines the hot-Brownian coupling constant

    K = d(T_com)/d(T_int) = pi/(pi+8) * alpha_c        (sphere),

so measuring K measures alpha_c.  A cylinder couples differently along
its two symmetry axes, with its own r per axis (:func:`cylinder_drag`, in
the spirit of Martinetz et al., Phys. Rev. E 97, 052112 (2018)).
:func:`sphere_k` and :func:`cylinder_k` share one slope procedure; at
l = 2R every r is pi/8 and the three agree bitwise.

Units: temperatures K, drag rates rad/s, pressures hPa at the boundary,
laser powers mW at the heating-law boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._leastsq import line_fit
from .core import CONSTANTS, Cylinder, GasEnvironment, ParticleModel, Sphere
from .errors import AccommodationWarning, DomainError, EstimationError

__all__ = [
    "SPHERE_COUPLING_PER_ALPHA",
    "HeatingLaw",
    "CylinderDrag",
    "internal_temperature",
    "two_bath_tcom",
    "two_bath_tcom_linearized",
    "sphere_drag",
    "cylinder_drag",
    "cylinder_k",
    "sphere_k",
]

#: Analytic sphere coupling constant per unit accommodation: K = pi/(pi+8)*alpha_c.
SPHERE_COUPLING_PER_ALPHA = math.pi / (math.pi + 8.0)

# Its inverse, alpha_c per unit K, shared by every K -> alpha_c conversion.
_ALPHA_PER_COUPLING = (math.pi + 8.0) / math.pi

# Emerging/impinging friction ratio of a sphere at equal temperatures.
_SPHERE_BATH_RATIO = math.pi / 8.0

_DEFAULT_SWEEP_K = np.linspace(0.0, 100.0, 11)  # [K] internal-excess grid


def _check_alpha(alpha_c: float, stacklevel: int = 3) -> None:
    if alpha_c < 0:
        raise DomainError(f"accommodation coefficient must be >= 0, got {alpha_c}")
    if alpha_c > 1:
        warnings.warn(
            f"alpha_c = {alpha_c} exceeds 1; treating it as an effective "
            "coefficient of a non-spherical particle",
            AccommodationWarning,
            stacklevel=stacklevel,
        )


# =============================================================================
# Internal-temperature (heating) law
# =============================================================================

@dataclass(frozen=True)
class HeatingLaw:
    """Internal temperature vs laser power and gas pressure.

    Absorption of the trapping laser (rate ~ P) competes with conduction
    to the gas (rate ~ p), giving T_int = T0 + kappa_heat * P / p with a
    single material/trap constant ``kappa_heat`` in K*hPa/mW.
    """

    kappa_heat: float                    # [K*hPa/mW]
    T0: float = CONSTANTS.room_temperature_T0  # [K]

    def __post_init__(self) -> None:
        if self.kappa_heat < 0:
            raise DomainError("kappa_heat must be >= 0")
        if self.T0 <= 0:
            raise DomainError("T0 must be > 0")


def internal_temperature(law: HeatingLaw, laser_power: float, pressure: float) -> float:
    """Internal (surface) temperature [K] at laser power [mW] and pressure [hPa].

    Raises
    ------
    DomainError
        If pressure <= 0 (the law diverges) or laser_power < 0.
    """
    if pressure <= 0:
        raise DomainError(f"pressure must be > 0 hPa, got {pressure}")
    if laser_power < 0:
        raise DomainError(f"laser power must be >= 0, got {laser_power}")
    return law.T0 + law.kappa_heat * laser_power / pressure


# =============================================================================
# Two-bath model
# =============================================================================

def _com_temperature(ratio, t0, t_em):
    """Friction-weighted mean of the baths ``t0`` and ``t_em`` (scalars or arrays).

    ``ratio`` is the emerging/impinging friction ratio at t_em = t0.
    """
    w = ratio * np.sqrt(t_em / t0)
    return (t0 + w * t_em) / (1.0 + w)


def _check_two_bath(T0: float, delta_T_int: float, alpha_c: float) -> None:
    if T0 <= 0:
        raise DomainError(f"T0 must be > 0, got {T0}")
    if delta_T_int < 0:
        raise DomainError(f"delta_T_int must be >= 0, got {delta_T_int}")
    _check_alpha(alpha_c, stacklevel=4)


def two_bath_tcom(T0: float, delta_T_int: float, alpha_c: float) -> float:
    """Center-of-mass temperature [K] of a hot sphere in dilute gas.

    Friction-weighted mean of the impinging bath at ``T0`` and the
    emerging bath at T_em = T0 + alpha_c*delta_T_int, with weight ratio
    w = (pi/8)*sqrt(T_em/T0):

        T_com = (T0 + w*T_em) / (1 + w)

    Parameters
    ----------
    T0:
        Ambient gas temperature [K], > 0.
    delta_T_int:
        Internal-temperature excess T_int - T0 [K], >= 0.
    alpha_c:
        Accommodation coefficient, >= 0.  Values above 1 are accepted as
        effective coefficients and trigger :class:`AccommodationWarning`.
    """
    _check_two_bath(T0, delta_T_int, alpha_c)
    return float(_com_temperature(_SPHERE_BATH_RATIO, T0, T0 + alpha_c * delta_T_int))


def two_bath_tcom_linearized(T0: float, delta_T_int: float, alpha_c: float) -> float:
    """First-order expansion of :func:`two_bath_tcom` in delta_T_int/T0.

    Returns T0 + (pi/(pi+8)) * alpha_c * delta_T_int.  The discarded
    quadratic term has coefficient 4*pi/(pi+8)^2 * (alpha_c*delta_T)^2/T0.
    """
    _check_two_bath(T0, delta_T_int, alpha_c)
    return T0 + SPHERE_COUPLING_PER_ALPHA * alpha_c * delta_T_int


# =============================================================================
# Free-molecular drag: sphere
# =============================================================================

def _flux_factor(gas: GasEnvironment) -> float:
    """Kinetic flux prefactor c = p*sqrt(m_gas/(2*pi*k_B*T_gas)) [kg/(m^2*s)]."""
    return gas.pressure_pa * math.sqrt(
        gas.molecule_mass / (2.0 * math.pi * CONSTANTS.k_B * gas.temperature)
    )


def sphere_drag(
    particle: ParticleModel,
    gas: GasEnvironment,
    emerging_temperature: float | None = None,
) -> float:
    """Total free-molecular drag rate Gamma [rad/s] of a sphere.

    Impinging molecules contribute Gamma_imp = 4*c/(rho*R) (the Epstein
    specular value); molecules re-emitted diffusely at
    ``emerging_temperature`` add the factor (pi/8)*sqrt(T_em/T_gas).
    With T_em = T_gas this reduces to the classic Epstein coefficient
    (4 + pi/2)*c/(rho*R).

    Parameters
    ----------
    particle:
        Must have a :class:`Sphere` shape.
    gas:
        Gas environment (pressure, molar mass, temperature).
    emerging_temperature:
        Temperature of the emerging bath [K]; defaults to the gas
        temperature (fully thermalized, unheated particle).
    """
    if not isinstance(particle.shape, Sphere):
        raise TypeError("sphere_drag requires a Sphere-shaped particle")
    t_em = gas.temperature if emerging_temperature is None else emerging_temperature
    if t_em <= 0:
        raise DomainError("emerging temperature must be > 0")
    c = _flux_factor(gas)
    gamma_imp = 4.0 * c / (particle.density * particle.shape.radius)
    tau = t_em / gas.temperature
    return gamma_imp * (1.0 + _SPHERE_BATH_RATIO * math.sqrt(tau))


# =============================================================================
# Free-molecular drag: cylinder
# =============================================================================

@dataclass(frozen=True)
class CylinderDrag:
    """Per-axis free-molecular drag of a cylinder.

    ``parallel`` refers to translation along the symmetry axis,
    ``perpendicular`` to translation across it.  Each rate splits into an
    impinging part (gas at ambient temperature) and an emerging part
    (diffuse re-emission from the surface).  The anisotropy factor is
    g = gamma_perpendicular / gamma_parallel.
    """

    gamma_parallel: float                # [rad/s]
    gamma_perpendicular: float           # [rad/s]
    anisotropy_g: float                  # dimensionless
    impinging_parallel: float            # [rad/s]
    emerging_parallel: float             # [rad/s]
    impinging_perpendicular: float       # [rad/s]
    emerging_perpendicular: float        # [rad/s]


def _aspect(particle: ParticleModel) -> float:
    """Aspect variable x = l/(2R) of a cylinder-shaped particle."""
    if not isinstance(particle.shape, Cylinder):
        raise TypeError("a Cylinder-shaped particle is required; spheres take the "
                        "sphere_drag and sphere_k path")
    return particle.shape.length / (2.0 * particle.shape.radius)


def _cylinder_rates(x: float) -> tuple[float, float, float, float]:
    """Reduced rates (impinging, emerging) parallel, then perpendicular, in
    units of pi*R^2*c/m_cyl at tau = 1; the emerging ones scale with sqrt(tau)."""
    return 4.0 * (1.0 + x), math.pi, 2.0 * (1.0 + 3.0 * x), math.pi * x


def cylinder_drag(
    particle: ParticleModel,
    gas: GasEnvironment,
    surface_temperature: float | None = None,
) -> CylinderDrag:
    """Free-molecular drag rates of a cylinder, split per bath.

    Rates follow from summing the momentum flux of a Maxwellian gas over
    the cylinder mantle and end caps (cf. Martinetz et al., Phys. Rev. E
    97, 052112 (2018)), at full accommodation: every impinging molecule
    is re-emitted diffusely at the surface temperature.  With the aspect
    variable x = l/(2R) and tau = T_surf/T_gas, in units of
    pi*R^2*c/m_cyl:

        parallel:       impinging 4(1+x),    emerging pi*sqrt(tau)
        perpendicular:  impinging 2(1+3x),   emerging pi*x*sqrt(tau)

    At x = 1 (l = 2R) the two axes coincide term by term, so the
    anisotropy factor g is exactly 1 at any surface temperature.

    Parameters
    ----------
    particle:
        Must have a :class:`Cylinder` shape (spheres take the
        :func:`sphere_drag` path).
    gas:
        Gas environment.
    surface_temperature:
        Emerging-bath temperature [K]; defaults to the gas temperature.
    """
    x = _aspect(particle)
    t_s = gas.temperature if surface_temperature is None else surface_temperature
    if t_s <= 0:
        raise DomainError("surface temperature must be > 0")

    imp_par, em_par, imp_perp, em_perp = _cylinder_rates(x)
    sqrt_tau = math.sqrt(t_s / gas.temperature)
    em_par, em_perp = em_par * sqrt_tau, em_perp * sqrt_tau

    # m_cyl = rho*pi*R^2*l = rho*pi*R^2*(2*R*x)
    scale = _flux_factor(gas) / (2.0 * particle.density * particle.shape.radius * x)

    gamma_par = (imp_par + em_par) * scale
    gamma_perp = (imp_perp + em_perp) * scale
    return CylinderDrag(
        gamma_parallel=gamma_par,
        gamma_perpendicular=gamma_perp,
        anisotropy_g=(imp_perp + em_perp) / (imp_par + em_par),
        impinging_parallel=imp_par * scale,
        emerging_parallel=em_par * scale,
        impinging_perpendicular=imp_perp * scale,
        emerging_perpendicular=em_perp * scale,
    )


# =============================================================================
# Coupling constants from the slope procedure
# =============================================================================

def _slope_k(ratio: float, t0: float, alpha_c: float, delta_t_grid: np.ndarray | None) -> float:
    """Line-fit slope d(T_com)/d(T_int) over the internal-excess sweep
    ``delta_t_grid`` (default 0..100 K in 11 points)."""
    grid = _DEFAULT_SWEEP_K if delta_t_grid is None else np.asarray(delta_t_grid, float)
    if grid.size < 2 or np.ptp(grid) == 0.0:
        raise EstimationError("slope fit needs at least two distinct delta_T values")
    if np.any(grid < 0):
        raise DomainError("delta_T sweep values must be >= 0")
    return line_fit(grid, _com_temperature(ratio, t0, t0 + alpha_c * grid))[0]


def cylinder_k(
    particle: ParticleModel,
    gas: GasEnvironment,
    axis: str,
    delta_t_grid: np.ndarray | None = None,
) -> float:
    """Hot-Brownian coupling constant of a cylinder axis.

    The slope procedure of :func:`sphere_k` at full accommodation, with
    the axis's emerging/impinging ratio from :func:`cylinder_drag`'s
    rates in place of the sphere's pi/8.

    Parameters
    ----------
    axis:
        ``"parallel"`` or ``"perpendicular"`` to the symmetry axis.
    """
    if axis not in ("parallel", "perpendicular"):
        raise DomainError(f"axis must be 'parallel' or 'perpendicular', got {axis!r}")
    imp_par, em_par, imp_perp, em_perp = _cylinder_rates(_aspect(particle))
    ratio = em_par / imp_par if axis == "parallel" else em_perp / imp_perp
    return _slope_k(ratio, gas.temperature, 1.0, delta_t_grid)


def sphere_k(
    t0: float = CONSTANTS.room_temperature_T0,
    alpha_c: float = 1.0,
    delta_t_grid: np.ndarray | None = None,
) -> float:
    """Sphere coupling constant: the line-fit slope of :func:`two_bath_tcom`.

    Differs from the analytic tangent pi/(pi+8)*alpha_c by the quadratic
    curvature accumulated over the sweep (default 0..100 K in 11 points);
    :func:`cylinder_k` runs the identical procedure.
    """
    _check_two_bath(t0, 0.0, alpha_c)        # the sweep checks its own excesses
    return _slope_k(_SPHERE_BATH_RATIO, t0, alpha_c, delta_t_grid)
