"""Hot-Brownian-motion physics: the two-bath model and its consequences.

A laser-heated particle in dilute gas sits between two effective thermal
baths (Millen et al., Nat. Nanotechnol. 9, 425 (2014)): molecules
*impinging* at the ambient temperature T0, and molecules *emerging* from
the surface at temperature

    T_em = T0 + alpha_c * (T_int - T0),

where ``alpha_c`` is the thermal accommodation coefficient.  Each bath
contributes friction; the stationary center-of-mass (CoM) temperature is
the friction-weighted mean of the two bath temperatures.  For a sphere in
the free-molecular regime the emerging/impinging friction ratio is
(pi/8)*sqrt(T_em/T0), which gives the closed form implemented by
:func:`two_bath_tcom`.  Linearizing in the internal-temperature excess
defines the hot-Brownian coupling constant

    K = d(T_com)/d(T_int) = pi/(pi+8) * alpha_c        (sphere),

so measuring K measures alpha_c.  A cylinder couples differently along
its two symmetry axes; :func:`cylinder_drag` and :func:`cylinder_k`
quantify that shape effect with free-molecular drag rates in the spirit
of Martinetz et al., Phys. Rev. E 97, 052112 (2018).

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
    "alpha_from_k",
    "k_from_alpha",
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


def _check_alpha(alpha_c: float) -> None:
    if alpha_c < 0:
        raise DomainError(f"accommodation coefficient must be >= 0, got {alpha_c}")
    if alpha_c > 1:
        warnings.warn(
            f"alpha_c = {alpha_c} exceeds 1; treating it as an effective "
            "coefficient of a non-spherical particle",
            AccommodationWarning,
            stacklevel=3,
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
# Sphere two-bath model
# =============================================================================

def two_bath_tcom(T0: float, delta_T_int: float, alpha_c: float) -> float:
    """Center-of-mass temperature [K] of a hot sphere in dilute gas.

    Friction-weighted mean of the impinging bath at ``T0`` and the
    emerging bath at T_em = T0 + alpha_c*delta_T_int, with weight ratio
    (pi/8)*sqrt(T_em/T0):

        T_com = (T0^(3/2) + (pi/8) T_em^(3/2)) / (T0^(1/2) + (pi/8) T_em^(1/2))

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
    if T0 <= 0:
        raise DomainError(f"T0 must be > 0, got {T0}")
    if delta_T_int < 0:
        raise DomainError(f"delta_T_int must be >= 0, got {delta_T_int}")
    _check_alpha(alpha_c)
    t_em = T0 + alpha_c * delta_T_int
    a = _SPHERE_BATH_RATIO
    return (T0 ** 1.5 + a * t_em ** 1.5) / (math.sqrt(T0) + a * math.sqrt(t_em))


def two_bath_tcom_linearized(T0: float, delta_T_int: float, alpha_c: float) -> float:
    """First-order expansion of :func:`two_bath_tcom` in delta_T_int/T0.

    Returns T0 + (pi/(pi+8)) * alpha_c * delta_T_int.  The discarded
    quadratic term has coefficient 4*pi/(pi+8)^2 * (alpha_c*delta_T)^2/T0.
    """
    if T0 <= 0:
        raise DomainError(f"T0 must be > 0, got {T0}")
    if delta_T_int < 0:
        raise DomainError(f"delta_T_int must be >= 0, got {delta_T_int}")
    _check_alpha(alpha_c)
    return T0 + SPHERE_COUPLING_PER_ALPHA * alpha_c * delta_T_int


def k_from_alpha(alpha_c: float) -> float:
    """Sphere coupling constant K = pi/(pi+8)*alpha_c."""
    if alpha_c < 0:
        raise DomainError(f"alpha_c must be >= 0, got {alpha_c}")
    return SPHERE_COUPLING_PER_ALPHA * alpha_c


def alpha_from_k(K: float) -> float:
    """Accommodation coefficient implied by a measured sphere coupling K."""
    if K < 0:
        raise DomainError(f"K must be >= 0, got {K}")
    return K * _ALPHA_PER_COUPLING


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
    if not isinstance(particle.shape, Cylinder):
        raise TypeError("cylinder_drag requires a Cylinder-shaped particle")
    t_s = gas.temperature if surface_temperature is None else surface_temperature
    if t_s <= 0:
        raise DomainError("surface temperature must be > 0")

    shape = particle.shape
    x = shape.length / (2.0 * shape.radius)
    tau = t_s / gas.temperature
    sqrt_tau = math.sqrt(tau)

    # Reduced (dimensionless) rates in units of pi*R^2*c / m_cyl.
    imp_par = 4.0 * (1.0 + x)
    em_par = math.pi * sqrt_tau
    imp_perp = 2.0 * (1.0 + 3.0 * x)
    em_perp = math.pi * x * sqrt_tau

    # m_cyl = rho*pi*R^2*l = rho*pi*R^2*(2*R*x)
    scale = _flux_factor(gas) / (2.0 * particle.density * shape.radius * x)

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

def _validate_sweep(delta_t_grid: np.ndarray | None) -> np.ndarray:
    grid = _DEFAULT_SWEEP_K if delta_t_grid is None else np.asarray(delta_t_grid, float)
    if grid.size < 2 or np.ptp(grid) == 0.0:
        raise EstimationError("slope fit needs at least two distinct delta_T values")
    if np.any(grid < 0):
        raise DomainError("delta_T sweep values must be >= 0")
    return grid


def cylinder_k(
    particle: ParticleModel,
    gas: GasEnvironment,
    axis: str,
    delta_t_grid: np.ndarray | None = None,
) -> float:
    """Hot-Brownian coupling constant of a cylinder axis.

    Sweeps the internal-temperature excess over ``delta_t_grid`` (default
    0..100 K in 11 points), evaluates the per-axis friction-weighted CoM
    temperature at full accommodation, and returns the fitted line slope
    d(T_com)/d(T_int).

    Parameters
    ----------
    axis:
        ``"parallel"`` or ``"perpendicular"`` to the symmetry axis.
    """
    if axis not in ("parallel", "perpendicular"):
        raise DomainError(f"axis must be 'parallel' or 'perpendicular', got {axis!r}")
    grid = _validate_sweep(delta_t_grid)
    t0 = gas.temperature

    t_com = np.empty(grid.size)
    for i, d_t in enumerate(grid):
        t_s = t0 + d_t                   # alpha_c = 1: emerging at T_int
        drag = cylinder_drag(particle, gas, surface_temperature=t_s)
        if axis == "parallel":
            g_imp, g_em = drag.impinging_parallel, drag.emerging_parallel
        else:
            g_imp, g_em = drag.impinging_perpendicular, drag.emerging_perpendicular
        t_com[i] = (g_imp * t0 + g_em * t_s) / (g_imp + g_em)
    return line_fit(grid, t_com)[0]


def sphere_k(
    t0: float = CONSTANTS.room_temperature_T0,
    alpha_c: float = 1.0,
    delta_t_grid: np.ndarray | None = None,
) -> float:
    """Sphere coupling constant by the same slope procedure as :func:`cylinder_k`.

    Differs from the analytic tangent pi/(pi+8)*alpha_c by the quadratic
    curvature accumulated over the sweep range; use it when comparing
    against cylinder values produced by the identical procedure.
    """
    grid = _validate_sweep(delta_t_grid)
    t_com = np.array([two_bath_tcom(t0, d_t, alpha_c) for d_t in grid])
    return line_fit(grid, t_com)[0]
