"""NV-center spin thermometry: zero-field-splitting law, ESR model, heating law.

The nitrogen-vacancy ground-state zero-field splitting D(T) decreases
with temperature, so the midpoint of the two spin resonances is an
internal thermometer of the host nanodiamond.  This module draws
(:func:`simulate_esr`) and fits (:func:`fit_esr`) the double-dip
optically-detected ESR spectrum

    counts(f) = B * (1 - C1*L(f; f1, w1) - C2*L(f; f2, w2)),

with unit-peak Lorentzians L of FWHM w, inverts the splitting law to a
temperature and propagates its uncertainty, and finally regresses many
such temperatures against laser power / gas pressure to extract the
heating coefficient kappa_heat of T_int = T0 + kappa_heat * P / p.

Strain (or a static magnetic bias) shifts the two resonances apart
symmetrically, so the midpoint is strain-free to first order.  A
constant miscalibration of the midpoint is not absorbed by the
heating-law intercept alone: the cubic D(T) maps it to a temperature
shift that grows with temperature, so part of it biases kappa_heat.  On
a grid of 4 pressures (15-150 hPa) x 10 powers (15-150 mW) with
noise-free spectra, a +0.3 MHz offset gives kappa_heat = 17.177 against
17.000 without it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from ._leastsq import least_squares_gn, line_fit, usable_sigma
from .core import CONSTANTS
from .errors import ConfigError, DomainError, EstimationError
from .twobath import HeatingLaw, internal_temperature

__all__ = [
    "ZfsLaw",
    "default_zfs_law",
    "EsrSpectrum",
    "EsrFit",
    "simulate_esr",
    "TemperatureEstimate",
    "TemperaturePoint",
    "HeatingFit",
    "fit_esr",
    "temperature_from_esr",
    "fit_heating_law",
]


# =============================================================================
# Zero-field-splitting law
# =============================================================================

@dataclass(frozen=True)
class ZfsLaw:
    """Polynomial zero-field splitting D(T) with its validity range.

    ``coefficients`` are ascending powers of absolute temperature,
    D(T) = sum_k c_k * T^k in Hz.  The law must be strictly decreasing
    over [T_min, T_max] so that the inversion T(D) is unique; this is
    checked on construction by dense sampling.
    """

    coefficients: tuple[float, ...]
    T_min: float                         # [K]
    T_max: float                         # [K]
    source: str = ""

    def __post_init__(self) -> None:
        if len(self.coefficients) < 2:
            raise DomainError("ZfsLaw needs at least a linear coefficient")
        if not self.T_min < self.T_max:
            raise DomainError(f"need T_min < T_max, got [{self.T_min}, {self.T_max}]")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        grid = np.linspace(self.T_min, self.T_max, 2048)
        d_vals = self._poly(grid)
        if not np.all(np.diff(d_vals) < 0):
            raise DomainError(
                "zero-field splitting must decrease strictly with temperature "
                "over the stated validity range"
            )

    def _poly(self, t):
        return np.polynomial.polynomial.polyval(t, self.coefficients)

    def _check_range(self, temperature: float) -> None:
        if not self.T_min <= temperature <= self.T_max:
            raise DomainError(
                f"temperature {temperature} K outside validity range "
                f"[{self.T_min}, {self.T_max}] K"
            )

    def d_of_t(self, temperature: float) -> float:
        """Zero-field splitting [Hz] at ``temperature`` [K]."""
        self._check_range(temperature)
        return float(self._poly(temperature))

    def derivative(self, temperature: float) -> float:
        """dD/dT [Hz/K] at ``temperature`` [K]."""
        self._check_range(temperature)
        deriv = np.polynomial.polynomial.polyder(self.coefficients)
        return float(np.polynomial.polynomial.polyval(temperature, deriv))

    def t_of_d(self, splitting_hz: float, tol_kelvin: float = 1e-3) -> float:
        """Invert the law: temperature [K] at which D equals ``splitting_hz``.

         Bisection on the strictly decreasing polynomial, to ``tol_kelvin``.

        Raises
        ------
        DomainError
            If the splitting lies outside [D(T_max), D(T_min)].
        """
        d_lo_t = self.d_of_t(self.T_min)    # largest D (law decreases)
        d_hi_t = self.d_of_t(self.T_max)    # smallest D
        if not d_hi_t <= splitting_hz <= d_lo_t:
            raise DomainError(
                f"splitting {splitting_hz} Hz outside invertible range "
                f"[{d_hi_t}, {d_lo_t}] Hz"
            )
        lo, hi = self.T_min, self.T_max
        while hi - lo > tol_kelvin:
            mid = 0.5 * (lo + hi)
            if float(self._poly(mid)) > splitting_hz:
                lo = mid                    # still above target: go hotter
            else:
                hi = mid
        return 0.5 * (lo + hi)


def _parse_zfs_law(text: str) -> ZfsLaw:
    """A :class:`ZfsLaw` from a JSON object of its fields."""
    return ZfsLaw(**json.loads(text))


def default_zfs_law() -> ZfsLaw:
    """The packaged nanodiamond splitting law (cubic, 250-600 K)."""
    payload = resources.files("hotbrownian").joinpath("data/zfs_toyli.json").read_text()
    return _parse_zfs_law(payload)


# =============================================================================
# ESR spectra and double-dip fit
# =============================================================================

@dataclass
class EsrSpectrum:
    """Optically detected magnetic-resonance sweep."""

    microwave_frequencies: np.ndarray    # [Hz]
    pl_counts: np.ndarray                # photon counts per point
    metadata: dict = field(default_factory=dict)


@dataclass
class EsrFit:
    """Double-Lorentzian dip fit with derived midpoint and half-splitting.

    ``D = (f1+f2)/2`` (the thermometer) and ``E = (f2-f1)/2`` (strain /
    field splitting), with f1 < f2 by convention.  When the two dips are
    unresolved the fit falls back to a single dip: E = 0 and
    ``fallback_single_dip`` is set.
    """

    B: float                             # baseline counts
    C1: float                            # contrast of the lower dip
    C2: float
    f1: float                            # [Hz]
    f2: float                            # [Hz]
    w1: float                            # FWHM [Hz]
    w2: float                            # FWHM [Hz]
    D: float                             # [Hz]
    E: float                             # [Hz]
    uncertainties: Mapping[str, float] = field(default_factory=dict)
    fit_residual: float = np.nan
    converged: bool = False
    fallback_single_dip: bool = False
    n_points: int = 0


def _dips(f, p, jacobian: bool = False):
    """The dip shape B*(1 - sum_k C_k*L(f; f_k, w_k)) at frequencies ``f``.

    Parameters are ``[B, (C, f, w) x n]``; n follows from their number.
    With ``jacobian`` the derivative by the parameters comes too, as
    ``(model, jac)``.  :func:`simulate_esr` and :func:`fit_esr` share it.
    """
    b = p[0]
    jac = np.empty((f.size, p.size)) if jacobian else None
    shape = 1.0
    for k in range(1, p.size, 3):
        c, center, width = p[k:k + 3]
        h = 0.5 * width
        d = f - center
        den = d * d + h * h
        dip = h * h / den
        shape = shape - c * dip
        if jacobian:
            jac[:, k] = -b * dip
            jac[:, k + 1] = -b * c * (2.0 * h * h * d / den**2)
            jac[:, k + 2] = -b * c * (h * d * d / den**2)
    if not jacobian:
        return b * shape
    jac[:, 0] = shape
    return b * shape, jac


def simulate_esr(
    heating: HeatingLaw,
    d_law: ZfsLaw,
    laser_power: float,
    pressure: float,
    strain_E: float,
    contrast: float,
    linewidth: float,
    noise_level: float,
    rng_seed: int,
    baseline_counts: float = 1e5,
    center_offset_hz: float = 0.0,
    freqs: np.ndarray | None = None,
) -> EsrSpectrum:
    """Generate a double-dip ESR sweep of an internally heated particle.

    The particle's internal temperature fixes the zero-field splitting
    through ``d_law``; strain splits the two resonances to
    D +- strain_E.  The expected counts lam are the dip shape that
    :func:`fit_esr` fits, written once for both, with the common contrast
    and linewidth on each dip.  Counts follow

        counts = lam + noise_level * (Poisson(lam) - lam),

    so ``noise_level = 0`` returns the noise-free expectation and 1 full
    shot noise.

    Parameters
    ----------
    laser_power, pressure:
        In mW and hPa, feeding the heating law.
    strain_E:
        Half-splitting [Hz] between the two dips.
    contrast, linewidth:
        Common dip contrast (0..1) and FWHM [Hz].
    baseline_counts:
        Off-resonant photon count level.
    center_offset_hz:
        Systematic shift of the spectrum center — models a microwave
        frequency miscalibration that thermometry must absorb.
    freqs:
        Optional sweep grid [Hz]; defaults to 301 points covering
        D +- (strain_E + 8*linewidth).  A grid that does not enclose
        both dips raises :class:`ConfigError`.
    """
    if not 0.0 <= contrast < 1.0:
        raise DomainError(f"contrast must be in [0, 1), got {contrast}")
    if linewidth <= 0:
        raise DomainError(f"linewidth must be > 0, got {linewidth}")
    if strain_E < 0:
        raise DomainError(f"strain_E must be >= 0, got {strain_E}")
    if noise_level < 0:
        raise DomainError(f"noise_level must be >= 0, got {noise_level}")
    if baseline_counts <= 0:
        raise DomainError("baseline_counts must be > 0")

    t_int = internal_temperature(heating, laser_power, pressure)
    center = d_law.d_of_t(t_int) + center_offset_hz
    f_lo_dip = center - strain_E
    f_hi_dip = center + strain_E

    if freqs is None:
        span = strain_E + 8.0 * linewidth
        freqs = np.linspace(center - span, center + span, 301)
    else:
        freqs = np.asarray(freqs, dtype=float)
        if freqs.min() > f_lo_dip - linewidth or freqs.max() < f_hi_dip + linewidth:
            raise ConfigError(
                "frequency grid does not cover both resonances plus one linewidth"
            )

    lam = _dips(freqs, np.array([baseline_counts, contrast, f_lo_dip, linewidth,
                                 contrast, f_hi_dip, linewidth]))

    counts = lam.copy()
    if noise_level > 0:
        rng = np.random.default_rng(rng_seed)
        counts = lam + noise_level * (rng.poisson(lam) - lam)

    return EsrSpectrum(
        microwave_frequencies=freqs,
        pl_counts=counts,
        metadata={
            "laser_power_mw": laser_power,
            "pressure_hpa": pressure,
            "t_int": t_int,
            "d_true": center,
            "strain_e_hz": strain_E,
            "linewidth_hz": linewidth,
            "contrast": contrast,
            "noise_level": noise_level,
            "baseline_counts": baseline_counts,
            "seed": rng_seed,
        },
    )


def _esr_starts(f: np.ndarray, counts: np.ndarray):
    """Baseline from the sweep edges, dip geometry from half-depth crossings."""
    n_edge = max(f.size // 10, 2)
    baseline = float(np.median(np.concatenate([counts[:n_edge], counts[-n_edge:]])))
    depth = max(1.0 - float(np.min(counts)) / baseline, 1e-3)
    half_level = baseline * (1.0 - 0.5 * depth)
    below = np.nonzero(counts < half_level)[0]
    df = float(f[1] - f[0]) if f.size > 1 else 1.0
    if below.size >= 2:
        f_left, f_right = float(f[below[0]]), float(f[below[-1]])
    else:
        f_left = f_right = float(f[int(np.argmin(counts))])
    center = 0.5 * (f_left + f_right)
    half_span = max(0.5 * (f_right - f_left), df)
    contrast0 = 0.6 * depth
    return baseline, contrast0, center, half_span


def fit_esr(spectrum: EsrSpectrum) -> EsrFit:
    """Fit the double-dip model to an ESR sweep, in any frequency order.

    The model is the dip shape that :func:`simulate_esr` draws its counts
    from.  Falls back to a single dip (E = 0) when the
    double fit does not converge or collapses its splitting below one
    frequency step; the single dip then fills both dip slots.
    """
    f = np.asarray(spectrum.microwave_frequencies, dtype=float)
    counts = np.asarray(spectrum.pl_counts, dtype=float)
    if f.ndim != 1 or f.size != counts.size:
        raise DomainError("frequencies and counts must be matching 1-D arrays")
    if f.size < 16:
        raise EstimationError(f"ESR sweep has only {f.size} points; need >= 16")
    if not (np.isfinite(f).all() and np.isfinite(counts).all()):
        raise DomainError("ESR spectrum contains non-finite values")
    if np.any(counts < 0):
        raise DomainError("photon counts must be >= 0")
    # The start values and the step df read the sweep in ascending order.
    order = np.argsort(f, kind="stable")
    f, counts = f[order], counts[order]

    def resid_jac(p):
        model, jac = _dips(f, p, jacobian=True)
        return model - counts, jac

    baseline, contrast0, center, half_span = _esr_starts(f, counts)
    df = float(f[1] - f[0])
    for p0 in ([baseline, contrast0, center - half_span, half_span,
                contrast0, center + half_span, half_span],
               [baseline, contrast0, center, 2.0 * half_span]):
        result = least_squares_gn(resid_jac, p0, positive=tuple(range(len(p0))))
        if result.converged and np.ptp(result.params[2::3]) >= df:
            break

    p, sig = result.params, result.sigma(f.size)
    dof = max(f.size - p.size, 1)
    # D and E sigmas from the covariance as fitted, at the centre indices
    # (one index twice for a single dip): pinv leaves it asymmetric in the
    # last bits, so a permuted copy would move them.
    cov = result.cov_unscaled * result.cost / dof
    i, j = 2, p.size - 2
    var_d = 0.25 * (cov[i, i] + cov[j, j] + 2.0 * cov[i, j])
    var_e = 0.25 * (cov[i, i] + cov[j, j] - 2.0 * cov[i, j])
    # Dip blocks [C, f, w] ordered so that f1 <= f2.
    lo, hi = sorted((1, p.size - 3), key=lambda k: p[k + 1])
    take = [0, lo, lo + 1, lo + 2, hi, hi + 1, hi + 2]
    names = ["B", "C1", "f1", "w1", "C2", "f2", "w2"]
    values = {name: float(v) for name, v in zip(names, p[take])}
    unc = {name: float(s) for name, s in zip(names, sig[take])}
    unc["D"] = math.sqrt(max(var_d, 0.0))
    unc["E"] = math.sqrt(max(var_e, 0.0))
    return EsrFit(
        **values,
        D=0.5 * (values["f1"] + values["f2"]),
        E=0.5 * (values["f2"] - values["f1"]),
        uncertainties=unc,
        fit_residual=result.cost / dof,
        converged=bool(result.converged),
        fallback_single_dip=p.size == 4,
        n_points=int(f.size),
    )


# =============================================================================
# Temperature inference
# =============================================================================

@dataclass(frozen=True)
class TemperatureEstimate:
    """Temperature with 1-sigma uncertainty propagated from the ESR fit."""

    kelvin: float
    sigma: float


def temperature_from_esr(fit: EsrFit, law: ZfsLaw) -> TemperatureEstimate:
    """Invert an ESR midpoint to a temperature via the splitting law.

    The uncertainty maps through the local slope: sigma_T = sigma_D / |dD/dT|.
    """
    temperature = law.t_of_d(fit.D)
    slope = law.derivative(temperature)
    sigma_d = float(fit.uncertainties.get("D", 0.0))
    return TemperatureEstimate(kelvin=temperature, sigma=sigma_d / abs(slope))


# =============================================================================
# Heating-law regression
# =============================================================================

@dataclass(frozen=True)
class TemperaturePoint:
    """One thermometry measurement at a laser power and gas pressure."""

    laser_power: float                   # [mW]
    pressure: float                      # [hPa]
    temperature: float                   # raw ESR temperature [K]
    sigma: float | None = None           # [K]; None -> unweighted fit


@dataclass(frozen=True)
class HeatingFit:
    """Heating law regression T_raw = T0_fit + kappa_heat * P/p.

    ``strain_offset_K = T0_fit - room_temperature`` collects every
    power-independent thermometer miscalibration (strain-induced midpoint
    shift, splitting-law bias); ``T0_corrected`` is the room temperature
    by construction, recording that corrected temperatures are anchored
    there.
    """

    kappa_heat: float                    # [K*hPa/mW]
    kappa_sigma: float
    T0_fit: float                        # [K], fitted intercept
    T0_sigma: float
    strain_offset_K: float
    T0_corrected: float                  # == room temperature
    room_temperature: float
    n_points: int

    def corrected_temperature(self, point: TemperaturePoint) -> float:
        """Raw temperature with the common offset removed [K]."""
        return point.temperature - self.strain_offset_K


def fit_heating_law(
    points: Sequence[TemperaturePoint],
    room_temperature: float = CONSTANTS.room_temperature_T0,
) -> HeatingFit:
    """Weighted linear regression of raw temperatures on P/p.

    Requires at least three points spanning at least two distinct
    pressures and two distinct powers, so the single-regressor law is
    actually probed in both knobs rather than extrapolated from one.
    """
    if len(points) < 3:
        raise EstimationError(f"need >= 3 thermometry points, got {len(points)}")
    powers = np.array([pt.laser_power for pt in points], dtype=float)
    pressures = np.array([pt.pressure for pt in points], dtype=float)
    temps = np.array([pt.temperature for pt in points], dtype=float)
    if np.any(pressures <= 0):
        raise DomainError("pressures must be > 0 hPa")
    if np.unique(pressures).size < 2:
        raise EstimationError("need thermometry at >= 2 distinct pressures")
    if np.unique(powers).size < 2:
        raise EstimationError("need thermometry at >= 2 distinct laser powers")

    regressor = powers / pressures       # [mW/hPa]
    if np.ptp(regressor) == 0.0:
        raise EstimationError("power/pressure ratio is constant; slope is unidentifiable")

    kappa, t0_fit, cov = line_fit(regressor, temps, usable_sigma([pt.sigma for pt in points]))
    return HeatingFit(
        kappa_heat=kappa,
        kappa_sigma=float(np.sqrt(cov[0, 0])),
        T0_fit=t0_fit,
        T0_sigma=float(np.sqrt(cov[1, 1])),
        strain_offset_K=t0_fit - room_temperature,
        T0_corrected=room_temperature,
        room_temperature=room_temperature,
        n_points=len(points),
    )
