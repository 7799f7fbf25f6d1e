"""Forward simulation: levitated-particle traces and ESR sweeps.

The center-of-mass motion of a trapped sphere is an underdamped harmonic
oscillator driven by gas collisions.  In the two-bath picture the gas
exerts the total friction Gamma and a white force noise whose strength
corresponds to the friction-weighted bath temperature T_com; optional
extra force noise (the "anomaly" channel) raises the effective
temperature of one axis without touching its friction.

Sampling exact in dt: (q, v) is a linear Gauss-Markov process, so the
one-step transition matrix and process-noise covariance follow from a
single matrix exponential (Van Loan block construction).  Positions then
form an exact ARMA(2,1) process driven by one normal stream, evaluated
by a banded triangular solve — no small-dt error at any sampling rate.  Each
axis draws, in order, 3 normals for the stationary start state, n
innovations, and then its detector noise.  The tests check the samples
against the exact autocovariance of the time-lapsed oscillator
(Norrelykke & Flyvbjerg, Phys. Rev. E 83, 041103, 2011).

Detection maps position to a detector voltage V = gain * P * q: the
measured signal grows with laser power both through the trap stiffness
and through the scattered light.  That choice makes the normalized PSD
area A/f_q^2 power-independent at fixed temperature, which is exactly
what the zero-power calibration downstream assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .core import (CONSTANTS, GasEnvironment, ParticleModel, Sphere, TrapAxis,
                   trap_frequency, w_to_mw)
from .errors import ConfigError, DomainError
from .thermometry import EsrSpectrum, ZfsLaw, _dips
from .twobath import (_SPHERE_BATH_RATIO, HeatingLaw, _check_alpha, internal_temperature,
                      sphere_drag)

__all__ = [
    "AnomalyInjection",
    "SimulationConfig",
    "TimeTrace",
    "simulate_trace",
    "simulate_esr",
]

# Rows per banded solve in the position sampler: its workspace (1.5 MB of
# band storage and 0.5 MB of right-hand side) stays fixed however long
# the trace.
_SOLVE_BLOCK = 2**16


# =============================================================================
# Configuration
# =============================================================================

@dataclass(frozen=True)
class AnomalyInjection:
    """Extra white force noise on one axis, scaling with laser power.

    The injected one-sided force PSD is

        S_FF = extra_force_psd_per_mw * P[mW] * (reference_pressure_hpa / p)^pressure_exponent

    in N^2/Hz.  ``pressure_exponent = 0`` reproduces a purely
    power-proportional anomaly; 1 makes the induced excess CoM
    temperature grow as the gas thins, the signature of genuine
    overheating rather than a detection artifact.
    """

    axis: str
    extra_force_psd_per_mw: float        # [N^2/Hz per mW]
    pressure_exponent: float = 0.0
    reference_pressure_hpa: float = 100.0

    def __post_init__(self) -> None:
        if self.extra_force_psd_per_mw < 0:
            raise ConfigError("extra_force_psd_per_mw must be >= 0")
        if self.reference_pressure_hpa <= 0:
            raise ConfigError("reference_pressure_hpa must be > 0")

    def force_psd(self, laser_power_mw: float, pressure_hpa: float) -> float:
        """One-sided extra force PSD [N^2/Hz] at given power and pressure."""
        scale = (self.reference_pressure_hpa / pressure_hpa) ** self.pressure_exponent
        return self.extra_force_psd_per_mw * laser_power_mw * scale


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to roll one multi-axis trace."""

    dt: float                            # [s]
    duration: float                      # [s]
    rng_seed: int
    axes: tuple[TrapAxis, ...]
    laser_power: float                   # [W]
    gas: GasEnvironment
    particle: ParticleModel
    heating: HeatingLaw
    alpha_c: float = 1.0
    anomaly_injection: AnomalyInjection | None = None
    measurement_noise_psd: float = 0.0   # one-sided detector noise [V^2/Hz]

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.duration < 1000 * self.dt:
            raise ConfigError(
                f"duration {self.duration} s covers fewer than 1000 steps of {self.dt} s"
            )
        if self.laser_power < 0:
            raise ConfigError(f"laser_power must be >= 0 W, got {self.laser_power}")
        if not self.axes:
            raise ConfigError("at least one trap axis is required")
        labels = [axis.label for axis in self.axes]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate axis labels: {labels}")
        nyquist = 0.5 / self.dt
        for axis in self.axes:
            f_q = trap_frequency(axis, self.laser_power)
            if f_q >= nyquist:
                raise ConfigError(
                    f"axis {axis.label!r}: trap frequency {f_q:.6g} Hz is not below "
                    f"the Nyquist frequency {nyquist:.6g} Hz of dt = {self.dt} s"
                )
        if self.alpha_c < 0:
            raise ConfigError(f"alpha_c must be >= 0, got {self.alpha_c}")
        if self.measurement_noise_psd < 0:
            raise ConfigError("measurement_noise_psd must be >= 0")
        if self.anomaly_injection is not None:
            if self.anomaly_injection.axis not in labels:
                raise ConfigError(
                    f"anomaly axis {self.anomaly_injection.axis!r} not among {labels}"
                )

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass
class TimeTrace:
    """Sampled detector voltages per axis plus ground-truth metadata."""

    dt: float                            # [s]
    signals: dict                        # axis label -> np.ndarray [V]
    metadata: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.signals.values())))

    @property
    def duration(self) -> float:
        return self.n_samples * self.dt

    def times(self) -> np.ndarray:
        """Sample times [s] starting at zero."""
        return np.arange(self.n_samples) * self.dt


# =============================================================================
# Exact one-step discretization
# =============================================================================

def _exact_step_matrices(omega0: float, gamma: float, diffusion: float, dt: float):
    """Transition matrix and noise covariance of one exact sampling step.

    For dx = A x dt + dW with A = [[0, 1], [-omega0^2, -gamma]] and
    velocity-noise intensity ``diffusion`` = 2*gamma*k_B*T/m, the Van
    Loan block exponential of [[-A, Q_c], [0, A^T]]*dt yields both
    Phi = exp(A dt) and Sigma = int_0^dt exp(As) Q_c exp(A^T s) ds.
    scipy.linalg is imported here, not with the module, so processes that
    only read and fit spectra never load it.
    """
    import scipy.linalg

    block = np.zeros((4, 4))
    block[0, 1] = -1.0
    block[1, 0] = omega0**2
    block[1, 1] = gamma
    block[1, 3] = diffusion
    block[2, 3] = -(omega0**2)
    block[3, 2] = 1.0
    block[3, 3] = -gamma
    exp_block = scipy.linalg.expm(block * dt)
    phi = exp_block[2:, 2:].T
    sigma = phi @ exp_block[:2, 2:]
    sigma = 0.5 * (sigma + sigma.T)
    return phi, sigma


def _sample_positions(
    omega0: float,
    gamma: float,
    t_eff: float,
    mass: float,
    dt: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Stationary position samples of the exact discrete-time oscillator.

    The (q, v) chain collapses to the scalar ARMA(2,1) process

        q_k = trP q_{k-1} - detP q_{k-2} + u_k + theta u_{k-1},

    whose MA(1) part matches the lag-0 and lag-1 covariances c0, c1 of
    the two-component drive e_k = xi_q,k - P11 xi_q,k-1 + P01 xi_v,k-1,
    with theta the invertible root (|theta| < 1) of c1/c0 = theta/(1+theta^2).
    The generator gives 3 normals for the stationary start state
    (q_-1, q_-2, u_-1), then the n innovations u; callers draw detector
    noise after that.
    """
    k_b = CONSTANTS.k_B
    diffusion = 2.0 * gamma * k_b * t_eff / mass
    phi, sigma = _exact_step_matrices(omega0, gamma, diffusion, dt)
    tr_p = phi[0, 0] + phi[1, 1]
    det_p = phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0]

    c0 = (sigma[0, 0] * (1.0 + phi[1, 1] ** 2)
          - 2.0 * phi[1, 1] * phi[0, 1] * sigma[0, 1]
          + phi[0, 1] ** 2 * sigma[1, 1])
    c1 = phi[0, 1] * sigma[0, 1] - phi[1, 1] * sigma[0, 0]
    theta = 2.0 * c1 / (c0 + math.sqrt(max(c0 * c0 - 4.0 * c1 * c1, 0.0)))
    if not (math.isfinite(theta) and abs(theta) < 1.0):
        raise DomainError(
            f"no invertible ARMA(2,1) form at omega0={omega0:.6g} rad/s, "
            f"gamma={gamma:.6g} rad/s, dt={dt:.6g} s (theta={theta!r})"
        )
    var_u = c0 / (1.0 + theta * theta)

    g0 = k_b * t_eff / (mass * omega0**2)
    g1 = phi[0, 0] * g0
    start_cov = np.array([[g0, g1, var_u], [g1, g0, 0.0], [var_u, 0.0, var_u]])
    q1, q2, u1 = np.linalg.cholesky(start_cov) @ rng.standard_normal(3)
    u = rng.standard_normal(n)
    u *= math.sqrt(var_u)
    return _solve_arma(tr_p, det_p, theta, u, (q1, q2, u1))


def _solve_arma(tr_p, det_p, theta, u, history) -> np.ndarray:
    """Run the ARMA(2,1) recursion over the innovations ``u`` in place.

    The AR part is the unit lower-triangular band L with rows
    [1, -trP, detP], so the positions solve L q = e with
    e_k = u_k + theta u_{k-1}; ``history`` = (q_-1, q_-2, u_-1) enters
    e_0 and e_1.  Blocks of ``_SOLVE_BLOCK`` rows reuse one band, and
    each hands its last two positions and last innovation on as the
    next block's history.
    """
    from scipy.linalg.lapack import dtbtrs

    q1, q2, u1 = history
    n = u.size
    band = np.empty((3, min(_SOLVE_BLOCK, n)), order="F")
    band[0] = 1.0                        # unit diagonal, not referenced
    band[1] = -tr_p
    band[2] = det_p
    rhs = np.empty(band.shape[1])
    for start in range(0, n, band.shape[1]):
        seg = u[start:start + band.shape[1]]
        e = rhs[:seg.size]
        np.multiply(seg[:-1], theta, out=e[1:])
        e[1:] += seg[1:]
        e[0] = seg[0] + theta * u1 + tr_p * q1 - det_p * q2
        if e.size > 1:
            e[1] -= det_p * q1
        u1 = seg[-1]
        q, info = dtbtrs(band[:, :seg.size], e, uplo="L", diag="U", overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"banded ARMA(2,1) solve failed (LAPACK info {info})")
        seg[:] = q.ravel()
        q1, q2 = seg[-1], (seg[-2] if seg.size > 1 else q1)
    return u


def _axis_truth(config: SimulationConfig, axis: TrapAxis) -> dict:
    """Resolve per-axis physics: trap frequency, friction, temperatures."""
    power_mw = w_to_mw(config.laser_power)
    t0 = config.gas.temperature
    t_int = internal_temperature(config.heating, power_mw, config.gas.pressure)
    _check_alpha(config.alpha_c)
    # Two-bath split of the drag: the emerging/impinging friction ratio is
    # (pi/8)*sqrt(T_em/T0), and T_com is the friction-weighted mean of the
    # bath temperatures (equal to twobath.two_bath_tcom to rounding).
    t_em = t0 + config.alpha_c * (t_int - t0)
    drag = sphere_drag(config.particle, config.gas, emerging_temperature=t_em)
    g_imp = drag / (1.0 + _SPHERE_BATH_RATIO * math.sqrt(t_em / t0))
    g_em = drag - g_imp
    gamma = g_imp + g_em
    t_com = (g_imp * t0 + g_em * t_em) / gamma

    t_eff = t_com
    anomaly = config.anomaly_injection
    if anomaly is not None and anomaly.axis == axis.label:
        s_ff = anomaly.force_psd(power_mw, config.gas.pressure)
        # One-sided white force PSD -> stationary variance k_B*T_extra/(m w0^2)
        # with T_extra = S_FF / (4 m Gamma k_B).
        t_eff = t_com + s_ff / (4.0 * config.particle.mass * gamma * CONSTANTS.k_B)

    omega0 = axis.stiffness_coefficient * math.sqrt(config.laser_power)
    if omega0 <= 0:
        raise ConfigError(f"axis {axis.label!r} has no restoring force at this power")
    return {
        "omega0": omega0,
        "f_q_hz": omega0 / (2.0 * math.pi),
        "gamma_rad_s": gamma,
        "gamma_hz": gamma / (2.0 * math.pi),
        "t_int": t_int,
        "t_com": t_com,
        "t_eff": t_eff,
        "mass_kg": config.particle.mass,
    }


def simulate_trace(config: SimulationConfig) -> TimeTrace:
    """Simulate detector voltages for every configured axis.

    Supports spheres only — the anisotropic cylinder couples rotation
    and translation and needs its own treatment.  Each axis gets its own
    child seed; its generator feeds the position sampler first and the
    detector noise after.

    Returns
    -------
    TimeTrace
        Signals per axis with ground-truth parameters in ``metadata``.
    """
    if not isinstance(config.particle.shape, Sphere):
        raise ConfigError("trace simulation supports spherical particles only")

    n = config.n_samples
    seed_seq = np.random.SeedSequence(config.rng_seed)
    children = seed_seq.spawn(len(config.axes))

    signals: dict[str, np.ndarray] = {}
    truth: dict[str, dict] = {}
    for axis, child in zip(config.axes, children):
        rng = np.random.default_rng(child)
        params = _axis_truth(config, axis)
        volts = _sample_positions(
            params["omega0"],
            params["gamma_rad_s"],
            params["t_eff"],
            config.particle.mass,
            config.dt,
            n,
            rng,
        )
        # The sampler returns a fresh array: scale and add to it in place.
        gain = axis.detection_gain * config.laser_power   # [V/m]
        volts *= gain
        if config.measurement_noise_psd > 0:
            # One-sided voltage PSD S over the Nyquist band -> sample
            # variance S * fs / 2.
            sigma_meas = math.sqrt(config.measurement_noise_psd / (2.0 * config.dt))
            volts += sigma_meas * rng.standard_normal(n)
        signals[axis.label] = volts
        params["detection_gain_v_per_m"] = gain
        truth[axis.label] = params

    return TimeTrace(
        dt=config.dt,
        signals=signals,
        metadata={
            "laser_power_mw": w_to_mw(config.laser_power),
            "pressure_hpa": config.gas.pressure,
            "seed": config.rng_seed,
            "true_parameters": truth,
        },
    )


# =============================================================================
# ESR sweep generation
# =============================================================================

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
    :func:`~hotbrownian.thermometry.fit_esr` fits, written once for both,
    with the common contrast and linewidth on each dip.  Counts follow

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
