"""Power spectral density estimation and Lorentzian fitting.

Welch-averaged one-sided PSDs of detector time traces, and weighted
least-squares fits of the harmonic-oscillator (Lorentzian) line shape

    S(f) = (2/pi) * A * f_q^2 * gamma / ((f^2 - f_q^2)^2 + f^2 gamma^2) + c

parameterized so that A is the band-integrated area (signal variance),
f_q the resonance frequency [Hz] and gamma the linewidth [Hz]
(gamma = Gamma/(2*pi) for a damping rate Gamma in rad/s).  The peak
height is 2A/(pi*gamma) and the integral over 0..inf equals A exactly,
which is what downstream energy calibration relies on.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ._leastsq import least_squares_gn
from .errors import DomainError, EstimationError

__all__ = ["Psd", "PsdFit", "welch_psd", "psd_model", "fit_psd"]


# =============================================================================
# Welch estimation
# =============================================================================

# Samples windowed and transformed per rfft call (8 MB of float64): many
# segments per call, with the temporaries of one block bounded.
_WELCH_BLOCK_SAMPLES = 2**20


@dataclass
class Psd:
    """One-sided Welch PSD estimate."""

    frequencies: np.ndarray              # [Hz], starts at 0
    values: np.ndarray                   # [signal^2/Hz]
    segment_count: int
    window_name: str
    dt: float                            # [s]


# Cosine-sum coefficients of the built-in windows, written as scipy writes
# them (hamming's 1 - 0.54, not 0.46), so that the arrays come out
# bit-identical to scipy's get_window.
_COSINE_WINDOWS = {
    "hann": (0.5, 1.0 - 0.5),
    "hamming": (0.54, 1.0 - 0.54),
    "blackman": (0.42, 0.50, 0.08),
}


@functools.lru_cache(maxsize=8)
def _window(name: str, length: int) -> np.ndarray:
    """Read-only periodic window array, computed once per (name, length).

    The cosine-sum windows of ``_COSINE_WINDOWS`` are built here with
    scipy's general-cosine arithmetic; any other name goes through
    :func:`scipy.signal.get_window`, imported on first use only.
    """
    coeffs = _COSINE_WINDOWS.get(name)
    if coeffs is None:
        import scipy.signal

        try:
            win = scipy.signal.get_window(name, length)
        except ValueError as exc:
            raise DomainError(f"invalid window {name!r}: {exc}") from exc
    elif length <= 1:
        win = np.ones(length)
    else:
        fac = np.linspace(-np.pi, np.pi, length + 1)
        win = np.zeros(length + 1)
        for k, a_k in enumerate(coeffs):
            win += a_k * np.cos(k * fac)
        win = win[:-1]
    win.flags.writeable = False
    return win


def welch_psd(
    trace,
    axis: str = "x",
    segment_length: int = 16384,
    overlap_fraction: float = 0.5,
    window: str = "hann",
) -> Psd:
    """Welch-averaged one-sided PSD of one trace axis.

    Parameters
    ----------
    trace:
        Object with ``dt`` [s] and a ``signals`` mapping of per-axis
        sample arrays, such as a :class:`~hotbrownian.simulate.TimeTrace`.
        A bare sample array raises :class:`TypeError`; wrap it in a
        ``TimeTrace`` first.
    axis:
        Which axis to take from ``trace.signals``.
    segment_length:
        Samples per Welch segment; clipped to the trace length.
    overlap_fraction:
        Fractional segment overlap in [0, 1).
    window:
        ``"hann"``, ``"hamming"`` and ``"blackman"`` are built in; any
        other name goes through :func:`scipy.signal.get_window`, and
        one it does not know raises :class:`DomainError`.

    Notes
    -----
    Density scaling without detrending: a bin-centered coherent tone of
    amplitude a integrates to a^2/2, and white noise of variance sigma^2
    sits at the one-sided level 2*sigma^2*dt.
    """
    if hasattr(trace, "signals"):
        signal = np.asarray(trace.signals[axis], dtype=float)
        dt = float(trace.dt)
    else:
        raise TypeError(
            "welch_psd expects a time trace with .signals and .dt; "
            "wrap raw arrays in a trace object first"
        )
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    if signal.ndim != 1 or signal.size < 2:
        raise DomainError("signal must be a 1-D array with at least 2 samples")
    if not np.isfinite(signal).all():
        raise DomainError("signal contains non-finite samples")
    if not 0.0 <= overlap_fraction < 1.0:
        raise DomainError(f"overlap_fraction must be in [0, 1), got {overlap_fraction}")
    if segment_length < 2:
        raise DomainError(f"segment_length must be >= 2, got {segment_length}")

    nperseg = min(int(segment_length), signal.size)
    noverlap = int(nperseg * overlap_fraction)
    step = nperseg - noverlap
    n_segments = 1 + (signal.size - nperseg) // step

    # Same estimate as scipy's welch(detrend=False, scaling="density")
    # to rounding, but with one rfft call per block of segments instead of
    # one per segment.  numpy's rfft gave the same bits as scipy.fft's
    # (numpy 2.4, scipy 1.17) but caches no plan: scipy.fft keeps one per
    # length (131 kB at 16384), allocated above the caller's trace, which
    # then kept the trace's heap space from being trimmed once freed.
    win = _window(window, nperseg)
    segments = np.lib.stride_tricks.sliding_window_view(signal, nperseg)[::step]
    block = max(1, _WELCH_BLOCK_SAMPLES // nperseg)
    values = np.zeros(nperseg // 2 + 1)
    for start in range(0, n_segments, block):
        spectrum = np.fft.rfft(segments[start:start + block] * win, axis=-1)
        # |X|^2 summed over segments, on the interleaved (re, im) pairs.
        v = spectrum.view(np.float64)
        power = np.einsum("ij,ij->j", v, v)
        values += power[0::2]
        values += power[1::2]
    values *= 1.0 / (n_segments * (win * win).sum() / dt)
    values[1:(nperseg + 1) // 2] *= 2.0   # fold negative frequencies, not DC/Nyquist
    freqs = np.fft.rfftfreq(nperseg, dt)
    if n_segments < 2:
        warnings.warn(
            f"PSD averaged over only {n_segments} segment(s); "
            "estimates carry full chi-squared scatter",
            UserWarning,
            stacklevel=2,
        )
    return Psd(
        frequencies=freqs,
        values=values,
        segment_count=int(n_segments),
        window_name=str(window),
        dt=dt,
    )


# =============================================================================
# Lorentzian model and fit
# =============================================================================

def psd_model(
    f: np.ndarray,
    A: float,
    f_q: float,
    gamma: float,
    floor: float = 0.0,
    sample_rate: float | None = None,
) -> np.ndarray:
    """Area-normalized harmonic-oscillator PSD plus a constant floor.

    When ``sample_rate`` [Hz] is given, the first aliased image of the
    line is folded in: sampling maps spectral weight above the Nyquist
    frequency onto fs - f, which doubles the apparent tail level right
    at Nyquist and decays away from it.
    """
    f = np.asarray(f, dtype=float)
    grid = f.ravel()
    out = np.full(grid.shape, float(floor))
    _add_lorentzian(grid * grid, A, f_q, gamma, out)
    if sample_rate is not None:
        _add_lorentzian((sample_rate - grid) ** 2, A, f_q, gamma, out)
    return out.reshape(f.shape)


def _add_lorentzian(f2, a, f_q, gamma, out, grad=None) -> None:
    """Add the Lorentzian core at squared frequencies ``f2`` to ``out``.

    With ``grad`` (rows for A, f_q, gamma), also add the core's
    derivatives to its rows.  With u = f^2 - f_q^2 and
    denom = u^2 + gamma^2 f^2, all terms share 1/denom:
    d/dA = core/A, d/df_q = core (2/f_q + 4 f_q u/denom) and
    d/dgamma = core (1/gamma - 2 gamma f^2/denom).
    """
    u = f2 - f_q * f_q
    inv = u * u
    inv += (gamma * gamma) * f2
    np.reciprocal(inv, out=inv)
    core = inv * ((2.0 / np.pi) * a * f_q * f_q * gamma)
    out += core
    if grad is None:
        return
    grad[0] += core / a
    u *= inv
    u *= 4.0 * f_q
    u += 2.0 / f_q
    u *= core
    grad[1] += u
    inv *= f2
    inv *= -2.0 * gamma
    inv += 1.0 / gamma
    inv *= core
    grad[2] += inv


class _LineKernel:
    """Relative residual (model - s)/s and its Jacobian on one fit band.

    The model is the Lorentzian plus its first alias image at fs - f
    (see :func:`psd_model`), and with ``with_floor`` a constant floor,
    which is not mirrored: it parameterizes the flat level as measured.
    The squared frequencies and the output buffers are set up once per
    fit.  Each call returns copies, because the Gauss-Newton loop keeps
    the accepted pair while it tries further steps.
    """

    def __init__(self, f: np.ndarray, s: np.ndarray, sample_rate: float, with_floor: bool):
        self.f2 = f * f
        self.f2_mirror = (sample_rate - f) ** 2
        self.s = s
        self.w = 1.0 / s
        self.with_floor = with_floor
        self.resid = np.empty(f.size)
        self.grad = np.empty((4 if with_floor else 3, f.size))
        if with_floor:
            self.grad[3] = self.w

    def __call__(self, p: np.ndarray):
        a, f_q, gamma = p[0], p[1], p[2]
        model, grad = self.resid, self.grad[:3]
        model.fill(p[3] if self.with_floor else 0.0)
        grad.fill(0.0)
        _add_lorentzian(self.f2, a, f_q, gamma, model, grad)
        _add_lorentzian(self.f2_mirror, a, f_q, gamma, model, grad)
        model -= self.s
        model *= self.w
        grad *= self.w
        return model.copy(), self.grad.T.copy(order="K")


def _fit_starts(f: np.ndarray, s: np.ndarray, with_floor: bool) -> list[float]:
    """Data-driven starting point: area, peak location, FWHM linewidth."""
    df = f[1] - f[0] if f.size > 1 else 1.0
    a0 = float(np.sum(s) * df)
    i_pk = int(np.argmax(s))
    f0 = float(f[i_pk])
    lo, hi = max(i_pk - 2, 0), min(i_pk + 3, s.size)
    s_pk = float(np.mean(s[lo:hi]))     # 5-bin smoothed peak height

    # FWHM from half-maximum crossings around the peak; fall back to the
    # area/height relation gamma = 2A/(pi*S_peak) when the half level
    # never drops within the band.
    half = 0.5 * s_pk
    i_left, i_right = i_pk, i_pk
    while i_left > 0 and s[i_left] > half:
        i_left -= 1
    while i_right < s.size - 1 and s[i_right] > half:
        i_right += 1
    fwhm = float(f[i_right] - f[i_left])
    touched_edge = i_left == 0 or i_right == s.size - 1
    if touched_edge or fwhm <= 0:
        gamma0 = max(2.0 * a0 / (np.pi * s_pk), df)
    else:
        gamma0 = max(fwhm, df)

    starts = [a0, max(f0, df), gamma0]
    if with_floor:
        starts.append(0.1 * float(np.min(s)))
    return starts


@dataclass
class PsdFit:
    """Lorentzian fit result.

    ``gamma`` is the linewidth in Hz; multiply by 2*pi for the damping
    rate in rad/s.  ``fit_residual`` is the cost per degree of freedom of
    the relative residuals (model - data)/data.
    """

    A: float                             # [signal^2]
    f_q: float                           # [Hz]
    gamma: float                         # [Hz]
    floor: float                         # [signal^2/Hz]; 0 when not fitted
    uncertainties: Mapping[str, float] = field(default_factory=dict)
    fit_residual: float = np.nan
    converged: bool = False
    overdamped: bool = False
    n_points: int = 0

    @property
    def normalized_area(self) -> float:
        """A / f_q^2 — proportional to the CoM energy of the mode."""
        return self.A / self.f_q**2

    @property
    def normalized_area_sigma(self) -> float:
        """1-sigma uncertainty on :attr:`normalized_area`."""
        rel_a = self.uncertainties.get("A", 0.0) / self.A if self.A else 0.0
        rel_f = self.uncertainties.get("f_q", 0.0) / self.f_q if self.f_q else 0.0
        return abs(self.normalized_area) * float(np.hypot(rel_a, 2.0 * rel_f))


def fit_psd(
    psd: Psd,
    fit_band: tuple[float, float] | None = None,
    noise_floor: str = "none",
) -> PsdFit:
    """Fit the Lorentzian line shape to a Welch PSD.

    Residuals are divided by the data (constant relative error, as for
    chi-squared distributed bins).  The model always folds in the first
    alias image of the line (see :func:`psd_model`): sampling reflects
    the 1/f^4 tail at Nyquist, and relative-error weighting over a wide
    band gives those bins enough pull to inflate the fitted linewidth by
    several percent when the model ignores them.

    Parameters
    ----------
    psd:
        Estimate from :func:`welch_psd`; its sampling step ``dt`` places
        the alias image.
    fit_band:
        Optional (f_lo, f_hi) window [Hz]; the DC bin is always excluded.
    noise_floor:
        ``"none"`` fixes the additive floor at zero;
        ``"fitted_constant"`` fits it as fourth parameter (clamped >= 0).

    Returns
    -------
    PsdFit
        With ``converged`` False when the optimizer gave up and
        ``overdamped`` set when gamma > f_q, where the line shape no
        longer constrains frequency and width independently.

    Raises
    ------
    DomainError
        On an unknown ``noise_floor``, an inverted ``fit_band``,
        ``psd.dt <= 0`` or a non-finite PSD value inside the fit band.
    """
    if noise_floor not in ("none", "fitted_constant"):
        raise DomainError(f"unknown noise_floor mode {noise_floor!r}")
    if not psd.dt > 0:
        raise DomainError(f"psd.dt must be > 0 to place the alias image, got {psd.dt}")

    f_all = np.asarray(psd.frequencies, dtype=float)
    s_all = np.asarray(psd.values, dtype=float)
    mask = f_all > 0
    if fit_band is not None:
        lo, hi = fit_band
        if not lo < hi:
            raise DomainError(f"fit_band must satisfy lo < hi, got {fit_band}")
        mask &= (f_all >= lo) & (f_all <= hi)
    f = f_all[mask]
    s = s_all[mask]
    if f.size < 8:
        raise EstimationError(
            f"fit band contains only {f.size} bins; need at least 8"
        )
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        i = bad[0]
        raise DomainError(
            f"PSD value {s[i]} at {f[i]:.6g} Hz (bin {np.flatnonzero(mask)[i]}) "
            "is not finite"
        )
    if np.any(s <= 0):
        raise EstimationError("PSD values must be positive inside the fit band")

    with_floor = noise_floor == "fitted_constant"
    p0 = np.asarray(_fit_starts(f, s, with_floor), dtype=float)
    result = least_squares_gn(
        _LineKernel(f, s, 1.0 / psd.dt, with_floor),
        p0,
        positive=(0, 1, 2),
        clamp_floor=(3,) if with_floor else (),
    )

    sigmas = result.sigma(f.size)
    names = ["A", "f_q", "gamma"] + (["floor"] if with_floor else [])
    uncertainties = {name: float(sig) for name, sig in zip(names, sigmas)}
    a_fit, fq_fit, gamma_fit = result.params[:3]
    dof = max(f.size - result.params.size, 1)
    return PsdFit(
        A=float(a_fit),
        f_q=float(fq_fit),
        gamma=float(gamma_fit),
        floor=float(result.params[3]) if with_floor else 0.0,
        uncertainties=uncertainties,
        fit_residual=result.cost / dof,
        converged=result.converged,
        overdamped=bool(gamma_fit > fq_fit),
        n_points=int(f.size),
    )
