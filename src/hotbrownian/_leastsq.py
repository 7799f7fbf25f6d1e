"""Least-squares engines: the straight-line fit behind every linear
regression of the package, and a small damped Gauss-Newton loop for
the nonlinear fits.

Both spectral (Lorentzian PSD) and spin-resonance (double-dip) fits are
smooth few-parameter least-squares problems with analytic Jacobians; a
single Levenberg-style damped Gauss-Newton loop covers both.  The engine
works on whatever residual the supplied callback returns, so weighting
stays in the callers.

Termination rules, with fixed tolerances tuned on synthetic ensembles
of both fit families:

* relative step below ``_XTOL`` — the primary criterion;
* relative cost improvement below ``_FTOL``, counted only when the
  accepted step was nearly undamped (lambda <= 1e-7), so heavily damped
  crawling cannot masquerade as convergence;
* rejection exhaustion at a flat point, accepted as convergence only if
  the scaled gradient is tiny compared to the cost;
* otherwise the run stops unconverged after ``_MAX_ITER`` iterations.

Parameters can be declared strictly positive (steps violating that are
rejected and retried with more damping) or floor-clamped at zero (the
step is kept, the coordinate saturates), the latter for additive noise
floors that legitimately live at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EstimationError

__all__ = ["GnResult", "least_squares_gn"]

_TINY = 1e-300
_MAX_ITER = 200
_XTOL = 1e-10                            # relative step
_FTOL = 1e-12                            # relative cost improvement


@dataclass
class GnResult:
    """Outcome of a damped Gauss-Newton run."""

    params: np.ndarray
    cov_unscaled: np.ndarray             # inv(J^T J) at the solution
    cost: float                          # sum of squared residuals
    n_iter: int
    converged: bool

    def sigma(self, n_data: int) -> np.ndarray:
        """1-sigma parameter uncertainties scaled by the reduced cost."""
        dof = max(n_data - self.params.size, 1)
        var = np.diag(self.cov_unscaled) * self.cost / dof
        return np.sqrt(np.clip(var, 0.0, None))


def usable_sigma(sigma: Sequence[float | None]) -> np.ndarray | None:
    """Per-point sigmas to weight a line fit by, or None for an unweighted fit.

    A fit is weighted only when every point has a finite, positive sigma;
    one missing (None), NaN, zero or infinite entry makes it unweighted.
    """
    sigma = np.asarray(sigma, dtype=float)           # None -> NaN
    return sigma if np.all(np.isfinite(sigma) & (sigma > 0)) else None


def line_fit(x: np.ndarray, y: np.ndarray, sigma: np.ndarray | None = None):
    """Straight-line fit y = slope*x + intercept; returns (slope, intercept, cov).

    ``cov`` is the 2x2 covariance of (slope, intercept).  With per-point
    sigmas it is the exact inverse Fisher matrix; without, it is scaled
    by the residual variance.
    """
    design = np.column_stack([x, np.ones_like(x)])
    if sigma is not None:
        w = 1.0 / sigma
        coeffs, *_ = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)
        cov = np.linalg.inv((design * (w**2)[:, None]).T @ design)
    else:
        coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coeffs
        dof = max(x.size - 2, 1)
        cov = np.linalg.inv(design.T @ design) * float(resid @ resid) / dof
    return float(coeffs[0]), float(coeffs[1]), cov


def least_squares_gn(
    resid_jac: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    p0: Sequence[float],
    positive: Sequence[int] = (),
    clamp_floor: Sequence[int] = (),
) -> GnResult:
    """Minimize ||r(p)||^2 given a residual-and-Jacobian callback.

    Parameters
    ----------
    resid_jac:
        Maps parameters to ``(r, J)`` with r shape (n,) and J shape
        (n, m); any weighting must already be applied to both.
    p0:
        Starting parameters, shape (m,).
    positive:
        Indices that must stay > 0; violating trial steps are rejected.
    clamp_floor:
        Indices clamped at >= 0 after each step (boundary allowed).
    """
    p = np.asarray(p0, dtype=float).copy()
    r, J = resid_jac(p)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise EstimationError("non-finite cost at the fit starting point")

    lam = 1e-3
    converged = False
    n_iter = 0

    for n_iter in range(1, _MAX_ITER + 1):
        g = J.T @ r                      # half-gradient of the cost
        jtj = J.T @ J
        damp = np.diag(jtj).copy()
        damp[damp <= 0] = 1.0

        accepted = False
        lam_used = lam
        cost_prev = cost
        step = np.zeros_like(p)
        for _ in range(60):
            try:
                dp = np.linalg.solve(jtj + lam * np.diag(damp), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + dp
            if any(p_new[i] <= 0.0 for i in positive):
                lam *= 10.0
                continue
            for i in clamp_floor:
                if p_new[i] < 0.0:
                    p_new[i] = 0.0
            r_new, J_new = resid_jac(p_new)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                lam_used = lam
                step = p_new - p
                p, r, J, cost = p_new, r_new, J_new, cost_new
                lam = max(lam * 0.1, 1e-14)
                break
            lam *= 10.0

        if not accepted:
            # No descent direction survives damping: converged only if the
            # scaled gradient says the surface is flat here.
            scale = np.maximum(np.abs(p), _TINY)
            converged = float(np.max(np.abs(g) * scale)) <= 1e-8 * max(cost, _TINY)
            break

        rel_step = float(np.max(np.abs(step) / np.maximum(np.abs(p), _TINY)))
        if rel_step < _XTOL:
            converged = True
            break
        if lam_used <= 1e-7 and (cost_prev - cost) <= _FTOL * max(cost_prev, _TINY):
            converged = True
            break

    cov = np.linalg.pinv(J.T @ J)
    return GnResult(params=p, cov_unscaled=cov, cost=cost, n_iter=n_iter, converged=converged)
