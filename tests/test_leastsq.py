"""Tests for the least-squares engines: the straight-line fit shared by
every linear regression, and the damped Gauss-Newton loop."""

import numpy as np
import pytest

from hotbrownian._leastsq import least_squares_gn, line_fit

X = np.array([15.0, 30.0, 45.0, 60.0, 75.0, 90.0])


def closed_form_inverse(x, weights):
    """Inverse of sum_i w_i [x_i, 1][x_i, 1]^T, written out for a 2x2 matrix."""
    s, sx, sxx = weights.sum(), (weights * x).sum(), (weights * x * x).sum()
    det = s * sxx - sx * sx
    return np.array([[s, -sx], [-sx, sxx]]) / det


def test_noise_free_line_is_recovered_exactly():
    y = 0.25 * X + 3.0
    for sigma in (None, np.full(X.size, 0.5)):
        slope, intercept, cov = line_fit(X, y, sigma)
        assert slope == pytest.approx(0.25, rel=1e-13)
        assert intercept == pytest.approx(3.0, rel=1e-13)
    assert np.all(np.abs(line_fit(X, y)[2]) < 1e-20)


def test_weighted_covariance_is_the_inverse_fisher_matrix():
    rng = np.random.default_rng(3)
    sigma = rng.uniform(0.1, 2.0, X.size)
    y = 0.25 * X + 3.0 + sigma * rng.standard_normal(X.size)
    _, _, cov = line_fit(X, y, sigma)
    np.testing.assert_allclose(cov, closed_form_inverse(X, sigma**-2.0), rtol=1e-12)


def test_unweighted_covariance_scales_with_the_residual_variance():
    noise = np.random.default_rng(4).standard_normal(X.size)
    slope, intercept, cov = line_fit(X, 0.25 * X + 3.0 + noise)
    resid = 0.25 * X + 3.0 + noise - (slope * X + intercept)
    variance = float(resid @ resid) / (X.size - 2)
    np.testing.assert_allclose(
        cov, variance * closed_form_inverse(X, np.ones(X.size)), rtol=1e-10
    )
    # Doubling the noise doubles every residual: four times the covariance.
    _, _, cov_loud = line_fit(X, 0.25 * X + 3.0 + 2.0 * noise)
    np.testing.assert_allclose(cov_loud, 4.0 * cov, rtol=1e-10)


def test_gauss_newton_solves_a_linear_problem_like_lstsq():
    rng = np.random.default_rng(5)
    design = rng.normal(size=(40, 3))
    y = design @ np.array([2.0, -1.0, 0.5]) + 0.1 * rng.normal(size=40)
    result = least_squares_gn(lambda p: (design @ p - y, design), np.ones(3))
    expected, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert result.converged
    np.testing.assert_allclose(result.params, expected, rtol=1e-12)
    np.testing.assert_allclose(result.cov_unscaled, np.linalg.inv(design.T @ design),
                               rtol=1e-12)


def _pulled_below_zero(tried):
    """Residual p + 1: the unconstrained minimum is at p = -1."""
    def resid_jac(p):
        tried.append(p.copy())
        return p + 1.0, np.eye(1)
    return resid_jac


def test_positive_parameter_never_reaches_zero():
    tried = []
    result = least_squares_gn(_pulled_below_zero(tried), [1.0], positive=(0,))
    assert all(p[0] > 0.0 for p in tried)
    assert 0.0 < result.params[0] < 1.0


def test_clamped_parameter_saturates_at_zero():
    tried = []
    result = least_squares_gn(_pulled_below_zero(tried), [1.0], clamp_floor=(0,))
    assert all(p[0] >= 0.0 for p in tried)
    assert result.params[0] == 0.0
