"""Tests for calibration, K extraction, classification, and campaigns."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import hotbrownian as hb
from hotbrownian import (
    CalibrationError,
    CampaignConfig,
    ClassificationThresholds,
    ConfigError,
    DomainError,
    EstimationError,
    KMeasurement,
    PowerSweepPoint,
    PsdFit,
    TemperaturePoint,
    calibrate,
    classify_overheating,
    extract_k,
    hydrodynamic_radius,
    run_campaign,
)
from hotbrownian._leastsq import line_fit
from hotbrownian.pipeline import _estimate, _pooled_mean
from hotbrownian.twobath import sphere_drag

K_B = hb.CONSTANTS.k_B


def stub_point(power, area, pressure=45.0, rep=0, sigma_a=0.0, axes=("x",)):
    """PowerSweepPoint whose normalized area equals ``area`` (f_q = 1)."""
    fits = {
        ax: PsdFit(A=area, f_q=1.0, gamma=100.0, floor=0.0,
                   uncertainties={"A": sigma_a} if sigma_a else {})
        for ax in axes
    }
    return PowerSweepPoint(laser_power=power, repetition_index=rep,
                           pressure_hpa=pressure, fits=fits)


def linear_sweep(a0, slope, powers=(20.0, 60.0, 100.0, 140.0), **kw):
    return [stub_point(p, a0 + slope * p, **kw) for p in powers]


# =============================================================================
# Zero-power calibration
# =============================================================================

class TestCalibrate:
    def test_exact_intercept_and_conversion(self):
        a0, slope = 4.0e-9, 2.5e-11
        result = calibrate(linear_sweep(a0, slope), room_temperature=294.0)
        assert result.pressure_hpa == 45.0
        assert result.intercept["x"] == pytest.approx(a0, rel=1e-12)
        assert result.slope["x"] == pytest.approx(slope, rel=1e-12)
        assert result.c_calib["x"] == pytest.approx(K_B * 294.0 / a0, rel=1e-12)
        assert result.n_points == 4

    def test_weighted_fit_engages_when_every_sigma_is_positive(self):
        # Exact data: the unweighted branch scales the covariance by the
        # (zero) residuals while the weighted branch propagates the
        # a-priori errors, so the reported intercept sigma separates them.
        plain = calibrate(linear_sweep(4.0e-9, 2.5e-11))
        assert plain.intercept_sigma["x"] < 1e-15

        weighted = calibrate(linear_sweep(4.0e-9, 2.5e-11, sigma_a=2.0e-10))
        assert weighted.intercept["x"] == pytest.approx(4.0e-9, rel=1e-9)
        assert weighted.intercept_sigma["x"] > 1e-11

    def test_calibrates_every_axis(self):
        sweep = linear_sweep(4.0e-9, 2.5e-11, axes=("x", "y"))
        result = calibrate(sweep)
        assert set(result.c_calib) == {"x", "y"}

    def test_rejects_empty_sweep(self):
        with pytest.raises(CalibrationError, match="empty"):
            calibrate([])

    def test_rejects_mixed_pressures(self):
        sweep = linear_sweep(4.0e-9, 2.5e-11)
        sweep.append(stub_point(180.0, 5.0e-9, pressure=100.0))
        with pytest.raises(CalibrationError, match="mixes pressures"):
            calibrate(sweep)

    @pytest.mark.parametrize("short_at", [0, -1])
    def test_rejects_points_with_different_axes(self, short_at):
        # One point lacks the y fit, first or last: neither may drop the
        # axis silently nor end in a KeyError.
        sweep = linear_sweep(4.0e-9, 2.5e-11, axes=("x", "y"))
        sweep[short_at] = stub_point(sweep[short_at].laser_power, 5.0e-9, axes=("x",))
        with pytest.raises(CalibrationError, match=r"different axes \(x\) vs \(x, y\)"):
            calibrate(sweep)

    def test_rejects_fewer_than_three_powers(self):
        sweep = linear_sweep(4.0e-9, 2.5e-11, powers=(20.0, 60.0))
        with pytest.raises(CalibrationError, match=">= 3"):
            calibrate(sweep)

    def test_rejects_non_positive_intercept(self):
        with pytest.raises(CalibrationError, match="not positive"):
            calibrate(linear_sweep(-1.0e-9, 2.5e-11))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_area(self, bad):
        sweep = linear_sweep(4.0e-9, 2.5e-11)
        sweep[1] = stub_point(sweep[1].laser_power, bad)
        with pytest.raises(DomainError, match="finite"):
            calibrate(sweep)

    def test_rejects_intercept_consistent_with_zero(self):
        # Scatter so large the extrapolation to P=0 means nothing.
        sweep = [stub_point(10.0, 5.0), stub_point(20.0, 1.0), stub_point(30.0, 6.0)]
        with pytest.raises(CalibrationError, match="consistent with zero"):
            calibrate(sweep)


# =============================================================================
# Coupling-constant extraction
# =============================================================================

def k_inputs(k_true, powers=(20.0, 60.0, 100.0, 140.0), slope_t=0.17):
    """Calibration of exact areas on both axes, and temperatures
    294 + slope_t*P at 45 hPa, such that K = k_true."""
    a0 = 4.0e-9
    sweep = linear_sweep(a0, k_true * slope_t * a0 / 294.0, powers=powers, axes=("x", "y"))
    temps = [
        TemperaturePoint(laser_power=p, pressure=45.0, temperature=294.0 + slope_t * p)
        for p in powers
    ]
    return calibrate(sweep, room_temperature=294.0), temps


class TestExtractK:
    def test_exact_slope_ratio(self):
        calib, temps = k_inputs(0.3)
        result = extract_k(calib, temps)
        assert list(result) == ["x", "y"]
        for m in result.values():
            assert m.pressure == 45.0
            assert m.K == pytest.approx(0.3, rel=1e-12)

    def test_input_order_does_not_matter(self):
        calib, temps = k_inputs(0.3)
        shuffled = extract_k(calib, temps[::-1])
        assert shuffled["x"].K == pytest.approx(0.3, rel=1e-12)

    def test_uncertainty_combines_both_slopes(self):
        # Scattered areas and temperatures, both with sigmas: K's sigma adds
        # the delta-method sigma of b/a0 and that of the temperature slope.
        sweep = [
            stub_point(p, 4.0e-9 + 2.5e-11 * p + 1e-10 * d, sigma_a=1e-10 * s)
            for p, d, s in zip(FIT_POWERS, SCATTER, SIGMAS)
        ]
        temps = [
            TemperaturePoint(p, 45.0, 294.0 + 0.17 * p - 0.3 * d, 0.2 * s)
            for p, d, s in zip(FIT_POWERS, SCATTER, SIGMAS)
        ]
        (m,) = extract_k(calibrate(sweep), temps).values()
        powers = np.array(FIT_POWERS)
        b, a0, cov = line_fit(powers, np.array([pt.fits["x"].normalized_area for pt in sweep]),
                              1e-10 * np.array(SIGMAS))
        slope_t, _, cov_t = line_fit(powers, np.array([t.temperature for t in temps]),
                                     0.2 * np.array(SIGMAS))
        k_value = 294.0 * (b / a0) / slope_t
        rel2_area = cov[0, 0] / b**2 + cov[1, 1] / a0**2 - 2.0 * cov[0, 1] / (b * a0)
        rel2_temp = cov_t[0, 0] / slope_t**2
        assert m.K == pytest.approx(k_value, rel=1e-12)
        assert m.sigma == pytest.approx(abs(k_value) * math.sqrt(rel2_area + rel2_temp),
                                        rel=1e-12)
        assert rel2_area > 0.01 * rel2_temp > 0 and rel2_temp > 0.01 * rel2_area

    def test_rejects_short_series(self):
        calib, temps = k_inputs(0.3)
        with pytest.raises(EstimationError, match="temperature points"):
            extract_k(calib, temps[:2])

    def test_rejects_flat_temperatures(self):
        calib, _ = k_inputs(0.3)
        flat = [
            TemperaturePoint(laser_power=p, pressure=45.0, temperature=294.0)
            for p in (20.0, 60.0, 100.0, 140.0)
        ]
        with pytest.raises(EstimationError, match="consistent with\\s+.?zero|consistent with"):
            extract_k(calib, flat)

    def test_rejects_pressure_mismatch(self):
        # The conversion constant of a calibration holds at its own pressure only.
        calib, temps = k_inputs(0.3)
        foreign = [replace(temps[0], pressure=100.0)] + temps[1:]
        with pytest.raises(DomainError, match="100.0.*45.0 hPa"):
            extract_k(calib, foreign)


# =============================================================================
# The weighting rule shared by every line fit
# =============================================================================

FIT_POWERS = (20.0, 50.0, 80.0, 110.0, 140.0)
SCATTER = (1.0, -2.0, 1.5, -0.5, 0.8)
SIGMAS = (1.0, 2.0, 0.5, 3.0, 1.5)


def calibrate_with(sigmas):
    return calibrate([
        stub_point(p, 4.0e-9 + 2.5e-11 * p + 1e-10 * d, sigma_a=None if s is None else 1e-10 * s)
        for p, d, s in zip(FIT_POWERS, SCATTER, sigmas)
    ])


def extract_k_with(sigmas):
    # The sigmas weight the temperature fit; the calibration is unweighted.
    temps = [
        TemperaturePoint(p, 45.0, 294.0 + 0.17 * p - 0.3 * d, s)
        for p, d, s in zip(FIT_POWERS, SCATTER, sigmas)
    ]
    return extract_k(calibrate(linear_sweep(4.0e-9, 2.5e-11, powers=FIT_POWERS)), temps)


def fit_heating_law_with(sigmas):
    pressures = (45.0, 100.0, 45.0, 100.0, 45.0)
    return hb.fit_heating_law([
        TemperaturePoint(p, pr, 294.0 + 17.0 * p / pr + 0.5 * d, s)
        for p, pr, d, s in zip(FIT_POWERS, pressures, SCATTER, sigmas)
    ])


@pytest.mark.parametrize("bad", [None, math.nan, 0.0, math.inf])
@pytest.mark.parametrize("fit", [calibrate_with, extract_k_with, fit_heating_law_with])
def test_one_unusable_sigma_makes_the_fit_unweighted(fit, bad):
    unweighted = fit([None] * len(FIT_POWERS))
    assert fit(SIGMAS) != unweighted              # the sigmas do weight the fit
    assert fit(SIGMAS[:2] + (bad,) + SIGMAS[3:]) == unweighted


# =============================================================================
# Overheating classification
# =============================================================================

def k_points(values, sigma=0.05, pressures=None):
    if pressures is None:
        pressures = [100.0 / (i + 1) for i in range(len(values))]
    return [
        KMeasurement(pressure=p, K=k, sigma=sigma)
        for p, k in zip(pressures, values)
    ]


class TestClassifyOverheating:
    def test_thermal_when_pooled_k_is_small(self):
        verdict = classify_overheating(k_points([0.29, 0.31, 0.28, 0.30], sigma=0.02))
        assert verdict == "thermal"

    def test_overheated_when_pooled_k_clears_unity(self):
        verdict = classify_overheating(k_points([1.5, 1.6, 1.4], sigma=0.05))
        assert verdict == "overheated"

    def test_overheated_on_significant_low_pressure_rise(self):
        # Pooled K sits between the thresholds, but K climbs as the gas
        # thins — the fingerprint of real extra force noise.
        measurements = k_points([0.68, 0.85, 1.40], pressures=[100.0, 50.0, 20.0])
        assert classify_overheating(measurements) == "overheated"

    def test_elevated_but_flat_is_undetermined(self):
        measurements = k_points([0.85, 0.85, 0.85], pressures=[100.0, 50.0, 20.0])
        assert classify_overheating(measurements) == "undetermined"

    def test_single_noisy_point_is_undetermined(self):
        verdict = classify_overheating([KMeasurement(pressure=45.0, K=0.9, sigma=0.5)])
        assert verdict == "undetermined"

    def test_custom_thresholds_move_the_lines(self):
        point = [KMeasurement(pressure=45.0, K=0.9, sigma=0.05)]
        assert classify_overheating(point) == "undetermined"
        eager = ClassificationThresholds(overheated_k=0.8, elevated_k=0.2, n_sigma=1.0)
        assert classify_overheating(point, eager) == "overheated"

    def test_hundred_thermal_campaigns_never_flag(self):
        rng = np.random.default_rng(2026)
        verdicts = {
            classify_overheating(
                k_points(rng.normal(0.3, 0.02, size=4).tolist(), sigma=0.02,
                         pressures=[15.0, 45.0, 100.0, 150.0])
            )
            for _ in range(100)
        }
        assert verdicts == {"thermal"}

    def test_rejects_empty_and_invalid_inputs(self):
        with pytest.raises(EstimationError, match="no coupling"):
            classify_overheating([])
        with pytest.raises(DomainError, match=">= 0"):
            classify_overheating([KMeasurement(pressure=45.0, K=0.3, sigma=-0.1)])
        with pytest.raises(DomainError, match="pressures"):
            classify_overheating([KMeasurement(pressure=0.0, K=0.3, sigma=0.1)])


class TestPooledMean:
    def test_equal_weights(self):
        mean, sigma = _pooled_mean(np.array([1.0, 3.0]), np.array([1.0, 1.0]))
        assert mean == pytest.approx(2.0, rel=1e-12)
        assert sigma == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_inverse_variance_weights(self):
        mean, sigma = _pooled_mean(np.array([1.0, 3.0]), np.array([1.0, 0.5]))
        assert mean == pytest.approx((1.0 + 4.0 * 3.0) / 5.0, rel=1e-12)
        assert sigma == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-12)


# =============================================================================
# Hydrodynamic radius
# =============================================================================

class TestHydrodynamicRadius:
    def test_reference_value(self, gas45):
        assert hydrodynamic_radius(3131.19, 45.0, gas45) == pytest.approx(
            4.999954082714633e-07, rel=1e-12
        )

    def test_inverts_the_sphere_drag(self, sphere_particle, gas45):
        # Feeding back the model's own ambient-temperature linewidth must
        # return the true radius.
        gamma_hz = sphere_drag(sphere_particle, gas45,
                               emerging_temperature=294.0) / (2 * math.pi)
        radius = hydrodynamic_radius(gamma_hz, 45.0, gas45)
        assert radius == pytest.approx(500e-9, rel=1e-12)

    def test_scales_linearly_with_pressure(self, gas45):
        r1 = hydrodynamic_radius(3131.19, 45.0, gas45)
        r2 = hydrodynamic_radius(3131.19, 90.0, gas45)
        assert r2 == pytest.approx(2 * r1, rel=1e-12)

    def test_rejects_non_positive_inputs(self, gas45):
        with pytest.raises(DomainError, match="gamma"):
            hydrodynamic_radius(0.0, 45.0, gas45)
        with pytest.raises(DomainError, match="pressure"):
            hydrodynamic_radius(3131.19, 0.0, gas45)
        with pytest.raises(DomainError, match="density"):
            hydrodynamic_radius(3131.19, 45.0, gas45, particle_density=0.0)


# =============================================================================
# Campaign orchestration
# =============================================================================

class TestCampaignConfig:
    def test_rejects_bad_grids(self, axes_pair, sphere_particle, heating17):
        kw = dict(pressures_hpa=(45.0,), laser_powers_mw=(30.0, 60.0, 90.0),
                  repetitions=1, duration_s=0.05, dt_s=1e-6, axes=axes_pair,
                  particle=sphere_particle, heating=heating17)
        with pytest.raises(ConfigError, match="repetitions"):
            CampaignConfig(**{**kw, "repetitions": -1})
        with pytest.raises(ConfigError, match="pressures"):
            CampaignConfig(**{**kw, "pressures_hpa": (0.0,)})
        with pytest.raises(ConfigError, match="powers"):
            CampaignConfig(**{**kw, "laser_powers_mw": (-5.0,)})
        # Settings no trace cell can run; without traces the ESR cells still can.
        for change, match in (({"duration_s": 1e-4}, "fewer than 1000 steps"),
                              ({"segment_length": 1}, "segment_length")):
            with pytest.raises(ConfigError, match=match):
                CampaignConfig(**{**kw, **change})
            CampaignConfig(**{**kw, **change, "thermometry_only": True})

    def test_rejects_duplicate_pressures(self, axes_pair, sphere_particle, heating17):
        # A repeated pressure would be calibrated twice from the same points
        # and enter the pooled K twice.
        with pytest.raises(ConfigError, match=r"distinct.*\[45.0, 45.0, 100.0\]"):
            CampaignConfig(pressures_hpa=(45.0, 45.0, 100.0),
                           laser_powers_mw=(30.0, 60.0, 90.0), repetitions=1,
                           duration_s=0.05, dt_s=1e-6, axes=axes_pair,
                           particle=sphere_particle, heating=heating17)


@pytest.fixture(scope="module")
def mini_campaign(axes_pair, sphere_particle, heating17):
    config = CampaignConfig(
        pressures_hpa=(45.0, 100.0),
        laser_powers_mw=(30.0, 90.0, 150.0),
        repetitions=2,
        duration_s=0.3,
        dt_s=5e-7,
        axes=axes_pair,
        particle=sphere_particle,
        heating=heating17,
        rng_seed=11,
    )
    return config, run_campaign(config)


class TestRunCampaign:
    def test_grid_bookkeeping(self, mini_campaign):
        _, report = mini_campaign
        assert report.pressures_hpa == (45.0, 100.0)
        assert len(report.points) == 2 * 3 * 2
        assert len(report.temperatures) == 2 * 3
        assert report.errors == []
        assert report.runtime_s > 0
        for pt in report.points:
            assert set(pt.fits) == {"x", "y"}
            for fit in pt.fits.values():
                assert fit.converged

    def test_recovers_the_heating_coefficient(self, mini_campaign):
        _, report = mini_campaign
        assert report.heating_fit is not None
        assert report.heating_fit.kappa_heat == pytest.approx(17.0, abs=0.2)
        assert report.heating_fit.T0_corrected == 294.0

    def test_calibrates_each_pressure(self, mini_campaign):
        _, report = mini_campaign
        assert sorted(report.calibrations) == [45.0, 100.0]
        for calib in report.calibrations.values():
            assert calib.c_calib["x"] > 0
            assert calib.c_calib["y"] > 0

    def test_radius_comes_from_the_zero_power_linewidth(
        self, axes_pair, sphere_particle, heating17
    ):
        # Noise-free linewidths of the heated sphere: hot emerging gas adds
        # drag at every power, so only the P -> 0 linewidth is the Epstein
        # drag of the ambient gas; a mean over the heated powers reads 1.5 % low.
        config = CampaignConfig(
            pressures_hpa=(45.0, 100.0), laser_powers_mw=(30.0, 90.0, 150.0),
            repetitions=1, duration_s=0.1, dt_s=1e-6, axes=axes_pair,
            particle=sphere_particle, heating=heating17,
        )
        gases = {p: hb.GasEnvironment(pressure=p) for p in config.pressures_hpa}
        points, temperatures = [], []
        for pressure, power in itertools.product(config.pressures_hpa, config.laser_powers_mw):
            t_int = hb.internal_temperature(heating17, power, pressure)
            gamma_hz = sphere_drag(sphere_particle, gases[pressure],
                                   emerging_temperature=t_int) / (2 * math.pi)
            fit = PsdFit(A=(4.0e-9 + 2.5e-11 * power) * 5e4**2, f_q=5e4, gamma=gamma_hz,
                         floor=0.0, converged=True)
            points.append(PowerSweepPoint(power, 0, pressure, {"x": fit, "y": fit}))
            temperatures.append(TemperaturePoint(power, pressure, t_int, 0.1))
        report = _estimate(config, gases, points, temperatures, [])
        assert report.errors == []
        assert sorted(report.hydrodynamic_radius_m) == [45.0, 100.0]
        for r in report.hydrodynamic_radius_m.values():
            assert r == pytest.approx(500e-9, rel=3e-3)

    def test_recovers_the_particle_radius(self, mini_campaign):
        _, report = mini_campaign
        assert sorted(report.hydrodynamic_radius_m) == [45.0, 100.0]
        for radius in report.hydrodynamic_radius_m.values():
            assert radius == pytest.approx(500e-9, rel=0.03)

    def test_coupling_estimate_matches_a_thermal_particle(self, mini_campaign):
        _, report = mini_campaign
        est = report.estimate
        assert est is not None
        assert set(est.k_per_axis) == {"x", "y"}
        for axis, (k, sigma) in est.k_per_axis.items():
            assert abs(k - 0.282) < 3 * sigma
            alpha, alpha_sigma = est.alpha_per_axis[axis]
            assert alpha == pytest.approx(k * (math.pi + 8.0) / math.pi, rel=1e-12)
            assert alpha_sigma == pytest.approx(sigma * (math.pi + 8.0) / math.pi, rel=1e-12)
        assert est.classification == {"x": "thermal", "y": "thermal"}
        # drag is axis-independent: the x/y linewidth ratio centers on 1
        assert est.gamma_ratio_mean == pytest.approx(1.0, abs=0.05)

    def test_detector_noise_is_fitted_as_a_floor(self, mini_campaign):
        # White detector noise lifts every PSD by a flat floor; each fit takes
        # it in, and the pooled K and its sigma stay those of the clean run.
        config, clean = mini_campaign
        noisy = run_campaign(replace(config, measurement_noise_psd=1e-9))
        assert noisy.errors == []
        assert all(fit.floor > 0 for pt in noisy.points for fit in pt.fits.values())
        for axis, (k, sigma) in noisy.estimate.k_per_axis.items():
            k_clean, sigma_clean = clean.estimate.k_per_axis[axis]
            assert abs(k - k_clean) < sigma, axis
            assert sigma == pytest.approx(sigma_clean, rel=0.2), axis

    def test_campaign_is_seed_deterministic(self, mini_campaign):
        config, report = mini_campaign
        again = run_campaign(config)
        assert again.estimate.k_mean == report.estimate.k_mean
        assert again.heating_fit.kappa_heat == report.heating_fit.kappa_heat

    def test_thermometry_only_skips_traces(self, axes_pair, sphere_particle, heating17):
        config = CampaignConfig(
            pressures_hpa=(15.0, 45.0, 100.0, 150.0),
            laser_powers_mw=tuple(float(p) for p in range(15, 151, 15)),
            repetitions=0,
            duration_s=0.01,
            dt_s=1e-6,
            axes=axes_pair,
            particle=sphere_particle,
            heating=heating17,
            rng_seed=3,
            thermometry_only=True,
        )
        report = run_campaign(config)
        assert report.points == []
        assert report.estimate is None
        assert report.calibrations == {}
        assert report.hydrodynamic_radius_m == {}
        assert len(report.temperatures) == 40
        assert report.heating_fit.kappa_heat == pytest.approx(17.0, abs=0.2)

    def test_failed_cells_are_recorded_and_skipped(
        self, axes_pair, sphere_particle, heating17
    ):
        # Zero laser power cannot trap; those cells must fail at the trace
        # stage without sinking the rest of the campaign.
        config = CampaignConfig(
            pressures_hpa=(45.0, 100.0),
            laser_powers_mw=(0.0, 60.0, 120.0, 180.0),
            repetitions=1,
            duration_s=0.05,
            dt_s=1e-6,
            axes=axes_pair[:1],
            particle=sphere_particle,
            heating=heating17,
            rng_seed=5,
        )
        report = run_campaign(config)
        trace_errors = [e for e in report.errors if e["stage"] == "trace"]
        assert len(trace_errors) == 2
        assert all(e["power"] == 0.0 for e in trace_errors)
        assert all("restoring" in e["message"] for e in trace_errors)
        assert len(report.points) == 2 * 3           # surviving cells
        assert len(report.temperatures) == 2 * 4     # ESR works at P=0
        assert report.estimate is not None


# =============================================================================
# Campaign K from the calibration fit
# =============================================================================

A0 = {"x": 4.0e-9, "y": 6.0e-9}
SLOPE = {"x": 2.5e-11, "y": 5.0e-11}


@pytest.fixture
def k_config(axes_pair, sphere_particle, heating17):
    return CampaignConfig(
        pressures_hpa=(45.0, 100.0), laser_powers_mw=FIT_POWERS, repetitions=1,
        duration_s=0.1, dt_s=1e-6, axes=axes_pair, particle=sphere_particle,
        heating=heating17,
    )


def estimate_from(config, area, temperature, sigma_a=0.0):
    """``_estimate`` on one repetition per cell: A/f_q^2 = area(axis, i, P, p)
    and ESR temperatures temperature(i, P, p) of sigma 0.1 K, cell i."""
    gases = {p: hb.GasEnvironment(pressure=p) for p in config.pressures_hpa}
    grid = list(enumerate(itertools.product(config.pressures_hpa, config.laser_powers_mw)))
    points = [
        PowerSweepPoint(power, 0, pressure, {
            axis: PsdFit(A=area(axis, i, power, pressure), f_q=1.0, gamma=100.0, floor=0.0,
                         converged=True, uncertainties={"A": sigma_a} if sigma_a else {})
            for axis in ("x", "y")
        })
        for i, (pressure, power) in grid
    ]
    temperatures = [
        TemperaturePoint(power, pressure, temperature(i, power, pressure), 0.1)
        for i, (pressure, power) in grid
    ]
    report = _estimate(config, gases, points, temperatures, [])
    return (points, temperatures, report.heating_fit, report.calibrations,
            report.estimate, report.errors)


class TestCampaignCoupling:
    def test_k_is_the_calibrated_slope_ratio(self, k_config):
        # Noise-free areas a0 + b*P and temperatures T0 + s*P, s = 17/p.
        *_, est, errors = estimate_from(
            k_config,
            lambda axis, i, power, pressure: A0[axis] + SLOPE[axis] * power,
            lambda i, power, pressure: 294.0 + 17.0 * power / pressure,
        )
        assert errors == []
        for axis in ("x", "y"):
            assert [m.pressure for m in est.per_pressure[axis]] == [45.0, 100.0]
            for m in est.per_pressure[axis]:
                expected = 294.0 * (SLOPE[axis] / A0[axis]) / (17.0 / m.pressure)
                assert m.K == pytest.approx(expected, rel=1e-12)

    def test_k_sigma_uses_the_full_calibration_covariance(self, k_config):
        scatter = SCATTER * 2
        points, temperatures, heating_fit, calibrations, est, errors = estimate_from(
            k_config,
            lambda axis, i, power, pressure: (
                A0[axis] + SLOPE[axis] * power + 2e-11 * scatter[i]
            ),
            lambda i, power, pressure: 294.0 + 17.0 * power / pressure + 0.3 * scatter[i],
            sigma_a=2e-11,
        )
        assert errors == []
        for pressure in k_config.pressures_hpa:
            temps = [t for t in temperatures if t.pressure == pressure]
            slope_t, _, cov_t = line_fit(
                np.array([t.laser_power for t in temps]),
                np.array([heating_fit.corrected_temperature(t) for t in temps]),
                np.array([t.sigma for t in temps]),
            )
            sweep = [pt for pt in points if pt.pressure_hpa == pressure]
            for axis in ("x", "y"):
                b, a0, cov = line_fit(
                    np.array([pt.laser_power for pt in sweep]),
                    np.array([pt.fits[axis].normalized_area for pt in sweep]),
                    np.array([pt.fits[axis].normalized_area_sigma for pt in sweep]),
                )
                k_value = 294.0 * (b / a0) / slope_t
                rel2 = (cov[0, 0] / b**2 + cov[1, 1] / a0**2 - 2.0 * cov[0, 1] / (b * a0)
                        + cov_t[0, 0] / slope_t**2)
                (m,) = [m for m in est.per_pressure[axis] if m.pressure == pressure]
                assert m.K == pytest.approx(k_value, rel=1e-12)
                assert m.sigma == pytest.approx(abs(k_value) * math.sqrt(rel2), rel=1e-12)
                assert calibrations[pressure].slope_intercept_cov[axis] == cov[0, 1]

    def test_flat_temperatures_drop_only_that_pressure(self, k_config):
        *_, calibrations, est, errors = estimate_from(
            k_config,
            lambda axis, i, power, pressure: A0[axis] + SLOPE[axis] * power,
            lambda i, power, pressure: 294.0 + (17.0 * power / 45.0 if pressure == 45.0 else 0.0),
        )
        assert [(e["stage"], e["pressure"], e["axis"]) for e in errors] == [
            ("extract_k", 100.0, "x"), ("extract_k", 100.0, "y"),
        ]
        assert all("consistent with zero" in e["message"] for e in errors)
        assert sorted(calibrations) == [45.0, 100.0]
        for axis in ("x", "y"):
            assert [m.pressure for m in est.per_pressure[axis]] == [45.0]
