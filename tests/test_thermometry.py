"""Tests for the splitting law, ESR dip fitting, and heating-law regression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotbrownian import (
    ConfigError,
    DomainError,
    EsrFit,
    EstimationError,
    HeatingLaw,
    TemperaturePoint,
    ZfsLaw,
    default_zfs_law,
    fit_esr,
    fit_heating_law,
    simulate_esr,
    temperature_from_esr,
)
from hotbrownian.thermometry import _dips
from hotbrownian.twobath import internal_temperature


# =============================================================================
# Zero-field-splitting law
# =============================================================================

class TestZfsLaw:
    def test_packaged_law_coefficients_and_range(self):
        law = default_zfs_law()
        assert law.coefficients == (2.8697e9, 9.7e4, -3.7e2, 0.17)
        assert (law.T_min, law.T_max) == (250.0, 600.0)
        assert "Toyli" in law.source

    def test_room_temperature_splitting_value(self):
        # Cubic evaluated by hand at 294 K:
        # 2.8697e9 + 9.7e4*294 - 3.7e2*294^2 + 0.17*294^3
        law = default_zfs_law()
        assert law.d_of_t(294.0) == pytest.approx(2_870_556_751.28, abs=1e-3)
        assert law.d_of_t(330.0) == pytest.approx(2_867_526_290.0, abs=1e-3)

    def test_slope_at_room_temperature(self):
        # 9.7e4 - 2*3.7e2*294 + 3*0.17*294^2
        law = default_zfs_law()
        assert law.derivative(294.0) == pytest.approx(-76_477.64, abs=1e-6)

    def test_inversion_round_trip(self):
        law = default_zfs_law()
        assert law.t_of_d(law.d_of_t(330.0)) == pytest.approx(330.0, abs=1e-3)
        assert law.t_of_d(law.d_of_t(251.0), tol_kelvin=1e-6) == pytest.approx(251.0, abs=1e-6)

    def test_positive_splitting_shift_reads_colder(self):
        # A +0.3 MHz midpoint miscalibration masquerades as ~4 K of cooling;
        # the full inversion is slightly larger than the local-slope estimate
        # 0.3e6 / 76477.64 = 3.92 K because |dD/dT| grows with temperature.
        law = default_zfs_law()
        shift = law.t_of_d(law.d_of_t(294.0) + 0.3e6) - 294.0
        assert shift == pytest.approx(-3.968, abs=5e-3)
        assert -5.0 < shift < -3.0

    def test_rejects_out_of_range_temperature(self):
        law = default_zfs_law()
        with pytest.raises(DomainError, match="validity range"):
            law.d_of_t(200.0)
        with pytest.raises(DomainError, match="validity range"):
            law.derivative(650.0)

    def test_rejects_out_of_range_splitting(self):
        law = default_zfs_law()
        with pytest.raises(DomainError, match="invertible"):
            law.t_of_d(law.d_of_t(250.0) + 1e6)   # above the 250 K value

    def test_rejects_too_few_coefficients(self):
        with pytest.raises(DomainError, match="linear"):
            ZfsLaw(coefficients=(2.87e9,), T_min=250.0, T_max=600.0)

    def test_rejects_inverted_validity_range(self):
        with pytest.raises(DomainError, match="T_min"):
            ZfsLaw(coefficients=(2.87e9, -1e5), T_min=600.0, T_max=250.0)

    def test_rejects_non_decreasing_law(self):
        with pytest.raises(DomainError, match="decrease"):
            ZfsLaw(coefficients=(2.87e9, 1e5), T_min=250.0, T_max=600.0)


# =============================================================================
# ESR simulation
# =============================================================================

class TestSimulateEsr:
    def test_noise_free_counts_match_double_dip_expectation(self, heating17):
        law = default_zfs_law()
        strain, width, contrast, base = 8e6, 2e6, 0.25, 1e5
        sweep = simulate_esr(heating17, law, laser_power=30.0, pressure=45.0,
                             strain_E=strain, contrast=contrast, linewidth=width,
                             noise_level=0.0, rng_seed=1, baseline_counts=base)

        t_int = internal_temperature(heating17, 30.0, 45.0)
        assert t_int == pytest.approx(294.0 + 17.0 * 30.0 / 45.0, rel=1e-12)
        assert sweep.metadata["t_int"] == t_int
        center = law.d_of_t(t_int)
        assert sweep.metadata["d_true"] == center

        f = sweep.microwave_frequencies
        h = 0.5 * width
        expected = base * (
            1.0
            - contrast * h**2 / ((f - (center - strain)) ** 2 + h**2)
            - contrast * h**2 / ((f - (center + strain)) ** 2 + h**2)
        )
        np.testing.assert_array_equal(sweep.pl_counts, expected)
        assert f.size == 301

    def test_center_offset_shifts_the_spectrum(self, heating17):
        law = default_zfs_law()
        kw = dict(laser_power=30.0, pressure=45.0, strain_E=8e6, contrast=0.25,
                  linewidth=2e6, noise_level=0.0, rng_seed=1)
        plain = simulate_esr(heating17, law, **kw)
        moved = simulate_esr(heating17, law, center_offset_hz=0.3e6, **kw)
        assert moved.metadata["d_true"] - plain.metadata["d_true"] == pytest.approx(0.3e6)

    def test_noise_is_seed_deterministic(self, heating17):
        law = default_zfs_law()
        kw = dict(laser_power=60.0, pressure=45.0, strain_E=8e6, contrast=0.25,
                  linewidth=2e6, noise_level=1.0)
        a = simulate_esr(heating17, law, rng_seed=9, **kw)
        b = simulate_esr(heating17, law, rng_seed=9, **kw)
        c = simulate_esr(heating17, law, rng_seed=10, **kw)
        np.testing.assert_array_equal(a.pl_counts, b.pl_counts)
        assert not np.array_equal(a.pl_counts, c.pl_counts)

    def test_metadata_records_the_request(self, heating17):
        law = default_zfs_law()
        sweep = simulate_esr(heating17, law, laser_power=45.0, pressure=100.0,
                             strain_E=5e6, contrast=0.2, linewidth=3e6,
                             noise_level=0.5, rng_seed=3, baseline_counts=2e5)
        md = sweep.metadata
        assert md["laser_power_mw"] == 45.0
        assert md["pressure_hpa"] == 100.0
        assert md["strain_e_hz"] == 5e6
        assert md["linewidth_hz"] == 3e6
        assert md["contrast"] == 0.2
        assert md["noise_level"] == 0.5
        assert md["baseline_counts"] == 2e5
        assert md["seed"] == 3

    def test_rejects_bad_parameters(self, heating17):
        law = default_zfs_law()
        ok = dict(laser_power=30.0, pressure=45.0, strain_E=8e6, contrast=0.25,
                  linewidth=2e6, noise_level=0.0, rng_seed=1)
        for key, bad, exc, pat in [
            ("contrast", 1.0, DomainError, "contrast"),
            ("linewidth", 0.0, DomainError, "linewidth"),
            ("strain_E", -1.0, DomainError, "strain"),
            ("noise_level", -0.1, DomainError, "noise_level"),
        ]:
            kw = dict(ok, **{key: bad})
            with pytest.raises(exc, match=pat):
                simulate_esr(heating17, law, **kw)
        with pytest.raises(DomainError, match="baseline"):
            simulate_esr(heating17, law, baseline_counts=0.0, **ok)

    def test_rejects_grid_missing_a_resonance(self, heating17):
        law = default_zfs_law()
        center = law.d_of_t(internal_temperature(heating17, 30.0, 45.0))
        narrow = np.linspace(center - 2e6, center + 2e6, 64)   # misses the dips
        with pytest.raises(ConfigError, match="grid"):
            simulate_esr(heating17, law, laser_power=30.0, pressure=45.0,
                         strain_E=8e6, contrast=0.25, linewidth=2e6,
                         noise_level=0.0, rng_seed=1, freqs=narrow)


# =============================================================================
# ESR dip fitting
# =============================================================================

class TestFitEsr:
    def resolved_sweep(self, heating, noise=0.0, seed=1, power=30.0):
        return simulate_esr(heating, default_zfs_law(), laser_power=power,
                            pressure=45.0, strain_E=8e6, contrast=0.25,
                            linewidth=2e6, noise_level=noise, rng_seed=seed)

    def test_noise_free_round_trip_is_exact(self, heating17):
        sweep = self.resolved_sweep(heating17)
        fit = fit_esr(sweep)
        assert fit.converged and not fit.fallback_single_dip
        assert fit.D == pytest.approx(sweep.metadata["d_true"], abs=1.0)
        assert fit.E == pytest.approx(8e6, rel=1e-9)
        assert fit.f1 < fit.f2
        assert fit.f1 == pytest.approx(fit.D - fit.E, rel=1e-12)
        assert fit.B == pytest.approx(1e5, rel=1e-9)
        assert fit.C1 == pytest.approx(0.25, rel=1e-9)
        assert fit.C2 == pytest.approx(0.25, rel=1e-9)
        assert fit.w1 == pytest.approx(2e6, rel=1e-9)
        assert fit.w2 == pytest.approx(2e6, rel=1e-9)
        assert fit.n_points == 301
        assert fit.fit_residual < 1e-10

    def test_descending_sweep_fits_like_the_ascending_one(self, heating17):
        sweep = self.resolved_sweep(heating17, noise=1.0, seed=42, power=90.0)
        reversed_sweep = _bare_spectrum(sweep.microwave_frequencies[::-1],
                                        sweep.pl_counts[::-1])
        assert fit_esr(reversed_sweep) == fit_esr(sweep)

    def test_overlapping_dips_still_resolve_noise_free(self, heating17):
        # Strain below the linewidth: one merged hump, but the noise-free
        # shape still pins both centers.
        sweep = simulate_esr(heating17, default_zfs_law(), laser_power=30.0,
                             pressure=45.0, strain_E=4e6, contrast=0.2,
                             linewidth=6e6, noise_level=0.0, rng_seed=1)
        fit = fit_esr(sweep)
        assert fit.converged and not fit.fallback_single_dip
        assert fit.D == pytest.approx(sweep.metadata["d_true"], abs=1.0)
        assert fit.E == pytest.approx(4e6, rel=1e-6)

    def test_coincident_dips_fall_back_to_single(self, heating17):
        sweep = simulate_esr(heating17, default_zfs_law(), laser_power=30.0,
                             pressure=45.0, strain_E=0.0, contrast=0.2,
                             linewidth=6e6, noise_level=0.0, rng_seed=1)
        fit = fit_esr(sweep)
        assert fit.fallback_single_dip
        assert fit.E == 0.0
        assert fit.f1 == fit.f2 == fit.D
        assert fit.C1 == fit.C2
        assert fit.D == pytest.approx(sweep.metadata["d_true"], abs=10.0)
        assert fit.uncertainties["E"] == 0.0
        # The one dip fills both slots, its sigmas too.
        unc = fit.uncertainties
        assert unc["f1"] == unc["f2"] == unc["D"] > 0
        assert unc["C1"] == unc["C2"] and unc["w1"] == unc["w2"]

    def test_shot_noise_round_trip_within_quoted_uncertainty(self, heating17):
        sweep = self.resolved_sweep(heating17, noise=1.0, seed=42, power=90.0)
        fit = fit_esr(sweep)
        assert fit.converged
        assert abs(fit.D - sweep.metadata["d_true"]) < 5 * fit.uncertainties["D"]
        assert fit.uncertainties["D"] > 0

    def test_dip_jacobian_matches_central_differences(self):
        f = np.linspace(2.85e9, 2.89e9, 201)
        p = np.array([1e5, 0.2, 2.865e9, 3e6, 0.25, 2.874e9, 2e6])
        model, jac = _dips(f, p, jacobian=True)
        np.testing.assert_array_equal(model, _dips(f, p))
        for k in range(p.size):
            step = 1e-7 * p[k]
            hi, lo = p.copy(), p.copy()
            hi[k] += step
            lo[k] -= step
            numeric = (_dips(f, hi) - _dips(f, lo)) / (hi[k] - lo[k])
            np.testing.assert_allclose(jac[:, k], numeric, rtol=1e-5,
                                       atol=1e-6 * np.abs(jac[:, k]).max())

    def test_rejects_short_sweeps(self):
        with pytest.raises(EstimationError, match="16"):
            fit_esr(_bare_spectrum(np.linspace(2.86e9, 2.88e9, 8), np.full(8, 1e5)))

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(DomainError, match="matching"):
            fit_esr(_bare_spectrum(np.linspace(2.86e9, 2.88e9, 32), np.full(31, 1e5)))

    def test_rejects_non_finite_counts(self):
        counts = np.full(32, 1e5)
        counts[3] = np.inf
        with pytest.raises(DomainError, match="finite"):
            fit_esr(_bare_spectrum(np.linspace(2.86e9, 2.88e9, 32), counts))

    def test_rejects_negative_counts(self):
        counts = np.full(32, 1e5)
        counts[3] = -1.0
        with pytest.raises(DomainError, match=">= 0"):
            fit_esr(_bare_spectrum(np.linspace(2.86e9, 2.88e9, 32), counts))


def _bare_spectrum(freqs, counts):
    from hotbrownian import EsrSpectrum

    return EsrSpectrum(microwave_frequencies=freqs, pl_counts=counts)


# =============================================================================
# Temperature inference
# =============================================================================

class TestTemperatureFromEsr:
    def test_inverts_midpoint_and_propagates_slope(self):
        law = default_zfs_law()
        d = law.d_of_t(320.0)
        fit = EsrFit(B=1e5, C1=0.2, C2=0.2, f1=d - 4e6, f2=d + 4e6,
                     w1=2e6, w2=2e6, D=d, E=4e6,
                     uncertainties={"D": 5.0e4})
        est = temperature_from_esr(fit, law)
        assert est.kelvin == pytest.approx(320.0, abs=1e-3)
        assert est.sigma == pytest.approx(5.0e4 / abs(law.derivative(est.kelvin)), rel=1e-12)

    def test_missing_uncertainty_gives_zero_sigma(self):
        law = default_zfs_law()
        fit = EsrFit(B=1e5, C1=0.2, C2=0.2, f1=0.0, f2=0.0, w1=1.0, w2=1.0,
                     D=law.d_of_t(300.0), E=0.0)
        assert temperature_from_esr(fit, law).sigma == 0.0


# =============================================================================
# Heating-law regression
# =============================================================================

def grid_points(kappa, t0_raw, sigma=None, pressures=(15.0, 45.0, 100.0),
                powers=(10.0, 40.0, 70.0, 100.0, 130.0)):
    return [
        TemperaturePoint(laser_power=pw, pressure=p,
                         temperature=t0_raw + kappa * pw / p, sigma=sigma)
        for p in pressures for pw in powers
    ]


class TestFitHeatingLaw:
    def test_exact_unweighted_recovery(self):
        fit = fit_heating_law(grid_points(17.0, 294.2), room_temperature=294.0)
        assert fit.kappa_heat == pytest.approx(17.0, rel=1e-12)
        assert fit.T0_fit == pytest.approx(294.2, rel=1e-12)
        assert fit.strain_offset_K == pytest.approx(0.2, abs=1e-9)
        assert fit.T0_corrected == 294.0
        assert fit.room_temperature == 294.0
        assert fit.n_points == 15

    def test_exact_weighted_recovery(self):
        fit = fit_heating_law(grid_points(23.5, 290.0, sigma=0.5))
        assert fit.kappa_heat == pytest.approx(23.5, rel=1e-12)
        assert fit.T0_fit == pytest.approx(290.0, rel=1e-12)

    def test_weighting_requires_every_sigma(self):
        # On exact data the unweighted branch reports ~zero parameter
        # scatter (residual-scaled), while the weighted branch reports the
        # a-priori sigma-propagated error; a single missing sigma must
        # drop the fit to the unweighted path.
        pts = grid_points(17.0, 294.0, sigma=0.5)
        assert fit_heating_law(pts).kappa_sigma > 1e-3

        mixed = pts[:-1] + [TemperaturePoint(pts[-1].laser_power, pts[-1].pressure,
                                             pts[-1].temperature, sigma=None)]
        assert fit_heating_law(mixed).kappa_sigma < 1e-8

    def test_strain_offset_splits_from_kappa(self):
        # A thermometer reading uniformly ~3.97 K cold moves only the
        # intercept; corrected temperatures add the offset back.
        fit = fit_heating_law(grid_points(17.0, 294.0 - 3.968))
        assert fit.kappa_heat == pytest.approx(17.0, rel=1e-12)
        assert fit.strain_offset_K == pytest.approx(-3.968, abs=1e-9)
        pt = TemperaturePoint(laser_power=90.0, pressure=45.0,
                              temperature=294.0 - 3.968 + 17.0 * 2.0)
        assert fit.corrected_temperature(pt) == pytest.approx(294.0 + 34.0, rel=1e-12)

    def test_noisy_weighted_recovery_within_errorbars(self):
        rng = np.random.default_rng(8)
        pts = [
            TemperaturePoint(pw, p, 294.0 + 17.0 * pw / p + rng.normal(0.0, 0.3), sigma=0.3)
            for p in (15.0, 45.0, 100.0) for pw in np.linspace(10, 150, 8)
        ]
        fit = fit_heating_law(pts)
        assert abs(fit.kappa_heat - 17.0) < 4 * fit.kappa_sigma
        assert fit.kappa_sigma < 1.0

    def test_rejects_too_few_points(self):
        with pytest.raises(EstimationError, match=">= 3"):
            fit_heating_law(grid_points(17.0, 294.0)[:2])

    def test_rejects_non_positive_pressure(self):
        pts = grid_points(17.0, 294.0)
        pts[0] = TemperaturePoint(10.0, 0.0, 294.0)
        with pytest.raises(DomainError, match="pressure"):
            fit_heating_law(pts)

    def test_rejects_single_pressure(self):
        with pytest.raises(EstimationError, match="pressures"):
            fit_heating_law(grid_points(17.0, 294.0, pressures=(45.0,)))

    def test_rejects_single_power(self):
        with pytest.raises(EstimationError, match="powers"):
            fit_heating_law(grid_points(17.0, 294.0, powers=(50.0,)))

    def test_rejects_constant_power_pressure_ratio(self):
        pts = [TemperaturePoint(p, p, 294.0 + 17.0) for p in (10.0, 20.0, 30.0)]
        with pytest.raises(EstimationError, match="constant"):
            fit_heating_law(pts)

    @settings(max_examples=25, deadline=None)
    @given(
        kappa=st.floats(0.0, 40.0),
        t0_raw=st.floats(280.0, 310.0),
        room=st.floats(290.0, 298.0),
    )
    def test_recovers_arbitrary_laws_exactly(self, kappa, t0_raw, room):
        fit = fit_heating_law(grid_points(kappa, t0_raw), room_temperature=room)
        assert fit.kappa_heat == pytest.approx(kappa, rel=1e-9, abs=1e-9)
        assert fit.T0_fit == pytest.approx(t0_raw, rel=1e-9)
        assert fit.strain_offset_K == pytest.approx(t0_raw - room, rel=1e-6, abs=1e-6)
