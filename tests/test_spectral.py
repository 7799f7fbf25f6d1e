"""Tests for Welch PSD estimation and Lorentzian fitting."""

import numpy as np
import pytest
import scipy.integrate
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from hotbrownian import DomainError, EstimationError, Psd, PsdFit, fit_psd, psd_model, welch_psd
from hotbrownian._leastsq import least_squares_gn
from hotbrownian.simulate import TimeTrace
from hotbrownian.spectral import _fit_starts, _hann, _LineKernel


FS = 1.0e6                               # sample rate of the model grids [Hz]


def make_psd(frequencies, values, dt=1.0 / FS, segment_count=200):
    return Psd(
        frequencies=np.asarray(frequencies, dtype=float),
        values=np.asarray(values, dtype=float),
        segment_count=segment_count,
        dt=dt,
    )


def model_grid(fs=FS, n=8192):
    """Welch-like one-sided frequency grid including the DC bin."""
    return np.arange(n // 2 + 1) * (fs / n)


# =============================================================================
# welch_psd: normalization and bookkeeping
# =============================================================================

class TestWelch:
    def test_bin_centered_tone_integrates_to_half_amplitude_squared(self):
        # Density scaling without detrending: a coherent tone of amplitude
        # a carries mean-square power a^2/2, and the band integral of the
        # one-sided PSD must return it exactly when the tone sits on a bin.
        dt, nseg = 1.0e-5, 16384
        n = 2 * nseg                      # three half-overlapping segments
        k = 1000
        f0 = k / (nseg * dt)
        a = 0.7
        t = np.arange(n) * dt
        trace = TimeTrace(dt=dt, signals={"x": a * np.cos(2 * np.pi * f0 * t)})

        psd = welch_psd(trace, segment_length=nseg)
        df = psd.frequencies[1] - psd.frequencies[0]
        integral = np.sum(psd.values) * df
        assert integral == pytest.approx(a**2 / 2, rel=1e-12)
        assert psd.segment_count == 3
        assert psd.dt == dt

    def test_white_noise_sits_at_two_sigma_squared_dt(self):
        rng = np.random.default_rng(31)
        sigma, dt = 1.3, 2.0e-6
        y = rng.normal(0.0, sigma, size=2**20)
        trace = TimeTrace(dt=dt, signals={"x": np.zeros(2**20), "y": y})

        psd = welch_psd(trace, axis="y", segment_length=16384)
        level = np.mean(psd.values[1:-1])  # skip DC and Nyquist bins
        assert level == pytest.approx(2 * sigma**2 * dt, rel=0.01)
        assert psd.segment_count == 127

    def test_axis_selection_picks_the_requested_signal(self):
        rng = np.random.default_rng(5)
        dt = 1.0e-6
        quiet = rng.normal(0.0, 0.1, size=65536)
        loud = rng.normal(0.0, 3.0, size=65536)
        trace = TimeTrace(dt=dt, signals={"x": quiet, "y": loud})
        px = welch_psd(trace, axis="x")
        py = welch_psd(trace, axis="y")
        assert np.mean(py.values) > 100 * np.mean(px.values)

    def test_segment_count_with_half_overlap(self):
        rng = np.random.default_rng(0)
        trace = TimeTrace(dt=1.0e-6, signals={"x": rng.normal(size=100_000)})
        psd = welch_psd(trace, segment_length=16384)
        # step = 8192 -> 1 + (100000 - 16384)//8192
        assert psd.segment_count == 11

    def test_segment_length_clipped_to_trace_and_single_segment_warns(self):
        rng = np.random.default_rng(1)
        trace = TimeTrace(dt=1.0e-6, signals={"x": rng.normal(size=4096)})
        with pytest.warns(UserWarning, match="segment"):
            psd = welch_psd(trace, segment_length=1_000_000)
        assert psd.segment_count == 1
        assert psd.frequencies.size == 4096 // 2 + 1

    # The ids name the overlap and window every case runs at.
    @pytest.mark.parametrize("n, segment_length", [(1_200_000, 16384), (5000, 8192)],
                             ids=["over_64_segments-0.5-hann", "segment_clipped-0.5-hann"])
    def test_matches_scipy_welch(self, n, segment_length):
        # Over 64 segments of 16384 the rfft runs block by block, and the
        # block sums add up; a clipped segment is one segment of the trace.
        rng = np.random.default_rng(4)
        dt = 1.0e-6
        trace = TimeTrace(dt=dt, signals={"x": rng.normal(size=n)})
        psd = welch_psd(trace, segment_length=segment_length)
        nperseg = min(segment_length, n)
        freqs, values = scipy.signal.welch(
            trace.signals["x"], fs=1.0 / dt, window="hann", nperseg=nperseg,
            noverlap=nperseg // 2, detrend=False, scaling="density")
        np.testing.assert_allclose(psd.frequencies, freqs, rtol=1e-12)
        np.testing.assert_allclose(psd.values, values, rtol=1e-12)

    def test_frequencies_start_at_zero_and_end_at_nyquist(self):
        rng = np.random.default_rng(2)
        dt = 4.0e-6
        trace = TimeTrace(dt=dt, signals={"x": rng.normal(size=32768)})
        psd = welch_psd(trace, segment_length=8192)
        assert psd.frequencies[0] == 0.0
        assert psd.frequencies[-1] == pytest.approx(0.5 / dt)

    def test_rejects_raw_arrays(self):
        with pytest.raises(TypeError, match="signals"):
            welch_psd(np.zeros(1000))

    def test_rejects_bad_dt(self):
        trace = TimeTrace(dt=0.0, signals={"x": np.zeros(1000)})
        with pytest.raises(DomainError, match="dt"):
            welch_psd(trace)

    def test_rejects_non_finite_samples(self):
        x = np.zeros(4096)
        x[17] = np.nan
        trace = TimeTrace(dt=1e-6, signals={"x": x})
        with pytest.raises(DomainError, match="finite"):
            welch_psd(trace)

    def test_rejects_tiny_segment_length(self):
        trace = TimeTrace(dt=1e-6, signals={"x": np.zeros(4096)})
        with pytest.raises(DomainError, match="segment_length"):
            welch_psd(trace, segment_length=1)

    def test_repeated_calls_give_the_same_bits(self):
        # The window array is computed once per length; later calls must
        # give the same bits, and nothing may write into the cached array.
        rng = np.random.default_rng(3)
        trace = TimeTrace(dt=1e-6, signals={"x": rng.normal(size=40_000)})
        first = welch_psd(trace, segment_length=4096)
        again = welch_psd(trace, segment_length=4096)
        np.testing.assert_array_equal(first.values, again.values)
        assert not _hann(4096).flags.writeable

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 1000, 16384, 16385],
                             ids=lambda length: f"{length}-hann")
    def test_built_in_windows_are_scipys_bits(self, length):
        np.testing.assert_array_equal(_hann(length), scipy.signal.get_window("hann", length))


# =============================================================================
# psd_model: shape identities
# =============================================================================

class TestPsdModel:
    A, FQ, GAMMA = 3.2e-4, 1.8e5, 3.0e3

    def test_peak_height_is_2a_over_pi_gamma(self):
        peak = psd_model(np.array([self.FQ]), self.A, self.FQ, self.GAMMA)[0]
        assert peak == 2 * self.A / (np.pi * self.GAMMA)

    def test_band_integral_equals_area_parameter(self):
        # 0..inf integral of the area-normalized line is A by construction;
        # split the quadrature at the narrow resonance so it is resolved.
        def f(x):
            return psd_model(np.array([x]), self.A, self.FQ, self.GAMMA)[0]

        q1, _ = scipy.integrate.quad(f, 0, self.FQ, points=[self.FQ - self.GAMMA], limit=200)
        q2, _ = scipy.integrate.quad(f, self.FQ, 20 * self.FQ, points=[self.FQ + self.GAMMA], limit=200)
        q3, _ = scipy.integrate.quad(f, 20 * self.FQ, np.inf, limit=200)
        assert q1 + q2 + q3 == pytest.approx(self.A, rel=1e-5)

    def test_floor_adds_constant_offset(self):
        f = model_grid()
        base = psd_model(f, self.A, self.FQ, self.GAMMA)
        lifted = psd_model(f, self.A, self.FQ, self.GAMMA, floor=1.5e-9)
        np.testing.assert_allclose(lifted - base, 1.5e-9, rtol=1e-12)

    def test_alias_fold_adds_mirror_image(self):
        # Folding at sample_rate fs adds the line evaluated at fs - f.
        fs = 1.0e6
        f = model_grid(fs)
        folded = psd_model(f, self.A, self.FQ, self.GAMMA, floor=2e-9, sample_rate=fs)
        by_hand = (
            psd_model(f, self.A, self.FQ, self.GAMMA, floor=2e-9)
            + psd_model(fs - f, self.A, self.FQ, self.GAMMA)
        )
        np.testing.assert_allclose(folded, by_hand, rtol=1e-14)

    def test_folded_tail_doubles_at_nyquist(self):
        fs = 1.0e6
        nyq = np.array([fs / 2])
        plain = psd_model(nyq, self.A, self.FQ, self.GAMMA)[0]
        folded = psd_model(nyq, self.A, self.FQ, self.GAMMA, sample_rate=fs)[0]
        assert folded == pytest.approx(2 * plain, rel=1e-12)


# =============================================================================
# fit_psd: exact recovery on noise-free data
# =============================================================================

class TestFitCleanRecovery:
    A, FQ, GAMMA = 3.2e-4, 1.8e5, 3.0e3

    def clean_psd(self, floor=0.0):
        f = model_grid()
        return make_psd(f, psd_model(f, self.A, self.FQ, self.GAMMA, floor=floor,
                                     sample_rate=FS))

    def assert_exact(self, fit, rel=1e-9):
        assert fit.converged
        assert not fit.overdamped
        assert fit.A == pytest.approx(self.A, rel=rel)
        assert fit.f_q == pytest.approx(self.FQ, rel=rel)
        assert fit.gamma == pytest.approx(self.GAMMA, rel=rel)

    def test_default_proportional_weighting(self):
        fit = fit_psd(self.clean_psd())
        self.assert_exact(fit)
        assert fit.floor == 0.0
        assert fit.n_points == 4096            # all bins except DC
        assert fit.fit_residual < 1e-20
        assert set(fit.uncertainties) == {"A", "f_q", "gamma"}

    def test_fit_band_restriction(self):
        fit = fit_psd(self.clean_psd(), fit_band=(3.0e4, 3.3e5))
        self.assert_exact(fit)
        assert fit.n_points == 2458

    def test_fitted_constant_floor_recovery(self):
        floor = 2.5e-9
        fit = fit_psd(self.clean_psd(floor=floor), noise_floor="fitted_constant")
        self.assert_exact(fit)
        assert fit.floor == pytest.approx(floor, rel=1e-6)
        assert "floor" in fit.uncertainties

    def test_overdamped_line_sets_flag(self):
        # gamma > f_q: the hump peaks at DC and width/frequency decouple.
        f = model_grid()
        psd = make_psd(f, psd_model(f, self.A, 2.0e4, 5.0e4, sample_rate=FS))
        fit = fit_psd(psd)
        assert fit.overdamped
        assert fit.gamma > fit.f_q

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(1e-6, 1e-2),
        fq=st.floats(5e4, 3e5),
        q_factor=st.floats(5.0, 200.0),
    )
    def test_recovers_random_lines_exactly(self, a, fq, q_factor):
        gamma = fq / q_factor
        f = model_grid()
        fit = fit_psd(make_psd(f, psd_model(f, a, fq, gamma, sample_rate=FS)))
        assert fit.converged
        assert fit.A == pytest.approx(a, rel=1e-6)
        assert fit.f_q == pytest.approx(fq, rel=1e-6)
        assert fit.gamma == pytest.approx(gamma, rel=1e-6)


# =============================================================================
# fit_psd: aliased data
# =============================================================================

class TestAliasFolding:
    A, FQ, GAMMA = 3.2e-4, 1.8e5, 3.0e4

    def folded_psd(self):
        f = model_grid()
        return make_psd(f, psd_model(f, self.A, self.FQ, self.GAMMA, sample_rate=FS))

    def test_fold_aware_fit_is_exact_on_folded_data(self):
        fit = fit_psd(self.folded_psd())
        assert fit.converged
        assert fit.A == pytest.approx(self.A, rel=1e-9)
        assert fit.f_q == pytest.approx(self.FQ, rel=1e-9)
        assert fit.gamma == pytest.approx(self.GAMMA, rel=1e-9)


# =============================================================================
# fit_psd: chi-squared bin noise
# =============================================================================

class TestFitNoisyRecovery:
    def test_multiplicative_chi2_noise(self):
        # Welch bins are chi^2_{2k}/(2k) distributed around the true PSD;
        # with k=243 effective segments the linewidth comes back well
        # inside a percent-level window and the residual sits near 1/k.
        a, fq, gamma, k = 3.2e-4, 1.8e5, 3.0e3, 243
        rng = np.random.default_rng(7)
        f = model_grid()
        values = (psd_model(f, a, fq, gamma, sample_rate=FS)
                  * rng.chisquare(2 * k, size=f.size) / (2 * k))
        values[0] = 1e-30
        fit = fit_psd(make_psd(f, values, segment_count=k))

        assert fit.converged
        assert fit.f_q == pytest.approx(fq, rel=1e-3)
        assert fit.gamma == pytest.approx(gamma, rel=0.03)
        # chi-squared weighting by the data biases the area low by ~2/k
        assert -0.06 < fit.A / a - 1 < 0.02
        assert fit.fit_residual == pytest.approx(1.0 / k, rel=0.5)

    def test_fitted_floor_keeps_the_line_sigmas(self):
        # A floor at 1e-4 of the peak costs the line little information, so
        # the line's sigmas stay near those of the same spectrum without it,
        # although the floor's Jacobian column is ~1e10 times the others.
        a, fq, gamma, k = 3.2e-4, 1.8e5, 3.0e3, 11
        f = model_grid()
        line = psd_model(f, a, fq, gamma, sample_rate=FS)
        scatter = np.random.default_rng(0).chisquare(2 * k, size=f.size) / (2 * k)
        plain = fit_psd(make_psd(f, line * scatter, segment_count=k))
        lifted = fit_psd(make_psd(f, (line + 1e-4 * line.max()) * scatter, segment_count=k),
                         noise_floor="fitted_constant")
        assert plain.converged and lifted.converged
        for name in ("A", "f_q", "gamma"):
            assert lifted.uncertainties[name] == pytest.approx(plain.uncertainties[name],
                                                               rel=0.1), name


# =============================================================================
# fit_psd: the Lorentzian kernel against psd_model
# =============================================================================

def model_of(f, p, with_floor):
    """psd_model with the alias image, at parameters p = (A, f_q, gamma[, floor])."""
    return psd_model(f, p[0], p[1], p[2], floor=p[3] if with_floor else 0.0,
                     sample_rate=FS)


class TestLineKernel:
    P = (3.2e-4, 1.8e5, 9.0e3, 2.0e-9)

    @pytest.mark.parametrize("with_floor", [False, True])
    def test_jacobian_matches_central_differences_of_psd_model(self, with_floor):
        f = model_grid()[1:]
        p = np.array(self.P if with_floor else self.P[:3])
        data = model_of(f, p * 1.05, with_floor)
        r, jac = _LineKernel(f, data, FS, with_floor)(p)

        np.testing.assert_allclose(r, (model_of(f, p, with_floor) - data) / data,
                                   rtol=1e-12, atol=1e-14)
        assert jac.shape == (f.size, p.size)
        for i in range(p.size):
            h = 1e-5 * p[i]
            up, down = p.copy(), p.copy()
            up[i] += h
            down[i] -= h
            fd = (model_of(f, up, with_floor) - model_of(f, down, with_floor)) / (2 * h) / data
            err = np.max(np.abs(jac[:, i] - fd)) / np.max(np.abs(fd))
            assert err <= 1e-6, (i, err)

    def test_calls_return_fresh_arrays(self):
        # The Gauss-Newton loop keeps the accepted (r, J) while it tries
        # further steps, so a later call must not overwrite them.
        f = model_grid()[1:]
        kernel = _LineKernel(f, model_of(f, self.P, False), FS, False)
        r1, j1 = kernel(np.array(self.P[:3]))
        r1_copy, j1_copy = r1.copy(), j1.copy()
        kernel(np.array(self.P[:3]) * 1.1)
        np.testing.assert_array_equal(r1, r1_copy)
        np.testing.assert_array_equal(j1, j1_copy)

    @pytest.mark.parametrize("with_floor", [False, True])
    def test_fit_agrees_with_a_fit_of_the_psd_model_residual(self, with_floor):
        # Reference: the same Gauss-Newton loop on (psd_model - s)/s with
        # a central-difference Jacobian, from the same start, on 20 seeded
        # chi^2-scattered spectra per floor mode.
        f_all = model_grid()
        f = f_all[1:]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            truth = (10 ** rng.uniform(-5, -3), rng.uniform(5e4, 3e5),
                     rng.uniform(2e3, 2e4), 10 ** rng.uniform(-10, -8))
            k = 11
            values = (model_of(f_all, truth, with_floor)
                      * rng.chisquare(2 * k, size=f_all.size) / (2 * k))
            fit = fit_psd(make_psd(f_all, values, segment_count=k),
                          noise_floor="fitted_constant" if with_floor else "none")

            s = values[1:]

            def reference(p):
                r = (model_of(f, p, with_floor) - s) / s
                jac = np.empty((f.size, p.size))
                for i in range(p.size):
                    h = 1e-6 * abs(p[i]) + (1e-18 if i == 3 else 0.0)
                    up, down = p.copy(), p.copy()
                    up[i] += h
                    down[i] -= h
                    jac[:, i] = (model_of(f, up, with_floor)
                                 - model_of(f, down, with_floor)) / (2 * h) / s
                return r, jac

            ref = least_squares_gn(reference, _fit_starts(f, s, with_floor),
                                   positive=(0, 1, 2),
                                   clamp_floor=(3,) if with_floor else ())
            assert fit.converged and ref.converged
            got = [fit.A, fit.f_q, fit.gamma] + ([fit.floor] if with_floor else [])
            np.testing.assert_allclose(got, ref.params, rtol=1e-7, err_msg=str(seed))


# =============================================================================
# fit_psd: validation
# =============================================================================

class TestFitValidation:
    def small_psd(self):
        f = model_grid()
        return make_psd(f, psd_model(f, 1e-4, 1.8e5, 3e3, sample_rate=FS))

    def test_rejects_unknown_noise_floor_mode(self):
        with pytest.raises(DomainError, match="noise_floor"):
            fit_psd(self.small_psd(), noise_floor="subtract")

    @pytest.mark.parametrize("dt", [0.0, -1.0e-6])
    def test_rejects_a_psd_without_a_sampling_step(self, dt):
        f = model_grid()
        psd = make_psd(f, psd_model(f, 1e-4, 1.8e5, 3e3, sample_rate=FS), dt=dt)
        with pytest.raises(DomainError, match="dt"):
            fit_psd(psd)

    def test_rejects_inverted_band(self):
        with pytest.raises(DomainError, match="fit_band"):
            fit_psd(self.small_psd(), fit_band=(2e5, 2e5))

    def test_rejects_band_with_too_few_bins(self):
        df = model_grid()[1]
        with pytest.raises(EstimationError, match="at least 8"):
            fit_psd(self.small_psd(), fit_band=(10 * df, 14 * df))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values_in_band(self, bad):
        f = model_grid()
        values = psd_model(f, 1e-4, 1.8e5, 3e3, sample_rate=FS)
        values[[100, 200]] = bad
        with pytest.raises(DomainError, match=r"bin 100\)"):
            fit_psd(make_psd(f, values))

    def test_rejects_non_positive_values_in_band(self):
        f = model_grid()
        values = psd_model(f, 1e-4, 1.8e5, 3e3, sample_rate=FS)
        values[100] = 0.0
        with pytest.raises(EstimationError, match="positive"):
            fit_psd(make_psd(f, values))


# =============================================================================
# PsdFit: derived quantities
# =============================================================================

class TestPsdFitProperties:
    def test_normalized_area_and_uncertainty(self):
        fit = PsdFit(
            A=2.0e-3, f_q=200.0, gamma=5.0, floor=0.0,
            uncertainties={"A": 1.0e-4, "f_q": 0.5},
        )
        assert fit.normalized_area == pytest.approx(2.0e-3 / 200.0**2, rel=1e-12)
        expected = fit.normalized_area * np.hypot(1.0e-4 / 2.0e-3, 2 * 0.5 / 200.0)
        assert fit.normalized_area_sigma == pytest.approx(expected, rel=1e-12)

    def test_normalized_area_sigma_degrades_gracefully_without_uncertainties(self):
        fit = PsdFit(A=1.0, f_q=100.0, gamma=2.0, floor=0.0)
        assert fit.normalized_area_sigma == 0.0
