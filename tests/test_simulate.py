"""Tests for the Langevin trace simulator and its configuration."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, strategies as st

import hotbrownian as hb
from hotbrownian import AnomalyInjection, ConfigError, SimulationConfig
from hotbrownian import simulate
from hotbrownian.simulate import (TimeTrace, _axis_truth, _exact_step_matrices,
                                  _sample_positions, simulate_trace)
from hotbrownian.twobath import internal_temperature, sphere_drag, two_bath_tcom

K_B = hb.CONSTANTS.k_B


def base_config(axes, particle, heating, gas, **overrides):
    kw = dict(
        dt=1e-6, duration=0.01, rng_seed=42, axes=axes, laser_power=0.1,
        gas=gas, particle=particle, heating=heating,
    )
    kw.update(overrides)
    return SimulationConfig(**kw)


# =============================================================================
# Configuration validation
# =============================================================================

class TestConfigValidation:
    def test_rejects_non_positive_dt(self, axes_pair, sphere_particle, heating17, gas45):
        with pytest.raises(ConfigError, match="dt"):
            base_config(axes_pair, sphere_particle, heating17, gas45, dt=0.0)

    def test_rejects_too_short_duration(self, axes_pair, sphere_particle, heating17, gas45):
        with pytest.raises(ConfigError, match="1000 steps"):
            base_config(axes_pair, sphere_particle, heating17, gas45, duration=5e-4)

    def test_rejects_negative_power(self, axes_pair, sphere_particle, heating17, gas45):
        with pytest.raises(ConfigError, match="laser_power"):
            base_config(axes_pair, sphere_particle, heating17, gas45, laser_power=-1.0)

    def test_rejects_empty_axes(self, sphere_particle, heating17, gas45):
        with pytest.raises(ConfigError, match="axis"):
            base_config((), sphere_particle, heating17, gas45)

    def test_rejects_duplicate_axis_labels(self, axes_pair, sphere_particle, heating17, gas45):
        with pytest.raises(ConfigError, match="duplicate"):
            base_config((axes_pair[0], axes_pair[0]), sphere_particle, heating17, gas45)

    def test_rejects_negative_alpha_and_noise(self, axes_pair, sphere_particle, heating17, gas45):
        with pytest.raises(ConfigError, match="alpha_c"):
            base_config(axes_pair, sphere_particle, heating17, gas45, alpha_c=-0.1)
        with pytest.raises(ConfigError, match="measurement_noise_psd"):
            base_config(axes_pair, sphere_particle, heating17, gas45,
                        measurement_noise_psd=-1e-20)

    def test_rejects_a_trap_frequency_not_below_nyquist(
        self, axes_pair, sphere_particle, heating17, gas45
    ):
        # At 100 mW the x trap runs at 57.1 kHz and the y trap at 49.0 kHz;
        # dt = 10 us puts the Nyquist frequency at 50 kHz.
        with pytest.raises(ConfigError, match="'x'.*Nyquist"):
            base_config(axes_pair, sphere_particle, heating17, gas45, dt=1e-5)
        base_config(axes_pair[1:], sphere_particle, heating17, gas45, dt=1e-5)

    def test_rejects_anomaly_on_unknown_axis(self, axes_pair, sphere_particle, heating17, gas45):
        bad = AnomalyInjection(axis="z", extra_force_psd_per_mw=1e-34)
        with pytest.raises(ConfigError, match="anomaly axis"):
            base_config(axes_pair, sphere_particle, heating17, gas45, anomaly_injection=bad)

    def test_anomaly_injection_validates_itself(self):
        with pytest.raises(ConfigError, match="extra_force_psd_per_mw"):
            AnomalyInjection(axis="y", extra_force_psd_per_mw=-1e-34)
        with pytest.raises(ConfigError, match="reference_pressure"):
            AnomalyInjection(axis="y", extra_force_psd_per_mw=1e-34,
                             reference_pressure_hpa=0.0)

    def test_anomaly_force_psd_scaling(self):
        anomaly = AnomalyInjection(axis="y", extra_force_psd_per_mw=2e-34,
                                   pressure_exponent=1.0, reference_pressure_hpa=100.0)
        # doubles with power, doubles again when pressure halves the reference
        assert anomaly.force_psd(50.0, 100.0) == pytest.approx(1e-32, rel=1e-12)
        assert anomaly.force_psd(50.0, 50.0) == pytest.approx(2e-32, rel=1e-12)
        flat = AnomalyInjection(axis="y", extra_force_psd_per_mw=2e-34)
        assert flat.force_psd(50.0, 50.0) == pytest.approx(1e-32, rel=1e-12)

    def test_n_samples_rounds_duration(self, axes_pair, sphere_particle, heating17, gas45):
        cfg = base_config(axes_pair, sphere_particle, heating17, gas45, duration=0.0123)
        assert cfg.n_samples == 12300

    def test_cylinders_are_not_supported(self, axes_pair, heating17, gas45):
        rod = hb.ParticleModel(shape=hb.Cylinder(radius=40e-9, length=80e-9), density=3500.0)
        with pytest.raises(ConfigError, match="spher"):
            simulate_trace(base_config(axes_pair, rod, heating17, gas45))

    def test_zero_power_has_no_restoring_force(self, axes_pair, sphere_particle, heating17, gas45):
        cfg = base_config(axes_pair, sphere_particle, heating17, gas45, laser_power=0.0)
        with pytest.raises(ConfigError, match="restoring"):
            simulate_trace(cfg)


# =============================================================================
# Ground-truth metadata
# =============================================================================

class TestTruthMetadata:
    def test_axis_truth_composes_the_physics(self, axes_pair, sphere_particle, heating17, gas45):
        cfg = base_config(axes_pair, sphere_particle, heating17, gas45)
        trace = simulate_trace(cfg)

        assert trace.metadata["laser_power_mw"] == 100.0
        assert trace.metadata["pressure_hpa"] == 45.0
        assert trace.metadata["seed"] == 42

        tx = trace.metadata["true_parameters"]["x"]
        t_int = internal_temperature(heating17, 100.0, 45.0)
        assert tx["t_int"] == t_int
        assert tx["t_com"] == pytest.approx(
            two_bath_tcom(294.0, t_int - 294.0, 1.0), rel=1e-12
        )
        assert tx["gamma_rad_s"] == sphere_drag(
            sphere_particle, gas45, emerging_temperature=t_int
        )
        assert tx["gamma_hz"] == tx["gamma_rad_s"] / (2 * math.pi)
        assert tx["t_eff"] == tx["t_com"]
        assert tx["omega0"] == 2 * math.pi * 1.807e5 * math.sqrt(0.1)
        assert tx["f_q_hz"] == tx["omega0"] / (2 * math.pi)
        assert tx["mass_kg"] == sphere_particle.mass
        assert tx["detection_gain_v_per_m"] == 1.0e9 * 0.1

    def test_partial_accommodation_cools_the_emerging_gas(
        self, axes_pair, sphere_particle, heating17, gas45
    ):
        cfg = base_config(axes_pair, sphere_particle, heating17, gas45, alpha_c=0.5)
        tx = simulate_trace(cfg).metadata["true_parameters"]["x"]
        t_int = internal_temperature(heating17, 100.0, 45.0)
        assert tx["t_com"] == pytest.approx(
            two_bath_tcom(294.0, t_int - 294.0, 0.5), rel=1e-12
        )
        assert tx["gamma_rad_s"] == sphere_drag(
            sphere_particle, gas45, emerging_temperature=294.0 + 0.5 * (t_int - 294.0)
        )

    def test_anomaly_raises_only_its_axis_t_eff(
        self, axes_pair, sphere_particle, heating17, gas45
    ):
        s0 = 1.1282956367073667e-33       # N^2/Hz per mW at the reference pressure
        anomaly = AnomalyInjection(axis="y", extra_force_psd_per_mw=s0,
                                   pressure_exponent=1.0, reference_pressure_hpa=100.0)
        cfg = base_config(axes_pair, sphere_particle, heating17, gas45,
                          anomaly_injection=anomaly)
        truth = simulate_trace(cfg).metadata["true_parameters"]

        assert truth["x"]["t_eff"] == truth["x"]["t_com"]
        ty = truth["y"]
        s_ff = anomaly.force_psd(100.0, 45.0)
        expected = ty["t_com"] + s_ff / (4 * sphere_particle.mass * ty["gamma_rad_s"] * K_B)
        assert ty["t_eff"] == pytest.approx(expected, rel=1e-12)
        assert ty["t_eff"] > 1.3 * ty["t_com"]


@given(
    st.floats(min_value=260.0, max_value=330.0),
    st.floats(min_value=0.0, max_value=60.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_axis_truth_tcom_equals_the_closed_form(t0, excess, alpha):
    # The simulator splits the drag into the impinging and emerging baths
    # itself; the friction-weighted mean must be the closed form of twobath.
    cfg = SimulationConfig(
        dt=1e-6, duration=0.01, rng_seed=0, laser_power=0.1,
        axes=(hb.TrapAxis(label="x", stiffness_coefficient=2 * math.pi * 1.807e5,
                          detection_gain=1.0e9),),
        gas=hb.GasEnvironment(pressure=45.0, temperature=t0),
        particle=hb.ParticleModel(shape=hb.Sphere(radius=500e-9), density=3500.0),
        heating=hb.HeatingLaw(kappa_heat=excess * 45.0 / 100.0, T0=t0),  # T_int = t0 + excess
        alpha_c=alpha,
    )
    truth = _axis_truth(cfg, cfg.axes[0])
    assert truth["t_com"] == pytest.approx(
        two_bath_tcom(t0, truth["t_int"] - t0, alpha), rel=1e-12
    )


# =============================================================================
# Sample-path statistics
# =============================================================================

class TestTraceStatistics:
    def test_simulation_is_seed_deterministic(self, axes_pair, sphere_particle, heating17, gas45):
        cfg = base_config(axes_pair, sphere_particle, heating17, gas45)
        a = simulate_trace(cfg)
        b = simulate_trace(cfg)
        for label in ("x", "y"):
            np.testing.assert_array_equal(a.signals[label], b.signals[label])
        c = simulate_trace(base_config(axes_pair, sphere_particle, heating17, gas45,
                                       rng_seed=43))
        assert not np.array_equal(a.signals["x"], c.signals["x"])

    def test_axis_streams_are_independent(self, axes_pair, sphere_particle, heating17, gas45):
        # Adding a second axis, or injecting an anomaly on it, must not
        # perturb the first axis' noise stream bit for bit.
        solo = simulate_trace(base_config(axes_pair[:1], sphere_particle, heating17, gas45))
        pair = simulate_trace(base_config(axes_pair, sphere_particle, heating17, gas45))
        np.testing.assert_array_equal(solo.signals["x"], pair.signals["x"])

        anomaly = AnomalyInjection(axis="y", extra_force_psd_per_mw=1e-33)
        bumped = simulate_trace(base_config(axes_pair, sphere_particle, heating17, gas45,
                                            anomaly_injection=anomaly))
        np.testing.assert_array_equal(bumped.signals["x"], pair.signals["x"])

    def test_exact_sampler_matches_the_sampled_autocovariance(
        self, axes_pair, sphere_particle, heating17, gas45
    ):
        # Sampling at dt leaves the autocovariance of the continuous
        # oscillator unchanged at the sample lags (Norrelykke & Flyvbjerg,
        # Phys. Rev. E 83, 041103, 2011):
        #   c(tau) = var e^{-G tau/2} (cos w1 tau + G/(2 w1) sin w1 tau),
        # w1 = sqrt(w0^2 - G^2/4).  Lags: the first steps, fractions of a
        # period and multiples of the damping time 1/G.
        cfg = base_config(axes_pair, sphere_particle, heating17, gas45,
                          duration=0.5, rng_seed=7)
        trace = simulate_trace(cfg)
        for label in ("x", "y"):
            p = trace.metadata["true_parameters"][label]
            w0, g = p["omega0"], p["gamma_rad_s"]
            var = (p["detection_gain_v_per_m"] ** 2
                   * K_B * p["t_eff"] / (p["mass_kg"] * w0**2))
            w1 = math.sqrt(w0**2 - g**2 / 4)
            period = 2 * math.pi / w1 / cfg.dt
            damping = 1 / g / cfg.dt
            lags = sorted({0, 1, 2, *(round(f * period) for f in (0.25, 0.5, 1.0)),
                           *(round(f * damping) for f in (1, 2, 3))})
            s = trace.signals[label] - trace.signals[label].mean()
            for k in lags:
                tau = k * cfg.dt
                expected = var * math.exp(-g * tau / 2) * (
                    math.cos(w1 * tau) + g / (2 * w1) * math.sin(w1 * tau))
                measured = np.dot(s[:s.size - k], s[k:]) / (s.size - k)
                assert abs(measured - expected) < 0.03 * var, (label, k)

    @pytest.mark.parametrize("gamma_over_omega0", [0.05, 3.0])
    def test_start_state_is_stationary(self, sphere_particle, gamma_over_omega0):
        # Over many seeds the first two samples must carry the stationary
        # variance g0 = k_B T/(m w0^2) and the lag-1 covariance Phi_00*g0,
        # underdamped and overdamped (gamma > 2 w0) alike.
        omega0, t_eff, dt = 2 * math.pi * 5.7e4, 300.0, 1e-6
        gamma, mass = gamma_over_omega0 * omega0, sphere_particle.mass
        g0 = K_B * t_eff / (mass * omega0**2)
        phi, _ = _exact_step_matrices(omega0, gamma, 2 * gamma * K_B * t_eff / mass, dt)
        g1 = phi[0, 0] * g0

        q = np.array([
            _sample_positions(omega0, gamma, t_eff, mass, dt, 2, np.random.default_rng(seed))
            for seed in range(5000)
        ])
        sq, lag1 = q[:, 0] ** 2, q[:, 0] * q[:, 1]
        for moment, expected in ((sq, g0), (lag1, g1)):
            stderr = moment.std(ddof=1) / math.sqrt(moment.size)
            assert abs(moment.mean() - expected) <= 4 * stderr, (expected, moment.mean())

    def test_one_call_draws_n_plus_3_normals(self, sphere_particle):
        # 3 normals for the start state, then n innovations: whatever the
        # caller draws next (detector noise) starts right after them.
        n = 1000
        rng = np.random.default_rng(11)
        _sample_positions(2 * math.pi * 5.7e4, 2e4, 300.0, sphere_particle.mass, 1e-6, n, rng)
        reference = np.random.default_rng(11)
        reference.standard_normal(n + 3)
        np.testing.assert_array_equal(rng.standard_normal(8), reference.standard_normal(8))

    @pytest.mark.parametrize("omega0, gamma, dt", [
        (2 * math.pi * 5.7e4, 1.1e4, 1e-6),            # underdamped, campaign scale
        (2 * math.pi * 5.7e4, 3 * 2 * math.pi * 5.7e4, 2e-6),   # overdamped
        (2 * math.pi * 4.8e5, 2e4, 1e-6),              # trap close to Nyquist
    ], ids=["underdamped", "overdamped", "near_nyquist"])
    @pytest.mark.parametrize("block", [None, 7], ids=["default_block", "block_7"])
    def test_banded_solve_matches_a_linear_filter(
        self, sphere_particle, monkeypatch, omega0, gamma, dt, block
    ):
        # The positions are the ARMA(2,1) filter of the innovations, with
        # the start state (q_-1, q_-2, u_-1) as its initial conditions.
        # Block 7 over 22 samples leaves a one-row last block.
        if block is not None:
            monkeypatch.setattr(simulate, "_SOLVE_BLOCK", block)
        n = 22 if block else 150_000
        assert n > 2 * simulate._SOLVE_BLOCK
        calls = []
        solve = simulate._solve_arma

        def spy(tr_p, det_p, theta, u, history):
            calls.append((tr_p, det_p, theta, u.copy(), history))
            return solve(tr_p, det_p, theta, u, history)

        monkeypatch.setattr(simulate, "_solve_arma", spy)
        q = _sample_positions(omega0, gamma, 300.0, sphere_particle.mass, dt, n,
                              np.random.default_rng(8))
        (tr_p, det_p, theta, u, (q1, q2, u1)), = calls
        zi = [tr_p * q1 - det_p * q2 + theta * u1, -det_p * q1]
        expected = scipy.signal.lfilter([1.0, theta], [1.0, -tr_p, det_p], u, zi=zi)[0]
        assert np.max(np.abs(q - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_solve_workspace_does_not_grow_with_the_trace(self, sphere_particle):
        # Past the innovations (returned in place) the solve keeps one
        # block of band and right-hand side: well under one more sample
        # array, where a band over the whole trace would take three.
        n = 2**21
        tracemalloc.start()
        try:
            _sample_positions(2 * math.pi * 5.7e4, 1.1e4, 300.0, sphere_particle.mass,
                              1e-6, n, np.random.default_rng(9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 4e6

    def test_measurement_noise_adds_the_configured_floor(
        self, axes_pair, sphere_particle, heating17, gas45
    ):
        # The position stream is seed-locked, so the trace difference
        # isolates the detector noise: variance S/(2*dt).
        noise_psd = 1e-18
        quiet = base_config(axes_pair[:1], sphere_particle, heating17, gas45,
                            duration=0.1, rng_seed=5)
        loud = base_config(axes_pair[:1], sphere_particle, heating17, gas45,
                           duration=0.1, rng_seed=5, measurement_noise_psd=noise_psd)
        diff = simulate_trace(loud).signals["x"] - simulate_trace(quiet).signals["x"]
        assert np.var(diff) == pytest.approx(noise_psd / (2 * 1e-6), rel=0.03)

    def test_trace_bookkeeping(self, axes_pair, sphere_particle, heating17, gas45):
        cfg = base_config(axes_pair, sphere_particle, heating17, gas45)
        trace = simulate_trace(cfg)
        assert trace.n_samples == cfg.n_samples == 10_000
        assert trace.duration == pytest.approx(0.01)
        times = trace.times()
        assert times[0] == 0.0
        assert times[1] == cfg.dt
        assert times.size == trace.n_samples

    def test_timetrace_is_constructible_directly(self):
        t = TimeTrace(dt=1e-5, signals={"x": np.zeros(100)})
        assert t.n_samples == 100
        assert t.duration == pytest.approx(1e-3)
