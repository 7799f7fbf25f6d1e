"""Two-bath CoM temperature model, drag rates, and coupling constants.

Reference values were computed independently of the package (separate
formula transcriptions evaluated in a throwaway script) and frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hotbrownian as hb
from hotbrownian.errors import AccommodationWarning, DomainError, EstimationError
from hotbrownian.twobath import (
    SPHERE_COUPLING_PER_ALPHA,
    internal_temperature,
    two_bath_tcom,
    two_bath_tcom_linearized,
)

B_SLOPE = 0.2819698001234662            # pi/(pi+8)
C_QUAD = 0.10123141597089935            # 4*pi/(pi+8)^2


# =============================================================================
# Analytic constants and the linearized law
# =============================================================================

def test_sphere_coupling_constant_matches_closed_form():
    assert SPHERE_COUPLING_PER_ALPHA == pytest.approx(
        math.pi / (math.pi + 8.0), rel=1e-15
    )
    assert SPHERE_COUPLING_PER_ALPHA == pytest.approx(B_SLOPE, rel=1e-15)


def test_quadratic_coefficient_identity():
    # 4*pi/(pi+8)^2 == (b/2)*(1-b) for b = pi/(pi+8)
    assert C_QUAD == pytest.approx(0.5 * B_SLOPE * (1.0 - B_SLOPE), rel=1e-15)


def test_linearized_value():
    assert two_bath_tcom_linearized(294.0, 10.0, 1.0) == pytest.approx(
        296.81969800123466, rel=1e-14
    )


# =============================================================================
# Full two-bath CoM temperature
# =============================================================================

def test_tcom_reference_values():
    assert two_bath_tcom(294.0, 10.0, 1.0) == pytest.approx(
        296.8536809394504, rel=1e-14
    )
    assert two_bath_tcom(294.0, 29.4, 1.0) == pytest.approx(
        302.57649809167685, rel=1e-14
    )
    assert two_bath_tcom(294.0, 37.8, 1.0) == pytest.approx(
        305.12732882790795, rel=1e-14
    )
    assert two_bath_tcom(300.0, 15.0, 0.5) == pytest.approx(
        302.1335713745562, rel=1e-14
    )


def test_tcom_fixed_points():
    # no heating, or no accommodation: CoM stays at ambient
    assert two_bath_tcom(294.0, 0.0, 1.0) == 294.0
    assert two_bath_tcom(294.0, 50.0, 0.0) == 294.0


def test_tcom_input_validation():
    with pytest.raises(DomainError):
        two_bath_tcom(-1.0, 10.0, 1.0)
    with pytest.raises(DomainError):
        two_bath_tcom(294.0, -5.0, 1.0)
    with pytest.raises(DomainError):
        two_bath_tcom(294.0, 10.0, -0.2)
    with pytest.raises(DomainError):
        hb.sphere_k(t0=-1.0)
    with pytest.raises(DomainError):
        hb.sphere_k(alpha_c=-0.2)


def test_alpha_above_one_warns_not_raises():
    with pytest.warns(AccommodationWarning):
        value = two_bath_tcom(294.0, 10.0, 1.2)
    assert value > two_bath_tcom(294.0, 10.0, 1.0)


def test_tcom_linearization_gap_over_design_range():
    # full vs linearized stays below 0.5% of the CoM temperature for
    # excesses up to 10% of ambient; the worst point on the 100-point
    # grid evaluates to 9.47e-4 relative
    worst = 0.0
    for i in range(1, 101):
        d_t = 0.1 * 294.0 * i / 100.0
        full = two_bath_tcom(294.0, d_t, 1.0)
        lin = two_bath_tcom_linearized(294.0, d_t, 1.0)
        worst = max(worst, abs(full - lin) / full)
    assert worst == pytest.approx(0.0009471521081591667, rel=1e-9)
    assert worst < 0.005
    # relative to the temperature EXCESS the gap reaches 3.34%
    d_t = 29.4
    full = two_bath_tcom(294.0, d_t, 1.0)
    lin = two_bath_tcom_linearized(294.0, d_t, 1.0)
    assert abs(full - lin) / (full - 294.0) == pytest.approx(0.0334, abs=2e-3)


def test_tcom_quadratic_coefficient_by_richardson():
    # half the second derivative times T0 must equal 4*pi/(pi+8)^2;
    # Richardson-extrapolate R(h) = (tcom - T0 - b*h)*T0/h^2 at h=0.5, 0.25
    t0, b = 294.0, SPHERE_COUPLING_PER_ALPHA

    def r_of_h(h):
        return (two_bath_tcom(t0, h, 1.0) - t0 - b * h) * t0 / h**2

    estimate = 2.0 * r_of_h(0.25) - r_of_h(0.5)
    assert abs(estimate - C_QUAD) / C_QUAD < 1e-6


@given(
    st.floats(min_value=250.0, max_value=350.0),
    st.floats(min_value=0.0, max_value=80.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_tcom_bounded_by_baths(t0, d_t, alpha):
    t_em = t0 + alpha * d_t
    t_com = two_bath_tcom(t0, d_t, alpha)
    assert t0 - 1e-9 <= t_com <= t_em + 1e-9


# =============================================================================
# Heating law
# =============================================================================

def test_internal_temperature_value(heating17):
    assert internal_temperature(heating17, 100.0, 45.0) == pytest.approx(
        331.77777777777777, rel=1e-14
    )


def test_internal_temperature_validation(heating17):
    with pytest.raises(DomainError):
        internal_temperature(heating17, 100.0, 0.0)
    with pytest.raises(DomainError):
        internal_temperature(heating17, -1.0, 45.0)
    with pytest.raises(DomainError):
        hb.HeatingLaw(kappa_heat=-1.0)


# =============================================================================
# Sphere drag
# =============================================================================

def test_sphere_drag_reference_values(sphere_particle, gas45):
    # independently: Gamma = 4*c/(rho*R) * (1 + pi/8) with
    # c = p*sqrt(m_gas/(2*pi*k_B*T))
    assert hb.sphere_drag(sphere_particle, gas45) == pytest.approx(
        19673.66632805824, rel=1e-12
    )
    gas100 = hb.GasEnvironment(pressure=100.0)
    assert hb.sphere_drag(sphere_particle, gas100) == pytest.approx(
        43719.25850679609, rel=1e-12
    )
    # hot surface: emerging bath at the internal temperature
    assert hb.sphere_drag(
        sphere_particle, gas45, emerging_temperature=331.77777777777777
    ) == pytest.approx(20019.306084771328, rel=1e-12)


@given(st.floats(min_value=1.0, max_value=200.0))
def test_sphere_drag_linear_in_pressure(pressure):
    particle = hb.ParticleModel(shape=hb.Sphere(radius=500e-9))
    g1 = hb.sphere_drag(particle, hb.GasEnvironment(pressure=pressure))
    g2 = hb.sphere_drag(particle, hb.GasEnvironment(pressure=2.0 * pressure))
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12)


def test_sphere_drag_rejects_cylinder(gas45):
    cyl = hb.ParticleModel(shape=hb.Cylinder(radius=40e-9, length=80e-9))
    with pytest.raises(TypeError):
        hb.sphere_drag(cyl, gas45)


# =============================================================================
# Cylinder drag and coupling constants
# =============================================================================

def test_cylinder_anisotropy_is_one_at_aspect_one(gas45):
    # l = 2R makes the reduced per-axis rates coincide term by term
    particle = hb.ParticleModel(shape=hb.Cylinder(radius=40e-9, length=80e-9))
    drag = hb.cylinder_drag(particle, gas45)
    assert drag.anisotropy_g == 1.0
    assert drag.gamma_parallel == drag.gamma_perpendicular
    # ... at any surface temperature
    hot = hb.cylinder_drag(particle, gas45, surface_temperature=400.0)
    assert hot.anisotropy_g == 1.0


def test_cylinder_anisotropy_reference_value(gas45):
    particle = hb.ParticleModel(shape=hb.Cylinder(radius=40e-9, length=90e-9))
    drag = hb.cylinder_drag(particle, gas45)        # x = l/(2R) = 1.125
    assert drag.anisotropy_g == pytest.approx(1.05520714397274, rel=1e-13)


def test_cylinder_drag_rejects_sphere(sphere_particle, gas45):
    with pytest.raises(TypeError):
        hb.cylinder_drag(sphere_particle, gas45)


def test_cylinder_bath_split_sums(gas45):
    particle = hb.ParticleModel(shape=hb.Cylinder(radius=40e-9, length=200e-9))
    drag = hb.cylinder_drag(particle, gas45, surface_temperature=330.0)
    assert drag.gamma_parallel == pytest.approx(
        drag.impinging_parallel + drag.emerging_parallel, rel=1e-14
    )
    assert drag.gamma_perpendicular == pytest.approx(
        drag.impinging_perpendicular + drag.emerging_perpendicular, rel=1e-14
    )


def test_sphere_k_slope_procedure_value():
    # slope of the full model over the default 0..100 K sweep; slightly
    # above the tangent pi/(pi+8)*alpha_c because of upward curvature
    for alpha, expected in ((1.0, 0.3127641992310168), (0.5, 0.1491035069521638)):
        assert hb.sphere_k(alpha_c=alpha) == pytest.approx(expected, rel=1e-12)
        assert hb.sphere_k(alpha_c=alpha) > SPHERE_COUPLING_PER_ALPHA * alpha


def test_sphere_k_zero_accommodation_is_flat():
    assert hb.sphere_k(alpha_c=0.0) == pytest.approx(0.0, abs=1e-15)


def test_cylinder_k_equals_sphere_k_at_aspect_one(gas45):
    particle = hb.ParticleModel(shape=hb.Cylinder(radius=40e-9, length=80e-9))
    k_par = hb.cylinder_k(particle, gas45, "parallel")
    k_perp = hb.cylinder_k(particle, gas45, "perpendicular")
    k_sph = hb.sphere_k(t0=gas45.temperature)
    assert k_par == k_perp
    # identical procedure, identical reduced model: bitwise agreement
    assert k_par == k_sph


# Frozen from the earlier per-point loop over CylinderDrag objects; the
# shared slope procedure matches them to about 3e-14 relative.
@pytest.mark.parametrize("length, k_par, k_perp", [
    (40e-9, 0.37766964937417574, 0.2668942697881283),      # x = 0.5
    (90e-9, 0.29987962776094007, 0.31885294100420725),     # x = 1.125
    (240e-9, 0.1853434401440919, 0.35323543780974304),     # x = 3
])
def test_cylinder_k_reference_values(gas45, length, k_par, k_perp):
    particle = hb.ParticleModel(shape=hb.Cylinder(radius=40e-9, length=length))
    assert hb.cylinder_k(particle, gas45, "parallel") == pytest.approx(k_par, rel=1e-12)
    assert hb.cylinder_k(particle, gas45, "perpendicular") == pytest.approx(k_perp, rel=1e-12)


def test_cylinder_k_brackets_sphere_for_elongated_shapes(gas45):
    particle = hb.ParticleModel(shape=hb.Cylinder(radius=40e-9, length=120e-9))
    k_par = hb.cylinder_k(particle, gas45, "parallel")
    k_perp = hb.cylinder_k(particle, gas45, "perpendicular")
    k_sph = hb.sphere_k(t0=gas45.temperature)
    assert k_par < k_sph < k_perp


def test_cylinder_k_validation(gas45, sphere_particle):
    particle = hb.ParticleModel(shape=hb.Cylinder(radius=40e-9, length=80e-9))
    with pytest.raises(DomainError):
        hb.cylinder_k(particle, gas45, "sideways")
    with pytest.raises(TypeError):
        hb.cylinder_k(sphere_particle, gas45, "parallel")
    with pytest.raises(EstimationError):
        hb.cylinder_k(particle, gas45, "parallel", delta_t_grid=np.array([5.0]))
    with pytest.raises(DomainError):
        hb.cylinder_k(particle, gas45, "parallel", delta_t_grid=np.array([-1.0, 5.0]))
