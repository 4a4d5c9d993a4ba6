import numpy as np
import pytest
from scipy.integrate import quad

from impulse_geo import dynamics, geometry, profiles, scenarios
from impulse_geo.dynamics import (GeodesicState, InitialData,
                                  integrate_impulsive_geodesic,
                                  lagrangian_energy, rhs)
from impulse_geo.errors import IntegrationFailure


EU = geometry.euclidean(2)
NET = profiles.mollifier_net()
LINEAR = profiles.linear_profile([1.0, 0.0])


def flat_linear_x1_oracle(u, eps, net):
    """u + 1 + 1/2 double-integral of the impulse, by direct quadrature."""
    if u <= -eps:
        return u + 1.0
    top = min(u, eps)
    val, _ = quad(lambda r: (u - r) * float(net.eval(eps, r)), -eps, top,
                  epsabs=1e-13, limit=400)
    return u + 1.0 + 0.5 * val


def test_rhs_outside_strip_is_background():
    state = GeodesicState(0.5, np.array([2.0, 0.3]), np.array([1.0, -0.2]),
                          0.1, -0.4)
    rate = rhs(state, EU, LINEAR, NET, 0.25)
    assert np.all(rate.xddot == 0.0)
    assert rate.vddot == 0.0
    assert np.array_equal(rate.xdot, state.xdot)
    assert rate.vdot == state.vdot


def test_rhs_inside_strip_flat_linear():
    eps = 0.25
    u = 0.07
    d = float(NET.eval(eps, u))
    dd = float(NET.deriv(eps, u))
    assert d != 0.0
    x = np.array([0.8, -0.1])
    xd = np.array([1.1, 0.4])
    rate = rhs(GeodesicState(u, x, xd, 0.0, 0.0), EU, LINEAR, NET, eps)
    assert np.allclose(rate.xddot, [0.5 * d, 0.0], rtol=1e-14)
    assert rate.vddot == pytest.approx(-xd[0] * d - 0.5 * x[0] * dd,
                                       rel=1e-14)


def test_rhs_zero_profile_matches_background():
    model = geometry.hyperbolic_half_plane()
    zero = profiles.constant_profile(0.0)
    x = np.array([0.2, 1.3])
    xd = np.array([0.5, -0.1])
    rate = rhs(GeodesicState(0.0, x, xd, 0.0, 0.0), model, zero, NET, 0.25)
    gamma = model.christoffel_at(x)
    assert np.allclose(rate.xddot, -np.einsum("kij,i,j->k", gamma, xd, xd),
                       atol=1e-15)
    assert rate.vddot == 0.0


def test_zero_profile_path_is_background_with_affine_v():
    model = geometry.hyperbolic_half_plane()
    zero = profiles.constant_profile(0.0)
    data = InitialData([0.0, 1.0], [0.4, 0.3], v0=0.2, vdot0=-0.5)
    path = integrate_impulsive_geodesic(model, zero, NET, 0.1, data, 1.0)
    ref = dynamics.background_path(model, data.x0, data.xdot0, -1.0, 1.0,
                                   v0=data.v0, vdot0=data.vdot0)
    us = np.linspace(-1.0, 1.0, 101)
    assert np.max(np.abs(path.x_at(us) - ref.x_at(us))) < 1e-9
    assert np.max(np.abs(path.v_at(us)
                         - (data.v0 + data.vdot0 * (1 + us)))) < 1e-12


def test_flat_linear_closed_form_path():
    eps = 1e-2
    data = InitialData([0.0, 0.0], [1.0, 0.0])
    path = integrate_impulsive_geodesic(EU, LINEAR, NET, eps, data, 1.0)
    # velocity gain across the strip is exactly half the unit integral
    assert path.xdot_at(eps)[0] == pytest.approx(1.5, abs=1e-10)
    us = np.linspace(-1.0, 1.0, 101)
    oracle = np.array([flat_linear_x1_oracle(u, eps, NET) for u in us])
    assert np.max(np.abs(path.x_at(us)[:, 0] - oracle)) < 1e-9
    assert np.max(np.abs(path.x_at(us)[:, 1])) < 1e-12


def test_phase_marks_and_forced_boundaries():
    eps = 0.05
    data = InitialData([0.0, 0.0], [1.0, 0.0])
    path = integrate_impulsive_geodesic(EU, LINEAR, NET, eps, data, 0.5)
    assert path.phase_marks == (-eps, eps)
    nodes = path.node_parameters()
    assert np.any(np.isclose(nodes, -eps, atol=1e-14))
    assert np.any(np.isclose(nodes, eps, atol=1e-14))
    # strip step cap: no interior step exceeds support_radius / 50
    inside = nodes[(nodes >= -eps) & (nodes <= eps)]
    assert np.max(np.diff(inside)) <= eps / 50 + 1e-15


def test_lagrangian_energy_null_example():
    state = GeodesicState(-1.0, np.zeros(2), np.array([1.0, 0.0]), 0.0, -0.5)
    zero = profiles.constant_profile(0.0)
    assert lagrangian_energy(state, EU, zero, NET, 0.1) == pytest.approx(0.0)


def test_energy_conserved_across_builtin_matrix():
    rng = np.random.default_rng(21)
    nets = list(scenarios.builtin_nets().values())
    for scen in scenarios.builtin_scenarios():
        for net in nets[:2]:
            for _ in range(2):
                data = InitialData(
                    scen.data.x0 + rng.uniform(-0.05, 0.05, 2),
                    scen.data.xdot0 + rng.uniform(-0.2, 0.2, 2),
                    v0=rng.uniform(-1, 1), vdot0=rng.uniform(-1, 1))
                path = integrate_impulsive_geodesic(
                    scen.model, scen.profile, net, 0.05, data, 1.0)
                e0 = path.diagnostics.energy_start
                drift = path.diagnostics.energy_drift
                assert drift <= 1e-7 * (1.0 + abs(e0))


def test_v_affine_outside_strip():
    eps = 0.1
    data = InitialData([0.0, 1.0], [0.5, 0.2], vdot0=0.3)
    model = geometry.hyperbolic_half_plane()
    prof = profiles.gaussian_bump_profile(1.0, [0.8, 1.2], 0.8)
    path = integrate_impulsive_geodesic(model, prof, NET, eps, data, 1.0)
    for lo, hi in ((-1.0, -eps), (eps, 1.0)):
        us = np.linspace(lo, hi, 101)
        vs = path.v_at(us)
        coef = np.polyfit(us, vs, 1)
        assert np.max(np.abs(vs - np.polyval(coef, us))) < 1e-9


def test_tolerance_halving_moves_endpoint_less_than_tenfold_tolerance():
    model = geometry.sphere_stereographic()
    prof = profiles.gaussian_bump_profile(1.0, [1.0, 0.0], 0.8)
    data = InitialData([0.0, 0.5], [1.0, 0.0])
    coarse = integrate_impulsive_geodesic(model, prof, NET, 0.05, data, 1.0,
                                          rtol=1e-8, atol=1e-8)
    fine = integrate_impulsive_geodesic(model, prof, NET, 0.05, data, 1.0,
                                        rtol=5e-9, atol=5e-9)
    diff = np.max(np.abs(coarse.sample(1.0) - fine.sample(1.0)))
    assert diff < 1e-7


def test_interpolant_consistent_with_reintegration_at_half_tolerance():
    model = geometry.hyperbolic_half_plane()
    prof = profiles.gaussian_bump_profile(1.0, [0.8, 1.2], 0.8)
    data = InitialData([0.0, 1.0], [0.5, 0.2])
    tol = 1e-8
    a = integrate_impulsive_geodesic(model, prof, NET, 0.05, data, 1.0,
                                     rtol=tol, atol=tol)
    b = integrate_impulsive_geodesic(model, prof, NET, 0.05, data, 1.0,
                                     rtol=tol / 2, atol=tol / 2)
    us = np.linspace(-1.0, 1.0, 257)
    assert np.max(np.abs(a.sample(us) - b.sample(us))) < 100 * tol


def test_blowup_guard_trips_inside_strip():
    # a violently superquadratic profile at a wide strip escapes the guard
    prof = profiles.radial_power_profile(1e9, 4.0, [0.0, 0.0])
    data = InitialData([1.0, 0.0], [1.0, 0.0])
    with pytest.raises(IntegrationFailure) as err:
        integrate_impulsive_geodesic(EU, prof, NET, 0.4, data, 1.0)
    assert err.value.reason == "blow_up"
    assert err.value.phase == "strip"
    assert err.value.partial is not None
    assert err.value.partial.u_end <= 0.4


def test_precondition_validation():
    data = InitialData([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        integrate_impulsive_geodesic(EU, LINEAR, NET, 0.7, data, 1.0)
    with pytest.raises(ValueError):
        integrate_impulsive_geodesic(EU, LINEAR, NET, 0.1, data, 0.05)


def test_sample_rejects_out_of_range():
    data = InitialData([0.0, 0.0], [1.0, 0.0])
    path = integrate_impulsive_geodesic(EU, LINEAR, NET, 0.1, data, 1.0)
    with pytest.raises(ValueError):
        path.sample(1.5)
