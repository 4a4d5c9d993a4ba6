import numpy as np
import pytest

from impulse_geo import dynamics, existence, geometry, profiles, scenarios
from impulse_geo.dynamics import InitialData
from impulse_geo.errors import (CertificateViolation, ChartDomainError,
                                NumericalError)


EU = geometry.euclidean(2)
NET = profiles.mollifier_net()
LINEAR = profiles.linear_profile([1.0, 0.0])


def test_sup_norms_flat_linear_exact():
    est = existence.estimate_sup_norms(EU, LINEAR, [0.0, 0.0], [1.0, 0.0],
                                       1.0, 1.0)
    assert est.norm_F1 == 0.0
    assert est.norm_F2 == pytest.approx(0.5, abs=1e-14)
    assert est.lip_F1 == 0.0
    assert est.lip_F2 == pytest.approx(0.0, abs=1e-9)
    assert est.i2_radius == pytest.approx(1.5, abs=1e-14)


def test_sup_norms_quadratic_profile_within_safety():
    # F2 = (x1, 0), so the exact sup over the unit ball around (1, 0) is 2
    prof = profiles.quadratic_form_profile([[1.0, 0.0], [0.0, 0.0]])
    est = existence.estimate_sup_norms(EU, prof, [1.0, 0.0], [0.0, 0.0],
                                       1.0, 1.0, grid=21)
    assert 2.0 <= est.norm_F2 <= 2.0 * 1.1 + 1e-12


def test_sup_norms_hyperbolic_brute_force_oracle():
    model = geometry.hyperbolic_half_plane()
    zero = profiles.constant_profile(0.0)
    x0 = np.array([0.0, 1.0])
    xdot0 = np.array([0.3, 0.2])
    b, c = 0.5, 1.0
    est = existence.estimate_sup_norms(model, zero, x0, xdot0, b, c, grid=11)
    assert est.norm_F2 == 0.0
    # dense brute-force sup of |Gamma(y)(z, z)| over the nominal balls
    rng = np.random.default_rng(31)
    best = 0.0
    for _ in range(4000):
        y = x0 + rng.uniform(-b, b, 2)
        if np.linalg.norm(y - x0) > b or y[1] <= 0:
            continue
        z = xdot0 + rng.uniform(-c, c, 2)
        if np.linalg.norm(z - xdot0) > c:
            continue
        g = model.christoffel_at(y)
        best = max(best, float(np.linalg.norm(
            np.einsum("kij,i,j->k", g, z, z))))
    assert est.norm_F1 >= best * (1.0 - 1e-9)
    assert est.norm_F1 <= best * 2.0


def test_sup_norms_ball_escaping_chart_raises():
    model = geometry.hyperbolic_half_plane()
    with pytest.raises(ChartDomainError):
        existence.estimate_sup_norms(model, LINEAR, [0.0, 0.5], [1.0, 0.0],
                                     1.0, 1.0)


def test_alpha_bound_examples():
    alpha, eps0 = existence.alpha_bound(1.0, 1.0, 1.0, 0.0, 0.5, 1.0)
    assert alpha == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert eps0 == pytest.approx(1.0 / 3.0, abs=1e-15)

    alpha, _ = existence.alpha_bound(2.0, 1.0, 1.0, 0.0, 0.0, 1.0)
    assert alpha == pytest.approx(0.5, abs=1e-15)

    alpha, _ = existence.alpha_bound(0.0, 100.0, 1.0, 4.0, 0.0, 1.0)
    assert alpha == pytest.approx(0.25, abs=1e-15)

    # all ratios degenerate: resting data, flat chart, constant profile
    alpha, eps0 = existence.alpha_bound(0.0, 1.0, 1.0, 0.0, 0.0, 1.0)
    assert alpha == 1.0 and eps0 == 0.5


def test_alpha_bound_monotonicity():
    rng = np.random.default_rng(32)
    for _ in range(200):
        speed, f1, f2 = rng.uniform(0.0, 3.0, 3)
        b, c, k = rng.uniform(0.1, 3.0, 3)
        base, _ = existence.alpha_bound(speed, b, c, f1, f2, k)
        up = 1.0 + rng.uniform(0.01, 1.0)
        assert existence.alpha_bound(speed * up, b, c, f1, f2, k)[0] <= base + 1e-15
        assert existence.alpha_bound(speed, b, c, f1 * up, f2, k)[0] <= base + 1e-15
        assert existence.alpha_bound(speed, b, c, f1, f2 * up, k)[0] <= base + 1e-15
        assert existence.alpha_bound(speed, b, c, f1, f2, k * up)[0] <= base + 1e-15
        assert existence.alpha_bound(speed, b * up, c, f1, f2, k)[0] >= base - 1e-15
        assert existence.alpha_bound(speed, b, c * up, f1, f2, k)[0] >= base - 1e-15


def test_weissinger_coefficient_examples():
    assert existence.weissinger_coefficient(2, 1.0, 1.0, 0.5, 1.0) == \
        pytest.approx(2.0, abs=1e-15)
    a3 = existence.weissinger_coefficient(3, 2.0 / 3.0, 3.0, 0.0, 1.0)
    assert a3 == pytest.approx(4.0 * 3.0 * (2.0 / 3.0) ** 4 / 24.0, rel=1e-12)
    assert a3 == pytest.approx(0.0987654320987654, rel=1e-10)
    assert existence.weissinger_coefficient(5, 0.7, 0.0, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        existence.weissinger_coefficient(1, 1.0, 1.0, 1.0, 1.0)


def test_weissinger_series_summable():
    sums = existence.weissinger_budget(1.0, 1e3, 1e3, 1.0)
    assert len(sums) == existence._MAX_ITER - 1
    tail = np.abs(np.diff(sums[35:]))
    assert np.all(tail < 1e-12)
    assert np.isfinite(sums[-1])


def certificate_for(scen, net):
    base = dynamics.background_path(scen.model, scen.data.x0, scen.data.xdot0,
                                    -1.0, 0.0)
    return existence.certify(scen.model, scen.profile, base.x_at(0.0),
                             base.xdot_at(0.0), b=scen.b, c=scen.c,
                             k=net.l1_bound)


def test_flat_linear_certificate_is_exact():
    scen = [s for s in scenarios.builtin_scenarios()
            if s.name == "euclidean-linear"][0]
    cert = certificate_for(scen, NET)
    assert cert.alpha == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert cert.eps0 == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_picard_zero_profile_straight_line_is_fixed_point():
    zero = profiles.constant_profile(0.0)
    res = existence.picard_solve(EU, zero, NET, 0.25, np.array([0.0, 0.0]),
                                 np.array([1.0, 0.0]), 1.0)
    assert res.converged
    assert res.iterations == 1
    assert res.corrective_iterations == 0
    line = np.array([0.0, 0.0]) + np.outer(res.t + 0.25, [1.0, 0.0])
    assert np.max(np.abs(res.x - line)) < 1e-14


def test_picard_flat_linear_one_corrective_iteration():
    eps = 1.0 / 6.0
    alpha = 2.0 / 3.0
    x0 = np.array([1.0 - eps, 0.0])
    res = existence.picard_solve(EU, LINEAR, NET, eps, x0,
                                 np.array([1.0, 0.0]), alpha)
    assert res.converged
    assert res.corrective_iterations == 1
    # closed form: x1(t) = x0 + (t + eps) + 1/2 double integral of the net
    from scipy.integrate import quad

    def oracle(t):
        top = min(t, eps)
        val, _ = quad(lambda r: (t - r) * float(NET.eval(eps, r)), -eps, top,
                      epsabs=1e-13, limit=400)
        return x0[0] + (t + eps) + 0.5 * val

    idx = np.linspace(0, len(res.t) - 1, 25).astype(int)
    for i in idx:
        assert res.x[i, 0] == pytest.approx(oracle(res.t[i]), abs=1e-9)
        assert abs(res.x[i, 1]) < 1e-15


@pytest.mark.parametrize("m", [3, 4, 5, 6, 2001, 4001])
@pytest.mark.parametrize("cols", [2, 3])
def test_cumulative_simpson_is_scipys_bit_for_bit(m, cols):
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(m * cols)
    t = np.linspace(-0.1, 0.6, m)
    weights = existence._simpson_weights(t)
    ys = [rng.standard_normal((m, cols)),
          np.asfortranarray(rng.standard_normal((m, cols)))]
    ys[0][0] = -0.0
    for y in ys:
        want = cumulative_simpson(y, x=t, axis=0, initial=0.0)
        got = existence._cumulative_simpson(y, weights)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.f_contiguous == want.flags.f_contiguous


def overlap_case(case):
    """Model, Gaussian-bump profile and data of a Picard/RK overlap case."""
    if case == "hyperbolic":
        return (geometry.hyperbolic_half_plane(),
                profiles.gaussian_bump_profile(1.0, [0.8, 1.2], 0.8),
                InitialData([0.0, 1.0], [0.6, 0.4]))
    bump = profiles.gaussian_bump_profile(1.0, [0.3, -0.2], 0.7)
    data = InitialData([0.0, 0.2], [0.5, 0.3])
    if case == "sphere":
        return geometry.sphere_stereographic(), bump, data
    # the same sphere and bump, with no batch forms and no analytic df
    user = geometry.from_metric(
        2, lambda x: 4.0 / (1.0 + float(x @ x)) ** 2 * np.eye(2))
    return user, profiles.WaveProfile(bump.f), data


@pytest.mark.parametrize("case", ["hyperbolic", "sphere", "sphere-fallback"])
def test_picard_agrees_with_integrator_on_overlap(case):
    model, prof, data = overlap_case(case)
    base = dynamics.background_path(model, data.x0, data.xdot0, -1.0, 0.0)
    cert = existence.certify(model, prof, base.x_at(0.0), base.xdot_at(0.0),
                             b=0.3, c=1.0, k=NET.l1_bound)
    eps = 1e-2
    assert eps <= cert.eps0
    entry = dynamics.background_path(model, data.x0, data.xdot0, -1.0, -eps)
    res = existence.picard_solve(model, prof, NET, eps,
                                 entry.x_at(-eps), entry.xdot_at(-eps),
                                 cert.alpha, tol=1e-10)
    path = dynamics.integrate_impulsive_geodesic(model, prof, NET, eps, data,
                                                 u_end=cert.alpha)
    sub = np.linspace(0, len(res.t) - 1, 101).astype(int)
    ts = res.t[sub]
    err_x = np.max(np.abs(path.x_at(ts) - res.x[sub]))
    err_xd = np.max(np.abs(path.xdot_at(ts) - res.xdot[sub]))
    assert max(err_x, err_xd) < 1e-6
    if case == "sphere-fallback":
        # the per-point fallbacks match the built-in batch forms within the
        # finite-difference tolerance
        ref_model, ref_prof, _ = overlap_case("sphere")
        est = existence.estimate_sup_norms(model, prof, cert.x0, cert.xdot0,
                                           0.3, 1.0)
        ref_est = existence.estimate_sup_norms(ref_model, ref_prof, cert.x0,
                                               cert.xdot0, 0.3, 1.0)
        for key in ("norm_F1", "norm_F2", "lip_F1", "lip_F2", "i2_radius"):
            assert getattr(est, key) == pytest.approx(getattr(ref_est, key),
                                                      rel=1e-6)
        ref = existence.picard_solve(ref_model, ref_prof, NET, eps,
                                     entry.x_at(-eps), entry.xdot_at(-eps),
                                     cert.alpha, tol=1e-10)
        assert ref.grid_size == res.grid_size
        assert np.max(np.abs(ref.x - res.x)) < 1e-6
        assert np.max(np.abs(ref.xdot - res.xdot)) < 1e-6


def test_picard_requires_eps_within_budget():
    with pytest.raises(ValueError):
        existence.picard_solve(EU, LINEAR, NET, 0.4, np.zeros(2),
                               np.array([1.0, 0.0]), 0.5)


def test_picard_certificate_violation_for_tiny_ball():
    eps = 1.0 / 6.0
    cert = existence.certify(EU, LINEAR, np.array([1.0 - eps, 0.0]),
                             np.array([1.0, 0.0]), b=1e-4, c=1.0, k=1.0)
    # force an interval much longer than the tiny ball can contain
    with pytest.raises(CertificateViolation):
        existence.picard_solve(EU, LINEAR, NET, eps,
                               np.array([1.0 - eps, 0.0]),
                               np.array([1.0, 0.0]), alpha=2.0 / 3.0,
                               certificate=cert)


def test_picard_certificate_checks_every_node():
    # the straight path is farthest from x0 at the last node; b lies between
    # that distance (0.91667) and the largest distance on every 31st node
    # (0.90867), so only a check of every node catches the exit from I1
    eps = 1.0 / 6.0
    x0 = np.array([1.0 - eps, 0.0])
    xdot0 = np.array([1.0, 0.0])
    cert = existence.certify(EU, LINEAR, x0, xdot0, b=0.91267, c=1.0, k=1.0)
    with pytest.raises(CertificateViolation, match="I1"):
        existence.picard_solve(EU, LINEAR, NET, eps, x0, xdot0,
                               alpha=2.0 / 3.0, certificate=cert)


def test_picard_certificate_checks_the_velocity_ball():
    # a geodesic of the half-plane turns at once, so over alpha = 0.2 its
    # velocity leaves the tiny ball I2 (c = 1e-3, no impulse) while its
    # position stays in I1; with the certificate's own alpha it converges
    model = geometry.hyperbolic_half_plane()
    zero = profiles.constant_profile(0.0)
    x0, xdot0 = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    cert = existence.certify(model, zero, x0, xdot0, b=0.5, c=1e-3, k=1.0)
    with pytest.raises(CertificateViolation, match="I2"):
        existence.picard_solve(model, zero, NET, 0.01, x0, xdot0, alpha=0.2,
                               certificate=cert)
    res = existence.picard_solve(model, zero, NET, cert.eps0, x0, xdot0,
                                 cert.alpha, certificate=cert)
    assert res.converged
    assert cert.contains_x(res.x) and cert.contains_xdot(res.xdot)


def test_picard_iterate_leaving_chart_raises():
    # the straight-line seed crosses x2 = 0 at t = 0.1 - eps
    model = geometry.hyperbolic_half_plane()
    with pytest.raises(ChartDomainError):
        existence.picard_solve(model, profiles.constant_profile(0.0), NET,
                               0.1, np.array([0.0, 0.1]),
                               np.array([0.0, -1.0]), 1.0)


@pytest.mark.parametrize("scen", scenarios.builtin_scenarios(),
                         ids=lambda s: s.name)
def test_certificate_soundness_sampled(scen):
    # random data near the scenario anchor: crossing at eps <= eps0 stays
    # inside the certified region and never trips the blow-up guard
    rng = np.random.default_rng(hash(scen.name) % 2 ** 32)
    net = NET
    for _ in range(5):
        data = InitialData(scen.data.x0 + rng.uniform(-0.05, 0.05, 2),
                           scen.data.xdot0 + rng.uniform(-0.15, 0.15, 2))
        base = dynamics.background_path(scen.model, data.x0, data.xdot0,
                                        -1.0, 0.0)
        cert = existence.certify(scen.model, scen.profile, base.x_at(0.0),
                                 base.xdot_at(0.0), b=scen.b, c=scen.c,
                                 k=net.l1_bound)
        eps = min(0.5, cert.eps0)
        entry = dynamics.background_path(scen.model, data.x0, data.xdot0,
                                         -1.0, -eps)
        entry_cert = existence.certify(scen.model, scen.profile,
                                       entry.x_at(-eps), entry.xdot_at(-eps),
                                       b=scen.b, c=scen.c, k=net.l1_bound)
        eps = min(eps, entry_cert.eps0)
        path = dynamics.integrate_impulsive_geodesic(
            scen.model, scen.profile, net, eps, data,
            u_end=max(entry_cert.alpha - eps, eps * 1.5))
        us = np.linspace(-eps, min(path.u_end, entry_cert.alpha - eps), 101)
        xs = path.x_at(us)
        xds = path.xdot_at(us)
        dx = np.linalg.norm(xs - entry_cert.x0, axis=1)
        dz = np.linalg.norm(xds - entry_cert.xdot0, axis=1)
        assert np.max(dx) <= entry_cert.b + 1e-9
        assert np.max(dz) <= entry_cert.i2_radius + 1e-9


def test_picard_without_convergence_raises(monkeypatch):
    # flat linear needs one corrective iteration beyond the seed; one
    # iteration in all does not converge
    monkeypatch.setattr(existence, "_MAX_ITER", 1)
    with pytest.raises(NumericalError,
                       match="did not converge within 1 iterations"):
        existence.picard_solve(EU, LINEAR, NET, 1.0 / 6.0,
                               np.array([5.0 / 6.0, 0.0]),
                               np.array([1.0, 0.0]), 2.0 / 3.0)


def test_picard_stops_at_max_refinements(monkeypatch):
    monkeypatch.setattr(existence, "_MAX_REFINEMENTS", 0)
    res = existence.picard_solve(EU, LINEAR, NET, 1.0 / 6.0,
                                 np.array([5.0 / 6.0, 0.0]),
                                 np.array([1.0, 0.0]), 2.0 / 3.0)
    assert res.converged and not res.grid_converged
    assert res.refinements == 0 and res.grid_size == 2001
