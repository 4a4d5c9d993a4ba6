import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from impulse_geo import (dynamics, existence, geometry, limits, odesolve,
                         profiles, scenarios)
from impulse_geo.dynamics import (GeodesicState, InitialData,
                                  integrate_impulsive_geodesic,
                                  lagrangian_energy, rhs)
from impulse_geo.errors import (ChartDomainError, ConfigError,
                                 IntegrationFailure)
from impulse_geo.odesolve import DensePath, solve_rk45


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
    ref = dynamics.background_path(model, data.x0, data.xdot0, -1.0, 1.0)
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


@pytest.mark.parametrize("atol, rtol", [(0.0, 1e-10), (-1e-10, 1e-10),
                                        (1e-10, -1e-10), (math.nan, 1e-10),
                                        (1e-10, math.nan)])
@pytest.mark.parametrize("shape", [(4,), (3, 4)], ids=["point", "ensemble"])
def test_solver_rejects_tolerances_before_calling_the_field(atol, rtol,
                                                             shape):
    # without atol > 0 and rtol >= 0 the error scale can vanish and the
    # solver may never end; this field fails fast instead of hanging
    calls = []

    def fun(t, y, rows=None):
        calls.append(t)
        if len(calls) > 10_000:
            raise RuntimeError("the solver runs without end")
        return np.roll(y, 1, axis=-1) - y

    y0 = np.zeros(shape)
    y0[..., 0] = 1.0
    with pytest.raises(ConfigError, match="atol > 0 and rtol >= 0"):
        solve_rk45(fun, 0.0, 1.0, y0, rtol=rtol, atol=atol)
    assert calls == []


def test_zero_rtol_is_valid():
    data = InitialData([0.0, 0.0], [1.0, 0.0])
    path = integrate_impulsive_geodesic(EU, LINEAR, NET, 0.05, data, 1.0,
                                        rtol=0.0)
    assert path.diagnostics.n_steps == 174


def test_sample_rejects_out_of_range():
    data = InitialData([0.0, 0.0], [1.0, 0.0])
    path = integrate_impulsive_geodesic(EU, LINEAR, NET, 0.1, data, 1.0)
    with pytest.raises(ValueError):
        path.sample(1.5)


def test_sample_of_no_parameters_is_an_empty_batch():
    assert _PATH.sample([]).shape == (0, 6)
    assert _PATH.x_at([]).shape == (0, 2)
    assert _PATH.state_at(np.array([])).v.shape == (0,)


def test_non_finite_initial_state_fails_at_once():
    # a NaN state made the first step size NaN: data with v0 = NaN took a
    # million rejected steps, and a zero field returned a NaN node
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="finite"):
        integrate_impulsive_geodesic(
            EU, LINEAR, NET, 0.1,
            InitialData([0.0, 0.0], [1.0, 0.0], v0=math.nan), 1.0)
    assert time.perf_counter() - start < 1.0

    def zero(t, y):
        return np.zeros(2)

    with pytest.raises(IntegrationFailure, match="not finite") as single:
        solve_rk45(zero, 0.0, 1.0, np.array([math.nan, 0.0]))
    assert single.value.reason == "chart_escape"
    assert single.value.partial is None
    assert single.value.diagnostics.n_steps == 0
    # in an ensemble the non-finite row fails alone, before any step
    rows, stats = solve_rk45(lambda t, ys, rows: np.zeros_like(ys), 0.0, 1.0,
                             np.array([[1.0, -2.0], [math.inf, 0.0]]))
    assert isinstance(rows[1], IntegrationFailure)
    assert rows[1].reason == "chart_escape" and "not finite" in str(rows[1])
    assert stats["rows"][1]["n_steps"] == 0
    alone, _ = solve_rk45(zero, 0.0, 1.0, np.array([1.0, -2.0]))
    _assert_same_piece(rows[0], alone)
    assert time.perf_counter() - start < 1.0


def _toy_point_field(t, y):
    """A forced pendulum, a state leaving a chart at y0 = 3 and, in the
    last component, y' = y^2, which blows up from y(0) > 0 at t = 1/y(0)."""
    if y[0] > 3.0:
        raise ChartDomainError("left the toy chart")
    return np.array([y[1], -math.sin(y[0]) + 0.1 * math.cos(3.0 * t), y[3],
                     y[2] * y[2]])


def test_ensemble_rows_repeat_single_trajectories():
    # with a field that loops over the rows, every row of an ensemble call
    # repeats the single-trajectory loop bit for bit, failures included
    def fun(t, ys, rows):
        return np.array([_toy_point_field(float(u), y) for u, y in zip(t, ys)])

    rng = np.random.default_rng(5)
    y0 = np.column_stack([rng.uniform(-1, 1, 6), rng.uniform(-2, 2, 6),
                          rng.uniform(-1, 1, 6),
                          [0.5, 0.2, 1.5, -0.3, 3.0, 0.1]])
    y0[2, 1] = 4.0  # leaves the chart
    t1 = rng.uniform(1.0, 3.0, 6)
    caps = [math.inf, 0.05, math.inf, 0.1, math.inf, math.inf]
    outcomes, stats = solve_rk45(fun, 0.0, t1, y0, max_step=caps)
    reasons = []
    for r, got in enumerate(outcomes):
        try:
            want, want_stats = solve_rk45(_toy_point_field, 0.0, t1[r], y0[r],
                                          max_step=caps[r])
        except IntegrationFailure as exc:
            assert isinstance(got, IntegrationFailure)
            assert (got.reason, got.u, got.phase) == (exc.reason, exc.u,
                                                      exc.phase)
            assert np.array_equal(got.state, exc.state)
            assert np.array_equal(got.partial.ys, exc.partial.ys)
            reasons.append(exc.reason)
            continue
        assert stats["rows"][r] == want_stats
        for attr in ("ts", "ys", "coeffs"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert sorted(reasons) == ["blow_up", "chart_escape"]
    for key in ("n_steps", "n_rejected", "n_rhs"):
        assert stats[key] == sum(row[key] for row in stats["rows"])
        assert type(stats[key]) is int


def test_hyperbolic_linear_width_rows_repeat_single_trajectories():
    # the hyperbolic chart and the linear profile round each point as its
    # batch row, so every width row repeats its single trajectory byte for
    # byte; data perturbed as in criterion 4
    scen = next(s for s in scenarios.builtin_scenarios()
                if s.name == "hyperbolic_half_plane-linear")
    widths = [0.2, 0.05, 0.01, 0.003]
    rng = np.random.default_rng(0)
    for _ in range(12):
        data = InitialData(scen.data.x0 + rng.uniform(-0.05, 0.05, 2),
                           scen.data.xdot0 + rng.uniform(-0.15, 0.15, 2))
        rows = integrate_impulsive_geodesic(scen.model, scen.profile, NET,
                                            widths, data, 1.0)
        for eps, row in zip(widths, rows):
            want = integrate_impulsive_geodesic(scen.model, scen.profile, NET,
                                                eps, data, 1.0)
            assert _counts(row.diagnostics) == _counts(want.diagnostics)
            for got_piece, want_piece in zip(row.pieces, want.pieces,
                                             strict=True):
                _assert_same_piece(got_piece, want_piece)


@pytest.mark.parametrize("coeffs", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                         ids=["x1", "x2"])
def test_three_d_width_rows_repeat_single_trajectories(coeffs):
    # the 8 entries of a 3-D state take the pairwise sum of the 1-D loop's
    # error norm (odesolve._point_error_norm, len(ratios) >= 8), which no
    # 2-D state reaches; the coefficients stay on an axis, where the point
    # field's BLAS df @ xd and the ensemble's einsum round alike
    flat3 = geometry.euclidean(3)
    prof = profiles.linear_profile(coeffs)
    data = InitialData([0.1, -0.2, 0.3], [0.6, 0.4, -0.5])
    widths = [0.1, 0.05, 0.02]
    rows = integrate_impulsive_geodesic(flat3, prof, NET, widths, data, 1.0)
    for eps, row in zip(widths, rows):
        want = integrate_impulsive_geodesic(flat3, prof, NET, eps, data, 1.0)
        assert _counts(row.diagnostics) == _counts(want.diagnostics)
        for got_piece, want_piece in zip(row.pieces, want.pieces,
                                         strict=True):
            _assert_same_piece(got_piece, want_piece)


# row r of a damped oscillator, written alike for a point and a batch, is
# undefined past t = _EDGE[r]
_EDGE = np.array([0.5, 0.5 + 1e-6, math.inf])


def _damped(y0, y1):
    return -0.1 * y0 + y1, -y0 - 0.1 * y1


def _edged_point_field(r):
    def fun(t, y):
        if t > _EDGE[r]:
            raise ChartDomainError("past the row's edge")
        return np.array(_damped(y[0], y[1]))
    return fun


def test_rows_failing_in_one_step_keep_the_single_trajectory_bits():
    # rows 0 and 1 start alike and fail at the same stage of the same
    # step; every row, failed or not, repeats the 1-D loop byte for byte,
    # counts included
    joint = []

    def fun(t, ys, rows):
        bad = t > _EDGE[rows]
        if bad.any():
            if len(rows) > 1:
                joint.append(int(bad.sum()))
            raise ChartDomainError("past a row's edge")
        return np.column_stack(_damped(ys[:, 0], ys[:, 1]))

    y0 = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, -0.3]])
    outcomes, stats = solve_rk45(fun, 0.0, 1.0, y0)
    assert max(joint) == 2
    for r, got in enumerate(outcomes):
        try:
            want, want_counts = solve_rk45(_edged_point_field(r), 0.0, 1.0,
                                           y0[r])
        except IntegrationFailure as exc:
            diag = exc.diagnostics
            want, want_counts = exc, {"n_steps": diag.n_steps,
                                      "n_rejected": diag.n_rejected,
                                      "n_rhs": diag.n_rhs}
        assert stats["rows"][r] == want_counts
        assert type(got) is type(want)
        if isinstance(want, IntegrationFailure):
            assert want.reason == "chart_escape"
            assert (got.reason, got.u.hex(), got.phase) == (
                want.reason, want.u.hex(), want.phase)
            assert got.state.tobytes() == want.state.tobytes()
            got, want = got.partial, want.partial
        for attr in ("ts", "ys", "coeffs"):
            assert (getattr(got, attr).tobytes()
                    == getattr(want, attr).tobytes())
    assert [isinstance(got, IntegrationFailure) for got in outcomes] == [
        True, True, False]


def test_ensemble_chart_escape_row_fails_alone():
    # flat metric on the chart x1 < 0.5: the first row reaches the edge at
    # u = -0.5; its difference neighbours fail first, and only its own row
    flat = geometry.from_metric(2, lambda x: np.eye(2),
                                chart_domain=lambda x: x[0] < 0.5)
    bump = profiles.gaussian_bump_profile(1.0, [0.2, 0.1], 0.5)
    y0 = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.2, 0.3, 0.0, 0.1],
                   [-0.3, 0.1, 0.1, -0.2, 0.5, 0.0]])

    def run(rows):
        fun = dynamics._ensemble_system(flat, bump, NET, [0.1] * len(rows))
        return solve_rk45(fun, -1.0, 0.3, y0[rows], phase="pre")

    (escaped, *kept), stats = run([0, 1, 2])
    assert isinstance(escaped, IntegrationFailure)
    assert escaped.reason == "chart_escape" and escaped.phase == "pre"
    assert escaped.u == pytest.approx(-0.5, abs=1e-5)
    assert stats["rows"][0]["n_steps"] > 0
    alone, _ = run([1, 2])
    for got, want in zip(kept, alone):
        for attr in ("ts", "ys", "coeffs"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


def test_hyperbolic_widths_row_leaving_the_chart_fails_alone():
    # f = 10 a x2^-0.1 grows exponentially in the distance towards x2 = 0.
    # After the widest strip that row heads down so fast that x2 decays
    # through the subnormal doubles before u = 1 and reaches 0.  Its stages
    # pass the one batch chart check while 1/x2 overflows to inf (a
    # non-finite stage; errstate quiets the overflow), then fail it: a
    # chart escape in that row only.  Every row repeats its single call
    # byte for byte.
    hyp = geometry.hyperbolic_half_plane()
    a = 300.0
    steep = profiles.WaveProfile(lambda x: 10.0 * a * x[1] ** -0.1,
                                 lambda x: np.array([0.0, -a * x[1] ** -1.1]))
    data = InitialData([0.0, 1.0], [0.3, 0.0])
    widths = [0.2, 0.1, 0.05]
    with np.errstate(over="ignore"):
        escaped, *kept = integrate_impulsive_geodesic(hyp, steep, NET, widths,
                                                      data, 1.0)
        with pytest.raises(IntegrationFailure) as single:
            integrate_impulsive_geodesic(hyp, steep, NET, widths[0], data, 1.0)
        alone = [integrate_impulsive_geodesic(hyp, steep, NET, w, data, 1.0)
                 for w in widths[1:]]
    assert isinstance(escaped, IntegrationFailure)
    assert escaped.reason == "chart_escape"
    assert (escaped.u, escaped.phase) == (single.value.u, single.value.phase)
    assert escaped.state.tobytes() == single.value.state.tobytes()
    for got, want in zip(kept, alone):
        assert not isinstance(got, IntegrationFailure)
        assert len(got.pieces) == len(want.pieces) == 3
        for piece, want_piece in zip(got.pieces, want.pieces):
            _assert_same_piece(piece, want_piece)


def _written_out_step(fun, check, t, y, f, h, t_new):
    """The Dormand-Prince trial step with every stage combination written
    out term by term, from 0 and left to right: the reference for the
    reductions of ``odesolve._step``."""
    c2, c3, c4, c5, c6 = odesolve._C
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76)) = odesolve._A
    e1, e2, e3, e4, e5, e6, e7 = odesolve._ERR
    k1 = f
    k2 = check(fun, t + c2 * h, y + h * (0 + a21 * k1))
    k3 = check(fun, t + c3 * h, y + h * (0 + a31 * k1 + a32 * k2))
    k4 = check(fun, t + c4 * h, y + h * (0 + a41 * k1 + a42 * k2 + a43 * k3))
    k5 = check(fun, t + c5 * h,
               y + h * (0 + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
    k6 = check(fun, t + c6 * h,
               y + h * (0 + a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4
                        + a65 * k5))
    y_new = y + h * (0 + a71 * k1 + a72 * k2 + a73 * k3 + a74 * k4
                     + a75 * k5 + a76 * k6)
    k7 = check(fun, t_new, y_new)
    err = h * (0 + e1 * k1 + e2 * k2 + e3 * k3 + e4 * k4 + e5 * k5
               + e6 * k6 + e7 * k7)
    return y_new, err, (k1, k2, k3, k4, k5, k6, k7)


def _awkward(rng, shape):
    """Values of both signs from 1e-8 to 1e8, with signed zeros."""
    v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
    v[rng.random(shape) < 0.15] = 0.0
    v[rng.random(shape) < 0.15] = -0.0
    return v


@pytest.mark.parametrize("shape", [(6,), (5, 6)], ids=["point", "ensemble"])
def test_step_reductions_repeat_the_written_out_chain(shape):
    # the stage sums of odesolve._step are numpy reductions over the stage
    # axis; they keep every bit only while numpy adds that axis in order,
    # so a numpy that sums it otherwise fails here.  A single trajectory
    # takes odesolve._point_step, which writes the sums out on floats.
    rng = np.random.default_rng(17)
    point = len(shape) == 1
    for _ in range(200):
        y, f = _awkward(rng, shape), _awkward(rng, shape)
        slopes = [_awkward(rng, shape) for _ in range(6)]
        # one component of mostly negative zeros: a sum from 0.0 gives +0.0
        # there, a sum from its first term -0.0
        d = rng.integers(shape[-1])
        for v in [y, f] + slopes:
            v[..., d] = np.where(rng.random(shape[:-1]) < 0.8, -0.0, 0.0)
        # (m, 1) columns for an ensemble, floats for a point, as in the loops
        t = rng.uniform(-1.0, 1.0, shape[:-1] + (1,))
        h = 10.0 ** rng.uniform(-6, 0, t.shape)
        if point:
            t, h = float(t[0]), float(h[0])
        outputs = []
        for step in ((odesolve._point_step if point else odesolve._step),
                     _written_out_step):
            seen = []
            floats = point and step is odesolve._point_step

            def check(fun, ts, ys):
                seen.append((np.array(ts), np.array(ys)))
                slope = slopes[len(seen) - 1]
                return slope.tolist() if floats else slope

            args = (y.tolist(), f.tolist()) if floats else (y, f)
            y_new, err, k = step(None, check, t, args[0], args[1], h, t + h)
            outputs.append([np.array(y_new), np.array(err), np.array(k)]
                           + [a for pair in seen for a in pair])
        for got, want in zip(*outputs):
            assert got.tobytes() == want.tobytes()


def _undefined_beyond_two(t, y):
    # NaN wherever y[0] > 2, so undefined at such an initial state
    if y[0] > 2.0:
        return np.full(3, np.nan)
    return np.array([y[1], -y[0], 0.5 * y[2]])


def test_undefined_initial_state_is_a_chart_escape():
    with pytest.raises(IntegrationFailure,
                       match="right-hand side undefined at the initial "
                             "state") as err:
        solve_rk45(_undefined_beyond_two, 0.0, 1.0, np.array([3.0, 0.0, 1.0]))
    assert err.value.reason == "chart_escape" and err.value.u == 0.0

    # in an ensemble only that row fails, and the other runs as alone
    def fun(t, ys, rows):
        return np.array([_undefined_beyond_two(u, y) for u, y in zip(t, ys)])

    y0 = np.array([[3.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    (failed, path), _ = solve_rk45(fun, 0.0, 1.0, y0)
    assert isinstance(failed, IntegrationFailure)
    assert failed.reason == "chart_escape"
    assert "undefined at the initial state" in str(failed)
    alone, _ = solve_rk45(_undefined_beyond_two, 0.0, 1.0, y0[1])
    for attr in ("ts", "ys", "coeffs"):
        assert np.array_equal(getattr(path, attr), getattr(alone, attr))


def test_christoffel_term_repeats_einsum():
    # the point field contracts -Gamma(xd, xd) on floats, summing over i,
    # then j, from 0.0 (written out term by term at n = 2); it keeps the
    # bits of np.einsum("kij,i,j->k") only while einsum sums in that order,
    # so a numpy that sums otherwise fails here.  Each chart's symbols go in
    # as its callback returns them (nested lists on the built-in charts, an
    # array from the difference fallback) and as an array; velocities carry
    # signed zeros and magnitudes 1e-8 to 1e8.
    rng = np.random.default_rng(29)
    user3 = geometry.from_metric(
        3, lambda x: np.diag([1.0 + x[0] ** 2, 2.0 + math.sin(x[1]),
                              1.5 + x[2] ** 2]) + 0.1 * np.outer(x, x))

    def plane(low):
        return lambda: [rng.choice([0.0, -0.0, rng.uniform(-2.0, 2.0)]),
                        rng.uniform(low, 3.0)]

    charts = [
        (geometry.hyperbolic_half_plane(), plane(0.1)),
        (geometry.sphere_stereographic(), plane(-2.0)),
        (geometry.euclidean(2), plane(-2.0)),
        (geometry.euclidean(3), lambda: rng.uniform(-1.0, 1.0, 3)),
        (user3, lambda: rng.uniform(-1.0, 1.0, 3)),
    ]
    for model, point in charts:
        for _ in range(100):
            raw = model._point_christoffel(np.array(point(), dtype=float))
            gamma = np.array(raw, dtype=float)
            xd = _awkward(rng, model.dim)
            want = -np.einsum("kij,i,j->k", gamma, xd, xd)
            for given in (raw, gamma):
                got = np.array(dynamics._christoffel_term(given, xd.tolist()))
                assert got.tobytes() == want.tobytes(), model.name
    # symbols with signed zeros and awkward magnitudes of their own, on the
    # written-out n = 2 and on the loop of every other n
    for n in (1, 2, 3, 4):
        for _ in range(500):
            gamma, xd = _awkward(rng, (n, n, n)), _awkward(rng, n)
            want = -np.einsum("kij,i,j->k", gamma, xd, xd)
            for given in (gamma, gamma.tolist()):
                got = np.array(dynamics._christoffel_term(given, xd.tolist()))
                assert got.tobytes() == want.tobytes(), n


def test_ensemble_field_matches_point_field():
    # rows inside and outside their own strips, on a curved chart; each row
    # agrees with the per-point field and does not depend on the batch
    # (a custom profile without batch forms takes the per-row fallbacks of
    # f and of the FD df).  The forced rows of a call take three layouts:
    # some rows (an index array), every row (views of the batch) and none;
    # a row's bytes are the same in each.
    hyp = geometry.hyperbolic_half_plane()
    bump = profiles.gaussian_bump_profile(1.0, [0.8, 1.2], 0.8)
    custom = profiles.WaveProfile(lambda x: 0.5 * x[0] * x[1])
    eps = [0.1, 0.05, 0.2, 0.1, 0.02]
    inside = np.array([-0.05, 0.02, 0.1, 0.07, 0.0])
    outside = np.array([0.5, 0.3, -0.4, -0.5, 0.03])
    forced = np.array([True, False, True, False, True])
    us = np.where(forced, inside, outside)
    rng = np.random.default_rng(8)
    ys = np.column_stack([rng.uniform(-0.5, 0.5, 5), rng.uniform(0.5, 1.5, 5),
                          rng.uniform(-1, 1, (5, 4))])
    rows = np.arange(5)
    for prof in (bump, custom):
        field = dynamics._ensemble_system(hyp, prof, NET, eps)
        batch = field(us, ys, rows)
        every, none = field(inside, ys, rows), field(outside, ys, rows)
        assert np.all(every[:, -1] != 0.0) and np.all(none[:, -1] == 0.0)
        for i in rows:
            point = dynamics._system(hyp, prof, NET, eps[i])(float(us[i]),
                                                              ys[i])
            np.testing.assert_allclose(batch[i], point, rtol=1e-13,
                                       atol=1e-15)
            alone = dynamics._ensemble_system(hyp, prof, NET, [eps[i]])
            for u, got in ((us, batch), (inside, every), (outside, none)):
                one = alone(u[i:i + 1], ys[i:i + 1], np.array([0]))
                assert one[0].tobytes() == got[i].tobytes()
            mixed = every if forced[i] else none
            assert mixed[i].tobytes() == batch[i].tobytes()


def test_width_rows_do_not_depend_on_the_batch():
    # one widths ensemble, its reverse and each width as an ensemble of one
    # give every width the same bytes and counts: inside the strips the
    # forced rows take every layout of the field, views and gathers alike
    scen = next(s for s in scenarios.builtin_scenarios()
                if s.name == "sphere_stereographic-gaussian_bump")
    widths = [0.016, 0.008, 0.004, 0.002]
    ends = [1.0, 0.5, 1.0, 0.25]

    def run(order):
        return integrate_impulsive_geodesic(
            scen.model, scen.profile, NET, [widths[i] for i in order],
            scen.data, [ends[i] for i in order])

    forward = run([0, 1, 2, 3])
    backward = run([3, 2, 1, 0])[::-1]
    for i, row in enumerate(forward):
        for got in (backward[i], run([i])[0]):
            assert _counts(got.diagnostics) == _counts(row.diagnostics)
            for got_piece, want_piece in zip(got.pieces, row.pieces,
                                             strict=True):
                _assert_same_piece(got_piece, want_piece)


def test_step_limit_fails_alone_with_its_partial_path(monkeypatch):
    # a row whose step cap needs 60 steps runs out of a budget of 20 steps;
    # beside it a short row finishes
    monkeypatch.setattr(odesolve, "_MAX_STEPS", 20)
    y0 = np.array([[0.5, 0.0, 0.2, 0.1], [0.1, 0.3, -0.2, 0.1]])
    with pytest.raises(IntegrationFailure) as err:
        solve_rk45(_toy_point_field, 0.0, 3.0, y0[0], max_step=0.05)
    want = err.value
    assert want.reason == "step_limit" and 0.0 < want.u < 3.0
    assert want.partial.t1 == want.u

    def fun(t, ys, rows):
        return np.array([_toy_point_field(float(u), y) for u, y in zip(t, ys)])

    (got, short), stats = solve_rk45(fun, 0.0, [3.0, 0.3], y0,
                                     max_step=[0.05, math.inf])
    assert isinstance(got, IntegrationFailure) and got.reason == "step_limit"
    assert got.u == want.u and np.array_equal(got.state, want.state)
    assert np.array_equal(got.partial.ts, want.partial.ts)
    assert np.array_equal(got.partial.ys, want.partial.ys)
    assert isinstance(short, DensePath) and short.t1 == 0.3
    assert stats["rows"][1]["n_steps"] + stats["rows"][1]["n_rejected"] < 20


def _nan_after(t, y):
    if t > 0.7:
        return np.full(3, np.nan)
    return np.array([y[1], -y[0], 0.5 * y[2]])


def _inf_in_one(t, y):
    return np.array([y[1], -y[0], math.inf if t > 0.45 else 0.5 * y[2]])


@pytest.mark.parametrize("fun, u, n_nodes", [
    (_nan_after, 0.6999999999999958, 37),
    (_inf_in_one, 0.4499999999999926, 28),
])
def test_non_finite_stages_end_in_chart_escape(fun, u, n_nodes):
    # a stage with a NaN, or an infinity in one component, is retried at
    # half the step until the step collapses; u and the node count are
    # pinned, so the loop must flag exactly the same stages
    with pytest.raises(IntegrationFailure) as err:
        solve_rk45(fun, 0.0, 2.0, np.array([1.0, 0.0, 1.0]))
    exc = err.value
    assert exc.reason == "chart_escape"
    assert exc.u == u and exc.partial.t1 == u
    assert exc.partial.ts.size == n_nodes
    assert np.array_equal(exc.state, exc.partial.ys[-1])


def test_field_checks_the_chart_once_per_call(monkeypatch):
    # the anchor trajectory: sphere, gaussian bump, eps = 0.01, u_end = 1
    scen = next(s for s in scenarios.builtin_scenarios()
                if s.name == "sphere_stereographic-gaussian_bump")
    contains = geometry.ManifoldModel.contains
    solve = dynamics.solve_rk45
    calls = {"field": 0, "contains": 0}
    in_field = []

    def counted_contains(self, x):
        if in_field:
            calls["contains"] += 1
        return contains(self, x)

    def solve_counted(fun, *args, **kwargs):
        def field(u, y):
            calls["field"] += 1
            in_field.append(True)
            try:
                return fun(u, y)
            finally:
                in_field.pop()
        return solve(field, *args, **kwargs)

    monkeypatch.setattr(geometry.ManifoldModel, "contains", counted_contains)
    monkeypatch.setattr(dynamics, "solve_rk45", solve_counted)
    path = integrate_impulsive_geodesic(scen.model, scen.profile, NET, 0.01,
                                        scen.data, 1.0)
    assert path.diagnostics.n_steps == 287
    assert calls["field"] > 287 and calls["contains"] == calls["field"]


def test_point_field_raises_outside_the_chart():
    hyp = geometry.hyperbolic_half_plane()
    bump = profiles.gaussian_bump_profile(1.0, [0.8, 1.2], 0.8)
    user = geometry.from_metric(2, lambda x: np.eye(2) / x[1] ** 2,
                                chart_domain=lambda x: x[1] > 0.0)
    fields = [dynamics._system(model, prof, net, 0.1)
              for model in (hyp, user)
              for prof, net in ((bump, NET), (None, None))]
    xd = [0.3, -0.2, 0.0, 0.1]
    for fun in fields:
        assert np.isfinite(fun(0.0, np.array([0.1, 1.0] + xd))).all()
        for x in ([0.1, 0.0], [0.1, -1.0], [np.nan, 1.0], [0.1, np.nan]):
            for u in (0.0, 0.5):  # inside and outside the strip
                with pytest.raises(ChartDomainError):
                    fun(u, np.array(x + xd))


def _node_energies(path, model, profile=None, net=None, eps=None):
    n = path.n
    return np.array([
        lagrangian_energy(GeodesicState(u, y[:n], y[n:2 * n], y[2 * n],
                                        y[2 * n + 1]), model, profile, net,
                          eps)
        for piece in path.pieces for u, y in zip(piece.ts, piece.ys)])


def _assert_energy_diagnostics(path, energies, e0):
    diag = path.diagnostics
    assert np.float64(diag.energy_start).tobytes() == np.float64(e0).tobytes()
    drift = float(np.max(np.abs(energies - e0)))
    assert abs(diag.energy_drift - drift) <= 4 * np.spacing(
        np.max(np.abs(energies)))


@pytest.mark.parametrize("net", [profiles.mollifier_net(),
                                 profiles.asymmetric_net(),
                                 profiles.signed_net()], ids=lambda n: n.name)
def test_batch_energy_diagnostics_match_node_energies(net):
    # the batch over the nodes against lagrangian_energy node by node
    for scen in scenarios.builtin_scenarios():
        path = integrate_impulsive_geodesic(scen.model, scen.profile, net,
                                            0.01, scen.data, 1.0)
        e0 = lagrangian_energy(path.state_at(path.u_start), scen.model,
                               scen.profile, net, 0.01)
        _assert_energy_diagnostics(
            path, _node_energies(path, scen.model, scen.profile, net, 0.01),
            e0)


def test_batch_energy_diagnostics_of_a_background_path():
    hyp = geometry.hyperbolic_half_plane()
    path = geometry.background_geodesic(hyp, [0.1, 1.0], [0.6, 0.4], -1.0,
                                        1.0)
    e0 = lagrangian_energy(path.state_at(path.u_start), hyp)
    _assert_energy_diagnostics(path, _node_energies(path, hyp), e0)


def test_background_failure_carries_a_geodesic_path():
    # flat metric on the chart x1 < 0.5: the background geodesic from the
    # origin leaves it at u = 0.5; its partial path is a GeodesicPath whose
    # one piece is the solver's own partial path
    flat = geometry.from_metric(2, lambda x: np.eye(2),
                                chart_domain=lambda x: x[0] < 0.5)
    with pytest.raises(IntegrationFailure) as err:
        dynamics.background_path(flat, [0.0, 0.0], [1.0, 0.2], 0.0, 2.0)
    exc = err.value
    assert exc.reason == "chart_escape" and exc.phase == "background"
    assert isinstance(exc.partial, dynamics.GeodesicPath)
    assert exc.partial.phase_marks is None
    with pytest.raises(IntegrationFailure) as direct:
        solve_rk45(dynamics._system(flat, None, None, None), 0.0, 2.0,
                   np.array([0.0, 0.0, 1.0, 0.2, 0.0, 0.0]),
                   phase="background")
    (piece,) = exc.partial.pieces
    for attr in ("ts", "ys", "coeffs"):
        assert (getattr(piece, attr).tobytes()
                == getattr(direct.value.partial, attr).tobytes())
    assert exc.u == direct.value.u
    assert exc.state.tobytes() == direct.value.state.tobytes()


def test_initial_data_of_the_wrong_dimension_is_a_config_error():
    data = InitialData([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ConfigError, match="dimension"):
        integrate_impulsive_geodesic(EU, LINEAR, NET, 0.1, data, 1.0)
    with pytest.raises(ConfigError, match="dimension"):
        integrate_impulsive_geodesic(EU, LINEAR, NET, [0.1, 0.05], data, 1.0)


def test_path_needs_contiguous_pieces():
    a = DensePath([0.0, 1.0], np.zeros((2, 6)), np.zeros((1, 6, 4)))
    b = DensePath([1.5, 2.0], np.zeros((2, 6)), np.zeros((1, 6, 4)))
    with pytest.raises(ConfigError, match="at least one piece"):
        dynamics.GeodesicPath(2, [])
    with pytest.raises(ConfigError, match="not contiguous"):
        dynamics.GeodesicPath(2, [a, b])


def test_vdot_at_is_the_last_state_component():
    # flat linear profile: past the strip vdot has dropped by exactly 5/8,
    # the kink of the sharp limit
    data = InitialData([0.0, 0.0], [1.0, 0.0], vdot0=0.3)
    path = integrate_impulsive_geodesic(EU, LINEAR, NET, 0.05, data, 1.0)
    us = np.array([-0.5, 0.5, 1.0])
    assert np.array_equal(path.vdot_at(us), path.sample(us)[:, 5])
    assert path.vdot_at(-0.5) == 0.3
    np.testing.assert_allclose(path.vdot_at(us[1:]), 0.3 - 0.625,
                               rtol=0.0, atol=1e-9)


def test_first_step_when_the_field_fails_at_the_trial_point():
    # y' = 1 from y = 1 guesses h0 = 0.01; the field raises there once, so
    # the first step is h0 / 1000
    calls = []

    def fun(t, y):
        calls.append(t)
        if len(calls) == 2:
            assert t == 0.01
            raise ChartDomainError("undefined at the trial point")
        return np.ones(1)

    path, stats = solve_rk45(fun, 0.0, 1.0, np.array([1.0]))
    assert path.ts[1] == 0.01 * 1e-3
    assert path.t1 == 1.0 and path.ys[-1, 0] == pytest.approx(2.0, abs=1e-12)


def test_first_step_of_a_zero_field():
    # d1 = d2 = 0: the first step is max(1e-6, h0 / 1000) with h0 = 1e-6
    path, stats = solve_rk45(lambda t, y: np.zeros(2), 0.0, 1.0,
                             np.array([1.0, -2.0]))
    assert path.ts[1] == 1e-6
    assert path.t1 == 1.0 and np.all(path.ys == [1.0, -2.0])
    assert stats["n_rejected"] == 0


def _background_rows(model, x0, velocities, tol):
    """One background ensemble from ``x0``, one row per velocity, over
    ``[0, 1]``."""
    return dynamics.background_path(model, x0, velocities, 0.0, 1.0,
                                    rtol=tol, atol=tol)


def _assert_same_piece(got, want):
    for attr in ("ts", "ys", "coeffs"):
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()


@pytest.mark.parametrize("model, x0", [
    (geometry.from_metric(
        2, lambda x: 4.0 / (1.0 + float(x @ x)) ** 2 * np.eye(2),
        name="sphere_from_metric"), [0.2, -0.1]),
    (geometry.sphere_stereographic(), [0.2, -0.1]),
    (geometry.hyperbolic_half_plane(), [0.1, 1.0]),
    (geometry.euclidean(2), [0.3, 0.2]),
], ids=["sphere_from_metric", "sphere", "hyperbolic", "euclidean"])
def test_background_ensemble_rows_equal_single_paths(model, x0):
    # the no-net ensemble field computes per row what the background point
    # field computes, so each row repeats background_path bit for bit
    x0 = np.array(x0)
    dirs = np.array([[math.cos(a), math.sin(a)] for a in (0.3, 1.9, 3.5, 5.1)])
    speed = np.einsum("bi,ij,bj->b", dirs, model.metric_at(x0), dirs)
    velocities = dirs / np.sqrt(speed)[:, None]
    rows = _background_rows(model, x0, velocities, 1e-9)
    for w, got in zip(velocities, rows):
        want = dynamics.background_path(model, x0, w, 0.0, 1.0, rtol=1e-9,
                                        atol=1e-9)
        assert got.phase_marks is None
        (piece,), (want_piece,) = got.pieces, want.pieces
        _assert_same_piece(piece, want_piece)
        for key in ("n_steps", "n_rejected", "n_rhs"):
            assert (getattr(got.diagnostics, key)
                    == getattr(want.diagnostics, key))


def test_background_ensemble_row_leaving_the_chart_fails_alone():
    # flat metric on the chart x1 < 0.5: only the second velocity reaches
    # the edge before u = 1; its failure and partial path are those of the
    # single background path, and the other rows are those of a batch
    # without it
    flat = geometry.from_metric(2, lambda x: np.eye(2),
                                chart_domain=lambda x: x[0] < 0.5)
    x0 = np.zeros(2)
    velocities = np.array([[0.0, 1.0], [1.0, 0.2], [-1.0, 0.0], [0.3, -0.9]])
    velocities /= np.linalg.norm(velocities, axis=1)[:, None]
    rows = _background_rows(flat, x0, velocities, 1e-9)
    escaped = rows[1]
    assert isinstance(escaped, IntegrationFailure)
    assert escaped.reason == "chart_escape" and escaped.phase == "background"
    assert isinstance(escaped.partial, dynamics.GeodesicPath)
    assert escaped.partial.phase_marks is None
    with pytest.raises(IntegrationFailure) as single:
        dynamics.background_path(flat, x0, velocities[1], 0.0, 1.0,
                                 rtol=1e-9, atol=1e-9)
    assert escaped.u == single.value.u
    assert escaped.state.tobytes() == single.value.state.tobytes()
    (piece,), (want,) = escaped.partial.pieces, single.value.partial.pieces
    _assert_same_piece(piece, want)
    alone = _background_rows(flat, x0, velocities[[0, 2, 3]], 1e-9)
    for got, want in zip([rows[0], rows[2], rows[3]], alone):
        _assert_same_piece(got.pieces[0], want.pieces[0])
        assert got.diagnostics.n_rhs == want.diagnostics.n_rhs


def _counts(diag):
    return diag.n_steps, diag.n_rejected, diag.n_rhs


def test_failures_count_the_work_done_before_them():
    # on the sphere's chart, a profile constant in x1 keeps the geodesic up
    # the x2-axis through the strip, and it leaves for infinity after it
    sphere = geometry.sphere_stereographic()
    prof = profiles.linear_profile([0.0, 0.2])
    data = InitialData([0.0, 0.5], [0.0, 0.5])
    with pytest.raises(IntegrationFailure) as alone:
        integrate_impulsive_geodesic(sphere, prof, NET, 0.1, data, 6.0)
    with pytest.raises(IntegrationFailure) as background:
        dynamics.background_path(sphere, [0.0, 0.5], [0.0, 30.0], 0.0, 5.0)
    # the second row ends before it blows up
    row, done = integrate_impulsive_geodesic(sphere, prof, NET, [0.1, 0.05],
                                             data, [6.0, 1.0])
    assert alone.value.phase == "post" and len(alone.value.partial.pieces) == 3
    assert background.value.reason == "blow_up"
    assert isinstance(done, dynamics.GeodesicPath)
    for failure in (alone.value, background.value, row):
        diag = failure.diagnostics
        assert diag.n_steps == sum(len(p.ts) - 1
                                   for p in failure.partial.pieces)
        assert diag.n_rhs > 6 * diag.n_steps
        assert _counts(failure.partial.diagnostics) == _counts(diag)
    assert (row.reason, row.phase, row.u) == (
        alone.value.reason, alone.value.phase, alone.value.u)
    assert row.state.tobytes() == alone.value.state.tobytes()
    assert _counts(row.diagnostics) == _counts(alone.value.diagnostics)


_PATH = dynamics.background_path(EU, [0.0, 0.0], [1.0, 0.0], 0.0, 1.0)
DATA = InitialData([0.0, 0.0], [1.0, 0.0])
_LIMIT = limits.limit_geodesic(EU, LINEAR, DATA)
SPHERE = geometry.sphere_stereographic()
# profiles whose parameters fix dimension 3, paired with 2-D models below
LINEAR3 = profiles.linear_profile([1.0, 0.0, 0.0])
BUMP3 = profiles.gaussian_bump_profile(1.0, [0.0, 0.0, 0.0], 0.8)
QUADRATIC3 = profiles.quadratic_form_profile(np.eye(3))
RADIAL3 = profiles.radial_power_profile(1.0, 2.0, [0.0, 0.0, 0.0])
STATE = GeodesicState(0.0, np.zeros(2), np.array([1.0, 0.0]), 0.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda: geometry.background_geodesic(geometry.euclidean(2), [0.0, 0.0],
                                         [1.0, 0.0, 0.0], 0.0, 1.0),
    lambda: dynamics.background_path(EU, [0.0, 0.0], [1.0, 0.0], 1.0, 0.0),
    lambda: limits.limit_geodesic(EU, LINEAR,
                                  InitialData([0.0, 0.0], [1.0, 0.0]),
                                  u_end=-0.5),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0], [1.0, 0.0, 0.0]),
    lambda: existence.picard_solve(EU, LINEAR, NET, 0.1, [0.0, 0.0],
                                   [1.0, 0.0, 0.0], 0.5),
    lambda: existence.picard_solve(EU, LINEAR, NET, -0.1, [0.0, 0.0],
                                   [1.0, 0.0], 0.5),
    lambda: _PATH.sample(1.5),
    lambda: EU.inside(np.zeros((4, 3))),
    lambda: DensePath([0.0], np.zeros((1, 6)), np.zeros((0, 6, 4))),
    lambda: solve_rk45(_toy_point_field, 1.0, 0.0, np.array([1.0, 0.0, 1.0])),
    lambda: InitialData([0.0, math.inf], [1.0, 0.0]),
    lambda: InitialData([0.0, 0.0], [1.0, 0.0], vdot0=math.nan),
    lambda: dynamics.background_path(EU, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                     0.0, 1.0),
    lambda: dynamics.background_path(EU, [0.0, 0.0], np.ones((2, 2, 2)),
                                     0.0, 1.0),
    lambda: integrate_impulsive_geodesic(EU, LINEAR, NET, [[0.1]], DATA, 1.0),
    lambda: integrate_impulsive_geodesic(EU, LINEAR, NET, [0.1, 0.05], DATA,
                                         [1.0, 1.0, 1.0]),
    lambda: integrate_impulsive_geodesic(EU, LINEAR, NET, [0.1, math.nan],
                                         DATA, 1.0),
    lambda: _PATH.sample(math.nan),
    lambda: existence.alpha_bound(1.0, 1.0, 1.0, math.nan, 0.0, 1.0),
    lambda: existence.alpha_bound(math.nan, 1.0, 1.0, 0.0, 0.0, 1.0),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0], [1.0, 0.0], b=math.nan),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0], [1.0, 0.0], c=math.nan),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0], [1.0, 0.0], k=math.nan),
    lambda: existence.picard_solve(EU, LINEAR, NET, 0.1, [0.0, 0.0],
                                   [1.0, 0.0], math.nan),
    lambda: existence.picard_solve(EU, LINEAR, NET, 0.1, [0.0, 0.0],
                                   [1.0, 0.0], 0.5, tol=math.nan),
    lambda: profiles.verify_strict_delta_net(NET, [math.inf, 0.25]),
    lambda: profiles.classify_growth(LINEAR, EU, [0.0, 0.0], [[1.0, 0.0, 0.0]],
                                     [1.0, 2.0]),
    lambda: profiles.classify_growth(LINEAR, EU, [0.0, 0.0], [[1.0, 0.0]],
                                     [math.nan, 1.0]),
    lambda: profiles.classify_growth(LINEAR, EU, [0.0, 0.0], [[1.0, 0.0]],
                                     [1.0, 2.0], margin=math.nan),
    lambda: profiles.classify_growth(LINEAR, EU, [0.0, 0.0], [[1.0, 0.0]],
                                     [1.0, 2.0], margin=-1.0),
    lambda: profiles.classify_growth(LINEAR, EU, [0.0, 0.0], [[1.0, 0.0]],
                                     [1.0, 2.0], margin=math.inf),
    lambda: limits.convergence_study(EU, LINEAR, NET, DATA, [], [0.5]),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0], [1.0, 0.0], grid=9.5),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0], [1.0, 0.0], grid=10.0),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0], [1.0, 0.0], b=math.inf),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0], [1.0, 0.0], c=math.inf),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0], [1.0, 0.0], k=math.inf),
    lambda: existence.alpha_bound(1.0, math.inf, 1.0, 0.0, 0.0, 1.0),
    lambda: existence.picard_solve(EU, LINEAR, NET, 0.1, [0.0, 0.0],
                                   [1.0, 0.0], math.inf),
    lambda: existence.picard_solve(EU, LINEAR, NET, 0.1, [0.0, 0.0],
                                   [1.0, 0.0], 0.5, tol=math.inf),
    lambda: integrate_impulsive_geodesic(EU, LINEAR, NET, 0.1, DATA,
                                         math.inf),
    lambda: integrate_impulsive_geodesic(EU, LINEAR, NET, [0.1, 0.05], DATA,
                                         math.inf),
    lambda: dynamics.background_path(EU, [0.0, 0.0], [1.0, 0.0], -math.inf,
                                     0.0),
    lambda: limits.limit_geodesic(EU, LINEAR, DATA, u_end=math.inf),
    lambda: profiles.classify_growth(LINEAR, EU, [0.0, 0.0], [[1.0, 0.0]],
                                     [1.0, math.inf]),
    lambda: integrate_impulsive_geodesic(EU, LINEAR, NET, 0.1, DATA,
                                         0.1 + 1e-15),
    lambda: dynamics.background_path(EU, [0.0, 0.0], [1.0, 0.0], 0.0, 1e-15),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0], [math.nan, 0.0]),
    lambda: existence.estimate_sup_norms(EU, LINEAR, [0.0, 0.0],
                                         [math.nan, 0.0], 1.0, 1.0),
    lambda: existence.picard_solve(EU, LINEAR, NET, 0.1, [0.0, 0.0],
                                   [math.nan, 0.0], 0.5),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    lambda: existence.picard_solve(EU, LINEAR, NET, 0.1, [0.0, 0.0, 0.0],
                                   [1.0, 0.0, 0.0], 0.5),
    lambda: geometry.distance_estimate(EU, [0.0, 0.0, 0.0], [1.0, 0.0]),
    lambda: profiles.classify_growth(LINEAR, EU, [0.0, 0.0, 0.0],
                                     [[1.0, 0.0]], [1.0, 2.0]),
    lambda: profiles.metric_gradient(LINEAR, EU, [0.0, 0.0, 0.0]),
    lambda: EU.christoffel_at([0.0, 0.0, 0.0]),
    lambda: EU.norm_at([0.0, 0.0], np.array([math.nan, 0.0])),
    lambda: existence.weissinger_budget(math.nan, 1.0, 1.0, 1.0),
    lambda: existence.weissinger_budget(0.5, math.inf, 1.0, 1.0),
    lambda: existence.weissinger_coefficient(2.5, 0.5, 1.0, 1.0, 1.0),
    lambda: profiles.gaussian_bump_profile(1.0, [0.0, 0.0], math.inf),
    lambda: EU.norm_at([0.0, 0.0], np.array([1.0, 0.0, 0.0])),
    lambda: _PATH.x_at(np.zeros((2, 2))),
    lambda: _LIMIT.x_at(np.zeros((2, 2))),
    lambda: profiles.verify_strict_delta_net(NET, [0.25, 0.125], tol=math.nan),
    lambda: profiles.verify_strict_delta_net(NET, [0.25, 0.125], tol=0.0),
    lambda: profiles.verify_strict_delta_net(NET, [0.25, 0.125], tol=-1.0),
    lambda: limits.inner_scale_error(EU, LINEAR, NET, DATA, [0.1, 0.2]),
    lambda: integrate_impulsive_geodesic(SPHERE, LINEAR3, NET, 0.1, DATA, 1.0),
    lambda: integrate_impulsive_geodesic(SPHERE, BUMP3, NET, 0.1, DATA, 1.0),
    lambda: integrate_impulsive_geodesic(SPHERE, BUMP3, NET, [0.1, 0.05],
                                         DATA, 1.0),
    lambda: existence.certify(SPHERE, BUMP3, [0.0, 0.0], [1.0, 0.0]),
    lambda: existence.picard_solve(EU, QUADRATIC3, NET, 0.1, [0.0, 0.0],
                                   [1.0, 0.0], 0.5),
    lambda: limits.limit_geodesic(SPHERE, RADIAL3, DATA),
    lambda: limits.convergence_study(EU, LINEAR3, NET, DATA, [0.1], [0.5]),
    lambda: limits.inner_scale_error(EU, LINEAR3, NET, DATA, 0.1),
    lambda: profiles.classify_growth(BUMP3, SPHERE, [0.0, 0.0], [[1.0, 0.0]],
                                     [0.5, 1.0]),
    lambda: profiles.metric_gradient(LINEAR3, EU, [0.0, 0.0]),
    lambda: rhs(STATE, SPHERE, BUMP3, NET, 0.1),
    lambda: lagrangian_energy(STATE, SPHERE, BUMP3, NET, 0.1),
    lambda: rhs(STATE, EU, LINEAR, NET, math.inf),
    lambda: lagrangian_energy(STATE, EU, LINEAR, NET, math.inf),
    lambda: NET.eval(math.inf, 0.0),
    lambda: NET.deriv(math.inf, 0.0),
    lambda: NET.support_radius(math.inf),
    lambda: profiles.linear_profile([[1.0, 0.0], [0.0, 1.0]]),
    lambda: profiles.quadratic_form_profile([[1.0, 0.0, 0.0],
                                             [0.0, 1.0, 0.0]]),
    lambda: profiles.quadratic_form_profile(np.eye(2), [0.0, 0.0, 0.0]),
    lambda: profiles.radial_power_profile(1.0, 2.0, 0.5),
    lambda: profiles.gaussian_bump_profile(1.0, [[0.0, 0.0]], 0.8),
    # odesolve._point_checked and _rows_checked: a field result of the
    # wrong length
    lambda: solve_rk45(lambda t, y: [0.0, 0.0, 0.0], 0.0, 1.0, np.zeros(4)),
    lambda: solve_rk45(lambda t, ys, rows: np.zeros((len(ys), 3)), 0.0, 1.0,
                       np.zeros((2, 4))),
], ids=["velocity-shape", "reversed-interval", "limit-u_end-negative",
        "certify-velocity-shape", "picard-velocity-shape",
        "picard-eps-negative", "sample-out-of-range", "inside-batch-shape",
        "dense-path-no-step", "solve-reversed-interval", "data-x0-infinite",
        "data-vdot0-nan", "background-dimension", "background-batch-shape",
        "eps-nested", "u_end-per-width-count", "eps-nan-in-batch",
        "sample-nan", "alpha-norm-nan", "alpha-speed-nan", "certify-b-nan",
        "certify-c-nan", "certify-k-nan", "picard-alpha-nan",
        "picard-tol-nan", "net-schedule-infinite", "growth-direction-length",
        "growth-radius-nan", "growth-margin-nan", "growth-margin-negative",
        "growth-margin-infinite", "study-empty-schedule",
        "certify-grid-fraction", "certify-grid-float", "certify-b-infinite",
        "certify-c-infinite", "certify-k-infinite", "alpha-b-infinite",
        "picard-alpha-infinite", "picard-tol-infinite",
        "u_end-infinite", "u_end-infinite-in-batch",
        "background-start-infinite", "limit-u_end-infinite",
        "growth-radius-infinite", "phase-below-end-tolerance",
        "background-below-end-tolerance", "certify-velocity-nan",
        "sup-norms-velocity-nan", "picard-velocity-nan", "certify-dimension",
        "picard-dimension", "distance-dimension", "growth-base-dimension",
        "gradient-dimension", "christoffel-dimension", "norm-vector-nan",
        "weissinger-alpha-nan", "weissinger-lipschitz-infinite",
        "weissinger-n-fraction", "gaussian-width-infinite",
        "norm-vector-shape", "sample-2d-query", "limit-sample-2d-query",
        "net-tol-nan", "net-tol-zero", "net-tol-negative",
        "inner-scale-widths", "profile-dimension-integrate",
        "profile-dimension-bump", "profile-dimension-widths",
        "profile-dimension-certify", "profile-dimension-picard",
        "profile-dimension-limit", "profile-dimension-study",
        "profile-dimension-inner-scale", "profile-dimension-growth",
        "profile-dimension-gradient", "profile-dimension-rhs",
        "profile-dimension-energy", "rhs-eps-infinite", "energy-eps-infinite",
        "net-eval-eps-infinite", "net-deriv-eps-infinite",
        "net-support-eps-infinite", "linear-coeffs-matrix",
        "quadratic-not-square", "quadratic-center-dimension",
        "radial-center-scalar", "gaussian-center-matrix",
        "rhs-length-point", "rhs-length-ensemble"])
def test_caller_mistakes_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


def test_a_profile_of_another_dimension_is_refused_before_integrating(
        monkeypatch):
    # the mismatch is named, with both dimensions, before any entry
    # integrates: the field evaluates the profile only in the strip, after
    # a whole pre phase
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before the dimension check")

    monkeypatch.setattr(dynamics, "solve_rk45", no_integration)
    calls = [
        lambda: integrate_impulsive_geodesic(SPHERE, BUMP3, NET, 0.1, DATA,
                                             1.0),
        lambda: integrate_impulsive_geodesic(SPHERE, BUMP3, NET, [0.1, 0.05],
                                             DATA, 1.0),
        lambda: limits.limit_geodesic(SPHERE, BUMP3, DATA),
        lambda: limits.inner_scale_error(SPHERE, BUMP3, NET, DATA, 0.1),
        lambda: profiles.classify_growth(BUMP3, SPHERE, [0.0, 0.0],
                                         [[1.0, 0.0]], [0.5, 1.0]),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match=r"built for dimension 3, but "
                           r"sphere_stereographic has dimension 2"):
            call()
    # a profile whose parameters fix no dimension fits every model
    assert profiles.constant_profile(1.0).dim is None
    assert profiles.radial_power_profile(1.0, 2.0).dim is None
    assert profiles.gaussian_bump_profile(1.0, [0.0, 0.0], 0.8).dim == 2


def test_a_phase_too_short_to_step_names_its_ends():
    # below the end tolerance no step is taken; the phase is rejected up
    # front instead of failing later for want of a step
    with pytest.raises(ConfigError, match=r"t0=0\.0, t1=1e-15"):
        dynamics.background_path(EU, [0.0, 0.0], [1.0, 0.0], 0.0, 1e-15)


@pytest.mark.parametrize("call", [
    lambda: dynamics.background_path(EU, [0.0, 0.0], [1.0, 0.0], 0.0, 1.0,
                                     v0=1.0),
    lambda: dynamics.background_path(EU, [0.0, 0.0], [1.0, 0.0], 0.0, 1.0,
                                     vdot0=1.0),
    lambda: profiles.classify_growth(LINEAR, EU, [0.0, 0.0], [[1.0, 0.0]],
                                     [1.0, 2.0], rtol=1e-9),
    lambda: profiles.classify_growth(LINEAR, EU, [0.0, 0.0], [[1.0, 0.0]],
                                     [1.0, 2.0], atol=1e-9),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0],
                              [1.0, 0.0]).contains_x([0.0, 0.0], slack=0.0),
    lambda: existence.certify(EU, LINEAR, [0.0, 0.0],
                              [1.0, 0.0]).contains_xdot([1.0, 0.0],
                                                        slack=0.0),
    lambda: geometry._shooting_distance(EU, np.zeros(2), np.ones(2),
                                        tol=1e-9),
    lambda: geometry._shooting_distance(EU, np.zeros(2), np.ones(2),
                                        max_iter=40),
    lambda: existence.weissinger_budget(1.0, 1.0, 1.0, 1.0, n_max=60),
    lambda: existence.picard_solve(EU, LINEAR, NET, 0.1, [0.0, 0.0],
                                   [1.0, 0.0], 0.5, max_refinements=0),
], ids=["v0", "vdot0", "rtol", "atol", "contains_x-slack",
        "contains_xdot-slack", "shooting-tol", "shooting-max_iter",
        "weissinger-n_max", "picard-max_refinements"])
def test_retired_parameters_raise_type_error(call):
    with pytest.raises(TypeError):
        call()
