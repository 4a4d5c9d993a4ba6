import numpy as np
import pytest

from impulse_geo import dynamics, geometry, limits, profiles
from impulse_geo.dynamics import InitialData, integrate_impulsive_geodesic
from impulse_geo.errors import ConfigError, IntegrationFailure


EU = geometry.euclidean(2)
HYP = geometry.hyperbolic_half_plane()
NET = profiles.mollifier_net()
LINEAR = profiles.linear_profile([1.0, 0.0])
BUMP_HYP = profiles.gaussian_bump_profile(1.0, [0.8, 1.2], 0.8)
DATA_FLAT = InitialData([0.0, 0.0], [1.0, 0.0])
DATA_HYP = InitialData([0.0, 1.0], [0.6, 0.4])


def test_limit_flat_linear_coefficients():
    lg = limits.limit_geodesic(EU, LINEAR, DATA_FLAT)
    assert np.allclose(lg.x_break, [1.0, 0.0], atol=1e-12)
    assert lg.jump_coeff == pytest.approx(-0.5, abs=1e-12)
    # conservation of g(gamma', gamma') forces half of
    # (xdot + grad f / 4) . df = 5/4: the v slope drops by 5/8
    assert lg.kink_coeff == pytest.approx(-0.625, abs=1e-12)
    assert np.allclose(lg.xdot_plus, [1.5, 0.0], atol=1e-12)
    assert lg.v_at(1.0) == pytest.approx(-1.125, abs=1e-12)
    us = np.linspace(0.25, 1.0, 7)
    assert np.allclose(lg.v_at(us), -0.5 - 0.625 * us, atol=1e-12)


def test_limit_constant_profile_jump_only():
    prof = profiles.constant_profile(0.8)
    lg = limits.limit_geodesic(EU, prof, DATA_FLAT)
    assert lg.jump_coeff == pytest.approx(-0.4, abs=1e-14)
    assert lg.kink_coeff == 0.0
    # the spatial trajectory continues unbroken
    us = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(lg.x_at(us)[:, 0] - (us + 1.0))) < 1e-10
    assert np.allclose(lg.xdot_plus, lg.xdot_minus, atol=1e-12)


def test_limit_zero_profile_is_unbroken():
    zero = profiles.constant_profile(0.0)
    lg = limits.limit_geodesic(HYP, zero, DATA_HYP, u_end=1.0)
    assert lg.jump_coeff == 0.0
    assert lg.kink_coeff == 0.0
    ref = dynamics.background_path(HYP, DATA_HYP.x0, DATA_HYP.xdot0,
                                   -1.0, 1.0)
    us = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(lg.x_at(us) - ref.x_at(us))) < 1e-9
    assert np.max(np.abs(lg.v_at(us) - (1.0 + us) * 0.0)) < 1e-14


def test_left_continuity_at_break():
    lg = limits.limit_geodesic(EU, LINEAR, DATA_FLAT)
    assert lg.v_at(0.0) == pytest.approx(DATA_FLAT.v0 + DATA_FLAT.vdot0,
                                         abs=1e-14)
    assert np.allclose(lg.xdot_at(0.0), lg.xdot_minus, atol=1e-14)
    # an array takes each u to the branch a float takes it to: 0 and -0.0
    # to the base branch, 1e-300 to the refracted one
    us = np.array([-1.0, -0.5, -0.0, 0.0, 1e-300, 0.5, lg.u_end])
    for sample in (lg.x_at, lg.xdot_at, lg.v_at):
        rows = sample(us)
        assert len(rows) == len(us)
        for u, row in zip(us, rows):
            assert np.asarray(sample(float(u))).tobytes() == row.tobytes()
    assert np.allclose(lg.xdot_at(us)[[3, 4]], [lg.xdot_minus, lg.xdot_plus],
                       atol=1e-14)


def test_limit_is_a_path_read_through_one_sample():
    data = InitialData([0.0, 1.0], [0.6, 0.4], v0=0.4, vdot0=-0.3)
    lg = limits.limit_geodesic(HYP, BUMP_HYP, data)
    assert isinstance(lg, dynamics.GeodesicPath)
    us = np.array([-1.0, -0.3, 0.0, 1e-12, 0.7, lg.u_end])
    rows = lg.sample(us)
    # x and xdot from the branch that holds u: the base one up to u = 0
    for u, row in zip(us, rows):
        branch = lg.base_path if u <= 0.0 else lg.refracted_path
        assert row[:4].tobytes() == branch.sample(u)[:4].tobytes()
        assert row.tobytes() == lg.sample(u).tobytes()
    # v and vdot from the closed forms
    after = us > 0.0
    v = (lg.v0 + lg.vdot0 * (1.0 + us)
         + np.where(after, lg.jump_coeff + lg.kink_coeff * us, 0.0))
    vdot = lg.vdot0 + np.where(after, lg.kink_coeff, 0.0)
    assert rows[:, 4].tobytes() == v.tobytes()
    assert rows[:, 5].tobytes() == vdot.tobytes()
    st = lg.state_at(us)
    assert st.v.tobytes() == v.tobytes()
    # the work of both branches
    for count in ("n_steps", "n_rejected", "n_rhs"):
        assert getattr(lg.diagnostics, count) == (
            getattr(lg.base_path.diagnostics, count)
            + getattr(lg.refracted_path.diagnostics, count))
    assert lg.diagnostics.n_steps > 0
    with pytest.raises(ConfigError, match="outside path range"):
        lg.v_at(lg.u_end + 0.1)


def random_setup(rng):
    amp = rng.uniform(-1.5, 1.5)
    center = rng.uniform(-0.3, 0.3, 2) + np.array([1.0, 0.0])
    width = rng.uniform(0.5, 1.2)
    prof = profiles.gaussian_bump_profile(amp, center, width)
    data = InitialData(rng.uniform(-0.2, 0.2, 2),
                       [1.0, rng.uniform(-0.3, 0.3)],
                       v0=rng.uniform(-1, 1), vdot0=rng.uniform(-1, 1))
    return prof, data


def test_jump_and_kink_identities_random():
    rng = np.random.default_rng(41)
    for _ in range(10):
        prof, data = random_setup(rng)
        lg = limits.limit_geodesic(EU, prof, data)
        tiny = 1e-12
        jump = lg.v_at(tiny) - lg.v_at(-tiny)
        assert jump == pytest.approx(lg.jump_coeff, abs=1e-9)
        assert jump == pytest.approx(-0.5 * prof.f(lg.x_break), abs=1e-9)
        # one-sided slopes of the v limit differ by the kink coefficient
        h = 1e-6
        slope_plus = (lg.v_at(2 * h) - lg.v_at(h)) / h
        slope_minus = (lg.v_at(-h) - lg.v_at(-2 * h)) / h
        assert slope_plus - slope_minus == pytest.approx(lg.kink_coeff,
                                                         abs=1e-8)


def test_velocity_kink_identity_random():
    rng = np.random.default_rng(42)
    for model, mkprof in ((EU, None), (HYP, None)):
        for _ in range(5):
            if model is EU:
                prof, data = random_setup(rng)
            else:
                prof = profiles.gaussian_bump_profile(
                    rng.uniform(-1, 1), [0.8, 1.2], 0.9)
                data = InitialData([0.0, 1.0],
                                   [0.6, rng.uniform(-0.2, 0.4)])
            lg = limits.limit_geodesic(model, prof, data)
            grad = profiles.metric_gradient(prof, model, lg.x_break)
            gap = lg.xdot_plus - lg.xdot_minus
            assert np.max(np.abs(gap - 0.5 * grad)) < 1e-10


def test_regularized_equals_base_before_strip():
    for eps in (0.125, 0.03125):
        path = integrate_impulsive_geodesic(HYP, BUMP_HYP, NET, eps,
                                            DATA_HYP, 1.0)
        lg = limits.limit_geodesic(HYP, BUMP_HYP, DATA_HYP)
        us = np.linspace(-1.0, -eps, 33)
        assert np.max(np.abs(path.x_at(us) - lg.x_at(us))) < 1e-9
        assert np.max(np.abs(path.xdot_at(us) - lg.xdot_at(us))) < 1e-9


def test_post_strip_v_slope_flat_linear_is_exact():
    # constant profile gradient: the post-strip slope equals the limit kink
    # for every width, not just asymptotically
    lg = limits.limit_geodesic(EU, LINEAR, DATA_FLAT)
    for eps in (0.25, 0.0625):
        path = integrate_impulsive_geodesic(EU, LINEAR, NET, eps, DATA_FLAT,
                                            1.0)
        us = np.linspace(eps, 1.0, 51)
        slope = float(np.polyfit(us, path.v_at(us), 1)[0])
        assert slope == pytest.approx(DATA_FLAT.vdot0 + lg.kink_coeff,
                                      abs=1e-8)


def test_post_strip_v_slope_converges_to_kink():
    lg = limits.limit_geodesic(HYP, BUMP_HYP, DATA_HYP)
    gaps = []
    for eps in (0.25, 0.125, 0.0625, 0.03125):
        path = integrate_impulsive_geodesic(HYP, BUMP_HYP, NET, eps,
                                            DATA_HYP, 1.0)
        us = np.linspace(eps, 1.0, 51)
        slope = float(np.polyfit(us, path.v_at(us), 1)[0])
        gaps.append(abs(slope - (DATA_HYP.vdot0 + lg.kink_coeff)))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2


def test_inner_scale_zero_profile_exact_rate():
    zero = profiles.constant_profile(0.0)
    for eps in (0.25, 0.125):
        err = limits.inner_scale_error(EU, zero, NET, DATA_FLAT, eps)
        # straight line: sup over [-1, 1] of |x(eps u) - x(0)| = |xdot| eps
        assert err == pytest.approx(eps, rel=1e-9)


def test_inner_scale_halving():
    errs = {}
    for eps in (0.25, 0.125, 0.0625):
        errs[eps] = limits.inner_scale_error(HYP, BUMP_HYP, NET, DATA_HYP,
                                             eps)
    # halving eps at least halves the error, up to a factor 1.2
    assert errs[0.125] <= 1.2 * errs[0.25] / 2
    assert errs[0.0625] <= 1.2 * errs[0.125] / 2


def test_convergence_study_zero_profile_floors():
    zero = profiles.constant_profile(0.0)
    table = limits.convergence_study(EU, zero, NET, DATA_FLAT,
                                     [0.125, 0.0625, 0.03125],
                                     [-0.5, 0.5, 1.0])
    assert np.max(table.err_x) < 1e-9
    assert np.max(table.err_xdot) < 1e-9
    assert np.max(table.err_v) < 1e-9


def test_convergence_study_first_moment_effect():
    # symmetric net: the position error beyond the strip is the net's first
    # moment, zero up to quadrature; the one-sided net shows a clean O(eps)
    schedule = [2.0 ** -k for k in range(3, 8)]
    probes = [-1.0, -0.5, 0.5, 1.0]
    sym = limits.convergence_study(EU, LINEAR, NET, DATA_FLAT, schedule,
                                   probes)
    assert np.max(sym.err_x) < 1e-9
    asym = limits.convergence_study(EU, LINEAR, profiles.asymmetric_net(),
                                    DATA_FLAT, schedule, probes)
    assert np.min(asym.err_x) > 1e-6
    assert asym.monotone["x"]
    assert asym.orders["x"] == pytest.approx(1.0, abs=0.1)


def test_convergence_study_hyperbolic_bump():
    schedule = [2.0 ** -k for k in range(3, 10)]
    table = limits.convergence_study(HYP, BUMP_HYP, NET, DATA_HYP, schedule,
                                     [-1.0, -0.5, 0.5, 1.0])
    assert not np.any(table.failed)
    for col in ("x", "xdot", "v"):
        assert table.monotone[col]
        assert table.orders[col] >= 0.9


def test_convergence_study_validates_probes():
    with pytest.raises(ValueError):
        limits.convergence_study(EU, LINEAR, NET, DATA_FLAT, [0.125],
                                 [0.0, 0.5])
    with pytest.raises(ValueError):
        limits.convergence_study(EU, LINEAR, NET, DATA_FLAT, [0.25],
                                 [0.1, 0.2])
    with pytest.raises(ValueError):
        limits.convergence_study(EU, LINEAR, NET, DATA_FLAT, [0.125],
                                 [-2.0, 0.5])


@pytest.mark.parametrize("probes", [[0.1, 0.2], [0.0, 0.5], [-2.0, 0.5]],
                         ids=["none-clears-strip", "at-shock", "before-data"])
def test_study_errors_validates_probes(probes):
    # the one-width study runs the probe checks of convergence_study
    bump = profiles.gaussian_bump_profile(1.0, [1.0, 0.0], 0.8)
    with pytest.raises(ConfigError):
        limits.study_errors(EU, bump, NET, DATA_FLAT, 0.3, probes)


@pytest.mark.parametrize("study, probes", [
    (limits.convergence_study, [0.5, np.nan]),
    (limits.convergence_study, [[-0.5, 0.5]]),
    (limits.study_errors, [-0.5, np.inf]),
    (limits.study_errors, [[-0.5], [0.5]]),
], ids=["convergence-probe-nan", "convergence-probes-2d",
        "study-errors-probe-infinite", "study-errors-probes-2d"])
def test_study_probes_are_finite_and_1d(study, probes):
    # checked before integrating, with a message naming the probes
    widths = [0.1] if study is limits.convergence_study else 0.1
    with pytest.raises(ConfigError, match="u_probes"):
        study(EU, LINEAR, NET, DATA_FLAT, widths, probes)


def test_convergence_study_flags_failed_rows():
    # quartic well centered at the crossing point: its gradient vanishes
    # there, so the sharp limit is fine, but a wide strip drives the
    # trajectory through the steep walls and trips the guard; the study
    # flags the bad row and carries on
    prof = profiles.radial_power_profile(1e9, 4.0, [1.0, 0.0])
    data = InitialData([0.0, 0.0], [1.0, 0.0])
    table = limits.convergence_study(EU, prof, NET, data, [0.4, 1e-4],
                                     [-1.0, 0.5])
    assert bool(table.failed[0])
    assert not bool(table.failed[1])


def _sphere_metric(x):
    c = 2.0 / (1.0 + float(x @ x))
    return (c * c) * np.eye(2)


SPHERE_FM = geometry.from_metric(2, _sphere_metric, complete=True,
                                 name="sphere_from_metric")


@pytest.mark.parametrize("model, prof, data", [
    (HYP, BUMP_HYP, DATA_HYP),
    (SPHERE_FM, profiles.gaussian_bump_profile(1.0, [1.0, 0.0], 0.8),
     InitialData([0.0, 0.5], [1.0, 0.0])),
], ids=["hyperbolic_bump", "sphere_from_metric"])
def test_convergence_rows_do_not_depend_on_the_batch(model, prof, data):
    schedule = [0.2, 0.1, 0.05]
    probes = [-0.5, 0.5, 1.0]
    table = limits.convergence_study(model, prof, NET, data, schedule, probes)
    assert not np.any(table.failed)
    for i, eps in enumerate(schedule):
        alone = limits.study_errors(model, prof, NET, data, eps, probes)
        assert alone == (table.err_x[i], table.err_xdot[i], table.err_v[i])
    # the same widths permuted, and a subset: every path repeats bit for bit
    ref = integrate_impulsive_geodesic(model, prof, NET, schedule, data, 1.1)
    for order in ([0.05, 0.2, 0.1], [0.1]):
        paths = integrate_impulsive_geodesic(model, prof, NET, order, data,
                                             1.1)
        for eps, path in zip(order, paths):
            want = ref[schedule.index(eps)]
            assert len(path.pieces) == len(want.pieces) == 3
            for got, exp in zip(path.pieces, want.pieces):
                for attr in ("ts", "ys", "coeffs"):
                    assert np.array_equal(getattr(got, attr),
                                          getattr(exp, attr))
    # and the ensemble agrees with the single-trajectory integrator
    single = integrate_impulsive_geodesic(model, prof, NET, 0.1, data, 1.1)
    us = np.linspace(-1.0, 1.1, 43)
    np.testing.assert_allclose(ref[1].sample(us), single.sample(us),
                               rtol=0.0, atol=1e-10)
    assert ref[1].diagnostics.n_steps > 0


def test_failed_row_fails_alone():
    # the blow-up row of test_convergence_study_flags_failed_rows next to
    # a good row: the good row is the same as in a study of its own
    prof = profiles.radial_power_profile(1e9, 4.0, [1.0, 0.0])
    data = InitialData([0.0, 0.0], [1.0, 0.0])
    both = limits.convergence_study(EU, prof, NET, data, [0.4, 1e-4],
                                    [-1.0, 0.5])
    alone = limits.convergence_study(EU, prof, NET, data, [1e-4],
                                     [-1.0, 0.5])
    assert both.failed.tolist() == [True, False]
    assert ((both.err_x[1], both.err_xdot[1], both.err_v[1])
            == (alone.err_x[0], alone.err_xdot[0], alone.err_v[0]))
    failure, path = integrate_impulsive_geodesic(EU, prof, NET, [0.4, 1e-4],
                                                 data, 0.6)
    assert isinstance(failure, IntegrationFailure)
    assert failure.reason == "blow_up"
    assert failure.partial.phase_marks == (-0.4, 0.4)
    assert isinstance(path, dynamics.GeodesicPath)
    # a study whose only row fails stops after that row's phase
    assert limits.convergence_study(EU, prof, NET, data, [0.4],
                                    [-1.0, 0.5]).failed.tolist() == [True]


def test_study_errors_raises_the_failed_row():
    # the blow-up width of test_failed_row_fails_alone, studied alone
    prof = profiles.radial_power_profile(1e9, 4.0, [1.0, 0.0])
    with pytest.raises(IntegrationFailure) as err:
        limits.study_errors(EU, prof, NET, DATA_FLAT, 0.4, [-1.0, 0.5])
    exc = err.value
    assert exc.reason == "blow_up" and exc.phase == "strip"
    assert isinstance(exc.partial, dynamics.GeodesicPath)
    assert exc.partial.phase_marks == (-0.4, 0.4)
    assert exc.partial.u_end < exc.u
    # the same failure as that row's in a two-width ensemble
    row, _ = integrate_impulsive_geodesic(EU, prof, NET, [0.4, 1e-4],
                                          DATA_FLAT, 0.6)
    assert (row.reason, row.u) == (exc.reason, exc.u)
    for got, want in zip(exc.partial.pieces, row.partial.pieces,
                         strict=True):
        assert np.array_equal(got.ys, want.ys)


def test_limit_vdot_drops_by_the_kink():
    lg = limits.limit_geodesic(EU, LINEAR, InitialData([0.0, 0.0], [1.0, 0.0],
                                                       vdot0=0.3))
    vd = lg.vdot_at(np.array([-0.5, 0.0, 0.5, 1.0]))
    assert vd[:2].tolist() == [0.3, 0.3]
    assert vd[2:].tolist() == [0.3 + lg.kink_coeff] * 2
    assert lg.kink_coeff == pytest.approx(-0.625, abs=1e-12)
