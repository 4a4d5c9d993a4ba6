import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from impulse_geo import dynamics, geometry, profiles
from impulse_geo.errors import ConfigError, NumericalError
from impulse_geo.profiles import DeltaNet


EPS_SCHEDULE = [2.0 ** -k for k in range(1, 9)]


def all_nets():
    return [profiles.mollifier_net(), profiles.asymmetric_net(),
            profiles.signed_net()]


@pytest.mark.parametrize("net", all_nets(), ids=lambda n: n.name)
def test_net_integral_is_one(net):
    # every built-in shape integrates to one exactly, at every width
    for eps in EPS_SCHEDULE:
        val, err = quad(lambda u: float(net.eval(eps, u)), -eps, eps,
                        epsabs=1e-12, limit=400)
        assert abs(val - 1.0) <= 1e-10
        assert err < 1e-7


@pytest.mark.parametrize("net", all_nets(), ids=lambda n: n.name)
def test_net_derivative_integral_vanishes(net):
    # compact support makes the derivative integrate to zero
    for eps in (0.5, 0.125, 0.03125):
        val, _ = quad(lambda u: float(net.deriv(eps, u)), -eps, eps,
                      epsabs=1e-12, limit=400)
        assert abs(val) <= 1e-10


@pytest.mark.parametrize("net", all_nets(), ids=lambda n: n.name)
def test_net_derivative_matches_differences(net):
    eps = 0.5
    probes = np.linspace(-0.45, 0.45, 11)
    scale = max(1.0, float(np.max(np.abs(net.deriv(eps, probes)))))
    for u in probes:
        step = 1e-6
        fd = (net.eval(eps, u + step) - net.eval(eps, u - step)) / (2 * step)
        assert abs(fd - net.deriv(eps, u)) <= 1e-6 * scale


def test_signed_net_is_signed_and_l1_bounded():
    net = profiles.signed_net()
    for eps in EPS_SCHEDULE:
        grid = np.linspace(-eps, eps, 2001)
        vals = net.eval(eps, grid)
        assert np.min(vals) < 0.0
        l1, _ = quad(lambda u: abs(float(net.eval(eps, u))), -eps, eps,
                     epsabs=1e-12, limit=400)
        assert l1 <= 1.5 + 1e-8
        assert l1 > 1.01  # genuinely signed, not a disguised mollifier


def test_asymmetric_support_is_one_sided():
    net = profiles.asymmetric_net()
    eps = 0.25
    grid = np.linspace(0.5 * eps + 1e-9, eps, 200)
    assert np.all(net.eval(eps, grid) == 0.0)
    assert net.eval(eps, -0.6 * eps) > 0.0


def test_verify_mollifier_passes():
    report = profiles.verify_strict_delta_net(profiles.mollifier_net(),
                                              EPS_SCHEDULE, tol=1e-8)
    assert report.passed
    assert not report.indeterminate
    assert report.k_measured == pytest.approx(1.0, abs=1e-8)


def test_verify_signed_passes():
    report = profiles.verify_strict_delta_net(profiles.signed_net(),
                                              EPS_SCHEDULE, tol=1e-8)
    assert report.passed
    assert report.k_measured <= 1.5 + 1e-8


def test_verify_scaled_net_fails_integral_property_only():
    base = profiles.mollifier_net()
    doubled = DeltaNet(lambda eps, u: 2.0 * base.eval(eps, u),
                       lambda eps, u: 2.0 * base.deriv(eps, u),
                       lambda eps: eps, 2.0, name="doubled")
    report = profiles.verify_strict_delta_net(doubled, EPS_SCHEDULE, tol=1e-8)
    assert not report.passed
    assert report.supports_ok
    assert not report.integral_ok
    assert report.l1_ok
    assert report.checks[-1].integral == pytest.approx(2.0, abs=1e-8)
    # a net scaled by zero vanishes on the whole grid of the measured
    # support, which is then 0 (the zero peak of profiles._measured_support)
    zero = DeltaNet(lambda eps, u: 0.0 * np.asarray(u),
                    lambda eps, u: 0.0 * np.asarray(u), lambda eps: eps, 1.0,
                    name="zero")
    report = profiles.verify_strict_delta_net(zero, [0.5, 0.25], tol=1e-8)
    assert [c.support_measured for c in report.checks] == [0.0, 0.0]
    assert report.supports_ok and report.l1_ok and not report.integral_ok


def test_verify_fixed_support_fails_support_property_only():
    base = profiles.mollifier_net()
    frozen = DeltaNet(lambda eps, u: base.eval(1.0, u),
                      lambda eps, u: base.deriv(1.0, u),
                      lambda eps: 1.0, 1.0, name="frozen")
    report = profiles.verify_strict_delta_net(frozen, [0.5, 0.25, 0.125],
                                              tol=1e-8)
    assert not report.passed
    assert not report.supports_ok
    assert report.integral_ok
    assert report.l1_ok


def test_verify_rejects_bad_schedule():
    with pytest.raises(ValueError):
        profiles.verify_strict_delta_net(profiles.mollifier_net(),
                                         [0.1, 0.2], tol=1e-8)


@pytest.mark.parametrize("net", all_nets(), ids=lambda n: n.name)
@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("u", [0.05, np.linspace(-0.2, 0.2, 5)],
                         ids=["float", "array"])
def test_net_rejects_a_width_that_is_not_positive(net, eps, u):
    with pytest.raises(ConfigError, match="eps must be positive"):
        net.eval(eps, u)
    with pytest.raises(ConfigError, match="eps must be positive"):
        net.deriv(eps, u)
    with pytest.raises(ConfigError, match="eps must be positive"):
        net.support_radius(eps)


def test_metric_gradient_flat_linear():
    model = geometry.euclidean(2)
    prof = profiles.linear_profile([1.0, 0.0])
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = profiles.metric_gradient(prof, model, rng.normal(size=2))
        assert np.allclose(g, [1.0, 0.0], atol=1e-14)


def test_metric_gradient_hyperbolic_rescales():
    model = geometry.hyperbolic_half_plane()
    prof = profiles.linear_profile([0.0, 1.0])
    g = profiles.metric_gradient(prof, model, np.array([0.0, 1.0]))
    assert np.allclose(g, [0.0, 1.0], atol=1e-14)
    g2 = profiles.metric_gradient(prof, model, np.array([0.0, 2.0]))
    assert np.allclose(g2, [0.0, 4.0], atol=1e-14)


def test_metric_gradient_constant_profile_vanishes():
    prof = profiles.constant_profile(3.7)
    for model in (geometry.euclidean(2), geometry.sphere_stereographic()):
        g = profiles.metric_gradient(prof, model, np.array([0.4, -0.2]))
        assert np.all(g == 0.0)


def builtin_profiles():
    return [profiles.constant_profile(3.7),
            profiles.linear_profile([1.0, -2.0], offset=0.5),
            profiles.quadratic_form_profile([[1.0, 0.3], [0.3, -2.0]],
                                            center=[0.2, 0.1]),
            profiles.radial_power_profile(1.5, 2.5, center=[0.3, -0.4]),
            profiles.gaussian_bump_profile(1.0, [0.8, 1.2], 0.8)]


def bump_point_forms():
    """A Gaussian bump given by its point forms only: a batch ``df`` loops
    over the rows."""
    bump = profiles.gaussian_bump_profile(1.0, [0.8, 1.2], 0.8)
    return profiles.WaveProfile(bump.f, bump.df, name="bump_point_forms")


@pytest.mark.parametrize("prof", builtin_profiles() + [bump_point_forms()],
                         ids=lambda p: p.name)
def test_batch_df_matches_point_df(prof):
    rng = np.random.default_rng(42)
    xs = rng.uniform(-2.0, 2.0, size=(200, 2))
    xs[0] = [0.3, -0.4]  # the radial power's centre, where df is zero
    grads = prof.df(xs)
    assert grads.shape == (200, 2)
    for x, g in zip(xs, grads):
        np.testing.assert_allclose(g, prof.df(x), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "prof", builtin_profiles() + [profiles.WaveProfile(
        lambda x: math.sin(x[0]) * x[1] ** 2)], ids=lambda p: p.name)
def test_batch_f_matches_point_f(prof):
    rng = np.random.default_rng(43)
    xs = rng.uniform(-2.0, 2.0, size=(200, 2))
    xs[0] = [0.3, -0.4]  # the radial power's centre
    values = prof.f(xs)
    assert values.shape == (200,)
    assert prof.f(np.empty((0, 2))).shape == (0,)
    for x, v in zip(xs, values):
        assert v == pytest.approx(prof.f(x), rel=1e-14, abs=1e-300)
    # a row does not depend on the rest of the batch
    for i in (0, 7, 199):
        assert prof.f(xs[i:i + 1])[0] == values[i]


def test_batch_f_keeps_the_point_contract():
    # the point form passes a custom f through float(); the per-row batch
    # form must accept and reject the same values, never return (B, 1)
    prof = profiles.WaveProfile(lambda x: np.array([x[0] * x[1]]))
    xs = np.array([[0.5, 2.0], [1.0, -3.0]])
    try:
        want = [prof.f(x) for x in xs]
    except TypeError:
        with pytest.raises(TypeError):
            prof.f(xs)
    else:
        assert prof.f(xs).tolist() == want


def test_custom_profile_difference_gradient():
    prof = profiles.WaveProfile(lambda x: math.sin(x[0]) * x[1] ** 2)
    assert not prof.analytic_grad
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        exact = np.array([math.cos(x[0]) * x[1] ** 2,
                          2 * math.sin(x[0]) * x[1]])
        assert np.max(np.abs(prof.df(x) - exact)) < 1e-6
    # a batch takes the point-by-point fallback
    xs = rng.uniform(-2, 2, size=(7, 2))
    assert np.array_equal(prof.df(xs), np.array([prof.df(x) for x in xs]))


def growth_setup():
    model = geometry.euclidean(2)
    directions = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  np.array([1.0, 1.0])]
    radii = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    return model, directions, radii


@pytest.mark.parametrize("power,label", [
    (1.5, "subquadratic"),
    (2.0, "at-most-quadratic"),
    (3.0, "superquadratic"),
])
def test_classify_growth_powers(power, label):
    model, directions, radii = growth_setup()
    prof = profiles.radial_power_profile(1.0, power)
    report = profiles.classify_growth(prof, model, [0.0, 0.0], directions,
                                      radii)
    assert abs(report.exponent - power) < 0.15
    assert report.classification == label


def test_classify_growth_constant():
    model, directions, radii = growth_setup()
    prof = profiles.constant_profile(2.0)
    report = profiles.classify_growth(prof, model, [0.0, 0.0], directions,
                                      radii)
    assert abs(report.exponent) < 0.05
    assert report.classification == "subquadratic"


def test_classify_growth_without_signal():
    # a constant-zero profile leaves nothing to fit: exponent 0
    model, directions, radii = growth_setup()
    prof = profiles.constant_profile(0.0)
    report = profiles.classify_growth(prof, model, [0.0, 0.0], directions,
                                      radii)
    assert (report.exponent, report.stderr, report.r1, report.r2) == (
        0.0, 0.0, 0.0, 0.0)
    assert report.fit_count == 0 and report.classification == "subquadratic"
    assert len(report.samples) == len(directions) * len(radii)


def test_classify_growth_scale_equivariance():
    model, directions, radii = growth_setup()
    prof = profiles.radial_power_profile(0.7, 1.5)
    a = profiles.classify_growth(prof, model, [0.0, 0.0], directions, radii)
    b = profiles.classify_growth(prof, model, [0.0, 0.0], directions,
                                 [7.0 * r for r in radii])
    tol = max(a.stderr, b.stderr) + 1e-8
    assert abs(a.exponent - b.exponent) <= tol


def test_classify_growth_validates_inputs():
    model, directions, radii = growth_setup()
    prof = profiles.constant_profile(1.0)
    with pytest.raises(ValueError):
        profiles.classify_growth(prof, model, [0.0, 0.0], directions, [2.0])
    with pytest.raises(ValueError):
        profiles.classify_growth(prof, model, [0.0, 0.0],
                                 [np.zeros(2)], radii)


@pytest.mark.parametrize("directions", [[[1.0, 0.0]],
                                        [[1.0, 0.0], [0.0, 1.0]]],
                         ids=["one-ray", "two-rays"])
def test_classify_growth_fits_both_of_two_radii(directions):
    # both of two radii are fitted: one radius alone has no slope to fit
    prof = profiles.radial_power_profile(1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = profiles.classify_growth(
            prof, geometry.euclidean(2), [0.0, 0.0],
            [np.array(d) for d in directions], [1.0, 2.0])
    assert report.classification == "at-most-quadratic"
    assert abs(report.exponent - 2.0) < 1e-9


@pytest.mark.parametrize("width", [0.0, -0.8])
def test_gaussian_bump_rejects_non_positive_width(width):
    with pytest.raises(ConfigError, match="width must be positive"):
        profiles.gaussian_bump_profile(1.0, [0.0, 0.0], width)


def test_classify_growth_drops_escaping_directions():
    # on the sphere chart every long ray escapes through the missing point,
    # so every direction is dropped and the classifier reports the failure
    model = geometry.sphere_stereographic()
    prof = profiles.constant_profile(1.0)
    with pytest.raises(NumericalError):
        profiles.classify_growth(prof, model, [0.0, 0.0],
                                 [np.array([1.0, 0.0])], [1.0, 2.0, 40.0])


def test_classify_growth_reports_a_non_finite_direction():
    with pytest.raises(ConfigError, match="not finite"):
        profiles.classify_growth(profiles.constant_profile(1.0),
                                 geometry.euclidean(2), [0.0, 0.0],
                                 [[1.0, 0.0], [math.nan, 0.0]], [1.0, 2.0])


def _single_ray_samples(profile, model, xbar, direction, radii):
    """The samples of one ray integrated alone, as ``classify_growth``
    takes them: unit speed, rtol = atol = 1e-9."""
    w = np.asarray(direction, dtype=float)
    w = w / model.norm_at(xbar, w)
    ray = dynamics.background_path(model, xbar, w, 0.0, radii[-1],
                                   rtol=1e-9, atol=1e-9)
    out = []
    for r in radii:
        x = ray.x_at(r)
        d = geometry.distance_estimate(model, np.asarray(xbar), x)
        out.append((r, d.value.hex(), profile.f(x).hex(), d.lower_bound))
    return out


_SPHERE = geometry.sphere_stereographic()


@pytest.mark.parametrize("model,xbar", [
    (geometry.euclidean(2), [0.1, -0.2]),
    (geometry.hyperbolic_half_plane(), [0.2, 1.0]),
    (_SPHERE, [0.3, -0.1]),
    (geometry.from_metric(2, _SPHERE._metric, name="sphere-user"),
     [0.1, 0.0]),
], ids=["euclidean", "hyperbolic", "sphere", "sphere-user"])
def test_growth_rays_repeat_their_single_paths(model, xbar):
    # the rays are integrated as one background batch, whose rows must
    # give the samples of each ray integrated alone, bit for bit
    prof = profiles.gaussian_bump_profile(2.0, [0.5, 0.5], 0.9)
    rays = [[1.0, 0.3], [-0.4, 1.0], [-0.7, -0.6]]
    radii = [0.25, 0.5, 1.0]
    report = profiles.classify_growth(prof, model, xbar, rays, radii)
    assert report.dropped_directions == []
    got = [(s.radius, s.distance.hex(), s.value.hex(),
            s.distance_is_lower_bound) for s in report.samples]
    assert got == [s for d in rays
                   for s in _single_ray_samples(prof, model, xbar, d, radii)]


def test_growth_drops_a_ray_that_leaves_the_chart():
    # the plane cut at x1 < 0.5: the ray along x1 leaves it before arc
    # length 1 and is dropped alone; the other rays keep their bits
    model = geometry.from_metric(2, lambda x: np.eye(2),
                                 chart_domain=lambda x: x[0] < 0.5)
    prof = profiles.radial_power_profile(1.0, 1.5)
    rays = [[0.0, 1.0], [1.0, 0.0], [-1.0, 0.5]]
    radii = [0.25, 0.5, 1.0]
    report = profiles.classify_growth(prof, model, [0.0, 0.0], rays, radii)
    assert report.dropped_directions == [1]
    assert [s.direction for s in report.samples] == [0, 0, 0, 2, 2, 2]
    got = [(s.radius, s.distance.hex(), s.value.hex(),
            s.distance_is_lower_bound) for s in report.samples]
    assert got == [s for d in (rays[0], rays[2])
                   for s in _single_ray_samples(prof, model, [0.0, 0.0], d,
                                                radii)]
