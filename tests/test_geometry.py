import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulse_geo import dynamics, existence, geometry, profiles
from impulse_geo.errors import (ChartDomainError, ConfigError,
                                IntegrationFailure, ShootingFailure)


def models():
    return [geometry.euclidean(2), geometry.hyperbolic_half_plane(),
            geometry.sphere_stereographic()]


def sphere_from_metric():
    """The round sphere given only by its metric: FD Christoffel symbols."""
    return geometry.from_metric(
        2, lambda x: 4.0 / (1.0 + float(x @ x)) ** 2 * np.eye(2),
        name="sphere_from_metric")


def sphere_point_forms():
    """The built-in sphere without its batch forms: the batch forms loop
    over the point callbacks."""
    sph = geometry.sphere_stereographic()
    return geometry.ManifoldModel(
        2, sph._metric, inverse_metric=sph._inverse_metric,
        christoffel=sph._christoffel, name="sphere_point_forms")


def random_point(model, rng):
    if model.name.startswith("euclidean"):
        return rng.uniform(-2.0, 2.0, size=model.dim)
    if model.name == "hyperbolic_half_plane":
        return np.array([rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0)])
    return rng.uniform(-2.0, 2.0, size=2)


def fd_christoffel(model, x, rel_step=1e-6):
    """Independent finite-difference oracle for the Christoffel symbols."""
    n = model.dim
    x = np.asarray(x, dtype=float)
    dh = np.empty((n, n, n))
    for l in range(n):
        step = rel_step * max(1.0, abs(x[l]))
        xp, xm = x.copy(), x.copy()
        xp[l] += step
        xm[l] -= step
        dh[l] = (model.metric_at(xp) - model.metric_at(xm)) / (2 * step)
    hinv = model.inverse_metric_at(x)
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    gamma[k, i, j] += 0.5 * hinv[k, l] * (
                        dh[i][j, l] + dh[j][i, l] - dh[l][i, j])
    return gamma


def test_euclidean_christoffel_zero():
    model = geometry.euclidean(3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=3)
        assert np.all(model.christoffel_at(x) == 0.0)


def test_hyperbolic_christoffel_hand_values():
    model = geometry.hyperbolic_half_plane()
    g = model.christoffel_at(np.array([0.0, 1.0]))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = expected[0, 1, 0] = -1.0
    expected[1, 0, 0] = 1.0
    expected[1, 1, 1] = -1.0
    assert np.allclose(g, expected, atol=1e-14)
    # cross-check the analytic symbols against the difference oracle
    oracle = fd_christoffel(model, np.array([0.0, 1.0]))
    assert np.allclose(g, oracle, atol=1e-8)


def test_sphere_christoffel_origin_and_oracle():
    model = geometry.sphere_stereographic()
    assert np.all(model.christoffel_at(np.zeros(2)) == 0.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=2)
        assert np.allclose(model.christoffel_at(x), fd_christoffel(model, x),
                           atol=1e-7)


def test_user_model_fd_christoffel_matches_analytic():
    analytic = geometry.hyperbolic_half_plane()
    user = geometry.from_metric(2, analytic._metric,
                                chart_domain=lambda x: x[1] > 0,
                                name="hyperbolic-fd")
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = random_point(analytic, rng)
        assert np.allclose(user.christoffel_at(x),
                           analytic.christoffel_at(x), atol=1e-7)


def test_christoffel_callback_is_checked_and_converted_once():
    # a user callback's result must have the shape (n, n, n), as an array
    # or a nested list; any other raises ConfigError in the per-point
    # field, the ensemble field and christoffel_at alike (before the check,
    # the (3, 3, 2) results integrated without an error)
    bad = [
        (3, lambda x: np.ones((3, 3, 2)),
         r"shape \(3, 3, 2\), not \(3, 3, 3\)"),
        (2, lambda x: np.ones((3, 2, 2)),
         r"shape \(3, 2, 2\), not \(2, 2, 2\)"),
        (3, lambda x: np.ones((3, 3, 2)).tolist(),
         r"shape \(3, 3, 2\), not \(3, 3, 3\)"),
        (2, lambda x: [[[0.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]],
         r"ragged result, not shape \(2, 2, 2\)"),
    ]
    for n, christoffel, message in bad:
        model = geometry.ManifoldModel(n, lambda x: np.eye(n),
                                       christoffel=christoffel)
        x0 = np.zeros(n)
        for call in (
                lambda: dynamics.background_path(model, x0, np.eye(n)[0],
                                                 0.0, 1.0),
                lambda: dynamics.background_path(model, x0, np.eye(n), 0.0,
                                                 1.0),
                lambda: model.christoffel_at(x0)):
            with pytest.raises(ConfigError, match=message):
                call()
    # the conversion reads a Fortran-ordered array by index, not by memory:
    # the per-point field gives the bytes of its C-ordered twin
    hyp = geometry.hyperbolic_half_plane()
    bump = profiles.gaussian_bump_profile(1.0, [0.5, 1.2], 0.8)
    net = profiles.mollifier_net()
    twins = [geometry.ManifoldModel(
        2, hyp._metric, inverse_metric=hyp._inverse_metric,
        christoffel=lambda x, order=order: np.array(hyp._christoffel(x),
                                                    order=order),
        chart_domain=hyp._chart_domain) for order in "CF"]
    rng = np.random.default_rng(31)
    for u in (-0.5, -0.02, 0.0, 0.03, 0.4):
        x = rng.uniform([-1.0, 0.3], [1.0, 2.0])
        state = dynamics.GeodesicState(u, x, rng.uniform(-1.0, 1.0, 2),
                                       *rng.uniform(-1.0, 1.0, 2))
        rates = [dynamics.rhs(state, model, bump, net, 0.05)
                 for model in twins]
        c, f = (np.concatenate([r.xdot, r.xddot, [r.vdot, r.vddot]])
                for r in rates)
        assert c.tobytes() == f.tobytes()


@pytest.mark.parametrize("metric, message", [
    (lambda x: 1.0, r"shape \(\), not \(2, 2\)"),
    (lambda x: np.array([1.0, 2.0]), r"shape \(2,\), not \(2, 2\)"),
    (lambda x: np.eye(3), r"shape \(3, 3\), not \(2, 2\)"),
    (lambda x: [[1.0, 0.0], [0.0]], r"a ragged result, not shape \(2, 2\)"),
], ids=["scalar", "vector", "3x3", "ragged"])
def test_metric_callbacks_of_the_wrong_shape_are_config_errors(metric,
                                                               message):
    # a metric callback's result must have the shape (n, n); before the
    # check, 1.0 and a 2-vector broadcast into a singular "metric" (a chart
    # error, and a failed background path), (3, 3) and a ragged list raised
    # bare ValueErrors, and metric_at returned every result unchecked
    model = geometry.from_metric(2, metric, name="bad")
    x0 = np.zeros(2)
    for call in (
            lambda: model.christoffel_at(x0),
            lambda: model.metric_at(x0),
            lambda: dynamics.background_path(model, x0, np.eye(2)[0], 0.0,
                                             1.0),
            lambda: dynamics.background_path(model, x0, np.eye(2), 0.0, 1.0)):
        with pytest.raises(ConfigError,
                           match="the metric callback of bad gave " + message):
            call()


def test_inverse_metric_callback_of_the_wrong_shape_is_a_config_error():
    # checked at a point and on a batch, as the metric callback is
    x0 = np.zeros(2)
    model = geometry.ManifoldModel(2, lambda x: np.eye(2),
                                   inverse_metric=lambda x: np.eye(3),
                                   name="bad")
    for call in (lambda: model.christoffel_at(x0),
                 lambda: model.inverse_metric_at(x0),
                 lambda: model.inverse_metric(x0[None])):
        with pytest.raises(ConfigError,
                           match=r"the inverse-metric callback of bad gave "
                                 r"shape \(3, 3\), not \(2, 2\)"):
            call()


def _skew_metric(x):
    """A non-conformal metric with off-diagonal terms."""
    off = 0.3 * x[0] * x[1] + 0.1 * np.cos(x[1])
    return np.array([[2.0 + np.sin(x[0]), off], [off, 1.0 + x[1] * x[1]]])


def _fd_points(rng):
    """Points on both sides of |x_a| = 1, where the difference step's scale
    switches, with exact zeros, and at random magnitudes from 1e-4 to 10."""
    below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    scales = [0.0, 1e-4, 0.37, 0.999, below, 1.0, above, 1.001, 2.5, 10.0]
    points = [[s * a, t * b] for s in scales for t in scales
              for a, b in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0))]
    points += (rng.choice([-1.0, 1.0], (300, 2))
               * 10.0 ** rng.uniform(-4.0, 1.0, (300, 2))).tolist()
    return np.array(points)


@pytest.mark.parametrize("model", [
    sphere_from_metric(),
    geometry.from_metric(2, _skew_metric, name="skew"),
    geometry.from_metric(2, _skew_metric, chart_domain=lambda x: x[0] > -20.0,
                         name="skew_cut"),
    # an inverse callback off by a factor 2, so that a point form that
    # inverted the metric itself would differ
    geometry.ManifoldModel(
        2, _skew_metric,
        inverse_metric=lambda x: 2.0 * np.linalg.inv(_skew_metric(x)),
        name="skew_inverse"),
], ids=lambda model: model.name)
def test_2d_difference_christoffel_point_form_is_its_batch_row(model):
    # a 2-D model without a Christoffel callback takes the float form of
    # the difference fallback; it equals the row of the batch form, bit for
    # bit, as a list, through christoffel_at and in the per-point field
    assert model._point_christoffel == model._fd_christoffel_2d
    for x in _fd_points(np.random.default_rng(41)):
        point = model._point_christoffel(x)
        assert type(point[1][0][1]) is float
        row = model._fd_christoffel(x[None])[0]
        assert np.array(point).tobytes() == row.tobytes(), x
        assert model.christoffel_at(x).tobytes() == row.tobytes(), x
    # other dimensions keep the batch of one
    user3 = geometry.from_metric(3, lambda x: np.eye(3) + np.outer(x, x))
    x = np.array([0.3, -1.2, 0.0])
    assert (np.array(user3._point_christoffel(x)).tobytes()
            == user3._fd_christoffel(x[None])[0].tobytes())


def test_2d_difference_christoffel_point_form_checks_as_its_batch():
    seen = []

    def metric(x):
        seen.append(x.tolist())
        return _skew_metric(x)

    def forms(model):
        return (model._point_christoffel,
                lambda x: model._fd_christoffel(x[None]))

    def errors(model, x):
        """The one message of both forms at ``x``, and the callback calls."""
        messages = []
        seen.clear()
        for form in forms(model):
            with pytest.raises(ChartDomainError) as err:
                form(x)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        return messages[0], len(seen)

    model = geometry.from_metric(2, metric, chart_domain=lambda x: x[0] < 0.5)
    # five callbacks per point, in the batch's row order: the point, then
    # its neighbours along +e0, +e1, -e0, -e1
    x = np.array([0.2, -1.7])
    calls = []
    for form in forms(model):
        seen.clear()
        form(x)
        calls.append(list(seen))
    steps = geometry._FD_STEP * np.maximum(1.0, np.abs(x))
    assert calls[0] == calls[1] == [
        x.tolist(), (x + [steps[0], 0.0]).tolist(),
        (x + [0.0, steps[1]]).tolist(), (x - [steps[0], 0.0]).tolist(),
        (x - [0.0, steps[1]]).tolist()]
    # a neighbour outside the chart raises before any callback runs, with
    # the batch form's message
    message, called = errors(model, np.array([0.5 - 1e-7, 0.3]))
    assert message.startswith("point [0.500005") and not called
    # so does a neighbour that is not finite, on a model without a domain
    free = geometry.from_metric(2, metric)
    big = np.finfo(float).max
    with np.errstate(over="ignore"):  # the batch form's stencil overflows
        message, called = errors(free, np.array([big, 0.3]))
        assert "[inf" in message and not called
        message, called = errors(free, np.array([0.3, -big]))
        assert "-inf]" in message and not called
    # a singular metric is a chart error too, naming the point
    singular = geometry.from_metric(2, lambda x: np.diag([1.0, x[0] ** 2]))
    assert errors(singular, np.array([0.0, 0.3]))[0] == (
        "singular metric at point [0.  0.3]")


def test_chord_bound_of_an_indefinite_metric_is_a_chart_error(monkeypatch):
    # h = diag(x1, 1) is indefinite left of x1 = 0: shooting from (-1, 0)
    # to (1, 0) fails, and the least eigenvalue along the chord is not
    # positive, so the chord bound raises, naming the first such point, as
    # a singular metric does, instead of a silent bound of zero
    model = geometry.from_metric(2, lambda x: np.diag([x[0], 1.0]))
    with pytest.raises(ChartDomainError,
                       match=r"not positive definite at point \[-1\.? +0\.?\]"):
        geometry.distance_estimate(model, [-1.0, 0.0], [1.0, 0.0])
    # so does a metric that is not finite on the chord (here past x1 = 0.5,
    # with shooting failing at once)
    def fail(*args, **kwargs):
        raise ShootingFailure("no shooting")

    monkeypatch.setattr(geometry, "_shooting_distance", fail)
    model = geometry.from_metric(
        2, lambda x: np.diag([math.inf if x[0] > 0.5 else 1.0, 1.0]))
    with pytest.raises(ChartDomainError,
                       match=r"not positive definite at point \[0\.5312"):
        geometry.distance_estimate(model, [0.0, 0.0], [1.0, 0.0])


@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
def test_inverse_metric_identity(model):
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = random_point(model, rng)
        prod = model.inverse_metric_at(x) @ model.metric_at(x)
        assert np.max(np.abs(prod - np.eye(model.dim))) < 1e-10


@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
def test_metric_positive_definite(model):
    rng = np.random.default_rng(5)
    for _ in range(50):
        eig = np.linalg.eigvalsh(model.metric_at(random_point(model, rng)))
        assert np.all(eig > 0.0)


@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
def test_christoffel_lower_symmetry(model):
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = model.christoffel_at(random_point(model, rng))
        assert np.allclose(g, np.swapaxes(g, 1, 2), atol=1e-12)


@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
def test_metric_compatibility(model):
    # d_l h_ij = Gamma^m_li h_mj + Gamma^m_lj h_im, differences vs symbols
    step_scale = float(np.finfo(float).eps) ** (1 / 3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = random_point(model, rng)
        n = model.dim
        for l in range(n):
            step = step_scale * max(1.0, abs(x[l]))
            xp, xm = x.copy(), x.copy()
            xp[l] += step
            xm[l] -= step
            dh = (model.metric_at(xp) - model.metric_at(xm)) / (2 * step)
            g = model.christoffel_at(x)
            h = model.metric_at(x)
            recon = np.einsum("mi,mj->ij", g[:, l, :], h) \
                + np.einsum("mj,im->ij", g[:, l, :], h)
            assert np.max(np.abs(dh - recon)) < 1e-6


def test_chart_domain_errors():
    model = geometry.hyperbolic_half_plane()
    bad = np.array([0.0, -1.0])
    with pytest.raises(ChartDomainError):
        model.metric_at(bad)
    with pytest.raises(ChartDomainError):
        model.christoffel_at(bad)
    assert not model.contains(bad)


def _contains_reference(model, x):
    """The chart check as numpy wrote it, with ``np.isfinite``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,) or not np.isfinite(x).all():
        return False
    return model._chart_domain is None or bool(model._chart_domain(x))


def test_contains_checks_floats_as_numpy_did():
    # contains tests finiteness on floats (math.isfinite); it must accept
    # and refuse what np.isfinite did, and require_inside must say so in
    # the same words
    cases = [[0.5, 1.0], (0.5, 1.0), [1, 2], [0, 1], [-3, 0], [1e308, 1.0],
             [0.3, 0.0], [0.3, -0.0], [0.3, 5e-324], [0.3, -5e-324],
             np.array([0.5, 1.0], dtype=np.float32),
             0.5, [], [0.5], [0.5, 1.0, 2.0], [[0.5, 1.0]]]
    for i in range(3):
        for bad in (math.nan, math.inf, -math.inf):
            point = [0.5, 1.0, 2.0]
            point[i] = bad
            cases += [point, point[:2]]
    cut = geometry.from_metric(2, lambda x: np.eye(2),
                               chart_domain=lambda x: x[0] < 0.5, name="cut")
    for model in models() + [geometry.euclidean(3), cut]:
        for x in cases:
            want = _contains_reference(model, x)
            assert model.contains(x) is want, (model.name, x)
            if want:
                model.require_inside(x)
                continue
            if np.shape(x) != (model.dim,):
                error = ConfigError
                message = (f"point of shape {np.shape(x)} does not match the "
                           f"dimension {model.dim} of {model.name}")
            else:
                error = ChartDomainError
                message = (f"point {np.asarray(x)} outside chart domain of "
                           f"{model.name}")
            with pytest.raises(error) as err:
                model.require_inside(x)
            assert str(err.value) == message, (model.name, x)
    hyp = geometry.hyperbolic_half_plane()
    for x2, inside in ((0.0, False), (-0.0, False), (5e-324, True)):
        assert hyp.contains([0.3, x2]) is inside
    with pytest.raises(ChartDomainError) as err:
        hyp.require_inside([0.3, -0.0])
    assert str(err.value) == ("point [ 0.3 -0. ] outside chart domain of "
                              "hyperbolic_half_plane")
    with pytest.raises(ConfigError) as err:
        hyp.require_inside([0.3, 1.0, 2.0])
    assert str(err.value) == ("point of shape (3,) does not match the "
                              "dimension 2 of hyperbolic_half_plane")


@pytest.mark.parametrize("model", models() + [sphere_from_metric(),
                                              sphere_point_forms()],
                         ids=lambda m: m.name)
def test_batch_forms_match_point_forms(model):
    # each point form is its batch row bit for bit; the last two points
    # caught point forms that rounded otherwise: x2 = 2.759 squared by the
    # scalar ** 2 (pow) of the hyperbolic plane, and (-2, 0.8) on the
    # sphere, whose |x|^2 was a BLAS dot product
    rng = np.random.default_rng(41)
    xs = np.array([random_point(model, rng) for _ in range(200)]
                  + [[0.3, 2.759], [-2.0, 0.8]])
    assert model.inside(xs).all()
    gammas = model.christoffel(xs)
    inverses = model.inverse_metric(xs)
    assert gammas.shape == (202, 2, 2, 2) and inverses.shape == (202, 2, 2)
    for x, gamma, inv in zip(xs, gammas, inverses):
        assert gamma.tobytes() == model.christoffel_at(x).tobytes()
        assert inv.tobytes() == model.inverse_metric_at(x).tobytes()
    # an empty batch keeps its shape through every batch form
    empty = np.empty((0, 2))
    assert model.inside(empty).shape == (0,)
    assert model.christoffel(empty).shape == (0, 2, 2, 2)
    assert model.inverse_metric(empty).shape == (0, 2, 2)
    bump = profiles.gaussian_bump_profile(1.0, [0.1, 0.2], 0.8)
    assert profiles.metric_gradient(bump, model, empty).shape == (0, 2)


def _extreme_points(model, rng):
    """Seeded points across each chart's range: the hyperbolic plane with
    ``x2`` from 1e-150 to 1e3, the sphere with ``|x|`` up to 1e3, and exact
    zeros."""
    if model.name == "hyperbolic_half_plane":
        x2 = 10.0 ** rng.uniform(-150.0, 3.0, 60)
        pts = np.column_stack([rng.uniform(-5.0, 5.0, 60), x2])
        return np.vstack([pts, [[0.0, 1e-3], [-0.0, 2.0]]])
    r = 10.0 ** rng.uniform(-8.0, 3.0, 60)
    phi = rng.uniform(0.0, 2.0 * math.pi, 60)
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    return np.vstack([pts, [[0.0, 0.0], [-0.0, 1e3], [1e3, -1e3]]])


def _extreme_gradients(rng):
    """``df`` vectors with signed zeros, subnormal, tiny and large entries."""
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e-300,
               -1e300, 1e308, -1.7e308]
    mags = 10.0 ** rng.uniform(-300.0, 300.0, (40, 2))
    dfs = rng.choice([-1.0, 1.0], (40, 2)) * mags
    pairs = [[a, b] for a in special for b in special[::3]]
    return np.vstack([dfs, pairs, [[1.5, -0.0], [-0.0, -2.5], [0.0, 3.0]]])


@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
def test_conformal_gradient_is_numpys_product(model):
    # the 2-D built-ins form h^-1 df = s(x) df on floats; it must keep the
    # bytes of numpy's product, signed zeros and overflow included (a plain
    # [s * a, s * b] gives -0.0 where numpy's sum from 0.0 gives 0.0)
    assert model._point_gradient.func is geometry._scaled_gradient
    rng = np.random.default_rng(27)
    dfs = _extreme_gradients(rng)
    with np.errstate(all="ignore"):
        for x in _extreme_points(model, rng):
            inv = model.inverse_metric_at(x)
            for df in dfs:
                got = np.array(model._point_gradient(x, df))
                assert got.tobytes() == (inv @ df).tobytes(), (x, df)


def test_other_models_keep_numpys_gradient_product():
    # a from_metric model and a built-in of another dimension keep the
    # product of numpy's inverse metric and df
    rng = np.random.default_rng(28)
    for model in (sphere_from_metric(), geometry.euclidean(3)):
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, model.dim)
            df = rng.standard_normal(model.dim)
            want = (model.inverse_metric_at(x) @ df).tolist()
            assert model._point_gradient(x, df) == want


@pytest.mark.parametrize("model", models() + [geometry.euclidean(3),
                                              sphere_from_metric()],
                         ids=lambda m: m.name)
def test_batch_metric_is_the_point_callback_row_by_row(model):
    # the node metrics of the energy diagnostics come from one batch call,
    # which must give the point callback's bytes on every row
    rng = np.random.default_rng(29)
    if model.dim == 2:
        xs = _extreme_points(model, rng)
    else:
        xs = rng.uniform(-3.0, 3.0, (20, model.dim))
    with np.errstate(all="ignore"):
        got = model._metrics(xs)
        assert got.shape == (len(xs), model.dim, model.dim)
        for x, h in zip(xs, got):
            assert h.tobytes() == model.metric_at(x).tobytes(), x
    assert model._metrics(np.empty((0, model.dim))).shape == (0,) + (
        model.dim,) * 2


@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
def test_batch_christoffel_keeps_the_memory_order_of_the_batch(model):
    # the Picard grids are Fortran-ordered; Christoffel symbols whose batch
    # axis is contiguous there keep batch_acceleration's einsum on its fast
    # path, and both layouts give the same bytes
    rng = np.random.default_rng(30)
    xs = np.array([random_point(model, rng) for _ in range(301)])
    xd = rng.standard_normal((301, 2))
    xd[::7] = 0.0
    xd[3::7] = -0.0
    fortran = np.asfortranarray(xs)
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    assert model.christoffel(fortran).strides[0] == 8
    assert model.christoffel(xs).flags.c_contiguous
    assert model.christoffel(xs[:1]).flags.c_contiguous
    acc_c, _ = dynamics.batch_acceleration(model, None, xs, xd, None, None)
    acc_f, _ = dynamics.batch_acceleration(model, None, fortran,
                                           np.asfortranarray(xd), None, None)
    assert acc_c.tobytes() == acc_f.tobytes()
    assert np.array_equal(model.christoffel(fortran), model.christoffel(xs))


def test_batch_forms_reject_points_outside_chart():
    hyp = geometry.hyperbolic_half_plane()
    xs = np.array([[0.0, 1.0], [0.5, 0.0], [1.0, 2.0]])
    assert hyp.inside(xs).tolist() == [True, False, True]
    for form in (hyp.christoffel, hyp.inverse_metric):
        with pytest.raises(ChartDomainError):
            form(xs)
    user = geometry.from_metric(2, lambda x: np.eye(2) / x[1] ** 2,
                                chart_domain=lambda x: x[1] > 0.0)
    with pytest.raises(ChartDomainError):
        user.christoffel(xs)
    # inside the chart, but the -step neighbour of the x2 difference is not;
    # the integrator relies on this error to retry a smaller step there
    edge = np.array([0.0, 3e-6])
    assert user.contains(edge)
    with pytest.raises(ChartDomainError):
        user.christoffel_at(edge)
    with pytest.raises(ChartDomainError):
        user.christoffel(edge[None])
    for model in models() + [user]:
        bad = np.array([[0.1, 1.0], [np.nan, 1.0]])
        assert model.inside(bad).tolist() == [True, False]
        for form in (model.christoffel, model.inverse_metric):
            with pytest.raises(ChartDomainError):
                form(bad)


def test_singular_metric_is_a_chart_error():
    # diag(1, x1^2) degenerates on the line x1 = 0, inside its chart: the
    # three inverses of the metric raise as a point outside the chart would
    model = geometry.from_metric(2, lambda x: np.diag([1.0, x[0] ** 2]))
    point = np.array([0.0, 0.3])
    for form in (model.christoffel_at, model.inverse_metric_at):
        with pytest.raises(ChartDomainError, match="singular metric"):
            form(point)
    with pytest.raises(ChartDomainError, match="singular metric") as err:
        model.inverse_metric(np.array([[1.0, 0.3], point]))
    assert str(err.value).endswith(str(point))
    with pytest.raises(ChartDomainError, match="singular metric"):
        existence.certify(model, profiles.linear_profile([1.0, 0.0]),
                          [0.0, 0.0], [1.0, 0.0])
    # a start point there is refused before any integration, as a start
    # point outside the chart is
    with pytest.raises(ChartDomainError,
                       match=r"not positive definite at point \[0\.? +0\.3\]"):
        geometry.background_geodesic(model, point, [1.0, 0.0], 0.0, 1.0)
    # off the line the inverse is the one of numpy, bit for bit
    x = np.array([0.7, -0.2])
    assert (model.inverse_metric_at(x).tobytes()
            == np.linalg.inv(np.diag([1.0, 0.7 ** 2])).tobytes())


def test_background_geodesic_is_background_path():
    assert geometry.background_geodesic is dynamics.background_path


def test_background_straight_line():
    model = geometry.euclidean(2)
    path = geometry.background_geodesic(model, [0.0, 0.0], [1.0, 0.0],
                                        -1.0, 1.0)
    us = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(path.x_at(us) - np.stack([us + 1.0,
                                                   np.zeros_like(us)], 1))) < 1e-12


def test_background_hyperbolic_vertical_exponential():
    # vertical geodesics of the half-plane: x2(u) = exp(u) at unit speed
    model = geometry.hyperbolic_half_plane()
    path = geometry.background_geodesic(model, [0.0, 1.0], [0.0, 1.0],
                                        0.0, 1.0)
    nodes = path.node_parameters()
    assert np.max(np.abs(path.x_at(nodes)[:, 1] - np.exp(nodes))) < 2e-9
    # between nodes the cubic Hermite interpolant limits the accuracy
    us = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(path.x_at(us)[:, 1] - np.exp(us))) < 1e-7
    assert np.max(np.abs(path.x_at(us)[:, 0])) < 1e-12


def sphere_circle_oracle(x0, speed, us):
    """Closed-form great circle through chart point x0 = (0, y0).

    The circle is parametrized by arc length theta = speed * u in the
    embedding; the chart image follows by projecting back.
    """
    x0 = np.asarray(x0, dtype=float)
    r2 = float(x0 @ x0)
    p0 = np.array([2 * x0[0], 2 * x0[1], r2 - 1.0]) / (1.0 + r2)
    t0 = np.array([1.0, 0.0, 0.0])  # unit tangent of chart direction (1, 0)
    out = []
    for u in us:
        theta = speed * u
        p = math.cos(theta) * p0 + math.sin(theta) * t0
        out.append(p[:2] / (1.0 - p[2]))
    return np.array(out)


def test_background_sphere_great_circle_period():
    model = geometry.sphere_stereographic()
    x0 = np.array([0.0, 0.5])
    xdot0 = np.array([1.0, 0.0])
    speed = model.norm_at(x0, xdot0)  # 2/(1+0.25) = 1.6
    assert abs(speed - 1.6) < 1e-14
    period = 2 * math.pi / speed
    path = geometry.background_geodesic(model, x0, xdot0, 0.0, period)
    us = np.linspace(0.0, period, 101)
    oracle = sphere_circle_oracle(x0, speed, us)
    assert np.max(np.abs(path.x_at(us) - oracle)) < 1e-7
    # returns to the start after one period; hits the antipode halfway
    assert np.linalg.norm(path.x_at(period) - x0) < 1e-8
    assert np.linalg.norm(path.x_at(period / 2) - np.array([0.0, -2.0])) < 1e-8


def _sphere_embed_differential(x):
    """The differential at ``x`` of ``geometry._sphere_embed``, the inverse
    stereographic map onto the unit sphere in R^3 (an isometry)."""
    x0, x1 = x
    d = 1.0 + x0 * x0 + x1 * x1
    q = 4.0 / (d * d)
    return np.array([[2.0 / d - q * x0 * x0, -q * x0 * x1],
                     [-q * x0 * x1, 2.0 / d - q * x1 * x1],
                     [q * x0, q * x1]])


def _oracle_paths(model, x0, velocities):
    """The background paths over u in [0, 1] of each velocity alone (the
    1-D loop) and of all of them as one batch (the ensemble loop)."""
    for v in velocities:
        yield "single", v, dynamics.background_path(model, x0, v, 0.0, 1.0)
    batch = dynamics.background_path(model, x0, velocities, 0.0, 1.0)
    for v, path in zip(velocities, batch):
        yield "batch", v, path


def test_background_sphere_follows_great_circles():
    # a geodesic of the round sphere is a great circle: mapped into R^3,
    # p(u) = cos(s u) p0 + sin(s u) w0 / s with w0 the embedded velocity
    # and s = |w0|.  Worst error measured at rtol = atol = 1e-10: 6.2e-10
    # (position or velocity, single and batch rows alike); bound 1e-8
    model = geometry.sphere_stereographic()
    rng = np.random.default_rng(0)
    us = np.linspace(0.0, 1.0, 101)
    worst = {}
    for _ in range(20):
        x0 = rng.uniform(-0.8, 0.8, 2)
        p0 = geometry._sphere_embed(x0)
        for form, v, path in _oracle_paths(model, x0,
                                           rng.uniform(-1, 1, (3, 2))):
            w0 = _sphere_embed_differential(x0) @ v
            s = np.linalg.norm(w0)
            c, sn = np.cos(s * us)[:, None], np.sin(s * us)[:, None]
            xs, vs = path.x_at(us), path.xdot_at(us)
            got_p = np.array([geometry._sphere_embed(x) for x in xs])
            got_w = np.array([_sphere_embed_differential(x) @ xd
                              for x, xd in zip(xs, vs)])
            err = max(np.max(np.abs(got_p - (c * p0 + sn * (w0 / s)))),
                      np.max(np.abs(got_w - (c * w0 - s * sn * p0))))
            worst[form] = max(worst.get(form, 0.0), err)
    assert sorted(worst) == ["batch", "single"]
    assert max(worst.values()) < 1e-8, worst


def test_background_hyperbolic_distance_grows_linearly():
    # a geodesic minimizes distance on the hyperbolic plane: its distance
    # from the start is |xdot0|_h u.  Worst error measured at rtol = atol
    # = 1e-10: 2.0e-10 (single and batch rows alike); bound 1e-9
    model = geometry.hyperbolic_half_plane()
    rng = np.random.default_rng(0)
    us = np.linspace(0.0, 1.0, 101)
    worst = {}
    for _ in range(20):
        x0 = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2)])
        for form, v, path in _oracle_paths(model, x0,
                                           rng.uniform(-1, 1, (3, 2))):
            dist = [model._exact_distance(x0, x) for x in path.x_at(us)]
            err = np.max(np.abs(np.array(dist) - model.norm_at(x0, v) * us))
            worst[form] = max(worst.get(form, 0.0), err)
    assert sorted(worst) == ["batch", "single"]
    assert max(worst.values()) < 1e-9, worst


def test_background_sphere_escape_through_missing_point():
    # every great circle through the chart origin passes through the point
    # the chart misses; the blow-up guard reports the escape
    model = geometry.sphere_stereographic()
    with pytest.raises(IntegrationFailure) as err:
        geometry.background_geodesic(model, [0.0, 0.0], [1.0, 0.0], 0.0, 3.0)
    assert err.value.reason == "blow_up"
    # the chart radius is tan(u) at speed 2, so the missing point sits at pi/2
    assert 1.4 < err.value.u <= math.pi / 2 + 1e-6


@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
def test_background_speed_conservation(model):
    rng = np.random.default_rng(8)
    for _ in range(5):
        x0 = random_point(model, rng)
        w = rng.normal(size=model.dim)
        path = geometry.background_geodesic(model, x0, w, -1.0, 1.0)
        us = np.linspace(-1.0, 1.0, 41)
        speeds = []
        for u in us:
            st = path.state_at(u)
            h = model.metric_at(st.x)
            speeds.append(float(st.xdot @ h @ st.xdot))
        speeds = np.array(speeds)
        assert np.max(np.abs(speeds - speeds[0])) < 1e-8 * (1 + abs(speeds[0]))


def test_affine_reparametrization():
    model = geometry.hyperbolic_half_plane()
    x0 = np.array([0.0, 1.0])
    w = np.array([0.3, 0.5])
    slow = geometry.background_geodesic(model, x0, w, -1.0, 1.0)
    fast = geometry.background_geodesic(model, x0, 2.0 * w, -1.0, 0.0)
    s = np.linspace(0.0, 2.0, 33)
    assert np.max(np.abs(fast.x_at(-1.0 + s / 2) - slow.x_at(-1.0 + s))) < 1e-8


# The draws of the exact-fact tests below, per chart: the box of start
# points and the bound on each velocity component.  With u in [0, T],
# T <= 1, no path nears a chart edge:
# - euclidean: every point is in the chart;
# - hyperbolic plane: the speed |v| / x2 is at most 0.71 / 0.5 = 1.42, and
#   x2 changes along a geodesic by at most the factor e^(arc length), so it
#   stays above 0.5 e^-1.42 = 0.12 (0.06 after a dilation by 1/2);
# - sphere: |x| <= 0.99 is the lower hemisphere, and the speed
#   2 |v| / (1 + |x|^2) is at most 1, so a path stays 0.57 rad (pi/2 - 1)
#   from the point the chart misses: |x| stays below tan(1.29) = 3.4.
_DRAWS = {
    "euclidean(2)": ([-2.0, -2.0], [2.0, 2.0], 2.0),
    "hyperbolic_half_plane": ([-1.0, 0.5], [1.0, 2.0], 0.5),
    "sphere_stereographic": ([-0.7, -0.7], [0.7, 0.7], 0.35),
}
_UNIT = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
_SPAN = st.floats(0.1, 1.0)


def _drawn_geodesic(model, unit, span):
    """The background path over ``[0, span]`` from the data that ``unit``
    (four numbers in [0, 1]) picks in the chart's box of ``_DRAWS``, and
    its 11 sample parameters."""
    lo, hi, vmax = _DRAWS[model.name]
    x0 = np.array(lo) + np.array(unit[:2]) * (np.array(hi) - lo)
    v0 = vmax * (2.0 * np.array(unit[2:]) - 1.0)
    path = geometry.background_geodesic(model, x0, v0, 0.0, span)
    return x0, v0, path, np.linspace(0.0, span, 11)


@settings(max_examples=10, deadline=None, database=None)
@given(unit=_UNIT, span=_SPAN)
@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
def test_background_geodesic_retraces_itself_reversed(model, unit, span):
    # time reversal: from the end point with the negated velocity the
    # geodesic runs back through the same points
    _, _, path, us = _drawn_geodesic(model, unit, span)
    back = geometry.background_geodesic(model, path.x_at(span),
                                        -path.xdot_at(span), 0.0, span)
    np.testing.assert_allclose(back.x_at(span - us), path.x_at(us),
                               rtol=0.0, atol=1e-7)


def _rotation(p):
    c, s = math.cos(2.0 * math.pi * p), math.sin(2.0 * math.pi * p)
    return np.array([[c, -s], [s, c]]), np.zeros(2)


def _translation_x1(p):
    return np.eye(2), np.array([4.0 * p - 2.0, 0.0])


def _dilation(p):
    return 0.5 * 4.0 ** p * np.eye(2), np.zeros(2)


@settings(max_examples=10, deadline=None, database=None)
@given(unit=_UNIT, span=_SPAN, p=st.floats(0.0, 1.0))
@pytest.mark.parametrize("model, isometry", [
    (geometry.euclidean(2), _rotation),
    (geometry.sphere_stereographic(), _rotation),
    (geometry.hyperbolic_half_plane(), _translation_x1),
    (geometry.hyperbolic_half_plane(), _dilation),
], ids=["euclidean-rotation", "sphere-rotation", "hyperbolic-translation",
        "hyperbolic-dilation"])
def test_background_geodesics_follow_isometries(model, isometry, unit, span,
                                                p):
    # an isometry x -> A x + b of the chart (rotations about the origin of
    # the plane and of the stereographic sphere; translations along x1 and
    # dilations of the half-plane) maps geodesics to geodesics with the
    # same affine parameter: the data (A x0 + b, A v0) give A x(u) + b
    a, b = isometry(p)
    x0, v0, path, us = _drawn_geodesic(model, unit, span)
    image = geometry.background_geodesic(model, a @ x0 + b, a @ v0, 0.0, span)
    np.testing.assert_allclose(image.x_at(us), path.x_at(us) @ a.T + b,
                               rtol=0.0, atol=1e-7)


def test_distance_euclidean():
    model = geometry.euclidean(2)
    est = geometry.distance_estimate(model, [0.0, 0.0], [3.0, 4.0])
    assert est.value == pytest.approx(5.0, abs=1e-12)
    assert not est.lower_bound


def test_distance_hyperbolic_closed_form():
    model = geometry.hyperbolic_half_plane()
    est = geometry.distance_estimate(model, [0.0, 1.0], [0.0, math.e])
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_distance_identity():
    for model in models():
        x = np.array([0.1, 0.7])
        assert geometry.distance_estimate(model, x, x).value == 0.0


def test_distance_sphere_quarter_circle():
    model = geometry.sphere_stereographic()
    # (0,0) maps to one pole, (1,0) to a point on the equator
    est = geometry.distance_estimate(model, [0.0, 0.0], [1.0, 0.0])
    assert est.value == pytest.approx(math.pi / 2, abs=1e-12)


def test_distance_shooting_matches_closed_form():
    analytic = geometry.hyperbolic_half_plane()
    user = geometry.from_metric(2, analytic._metric,
                                chart_domain=lambda x: x[1] > 0,
                                name="hyperbolic-user")
    a = np.array([0.0, 1.0])
    b = np.array([0.5, 1.2])
    est = geometry.distance_estimate(user, a, b)
    exact = geometry.distance_estimate(analytic, a, b)
    assert est.method == "shooting"
    assert est.value == pytest.approx(exact.value, abs=1e-6)


@pytest.mark.parametrize("failure", [
    ShootingFailure("shooting did not converge"),
    IntegrationFailure("blow_up", 0.5, np.zeros(6), "background"),
], ids=lambda exc: type(exc).__name__)
@pytest.mark.parametrize("chart_domain", [None, lambda x: abs(x[0]) > 0.2],
                         ids=["whole_plane", "chord_leaves_chart"])
def test_distance_chord_lower_bound_when_shooting_fails(monkeypatch, failure,
                                                        chart_domain):
    # h = 4 I: the chord bound is exact, 2 |x - xbar|; chord samples outside
    # the chart are skipped
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(geometry, "_shooting_distance", fail)
    model = geometry.from_metric(2, lambda x: 4.0 * np.eye(2),
                                 chart_domain=chart_domain)
    x, xbar = np.array([-1.0, 0.0]), np.array([1.0, 0.5])
    est = geometry.distance_estimate(model, x, xbar)
    assert est.method == "chord_lower_bound" and est.lower_bound
    assert est.value == pytest.approx(2.0 * np.linalg.norm(xbar - x),
                                      rel=1e-15)


@pytest.mark.parametrize("endpoint, message", [
    # the endpoint does not move with the velocity
    (lambda model, x, w: np.full(np.shape(w), 5.0), "singular shooting Jacobian"),
    # |w|^2 + 1 never reaches a target less than one away
    (lambda model, x, w: x + w * w + 1.0, "shooting did not converge"),
], ids=["singular", "no-convergence"])
def test_shooting_failures(monkeypatch, endpoint, message):
    monkeypatch.setattr(geometry, "_shooting_endpoint", endpoint)
    model = geometry.from_metric(2, lambda x: np.eye(2))
    with pytest.raises(ShootingFailure, match=message):
        geometry._shooting_distance(model, np.array([0.0, 0.0]),
                                    np.array([0.3, 0.4]))


def hyperbolic_callbacks(chart_domain):
    """The hyperbolic half-plane through its point callbacks alone, on the
    chart ``chart_domain``: no closed-form distance, so distance_estimate
    shoots, and no difference neighbours meet the chart edge before the
    path does."""
    hyp = geometry.hyperbolic_half_plane()
    return geometry.ManifoldModel(
        2, hyp._metric, inverse_metric=hyp._inverse_metric,
        christoffel=hyp._christoffel, chart_domain=chart_domain,
        name="hyperbolic_callbacks")


def _record_endpoints(monkeypatch):
    """Record ``(shape of w, failure reason or None)`` per shooting call."""
    calls = []
    endpoint = geometry._shooting_endpoint

    def recorded(model, x, w):
        try:
            out = endpoint(model, x, w)
        except IntegrationFailure as exc:
            calls.append((np.shape(w), exc.reason))
            raise
        calls.append((np.shape(w), None))
        return out

    monkeypatch.setattr(geometry, "_shooting_endpoint", recorded)
    return calls


def test_stencil_row_leaving_the_chart_gives_the_chord_bound(monkeypatch):
    # the first centre from (0, 1) towards (0.5, 1.2) misses and ends near
    # x1 = 0.5588; x1 grows along it, and the chart ends between that end
    # and the end of the stencil row w + dw e_0 (about 9e-7 further), so
    # only that row leaves it.  h = I / x2^2 on the chord, whose highest
    # point is the target: the bound is |xbar - x| / 1.2
    x, xbar = np.array([0.0, 1.0]), np.array([0.5, 1.2])
    free = hyperbolic_callbacks(lambda p: p[1] > 0.0)
    edge = geometry._shooting_endpoint(free, x, xbar - x)[0] + 5e-7
    model = hyperbolic_callbacks(lambda p: p[1] > 0.0 and p[0] < edge)
    calls = _record_endpoints(monkeypatch)
    est = geometry.distance_estimate(model, x, xbar)
    assert calls == [((2,), None), ((4, 2), "chart_escape")]
    assert est.method == "chord_lower_bound" and est.lower_bound
    assert est.value == pytest.approx(np.linalg.norm(xbar - x) / 1.2,
                                      rel=1e-15)


def test_centre_leaving_the_chart_gives_the_chord_bound(monkeypatch):
    # the chart misses a disc around the point at u = 0.5 of the first
    # centre from (0, 1) towards (0.5, 1.2); the chord bound skips the
    # chord samples in the disc, and its highest point is still the target
    x, xbar = np.array([0.0, 1.0]), np.array([0.5, 1.2])
    hole = dynamics.background_path(geometry.hyperbolic_half_plane(), x,
                                    xbar - x, 0.0, 1.0).x_at(0.5)
    model = hyperbolic_callbacks(
        lambda p: p[1] > 0.0 and float((p - hole) @ (p - hole)) > 0.05 ** 2)
    calls = _record_endpoints(monkeypatch)
    est = geometry.distance_estimate(model, x, xbar)
    assert calls == [((2,), "chart_escape")]
    assert est.method == "chord_lower_bound" and est.lower_bound
    assert est.value == pytest.approx(np.linalg.norm(xbar - x) / 1.2,
                                      rel=1e-15)


@pytest.mark.xfail(
    strict=True,
    reason="the chart is checked at Runge-Kutta stage points only, not on "
           "the dense interpolant between nodes: the flat field lets the "
           "error control step from u = 0.145 to 0.732 across the hole "
           "(x_at(0.5) is its centre), and shooting returns 1.0770.  Strict "
           "xfail: a fix that sees the hole must remove the marker.")
def test_step_across_a_chart_hole_is_a_chart_escape():
    # the plane without the disc of radius 0.1 about (0.5, 0.2); the
    # straight geodesic from the origin with velocity (1, 0.4) runs through
    # the centre of the disc at u = 0.5
    hole = np.array([0.5, 0.2])
    model = geometry.from_metric(
        2, lambda p: np.eye(2),
        chart_domain=lambda p: float((p - hole) @ (p - hole)) > 0.1 ** 2)
    x, w = np.array([0.0, 0.0]), np.array([1.0, 0.4])
    with pytest.raises(IntegrationFailure) as info:
        dynamics.background_path(model, x, w, 0.0, 1.0)
    assert info.value.reason == "chart_escape"
    est = geometry.distance_estimate(model, x, x + w)
    assert est.method == "chord_lower_bound" and est.lower_bound


def _sphere_pairs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = rng.uniform(-0.6, 0.6, 2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        yield a, a + 0.5 * np.array([math.cos(angle), math.sin(angle)])


def test_shooting_distance_obeys_exact_facts():
    # the sphere given by its metric alone: shooting, checked against facts
    # that hold exactly, namely symmetry, invariance under rotations about
    # the chart origin (isometries of 4 / (1 + |x|^2)^2 I) and the closed
    # form of the built-in sphere.  A rotation repeats the same iteration
    # to within rounding.  Symmetry and the closed form carry the error
    # of the Newton stop, an endpoint miss of up to 1e-9 (1 + |xbar|),
    # about 2.2e-9 here, which the metric stretches by up to 2; measured
    # up to 1.7e-9 over 100 such pairs
    user = sphere_from_metric()
    exact = geometry.sphere_stereographic()
    for k, (a, b) in enumerate(_sphere_pairs(11, 5)):
        c, s = math.cos(0.7 + k), math.sin(0.7 + k)
        rot = np.array([[c, -s], [s, c]])
        ests = [geometry.distance_estimate(user, p, q)
                for p, q in ((a, b), (b, a), (rot @ a, rot @ b))]
        assert all(e.method == "shooting" for e in ests)
        d, back, rotated = (e.value for e in ests)
        assert abs(rotated - d) <= 1e-9
        assert abs(back - d) <= 1e-8
        assert abs(d - geometry.distance_estimate(exact, a, b).value) <= 5e-9
