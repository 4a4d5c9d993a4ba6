"""Chart-based Riemannian manifolds (N, h).

A :class:`ManifoldModel` is a single chart: a metric callback on chart
coordinates, optional analytic inverse metric and Christoffel symbols
(finite differences of the metric otherwise), a chart-domain predicate, and
a declared completeness flag.  Chart transitions are out of scope; a
geodesic leaving the chart domain is an integration failure.  The
integrator checks the chart at every Runge-Kutta stage point, hence at
every node of a path, but not on the dense interpolant between nodes: a
step can cross a hole in a non-convex chart unseen when no stage point
falls in it.

Fields come in two forms: per point (``christoffel_at``,
``inverse_metric_at``, ``contains``) and on ``(B, n)`` batches of points
(``christoffel``, ``inverse_metric``, ``inside``).  The ``*_at`` methods
and ``christoffel``/``inverse_metric`` are the checked public forms: each
checks the chart, then calls the model's unchecked form (the closed-form
callback, or the fallback from the metric, chosen when the model is
built).  The geodesic fields check the chart once per call and then call
the unchecked forms themselves.

The built-in models evaluate batches in closed form.  Models given only by
a metric take their Christoffel symbols from one batched central
difference of the metric (:func:`central_difference`), for a single point
as for a batch, and their inverse metrics from one batched inverse (or the
inverse-metric callback per point); their chart test loops over
``contains``.

Built-in models
---------------
``euclidean(n)``
    Flat space, identity metric, vanishing Christoffel symbols.
``hyperbolic_half_plane()``
    The upper half-plane ``x2 > 0`` with metric ``diag(1, 1) / x2**2``
    (constant curvature -1); the single chart covers the whole manifold.
``sphere_stereographic()``
    The round unit sphere in the stereographic chart with metric
    ``4 / (1 + |x|^2)^2 * I``.  The chart misses one point; trajectories
    running into it blow up in chart coordinates and are caught by the
    integration guard.
"""

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import dynamics
from .errors import (ChartDomainError, ConfigError, IntegrationFailure,
                     ShootingFailure)

__all__ = [
    "ManifoldModel", "euclidean", "hyperbolic_half_plane",
    "sphere_stereographic", "from_metric", "background_geodesic",
    "DistanceEstimate", "distance_estimate",
]

# optimal central-difference step for first derivatives, scaled by magnitude
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


class ManifoldModel:
    """A Riemannian manifold presented in a single coordinate chart.

    The metric, inverse-metric and Christoffel callbacks take a float
    ``(n,)`` point inside the chart.  ``christoffel`` returns
    ``Gamma[k][i][j]`` there, as an ``(n, n, n)`` array or as a nested list
    of floats.  Its result is checked for that shape, raising
    :class:`ConfigError` otherwise, and converted once to the nested list
    of floats that the per-point geodesic field reads.
    """

    def __init__(self, dim, metric, *, inverse_metric=None, christoffel=None,
                 chart_domain=None, complete=False, name="user",
                 exact_distance=None):
        self.dim = int(dim)
        self.name = name
        self.completeness_declared = bool(complete)
        self._metric = metric
        self._inverse_metric = inverse_metric
        self._christoffel = christoffel
        self._chart_domain = chart_domain
        self._exact_distance = exact_distance
        # a callback replaces the fallback from the metric, point and batch
        n = self.dim
        if christoffel is not None:
            self._point_christoffel = self._checked_christoffel
            self._batch_christoffel = partial(
                _stack_rows, self._checked_christoffel, shape=(n, n, n))
        if inverse_metric is not None:
            self._batch_inverse_metric = partial(_stack_rows, inverse_metric,
                                                 shape=(n, n))
        if chart_domain is None:
            self._batch_chart_domain = _finite_rows

    def __repr__(self):
        return f"ManifoldModel({self.name!r}, dim={self.dim})"

    def contains(self, x):
        # finiteness on floats: numpy's cost per call would outweigh the
        # arithmetic on one point, checked at every field call
        x = np.asarray(x, dtype=float)
        if (x.shape != (self.dim,)
                or not all(map(math.isfinite, x.tolist()))):
            return False
        return True if self._chart_domain is None else bool(self._chart_domain(x))

    def require_inside(self, x):
        if not self.contains(x):
            if np.shape(x) != (self.dim,):  # a caller's mistake, not an exit
                raise ConfigError(
                    f"point of shape {np.shape(x)} does not match the "
                    f"dimension {self.dim} of {self.name}")
            raise ChartDomainError(
                f"point {np.asarray(x)} outside chart domain of {self.name}")

    def metric_at(self, x):
        x = np.asarray(x, dtype=float)
        self.require_inside(x)
        return np.asarray(self._metric(x), dtype=float)

    def inverse_metric_at(self, x):
        x = np.asarray(x, dtype=float)
        self.require_inside(x)
        return self._point_inverse_metric(x)

    def christoffel_at(self, x):
        """Christoffel symbols ``Gamma[k, i, j]`` at ``x``.

        Computed from the metric by central finite differences when no
        analytic callback was supplied.
        """
        x = np.asarray(x, dtype=float)
        self.require_inside(x)
        return np.array(self._point_christoffel(x), dtype=float)

    # The unchecked forms, for a float ``(n,)`` point or ``(B, n)`` batch
    # the caller has checked: the fallbacks from the metric, which a
    # callback or a closed form replaces when the model is built.  The
    # point Christoffel symbols are a nested list of floats.
    def _point_inverse_metric(self, x):
        if self._inverse_metric is not None:
            return np.asarray(self._inverse_metric(x), dtype=float)
        return self._inverted(np.asarray(self._metric(x), dtype=float), x)

    def _point_christoffel(self, x):
        return self._fd_christoffel(x[None])[0].tolist()

    def _checked_christoffel(self, x):
        """The Christoffel callback at ``x``, checked for the shape
        ``(n, n, n)`` and converted to a nested list of floats."""
        gamma = self._christoffel(x)
        want = (self.dim,) * 3
        try:
            gamma = np.asarray(gamma, dtype=float)
        except ValueError:  # a ragged nested list
            raise ConfigError(
                f"the Christoffel callback of {self.name} gave a ragged "
                f"result, not shape {want}") from None
        if gamma.shape != want:
            raise ConfigError(
                f"the Christoffel callback of {self.name} gave shape "
                f"{gamma.shape}, not {want}")
        return gamma.tolist()

    def _batch_inverse_metric(self, xs):
        return self._inverted(_stack_rows(self._metric, xs, (self.dim,) * 2),
                              xs)

    def _batch_christoffel(self, xs):
        return self._fd_christoffel(xs)

    def _fd_christoffel(self, xs):
        """Christoffel symbols of a checked ``(B, n)`` batch from the metric."""
        # dh[b, l, i, j] = d_l h_ij; a neighbour outside the chart raises
        h, dh = central_difference(self._metrics, xs)
        hinv = (self._inverted(h, xs) if self._inverse_metric is None
                else self._batch_inverse_metric(xs))
        # T[b, i, j, l] = d_i h_jl + d_j h_il - d_l h_ij
        t = dh + dh.transpose(0, 2, 1, 3) - dh.transpose(0, 2, 3, 1)
        return 0.5 * np.einsum("bkl,bijl->bkij", hinv, t)

    def _inverted(self, h, xs):
        """The inverse of the metric ``h`` at ``xs``, or of a batch of them;
        a singular metric raises as a point outside the chart does."""
        try:
            return np.linalg.inv(h)
        except np.linalg.LinAlgError:
            det = np.linalg.det(np.reshape(h, (-1, self.dim, self.dim)))
            x = np.reshape(xs, (-1, self.dim))[np.argmin(np.abs(det))]
            raise ChartDomainError(f"singular metric at point {x}") from None

    def _metrics(self, xs):
        """The metric callback on a ``(B, n)`` batch inside the chart."""
        xs = self._require_batch_inside(xs)
        return _stack_rows(self._metric, xs, (self.dim, self.dim))

    def inside(self, xs):
        """Chart test on a ``(B, n)`` batch: a ``(B,)`` boolean mask."""
        return self._batch_chart_domain(self._batch(xs))

    def _batch(self, xs):
        """``xs`` as a float ``(B, n)`` batch, or :class:`ConfigError`."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ConfigError(f"expected a (B, {self.dim}) batch of points")
        return xs

    def _batch_chart_domain(self, xs):
        # every chart test, this loop or a replacement, fails non-finite rows
        return np.array([self.contains(x) for x in xs], dtype=bool)

    def _require_batch_inside(self, xs):
        xs = self._batch(xs)
        ok = self._batch_chart_domain(xs)
        if not ok.all():
            raise ChartDomainError(
                f"point {xs[np.argmin(ok)]} outside chart domain of {self.name}")
        return xs

    def inverse_metric(self, xs):
        """Inverse metrics ``(B, n, n)`` on a ``(B, n)`` batch of points."""
        return self._batch_inverse_metric(self._require_batch_inside(xs))

    def christoffel(self, xs):
        """Christoffel symbols ``Gamma[b, k, i, j]`` on a ``(B, n)`` batch."""
        return self._batch_christoffel(self._require_batch_inside(xs))

    def norm_at(self, x, w):
        """Riemannian norm ``sqrt(h(w, w))`` of a tangent vector at ``x``."""
        h = self.metric_at(x)
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ConfigError(
                f"tangent vector of shape {w.shape} does not match the "
                f"dimension {self.dim} of {self.name}")
        if not np.isfinite(w).all():
            raise ConfigError(f"tangent vector {w} is not finite")
        return math.sqrt(max(0.0, float(w @ h @ w)))


def central_difference(field, pts, inside=None):
    """``(field(pts), J)`` with ``J[b, axis, ...]`` the central difference
    of a batch field along ``axis`` at ``pts[b]``.

    ``field`` maps ``(B, n)`` points to ``(B, ...)`` values and is called
    once, on the points and their ``2n`` neighbours together.  Each axis
    steps by the cube-root step scaled by the coordinate's magnitude.  With
    a chart test ``inside``, an axis whose ``+step`` or ``-step`` neighbour
    fails it gets a zero column, and the field never sees that neighbour.
    """
    m, n = pts.shape
    steps = _FD_STEP * np.maximum(1.0, np.abs(pts))
    # rows: the points, then their neighbours indexed [point, sign, axis]
    ys = np.empty(((2 * n + 1) * m, n))
    ys[:m] = pts
    nbrs = ys[m:].reshape(m, 2, n, n)
    nbrs[...] = pts[:, None, None, :]
    diag = nbrs.reshape(m, 2, n * n)[:, :, ::n + 1]  # nbrs[b, sign, a, a]
    diag[:, 0] += steps
    diag[:, 1] -= steps
    if inside is None:
        vals = field(ys)
    else:
        ok = inside(ys[m:]).reshape(m, 2, n).all(axis=1)
        use = np.concatenate([np.ones(m, dtype=bool),
                              np.broadcast_to(ok[:, None], (m, 2, n)).ravel()])
        values = field(ys[use])
        vals = np.zeros((len(ys),) + values.shape[1:])
        vals[use] = values
    tail = vals.shape[1:]
    nb = vals[m:].reshape((m, 2, n) + tail)
    scale = (2.0 * steps).reshape((m, n) + (1,) * len(tail))
    return vals[:m], (nb[:, 0] - nb[:, 1]) / scale


def _stack_rows(point_form, xs, shape):
    """Per-point fallback of a batch form: ``point_form`` row by row."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty((len(xs),) + shape)
    for b, x in enumerate(xs):
        out[b] = point_form(x)
    return out


def _finite_rows(xs):
    return np.isfinite(xs).all(axis=1)


def _with_batch_forms(model, christoffel, inverse_metric,
                      chart_domain=_finite_rows):
    model._point_christoffel = model._christoffel
    model._batch_christoffel = christoffel
    model._batch_inverse_metric = inverse_metric
    model._batch_chart_domain = chart_domain
    return model


def euclidean(n):
    eye = np.eye(n)
    # one list for every point: its readers copy it (christoffel_at and the
    # batch fallback) or only read it (the per-point field)
    zero = np.zeros((n, n, n)).tolist()
    model = ManifoldModel(
        n,
        lambda x: eye.copy(),
        inverse_metric=lambda x: eye.copy(),
        christoffel=lambda x: zero,
        complete=True,
        name=f"euclidean({n})",
        exact_distance=lambda a, b: float(np.linalg.norm(np.subtract(a, b))),
    )
    return _with_batch_forms(
        model,
        lambda xs: np.zeros((len(xs), n, n, n)),
        lambda xs: np.tile(eye, (len(xs), 1, 1)),
    )


def hyperbolic_half_plane():
    # x2 * x2 in every form: numpy's scalar ** 2 (pow) rounds otherwise
    def metric(x):
        return np.diag([1.0, 1.0]) / (x[1] * x[1])

    def inverse(x):
        y2 = x[1] * x[1]
        return np.array([[y2, 0.0], [0.0, y2]])

    def christoffel(x):
        inv_y = 1.0 / x.item(1)
        return [[[0.0, -inv_y], [-inv_y, 0.0]], [[inv_y, 0.0], [0.0, -inv_y]]]

    def batch_inverse(xs):
        out = np.zeros((len(xs), 2, 2))
        out[:, 0, 0] = out[:, 1, 1] = xs[:, 1] * xs[:, 1]
        return out

    def batch_christoffel(xs):
        inv_y = 1.0 / xs[:, 1]
        g = np.zeros((len(xs), 2, 2, 2))
        g[:, 0, 0, 1] = g[:, 0, 1, 0] = -inv_y
        g[:, 1, 0, 0] = inv_y
        g[:, 1, 1, 1] = -inv_y
        return g

    def dist(a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        arg = 1.0 + float((a - b) @ (a - b)) / (2.0 * a[1] * b[1])
        return math.acosh(max(1.0, arg))

    model = ManifoldModel(
        2, metric, inverse_metric=inverse, christoffel=christoffel,
        chart_domain=lambda x: x[1] > 0.0, complete=True,
        name="hyperbolic_half_plane", exact_distance=dist,
    )
    return _with_batch_forms(model, batch_christoffel, batch_inverse,
                             lambda xs: _finite_rows(xs) & (xs[:, 1] > 0.0))


def _sphere_embed(x):
    r2 = float(x @ x)
    return np.array([2.0 * x[0], 2.0 * x[1], r2 - 1.0]) / (1.0 + r2)


def sphere_stereographic():
    flip = np.array([1.0, -1.0])
    eye = np.eye(2)

    # each point form sums |x|^2 as the batch forms' einsum sums a row
    def metric(x):
        x0, x1 = x.tolist()
        c = 2.0 / (1.0 + (x0 * x0 + x1 * x1))
        return (c * c) * np.eye(2)

    def inverse(x):
        x0, x1 = x.tolist()
        c = 2.0 / (1.0 + (x0 * x0 + x1 * x1))
        s = 1.0 / (c * c)
        return np.array([[s, 0.0], [0.0, s]])

    def christoffel(x):
        # conformal metric exp(2 phi) I with phi = log 2 - log(1 + |x|^2):
        # Gamma^k_ij = delta^k_i w_j + delta^k_j w_i - delta_ij w_k
        x0, x1 = x.tolist()
        r = 1.0 + (x0 * x0 + x1 * x1)
        w0, w1 = -2.0 * x0 / r, -2.0 * x1 / r
        return [[[w0, w1], [w1, -w0]], [[-w1, w0], [w0, w1]]]

    def batch_inverse(xs):
        c = 2.0 / (1.0 + np.einsum("bi,bi->b", xs, xs))
        return eye / (c * c)[:, None, None]

    def batch_christoffel(xs):
        w = -2.0 * xs / (1.0 + np.einsum("bi,bi->b", xs, xs))[:, None]
        rot = w[:, ::-1] * flip  # (w1, -w0); Gamma is w, rot, -rot, w
        return np.concatenate((w, rot, -rot, w), axis=1).reshape(-1, 2, 2, 2)

    def dist(a, b):
        pa = _sphere_embed(np.asarray(a, dtype=float))
        pb = _sphere_embed(np.asarray(b, dtype=float))
        return math.acos(min(1.0, max(-1.0, float(pa @ pb))))

    model = ManifoldModel(
        2, metric, inverse_metric=inverse, christoffel=christoffel,
        complete=True, name="sphere_stereographic", exact_distance=dist,
    )
    return _with_batch_forms(model, batch_christoffel, batch_inverse)


def from_metric(dim, metric, *, chart_domain=None, complete=False,
                name="user"):
    """Wrap a user metric callback; the inverse metric is the matrix
    inverse of the metric and the Christoffel symbols fall back to central
    finite differences of it."""
    return ManifoldModel(dim, metric, chart_domain=chart_domain,
                         complete=complete, name=name)


# one background geodesic solver under two public names
background_geodesic = dynamics.background_path


class DistanceEstimate(NamedTuple):
    value: float
    method: str  # "closed_form" | "shooting" | "chord_lower_bound"
    lower_bound: bool


def _shooting_endpoint(model, x, w):
    """The point at ``u = 1`` of the geodesic from ``x`` with velocity
    ``w``, or the ``(B, n)`` points of a ``(B, n)`` batch of velocities,
    integrated as one background ensemble.  A failed row raises its
    :class:`IntegrationFailure`, the first in row order."""
    paths = dynamics.background_path(model, x, w, 0.0, 1.0, rtol=1e-10,
                                     atol=1e-10)
    if np.ndim(w) == 1:
        return paths.x_at(1.0)
    for path in paths:
        if isinstance(path, IntegrationFailure):
            raise path
    return np.array([path.x_at(1.0) for path in paths])


# the shooting stops when the miss is below _SHOOTING_TOL * (1 + |xbar|),
# and fails after _SHOOTING_MAX_ITER Newton steps
_SHOOTING_TOL = 1e-9
_SHOOTING_MAX_ITER = 40


def _shooting_distance(model, x, xbar):
    # Newton iteration on the initial velocity of a unit-time geodesic;
    # the geodesic has constant speed, so its length is sqrt(h(w, w)).
    w = xbar - x
    scale = 1.0 + float(np.linalg.norm(xbar))
    axes = np.arange(model.dim)
    for _ in range(_SHOOTING_MAX_ITER):
        miss = _shooting_endpoint(model, x, w) - xbar
        if float(np.linalg.norm(miss)) <= _SHOOTING_TOL * scale:
            return model.norm_at(x, w)
        # the central-difference stencil, rows w + dw_0 e_0, w - dw_0 e_0,
        # w + dw_1 e_1, ..., integrated as one batch
        dw = 1e-6 * np.maximum(1.0, np.abs(w))
        stencil = np.tile(w, (2 * model.dim, 1))
        stencil[2 * axes, axes] += dw
        stencil[2 * axes + 1, axes] -= dw
        ends = _shooting_endpoint(model, x, stencil)
        jac = (ends[0::2] - ends[1::2]).T / (2.0 * dw)
        try:
            w = w - np.linalg.solve(jac, miss)
        except np.linalg.LinAlgError:
            raise ShootingFailure("singular shooting Jacobian") from None
    raise ShootingFailure("shooting did not converge")


def distance_estimate(model, x, xbar):
    """Estimate the Riemannian distance ``d(x, xbar)``.

    Exact for models declaring a closed form; a geodesic shooting estimate
    otherwise.  Shooting is a Newton iteration on the initial velocity: a
    step integrates the geodesic of the current velocity and, when it
    misses, the ``2n`` velocities of its central-difference Jacobian as one
    background ensemble.  When shooting fails the chord lower bound
    ``|x - xbar| * sqrt(min eigenvalue of h along the chord)`` is returned
    with ``lower_bound=True``; a metric that is not positive definite (or
    not finite) on the chord raises :class:`ChartDomainError` naming the
    point, as a singular metric does.  The estimate feeds the growth
    classifier only, never the integrator.
    """
    x = np.asarray(x, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    model.require_inside(x)
    model.require_inside(xbar)
    if np.array_equal(x, xbar):
        return DistanceEstimate(0.0, "closed_form", False)
    if model._exact_distance is not None:
        return DistanceEstimate(float(model._exact_distance(x, xbar)),
                                "closed_form", False)
    try:
        return DistanceEstimate(_shooting_distance(model, x, xbar),
                                "shooting", False)
    except (ShootingFailure, IntegrationFailure):
        chord = x + np.linspace(0.0, 1.0, 33)[:, None] * (xbar - x)
        chord = chord[model.inside(chord)]  # holds x, which is inside
        lams = np.linalg.eigvalsh(model._metrics(chord)).min(axis=1)
        bad = ~(np.isfinite(lams) & (lams > 0.0))
        if bad.any():
            raise ChartDomainError(f"metric not positive definite at point "
                                   f"{chord[np.argmax(bad)]}")
        value = float(np.linalg.norm(xbar - x)) * math.sqrt(float(lams.min()))
        return DistanceEstimate(value, "chord_lower_bound", True)
