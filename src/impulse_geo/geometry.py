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
the unchecked forms themselves.  All these check the chart only.  Where
data are posed or ``h`` is read as a Riemannian metric (the integrations,
the certificate anchors, ``norm_at``, the chord of :func:`distance_estimate`)
one rule, ``ManifoldModel._require_riemannian``, admits the point: inside
the chart, with a finite, positive-definite metric, read through the
unchecked point form.

Every model gives ``grad f = h^-1 df`` in one point form,
``_point_gradient``, and one batch form, ``_batch_gradient``, which
``profiles.metric_gradient``, the geodesic fields and the Picard iteration
read.  The point form is numpy's product (on floats, with its bits, on the
2-D built-ins); its fused multiply-adds may round a non-diagonal inverse
metric otherwise than the batch einsum does.

The built-in models evaluate batches in closed form, their metrics
included, each bit for bit with the point callback row by row.  Models
given only by a metric take their Christoffel symbols from one batched
central difference of the metric (:func:`central_difference`), their
inverse metrics from one batched inverse (or the inverse-metric callback
per point), and their batch metrics from the callback row by row; their
chart test loops over ``contains``.  On a single point of a 2-D model the
difference runs on floats, bit for bit with its batch row; other
dimensions take the point as a batch of one.  One evaluation of the
Christoffel symbols calls the metric ``2n + 1`` times, on the point and
its ``2n`` neighbours; the geodesic field calls it once more inside the
strip, for the inverse metric at the point.

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
    ``(n,)`` point inside the chart.  ``metric`` and ``inverse_metric``
    return an ``(n, n)`` array there, and ``christoffel`` returns
    ``Gamma[k][i][j]``, as an ``(n, n, n)`` array or as a nested list of
    floats.  Each result is checked for its shape where it is read,
    raising :class:`ConfigError` otherwise; the Christoffel symbols are
    converted once to the nested list of floats that the per-point
    geodesic field reads.
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
        elif n == 2:
            self._point_christoffel = self._fd_christoffel_2d
        if inverse_metric is not None:
            self._point_inverse_metric = self._checked_inverse_metric
            self._batch_inverse_metric = partial(
                _stack_rows, self._checked_inverse_metric, shape=(n, n))
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

    def _require_riemannian(self, x):
        """The least eigenvalue of the metric at ``x``, a point admitted by
        the rule of the module docstring; :class:`ChartDomainError` names
        any other point."""
        x = np.asarray(x, dtype=float)
        self.require_inside(x)
        h = self._point_metric(x)
        least = np.linalg.eigvalsh(h)[0] if np.isfinite(h).all() else math.nan
        if least > 0.0:
            return float(least)
        raise ChartDomainError(f"metric not positive definite at point {x}")

    def metric_at(self, x):
        x = np.asarray(x, dtype=float)
        self.require_inside(x)
        return self._point_metric(x)

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
    # the caller has checked: the metric callback checked for its shape and
    # the fallbacks from the metric, which a callback or a closed form
    # replaces when the model is built.  The point Christoffel symbols are
    # a nested list of floats.
    def _point_metric(self, x):
        return self._checked(self._metric(x), "metric", 2)

    def _point_inverse_metric(self, x):
        return self._inverted(self._point_metric(x), x)

    def _point_gradient(self, x, df):
        """``h^-1(x) df`` as a list of floats, for the ``(n,)`` array
        ``df``; a conformal built-in replaces it (:func:`_scaled_gradient`)."""
        return (self._point_inverse_metric(x) @ df).tolist()

    def _point_christoffel(self, x):
        return self._fd_christoffel(x[None])[0].tolist()

    def _fd_christoffel_2d(self, x):
        """``_fd_christoffel(x[None])[0].tolist()`` for ``n = 2``, bit for
        bit, on floats: numpy's cost per call would outweigh the arithmetic
        on one point.

        The same stencil, chart check and callback calls, in the same
        order: the point, then its neighbours along ``+e0``, ``+e1``,
        ``-e0``, ``-e1``.  The inverse stays ``np.linalg.inv``'s (or the
        inverse-metric callback's), whose rounding floats cannot copy.  Each
        entry of the contraction is summed from 0.0, as ``einsum`` sums it;
        with two terms the order of the sum does not matter."""
        x0, x1 = x.tolist()
        s0 = _FD_STEP * max(1.0, abs(x0))
        s1 = _FD_STEP * max(1.0, abs(x1))
        p0, p1, m0, m1 = x0 + s0, x1 + s1, x0 - s0, x1 - s1
        rows = np.array([[x0, x1], [p0, x1], [x0, p1], [m0, x1], [x0, m1]])
        # without a chart domain the chart test is finiteness, which these
        # six coordinates decide
        if (self._chart_domain is not None
                or not all(map(math.isfinite, (x0, x1, p0, p1, m0, m1)))):
            self._require_batch_inside(rows)
        h, *nbrs = map(self._point_metric, rows)
        hinv = (self._inverted(h, x) if self._inverse_metric is None
                else self._checked_inverse_metric(x)).tolist()
        # p_ij = d_0 h_ij and q_ij = d_1 h_ij from h_ij at x + s0 e0 (a),
        # x + s1 e1 (b), x - s0 e0 (c) and x - s1 e1 (d)
        (a00, a01), (a10, a11) = nbrs[0].tolist()
        (b00, b01), (b10, b11) = nbrs[1].tolist()
        (c00, c01), (c10, c11) = nbrs[2].tolist()
        (d00, d01), (d10, d11) = nbrs[3].tolist()
        w0, w1 = 2.0 * s0, 2.0 * s1
        p00, p01, p10, p11 = ((a00 - c00) / w0, (a01 - c01) / w0,
                              (a10 - c10) / w0, (a11 - c11) / w0)
        q00, q01, q10, q11 = ((b00 - d00) / w1, (b01 - d01) / w1,
                              (b10 - d10) / w1, (b11 - d11) / w1)
        # t[i][j] = [t_ij0, t_ij1] with t_ijl = d_i h_jl + d_j h_il - d_l h_ij
        t = (((p00 + p00) - p00, (p01 + p01) - q00),
             ((p10 + q00) - p01, (p11 + q01) - q01),
             ((q00 + p10) - p10, (q01 + p11) - q10),
             ((q10 + q10) - p11, (q11 + q11) - q11))
        return [[[0.5 * ((0.0 + k0 * t0) + k1 * t1) for t0, t1 in t[:2]],
                 [0.5 * ((0.0 + k0 * t0) + k1 * t1) for t0, t1 in t[2:]]]
                for k0, k1 in hinv]

    def _checked(self, value, what, rank):
        """``value``, the result of the ``what`` callback, as a float array
        checked for the shape ``(n,) * rank``; :class:`ConfigError`
        otherwise."""
        want = (self.dim,) * rank
        try:
            value = np.asarray(value, dtype=float)
        except ValueError:  # a ragged nested list
            raise ConfigError(
                f"the {what} callback of {self.name} gave a ragged result, "
                f"not shape {want}") from None
        if value.shape != want:
            raise ConfigError(
                f"the {what} callback of {self.name} gave shape "
                f"{value.shape}, not {want}")
        return value

    def _checked_inverse_metric(self, x):
        return self._checked(self._inverse_metric(x), "inverse-metric", 2)

    def _checked_christoffel(self, x):
        """The Christoffel callback at ``x``, checked for the shape
        ``(n, n, n)`` and converted to a nested list of floats."""
        return self._checked(self._christoffel(x), "Christoffel", 3).tolist()

    def _batch_metric(self, xs):
        return _stack_rows(self._point_metric, xs, (self.dim,) * 2)

    def _batch_inverse_metric(self, xs):
        return self._inverted(self._batch_metric(xs), xs)

    def _batch_christoffel(self, xs):
        return self._fd_christoffel(xs)

    def _batch_gradient(self, xs, df):
        """``h^-1 df`` on a ``(B, n)`` batch, for the ``(B, n)`` array
        ``df``: the batch form of :meth:`_point_gradient`."""
        return np.einsum("bkm,bm->bk", self._batch_inverse_metric(xs), df)

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
        """The metrics ``(B, n, n)`` of a ``(B, n)`` batch inside the chart."""
        return self._batch_metric(self._require_batch_inside(xs))

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
        """Riemannian norm ``sqrt(h(w, w))`` of a tangent vector at ``x``,
        a point admitted by :meth:`_require_riemannian`."""
        self._require_riemannian(x)
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,) or not np.isfinite(w).all():
            raise ConfigError(f"tangent vector {w} is not finite or not of "
                              f"the dimension {self.dim} of {self.name}")
        return math.sqrt(max(0.0, float(w @ self.metric_at(x) @ w)))


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


def _with_batch_forms(model, christoffel, inverse_metric, metric,
                      chart_domain=_finite_rows, scale=None):
    """``model`` with a built-in's closed batch forms; ``scale`` is the
    float ``s(x)`` of a 2-D chart whose inverse metric is ``s(x) I``."""
    # a built-in's callbacks give their shapes: they serve unchecked
    model._point_metric = model._metric
    model._point_inverse_metric = model._inverse_metric
    model._point_christoffel = model._christoffel
    model._batch_christoffel = christoffel
    model._batch_inverse_metric = inverse_metric
    model._batch_metric = metric
    model._batch_chart_domain = chart_domain
    if scale is not None:
        model._point_gradient = partial(_scaled_gradient, scale)
    return model


def _scaled_identity(s):
    """The 2-D inverse metric ``s I`` of a conformal chart."""
    return np.array([[s, 0.0], [0.0, s]])


def _scaled_gradient(scale, x, df):
    """``_scaled_identity(scale(x)) @ df`` on floats, bit for bit.

    numpy's product may fuse a multiply and an add, so a general 2x2
    product rounds otherwise on floats; with zeros off the diagonal each
    entry is rounded once either way.  The sum from 0.0 keeps numpy's
    signed zeros: ``s * -0.0`` alone is -0.0 where numpy's product gives
    0.0."""
    s = scale(x)
    a, b = df.tolist()
    return [0.0 + (s * a + 0.0 * b), 0.0 + (0.0 * a + s * b)]


def _order_of(xs):
    """The memory order of the flat and hyperbolic batch Christoffel
    symbols of the ``(B, n)`` batch ``xs``: ``dynamics.batch_acceleration``'s
    einsum is an order of magnitude slower on the Fortran-ordered Picard
    grids when the symbols are C-ordered.  A C-ordered batch, which a batch
    of one row always is, keeps C order.  Each of their components sums at
    most two nonzero terms, so the einsum gives the same bytes in either
    order; on the difference fallback's symbols it does not, and they stay
    C-ordered."""
    return "F" if xs.flags.f_contiguous and not xs.flags.c_contiguous else "C"


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
    def identities(xs):
        return np.tile(eye, (len(xs), 1, 1))

    return _with_batch_forms(
        model,
        lambda xs: np.zeros((len(xs), n, n, n), order=_order_of(xs)),
        identities, identities, scale=(lambda x: 1.0) if n == 2 else None,
    )


def hyperbolic_half_plane():
    # x2 * x2 in every form: numpy's scalar ** 2 (pow) rounds otherwise
    def metric(x):
        return np.diag([1.0, 1.0]) / (x[1] * x[1])

    def scale(x):
        x1 = x.item(1)
        return x1 * x1

    def christoffel(x):
        inv_y = 1.0 / x.item(1)
        return [[[0.0, -inv_y], [-inv_y, 0.0]], [[inv_y, 0.0], [0.0, -inv_y]]]

    def batch_metric(xs):
        return np.diag([1.0, 1.0]) / (xs[:, 1] * xs[:, 1])[:, None, None]

    def batch_inverse(xs):
        out = np.zeros((len(xs), 2, 2))
        out[:, 0, 0] = out[:, 1, 1] = xs[:, 1] * xs[:, 1]
        return out

    def batch_christoffel(xs):
        inv_y = 1.0 / xs[:, 1]
        g = np.zeros((len(xs), 2, 2, 2), order=_order_of(xs))
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
        2, metric, inverse_metric=lambda x: _scaled_identity(scale(x)),
        christoffel=christoffel, chart_domain=lambda x: x[1] > 0.0,
        complete=True, name="hyperbolic_half_plane", exact_distance=dist,
    )
    return _with_batch_forms(model, batch_christoffel, batch_inverse,
                             batch_metric,
                             lambda xs: _finite_rows(xs) & (xs[:, 1] > 0.0),
                             scale)


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

    def scale(x):
        x0, x1 = x.tolist()
        c = 2.0 / (1.0 + (x0 * x0 + x1 * x1))
        return 1.0 / (c * c)

    def christoffel(x):
        # conformal metric exp(2 phi) I with phi = log 2 - log(1 + |x|^2):
        # Gamma^k_ij = delta^k_i w_j + delta^k_j w_i - delta_ij w_k
        x0, x1 = x.tolist()
        r = 1.0 + (x0 * x0 + x1 * x1)
        w0, w1 = -2.0 * x0 / r, -2.0 * x1 / r
        return [[[w0, w1], [w1, -w0]], [[-w1, w0], [w0, w1]]]

    def batch_metric(xs):
        c = 2.0 / (1.0 + np.einsum("bi,bi->b", xs, xs))
        return (c * c)[:, None, None] * eye

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
        2, metric, inverse_metric=lambda x: _scaled_identity(scale(x)),
        christoffel=christoffel, complete=True, name="sphere_stereographic",
        exact_distance=dist,
    )
    return _with_batch_forms(model, batch_christoffel, batch_inverse,
                             batch_metric, scale=scale)


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
# and fails after _SHOOTING_MAX_ITER centre geodesics; it re-differences
# its Jacobian when a step cuts the miss by less than _SHOOTING_REFRESH
_SHOOTING_TOL = 1e-9
_SHOOTING_MAX_ITER = 40
_SHOOTING_REFRESH = 0.3


def _shooting_distance(model, x, xbar):
    # quasi-Newton iteration on the initial velocity of a unit-time
    # geodesic; the geodesic has constant speed, so its length is
    # sqrt(h(w, w)).  The Jacobian of the endpoint map is taken by forward
    # differences against the centre just integrated, and between those
    # refreshes follows Broyden's rank-1 ("good") update along each step.
    w = xbar - x
    scale = 1.0 + float(np.linalg.norm(xbar))
    jac = None
    for _ in range(_SHOOTING_MAX_ITER):
        end = _shooting_endpoint(model, x, w)
        miss = end - xbar
        size = float(np.linalg.norm(miss))
        if size <= _SHOOTING_TOL * scale:
            return model.norm_at(x, w)
        if jac is None or size >= _SHOOTING_REFRESH * last_size:
            # the forward-difference stencil, rows w + dw_i e_i,
            # integrated as one batch
            dw = 1e-6 * np.maximum(1.0, np.abs(w))
            ends = _shooting_endpoint(model, x, w + np.diag(dw))
            jac = (ends - end).T / dw
        else:
            jac += (np.outer(miss - last_miss - jac @ step, step)
                    / (step @ step))
        try:
            step = -np.linalg.solve(jac, miss)
        except np.linalg.LinAlgError:
            raise ShootingFailure("singular shooting Jacobian") from None
        w = w + step
        last_miss, last_size = miss, size
    raise ShootingFailure("shooting did not converge")


def distance_estimate(model, x, xbar):
    """Estimate the Riemannian distance ``d(x, xbar)``.

    Exact for models declaring a closed form; a geodesic shooting estimate
    otherwise.  Shooting is a quasi-Newton iteration on the initial
    velocity: a step integrates the geodesic of the current velocity and,
    when it misses, moves the velocity by the Jacobian of the endpoint map.
    That Jacobian is taken by forward differences, the ``n`` velocities
    ``w + dw_i e_i`` integrated as one background ensemble, at the first
    miss and whenever a step cuts the miss by less than a factor 0.3;
    between these refreshes Broyden's rank-1 update carries it along each
    step at no integration.  When shooting fails the chord lower bound
    ``|x - xbar| * sqrt(min eigenvalue of h along the chord)`` is returned
    with ``lower_bound=True``, its least eigenvalues from the admission of
    each chord point.  The estimate feeds the growth classifier only.
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
        least = min(map(model._require_riemannian, chord))
        value = float(np.linalg.norm(xbar - x)) * math.sqrt(least)
        return DistanceEstimate(value, "chord_lower_bound", True)
