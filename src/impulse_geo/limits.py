"""The sharp-impulse limit of regularized geodesics and convergence studies.

As the regularization width shrinks, the wave-surface component of the
geodesic converges to a background geodesic refracted at ``u = 0``: the
position is continuous while the velocity jumps by half the metric gradient
of the profile.  The second null coordinate acquires both a jump and a kink
at the shock::

    v(u) = v0 + vdot0 (1 + u) + [u > 0] (jump + kink * u)

with coefficients evaluated where the trajectory hits the shock,

    jump = -1/2 f(x(0))
    kink = -1/2 (xdot^j(0) + 1/4 (grad f)^j(x(0))) d_j f(x(0)).

The kink is pinned down by conservation of ``g(gamma', gamma')`` across the
impulse: the x-velocity gains ``1/2 grad f``, so twice the v-slope jump must
absorb ``-(h(xdot, grad f) + 1/4 h(grad f, grad f))``.

The limit is a :class:`~impulse_geo.dynamics.GeodesicPath`, read as every
path is: at a float or a 1-D array of ``u`` inside its range.  Errors of
the regularized trajectories against it are measured in the chart-coordinate
norm, at a 1-D array of finite probes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .errors import ConfigError, IntegrationFailure
from .profiles import metric_gradient

__all__ = [
    "LimitGeodesic", "limit_geodesic", "inner_scale_error",
    "ConvergenceTable", "convergence_study", "study_errors",
]


class LimitGeodesic(dynamics.GeodesicPath):
    """Background geodesic broken at ``u = 0``: the path of the base branch
    and then the refracted one, with ``v`` and ``vdot`` from the closed
    forms above.  At the break point the left-continuous values are
    returned (the sharp limit assigns no pointwise value there, so the
    pre-shock branch is the convention).  ``diagnostics`` sums the steps
    of both branches.
    """

    def __init__(self, base_path, refracted_path, v0, vdot0, jump_coeff,
                 kink_coeff, grad_at_break):
        super().__init__(base_path.n, base_path.pieces + refracted_path.pieces,
                         diagnostics=(base_path.diagnostics
                                      + refracted_path.diagnostics))
        self.base_path = base_path
        self.refracted_path = refracted_path
        self.v0 = float(v0)
        self.vdot0 = float(vdot0)
        self.jump_coeff = float(jump_coeff)
        self.kink_coeff = float(kink_coeff)
        self.grad_at_break = np.asarray(grad_at_break, dtype=float)
        self.x_break = base_path.x_at(0.0)
        self.xdot_minus = base_path.xdot_at(0.0)
        self.xdot_plus = refracted_path.xdot_at(0.0)

    def sample(self, us):
        out = super().sample(us)  # [x, xdot, v, vdot]
        u = np.asarray(us, dtype=float)
        after = u > 0.0
        out[..., -2] = (self.v0 + self.vdot0 * (1.0 + u) + np.where(
            after, self.jump_coeff + self.kink_coeff * u, 0.0))
        out[..., -1] = self.vdot0 + np.where(after, self.kink_coeff, 0.0)
        return out


def limit_geodesic(model, profile, data, *, u_end=1.5, rtol=1e-10,
                   atol=1e-10):
    """Construct the sharp-limit geodesic for the given initial data.

    Both branches are background geodesics: the base branch carries the
    data from ``u = -1`` to the shock, the refracted branch restarts at
    ``x(0)`` with velocity ``xdot(0) + 1/2 grad f(x(0))``.
    """
    dynamics.require_profile_fits(model, profile)
    base = dynamics.background_path(model, data.x0, data.xdot0, -1.0, 0.0,
                                    rtol=rtol, atol=atol)
    xb = base.x_at(0.0)
    xd_minus = base.xdot_at(0.0)
    grad = metric_gradient(profile, model, xb)
    refracted = dynamics.background_path(model, xb, xd_minus + 0.5 * grad,
                                         0.0, u_end, rtol=rtol, atol=atol)
    df = profile.df(xb)
    jump = -0.5 * profile.f(xb)
    kink = -0.5 * float(df @ (xd_minus + 0.25 * grad))
    return LimitGeodesic(base, refracted, data.v0, data.vdot0, jump, kink,
                         grad)


def inner_scale_error(model, profile, net, data, eps, *, rtol=1e-10,
                      atol=1e-10):
    """Sup of ``|x_eps(eps u) - x(0)|`` over 201 points ``u`` in [-1, 1].

    On the inner scale the whole strip collapses to the single point where
    the base geodesic hits the shock; the sup decays like O(eps).  ``eps``
    is one width; a sequence of them raises :class:`ConfigError` before
    anything is integrated.
    """
    dynamics.require_profile_fits(model, profile)
    if np.ndim(eps) != 0:
        raise ConfigError(f"inner_scale_error takes one width eps, got "
                          f"shape {np.shape(eps)}")
    base = dynamics.background_path(model, data.x0, data.xdot0, -1.0, 0.0,
                                    rtol=rtol, atol=atol)
    xb = base.x_at(0.0)
    path = dynamics.integrate_impulsive_geodesic(
        model, profile, net, eps, data, u_end=1.5 * eps, rtol=rtol, atol=atol)
    grid = eps * np.linspace(-1.0, 1.0, 201)
    diff = path.x_at(grid) - xb
    return float(np.max(np.linalg.norm(diff, axis=1)))


@dataclass
class ConvergenceTable:
    """Per-width errors against the sharp limit with fitted orders.

    ``order_so_far`` is the running least-squares slope of
    ``log err_x`` against ``log eps`` using all rows up to each row; the
    summary ``orders`` are fitted per column on the smallest half of the
    schedule to suppress pre-asymptotic contamination.  ``monotone`` flags
    record whether each error column is non-increasing along the schedule.
    """

    eps: np.ndarray
    err_x: np.ndarray
    err_xdot: np.ndarray
    err_v: np.ndarray
    failed: np.ndarray
    order_so_far: np.ndarray
    orders: dict
    monotone: dict
    u_probes: tuple
    u_probes_xdot: tuple

    @classmethod
    def from_rows(cls, eps, err_x, err_xdot, err_v, failed, u_probes,
                  u_probes_xdot):
        eps = np.asarray(eps, dtype=float)
        err_x = np.asarray(err_x, dtype=float)
        err_xdot = np.asarray(err_xdot, dtype=float)
        err_v = np.asarray(err_v, dtype=float)
        failed = np.asarray(failed, dtype=bool)

        def fit(le, lv):
            return float(np.polyfit(le, lv, 1)[0])

        def column_order(err):
            ok = ~failed & (err > 0.0) & np.isfinite(err)
            k = max(2, (int(np.sum(ok)) + 1) // 2)
            idx = np.nonzero(ok)[0][-k:]
            if len(idx) < 2:
                return math.nan
            return fit(np.log(eps[idx]), np.log(err[idx]))

        running = np.full(len(eps), math.nan)
        for i in range(1, len(eps)):
            ok = (~failed[:i + 1]) & (err_x[:i + 1] > 0.0)
            if np.sum(ok) >= 2:
                running[i] = fit(np.log(eps[:i + 1][ok]),
                                 np.log(err_x[:i + 1][ok]))

        def is_monotone(err):
            vals = err[~failed]
            return bool(np.all(np.diff(vals) <= 1e-14))

        orders = {"x": column_order(err_x), "xdot": column_order(err_xdot),
                  "v": column_order(err_v)}
        monotone = {"x": is_monotone(err_x), "xdot": is_monotone(err_xdot),
                    "v": is_monotone(err_v)}
        return cls(eps=eps, err_x=err_x, err_xdot=err_xdot, err_v=err_v,
                   failed=failed, order_so_far=running, orders=orders,
                   monotone=monotone, u_probes=tuple(u_probes),
                   u_probes_xdot=tuple(u_probes_xdot))


def _u_end(u_probes, eps):
    """Where a study integrates to: past every probe and the strip."""
    return float(max(u_probes.max(), eps)) + 0.1


def _study(model, profile, net, data, eps_schedule, u_probes, rtol, atol):
    """Errors against the sharp limit for every width of ``eps_schedule``,
    integrated as one ensemble.

    Returns the widths (widest first), the probes, the velocity probes and
    per width ``(err_x, err_xdot, err_v)`` or the row's
    :class:`IntegrationFailure`.  A row does not depend on the others, so
    each equals the same width studied alone.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule or not all(e > 0 for e in eps_schedule):
        raise ConfigError("eps schedule must be non-empty and positive")
    eps_schedule = sorted(eps_schedule, reverse=True)
    u_probes = np.asarray(u_probes, dtype=float)
    if u_probes.ndim != 1 or not np.isfinite(u_probes).all():
        raise ConfigError("u_probes must be a 1-d array of finite values")
    if np.any(u_probes == 0.0):
        raise ConfigError("probes must exclude u = 0")
    if np.any(u_probes < -1.0):
        raise ConfigError("probes must lie at u >= -1, where data is posed")
    eps_max = max(eps_schedule)
    probes_out = u_probes[np.abs(u_probes) > eps_max]
    if probes_out.size == 0:
        raise ConfigError(
            "no probe clears the widest strip; the velocity and v errors "
            "need probes with |u| > max(eps_schedule)")

    limit = limit_geodesic(model, profile, data,
                           u_end=_u_end(u_probes, eps_max), rtol=rtol,
                           atol=atol)
    paths = dynamics.integrate_impulsive_geodesic(
        model, profile, net, eps_schedule, data,
        [_u_end(u_probes, eps) for eps in eps_schedule],
        rtol=rtol, atol=atol)
    n = limit.n
    at_probes = limit.sample(u_probes)
    out_probes = limit.sample(probes_out)
    rows = []
    for path in paths:
        if isinstance(path, IntegrationFailure):
            rows.append(path)
            continue
        dx = path.sample(u_probes) - at_probes
        dout = path.sample(probes_out) - out_probes
        rows.append((float(np.max(np.linalg.norm(dx[:, :n], axis=1))),
                     float(np.max(np.linalg.norm(dout[:, n:2 * n], axis=1))),
                     float(np.max(np.abs(dout[:, 2 * n])))))
    return eps_schedule, u_probes, probes_out, rows


def study_errors(model, profile, net, data, eps, u_probes, *, rtol=1e-10,
                 atol=1e-10):
    """Errors of one regularized trajectory against the sharp limit.

    Returns ``(err_x, err_xdot, err_v)``: sups over the probe parameters of
    the chart-norm position error, the velocity error and the v error.  The
    velocity and v columns use the probes clearing the strip; they do not
    converge at the shock itself.  This is the one-width case of
    :func:`convergence_study`, with its probe checks and the same bits.
    """
    *_, (row,) = _study(model, profile, net, data, [eps], u_probes, rtol,
                        atol)
    if isinstance(row, IntegrationFailure):
        raise row
    return row


def convergence_study(model, profile, net, data, eps_schedule, u_probes, *,
                      rtol=1e-10, atol=1e-10):
    """Measure convergence of regularized geodesics to the sharp limit.

    The probes must avoid ``u = 0``; probes inside the widest strip are
    excluded from the velocity and v columns, which must keep at least one
    probe clear of ``[-max(eps), max(eps)]``.  All widths are integrated
    as one ensemble; rows whose integration fails are flagged and the
    others are unaffected.
    """
    eps_schedule, u_probes, probes_out, rows = _study(
        model, profile, net, data, eps_schedule, u_probes, rtol, atol)
    failed = [isinstance(row, IntegrationFailure) for row in rows]
    errs = [(math.nan,) * 3 if bad else row for row, bad in zip(rows, failed)]
    err_x, err_xdot, err_v = zip(*errs)
    return ConvergenceTable.from_rows(eps_schedule, err_x, err_xdot, err_v,
                                      failed, tuple(u_probes),
                                      tuple(probes_out))
