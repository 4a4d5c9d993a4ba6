"""Geodesic systems of impulsive wave geometries and their integration.

With the null coordinate ``u`` as affine parameter the geodesic system on
the product geometry reduces to, for the wave-surface part ``x`` and the
second null coordinate ``v``::

    xddot^k = -Gamma^k_ij xdot^i xdot^j + 1/2 (grad f)^k(x) delta_eps(u)
    vddot   = -d_j f(x) xdot^j delta_eps(u) - 1/2 f(x) ddelta_eps(u)

where ``delta_eps`` is the impulse regularization.  The forcing is supported
in the strip ``|u| <= support_radius(eps)``; outside it the system is the
background geodesic system, and :func:`integrate_impulsive_geodesic`
integrates the three phases separately with forced step boundaries at
``u = -eps`` and ``u = +eps``.

A single trajectory uses the per-point field (:func:`_system`).  It checks
the chart once per call and then evaluates the model's unchecked point
forms; ``christoffel_at`` and ``inverse_metric_at`` remain the checked
public forms.  :func:`lagrangian_energy` takes one state or a batch: the
energy diagnostics of a path and the energy column of its CSV are one call.

A convergence study runs one trajectory per width as one ensemble
(:func:`_integrate_ensemble`): its field takes the ``(B, n)`` batch forms
of the model and the profile, with a width and a parameter ``u`` per row,
and its acceleration is the one the Picard iteration integrates
(:func:`batch_acceleration`).

The raw state vector layout is ``[x (n), xdot (n), v, vdot]``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationFailure
from .odesolve import solve_rk45

__all__ = [
    "GeodesicState", "StateRate", "InitialData", "PathDiagnostics",
    "GeodesicPath", "rhs", "lagrangian_energy", "background_path",
    "integrate_impulsive_geodesic",
]


@dataclass
class GeodesicState:
    """State of a geodesic at one value of the affine parameter ``u``."""

    u: float
    x: np.ndarray
    xdot: np.ndarray
    v: float
    vdot: float

    def as_vector(self):
        return np.concatenate([self.x, self.xdot, [self.v, self.vdot]])


@dataclass
class StateRate:
    """Derivative of a :class:`GeodesicState` with respect to ``u``."""

    xdot: np.ndarray
    xddot: np.ndarray
    vdot: float
    vddot: float


@dataclass
class InitialData:
    """Initial data posed at ``u = -1``, long before the shock."""

    x0: np.ndarray
    xdot0: np.ndarray
    v0: float = 0.0
    vdot0: float = 0.0

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.xdot0 = np.asarray(self.xdot0, dtype=float)
        if self.x0.shape != self.xdot0.shape or self.x0.ndim != 1:
            raise ConfigError("x0 and xdot0 must be 1-d arrays of equal length")
        self.v0 = float(self.v0)
        self.vdot0 = float(self.vdot0)

    def as_vector(self):
        return np.concatenate([self.x0, self.xdot0, [self.v0, self.vdot0]])


@dataclass
class PathDiagnostics:
    n_steps: int = 0
    n_rejected: int = 0
    n_rhs: int = 0
    energy_start: float = math.nan
    energy_drift: float = math.nan


def _state_from_vector(n, u, y):
    """The state of a raw vector, or the batch of states of a batch."""
    if y.ndim == 2:
        return GeodesicState(np.asarray(u, dtype=float), y[:, :n],
                             y[:, n:2 * n], y[:, 2 * n], y[:, 2 * n + 1])
    return GeodesicState(float(u), y[:n].copy(), y[n:2 * n].copy(),
                         float(y[2 * n]), float(y[2 * n + 1]))


class GeodesicPath:
    """Dense trajectory ``u -> (x, xdot, v, vdot)`` over contiguous pieces.

    ``phase_marks`` records the strip boundaries ``(-eps, +eps)`` for
    impulsive trajectories and is ``None`` for background geodesics.
    """

    def __init__(self, n, pieces, *, phase_marks=None, diagnostics=None):
        if not pieces:
            raise ValueError("a path needs at least one piece")
        self.n = n
        self.pieces = list(pieces)
        for a, b in zip(self.pieces, self.pieces[1:]):
            if abs(a.t1 - b.t0) > 1e-12 * max(1.0, abs(a.t1)):
                raise ValueError("path pieces are not contiguous")
        self.phase_marks = phase_marks
        self.diagnostics = diagnostics or PathDiagnostics()
        self._ends = np.array([p.t1 for p in self.pieces])

    @property
    def u_start(self):
        return self.pieces[0].t0

    @property
    def u_end(self):
        return self.pieces[-1].t1

    def sample(self, us):
        """Evaluate the raw state vectors at the query parameters."""
        us = np.asarray(us, dtype=float)
        scalar = us.ndim == 0
        uq = np.atleast_1d(us).astype(float)
        lo, hi = self.u_start, self.u_end
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if uq.min() < lo - slack or uq.max() > hi + slack:
            raise ValueError(
                f"query outside path range [{lo:g}, {hi:g}]")
        uq = np.clip(uq, lo, hi)
        idx = np.minimum(np.searchsorted(self._ends, uq, side="left"),
                         len(self.pieces) - 1)
        out = np.empty((uq.size, 2 * self.n + 2))
        for j in np.unique(idx):
            m = idx == j
            out[m] = self.pieces[j](uq[m])
        return out[0] if scalar else out

    def state_at(self, u):
        """The state at ``u``, or the batch of states at a 1-D array."""
        return _state_from_vector(self.n, u, self.sample(u))

    def x_at(self, u):
        s = self.sample(u)
        return s[..., :self.n]

    def xdot_at(self, u):
        s = self.sample(u)
        return s[..., self.n:2 * self.n]

    def v_at(self, u):
        s = self.sample(u)
        return s[..., 2 * self.n]

    def vdot_at(self, u):
        s = self.sample(u)
        return s[..., 2 * self.n + 1]

    def node_parameters(self):
        """Parameters of all accepted integration nodes, in order."""
        parts = [self.pieces[0].ts]
        parts += [p.ts[1:] for p in self.pieces[1:]]
        return np.concatenate(parts)


def rhs(state, model, profile, net, eps):
    """Right-hand side of the geodesic system at one state.

    Outside the support of the regularized impulse the forcing terms are
    identically zero and the background system is returned.
    """
    n = model.dim
    y = _system(model, profile, net, eps)(state.u, state.as_vector())
    return StateRate(y[:n], y[n:2 * n], float(y[2 * n]), float(y[2 * n + 1]))


def lagrangian_energy(state, model, profile=None, net=None, eps=None):
    """Evaluate ``g(gamma', gamma') = h(xdot, xdot) + 2 vdot + f delta_eps``.

    ``state`` is one state (the result is a float) or a batch of them:
    ``x`` and ``xdot`` of shape ``(B, n)``, ``u``, ``v`` and ``vdot`` of
    shape ``(B,)`` (the result is a ``(B,)`` array).  The affine
    parametrization fixes ``udot = 1``.  For background paths (``profile``
    or ``net`` omitted) the impulse term is dropped.  The net and ``f``
    take their point forms: the array forms may differ in the last bit,
    which at a peak of ``delta_eps`` moves an energy drift by tens of ulps.
    """
    x = np.atleast_2d(state.x)
    xd = np.atleast_2d(state.xdot)
    e = (xd[:, None] @ model._metrics(x) @ xd[:, :, None])[:, 0, 0]
    e += 2.0 * np.atleast_1d(state.vdot)
    if profile is not None and net is not None and eps is not None:
        d = np.array([net.eval(eps, u)
                      for u in np.atleast_1d(state.u).tolist()])
        forced = np.nonzero(d != 0.0)[0]
        e[forced] += np.array([profile.f(p) for p in x[forced]]) * d[forced]
    return float(e[0]) if np.ndim(state.u) == 0 else e


def _system(model, profile, net, eps):
    """The geodesic field ``fun(u, y)`` on raw state vectors; the
    background field when ``net`` or ``eps`` is None.  The forcing is
    skipped outside ``|u| < support_radius(eps)``, where it vanishes
    identically."""
    n = model.dim
    radius = 0.0 if net is None or eps is None else net.support_radius(eps)
    require_inside = model.require_inside
    christoffel = model._point_christoffel
    inverse_metric = model._point_inverse_metric

    def fun(u, y):
        x = y[:n]
        xd = y[n:2 * n]
        require_inside(x)
        acc = -np.einsum("kij,i,j->k", christoffel(x), xd, xd)
        vdd = 0.0
        if -radius < u < radius:
            d = net.eval(eps, u)
            dd = net.deriv(eps, u)
            if d != 0.0 or dd != 0.0:
                df = profile.df(x)
                acc = acc + (0.5 * d) * (inverse_metric(x) @ df)
                vdd = -float(df @ xd) * d - 0.5 * profile.f(x) * dd
        return np.concatenate((xd, acc, y[2 * n + 1:], (vdd,)))

    return fun


def batch_acceleration(model, profile, x, xd, forced, delta):
    """``-Gamma(xd, xd)`` on a ``(B, n)`` batch, plus ``1/2 delta grad f``
    on the rows ``forced``, where ``delta`` holds the impulse values.

    Returns the acceleration and ``df`` on the forced rows.  Every row is
    computed from its own inputs only: the forcing is indexed, never
    multiplied by a zero mask, which would turn an infinite gradient on a
    row outside the strip into NaN.
    """
    acc = -np.einsum("bkij,bi,bj->bk", model.christoffel(x), xd, xd)
    if not len(forced):
        return acc, None
    xf = x[forced]
    df = profile.df(xf)
    grad = np.einsum("bkm,bm->bk", model.inverse_metric(xf), df)
    acc[forced] += (0.5 * delta)[:, None] * grad
    return acc, df


def _ensemble_system(model, profile, net, eps):
    """The geodesic field ``fun(u, Y, rows)`` of an ensemble: row ``i`` of
    the ``(m, 2n + 2)`` raw states ``Y`` sits at ``u[i]`` and has the width
    ``eps[rows[i]]``.  Per row it computes what :func:`_system` computes;
    the impulse is evaluated per strip row, on floats, as there."""
    n = model.dim
    eps = [float(e) for e in eps]
    radius = np.array([net.support_radius(e) for e in eps])

    def fun(u, y, rows):
        x = y[:, :n]
        xd = y[:, n:2 * n]
        r = radius[rows]
        strip = np.nonzero((-r < u) & (u < r))[0]
        d = np.array([net.eval(eps[rows[i]], float(u[i])) for i in strip])
        dd = np.array([net.deriv(eps[rows[i]], float(u[i])) for i in strip])
        on = (d != 0.0) | (dd != 0.0)
        forced, d, dd = strip[on], d[on], dd[on]
        acc, df = batch_acceleration(model, profile, x, xd, forced, d)
        out = np.empty_like(y)
        out[:, :n] = xd
        out[:, n:2 * n] = acc
        out[:, 2 * n] = y[:, 2 * n + 1]
        out[:, 2 * n + 1] = 0.0
        if len(forced):
            slope = np.einsum("bi,bi->b", df, xd[forced])
            out[forced, 2 * n + 1] = (-slope * d
                                      - 0.5 * profile.f(x[forced]) * dd)
        return out

    return fun


def _energy_diagnostics(path, model, profile, net, eps):
    """The energy at the first node and its largest deviation over all
    nodes, from one :func:`lagrangian_energy` call on the node batch."""
    ys = np.concatenate([path.pieces[0].ys]
                        + [p.ys[1:] for p in path.pieces[1:]])
    e = lagrangian_energy(
        _state_from_vector(path.n, path.node_parameters(), ys), model,
        profile, net, eps)
    path.diagnostics.energy_start = float(e[0])
    path.diagnostics.energy_drift = float(np.max(np.abs(e - e[0])))


def background_path(model, x0, xdot0, u_start, u_end, *, v0=0.0, vdot0=0.0,
                    rtol=1e-10, atol=1e-10):
    """Integrate the background (impulse-free) geodesic system."""
    x0 = np.asarray(x0, dtype=float)
    xdot0 = np.asarray(xdot0, dtype=float)
    model.require_inside(x0)
    y0 = np.concatenate([x0, xdot0, [v0, vdot0]])
    fun = _system(model, None, None, None)
    dense, stats = solve_rk45(fun, u_start, u_end, y0, rtol=rtol, atol=atol,
                              phase="background")
    diag = PathDiagnostics(stats["n_steps"], stats["n_rejected"], stats["n_rhs"])
    path = GeodesicPath(model.dim, [dense], diagnostics=diag)
    _energy_diagnostics(path, model, None, None, None)
    return path


def _check_inputs(model, eps, data, u_end):
    if not all(0.0 < e <= 0.5 for e in eps):
        raise ConfigError("eps must lie in (0, 1/2]")
    if not all(u > e for e, u in zip(eps, u_end)):
        raise ConfigError("u_end must exceed eps")
    if len(data.x0) != model.dim:
        raise ConfigError("initial data dimension does not match the manifold")
    model.require_inside(data.x0)


# inside the strip the step size is capped at support_radius(eps) / 50, so
# the adaptive controller cannot step over the peaked forcing
_STRIP_STEP_DIVISOR = 50


def _phase_plan(eps, u_end, cap):
    """``(phase, start, end, step cap)`` of the three phases, for one width
    or, with arrays, for each row of an ensemble."""
    return [("pre", -1.0, -eps, math.inf), ("strip", -eps, eps, cap),
            ("post", eps, u_end, math.inf)]


def _with_partial_path(exc, n, pieces, eps):
    """Attach to ``exc`` the path integrated before it failed: the phases
    ``pieces`` done and its own partial piece."""
    done = pieces + ([exc.partial] if exc.partial is not None else [])
    if done:
        exc.partial = GeodesicPath(n, done, phase_marks=(-eps, eps))
    return exc


def integrate_impulsive_geodesic(model, profile, net, eps, data, u_end, *,
                                 rtol=1e-10, atol=1e-10):
    """Integrate the full geodesic system from ``u = -1`` through the strip.

    Three phases are integrated with forced boundaries at ``-eps`` and
    ``+eps``.  Inside the strip the step size is capped at
    ``support_radius(eps) / 50`` so the adaptive controller cannot step
    over the peaked forcing.  All three phases share one field,
    which skips the impulse terms outside the strip, where they vanish
    identically anyway.

    Raises :class:`IntegrationFailure` if the blow-up guard trips or the
    trajectory leaves the chart; the exception records the failing phase and
    the path integrated so far.
    """
    _check_inputs(model, [eps], data, [u_end])
    fun = _system(model, profile, net, eps)
    plan = _phase_plan(eps, u_end,
                       net.support_radius(eps) / _STRIP_STEP_DIVISOR)

    pieces = []
    diag = PathDiagnostics()
    y = data.as_vector()
    for name, a, b, max_step in plan:
        try:
            dense, stats = solve_rk45(fun, a, b, y, rtol=rtol, atol=atol,
                                      max_step=max_step, phase=name)
        except IntegrationFailure as exc:
            raise _with_partial_path(exc, model.dim, pieces, eps)
        pieces.append(dense)
        y = dense.ys[-1].copy()
        diag.n_steps += stats["n_steps"]
        diag.n_rejected += stats["n_rejected"]
        diag.n_rhs += stats["n_rhs"]

    path = GeodesicPath(model.dim, pieces, phase_marks=(-eps, eps),
                        diagnostics=diag)
    _energy_diagnostics(path, model, profile, net, eps)
    return path


def _integrate_ensemble(model, profile, net, eps, data, u_end, *,
                        rtol=1e-10, atol=1e-10):
    """Integrate one impulsive geodesic per width ``eps[r]`` from the same
    data, each to ``u_end[r]`` (or a common ``u_end``).

    Each phase of :func:`integrate_impulsive_geodesic` (pre ``[-1, -eps]``,
    strip ``[-eps, eps]`` with its step cap, post ``[eps, u_end]``) is one
    ensemble call of :func:`solve_rk45` over the rows still alive.  Returns
    one entry per width: a :class:`GeodesicPath` with that row's step
    counts (energy diagnostics are not computed), or the row's
    :class:`IntegrationFailure`.  A row does not depend on the other
    widths of the batch.
    """
    eps = [float(e) for e in eps]
    u_end = np.broadcast_to(np.asarray(u_end, dtype=float), (len(eps),))
    _check_inputs(model, eps, data, u_end)
    e = np.array(eps)
    cap = np.array([net.support_radius(w) for w in eps]) / _STRIP_STEP_DIVISOR
    plan = _phase_plan(e, u_end, cap)
    results = [None] * len(eps)
    pieces = [[] for _ in eps]
    diags = [PathDiagnostics() for _ in eps]
    y = np.tile(data.as_vector(), (len(eps), 1))
    live = np.arange(len(eps))
    for name, a, b, max_step in plan:
        a, b, max_step = (np.broadcast_to(v, e.shape)[live]
                          for v in (a, b, max_step))
        fun = _ensemble_system(model, profile, net, e[live])
        outcomes, stats = solve_rk45(fun, a, b, y[live], rtol=rtol, atol=atol,
                                     max_step=max_step, phase=name)
        for r, dense, counts in zip(live, outcomes, stats["rows"]):
            diags[r].n_steps += counts["n_steps"]
            diags[r].n_rejected += counts["n_rejected"]
            diags[r].n_rhs += counts["n_rhs"]
            if isinstance(dense, IntegrationFailure):
                results[r] = _with_partial_path(dense, model.dim, pieces[r],
                                                eps[r])
            else:
                pieces[r].append(dense)
                y[r] = dense.ys[-1]
        live = np.array([r for r in live if results[r] is None], dtype=int)
        if not live.size:
            break
    for r in live:
        results[r] = GeodesicPath(model.dim, pieces[r],
                                  phase_marks=(-eps[r], eps[r]),
                                  diagnostics=diags[r])
    return results
