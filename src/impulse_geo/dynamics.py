"""Geodesic systems of impulsive wave geometries and their integration.

With the null coordinate ``u`` as affine parameter the geodesic system on
the product geometry reduces to, for the wave-surface part ``x`` and the
second null coordinate ``v``::

    xddot^k = -Gamma^k_ij xdot^i xdot^j + 1/2 (grad f)^k(x) delta_eps(u)
    vddot   = -d_j f(x) xdot^j delta_eps(u) - 1/2 f(x) ddelta_eps(u)

where ``delta_eps`` is the impulse regularization.  The forcing is supported
in the strip ``|u| <= support_radius(eps)``; outside it the system is the
background geodesic system.

One driver, :func:`_integrate`, runs every integration as a plan of phases,
one :func:`solve_rk45` call each, named by its ``phase`` keyword:
``"background"`` alone for a background geodesic, or ``"pre"``, ``"strip"``
and ``"post"``, with forced step boundaries at ``u = -eps`` and ``u = +eps``
and the strip step capped at ``support_radius(eps) / 50`` so that the
controller cannot step over the peaked forcing.  It sums the step counts
of a path, or of a failure (the phases done and the failing phase), into
one :class:`PathDiagnostics`; a failure's ``partial`` becomes the
:class:`GeodesicPath` of the phases done and its own partial piece
(``phase_marks`` None for a background path), with the same counts.

As in :func:`solve_rk45`, the form follows the state's shape, in the entry
points too.  A single trajectory (one velocity, one width) has a 1-D state:
it uses the per-point field (:func:`_system`) and the 1-D loop, raises its
failure and gets energy diagnostics.  Like that loop, the per-point field
works on Python floats, where numpy's cost per call would outweigh the
arithmetic of a 2-D state: it checks the chart on floats, contracts the
model's Christoffel symbols, a nested list of floats, in einsum's order
(:func:`_christoffel_term`), takes ``grad f`` from the model's point form
(``_point_gradient``) and returns a list; ``df @ xdot`` stays numpy's,
whose fused products round otherwise on floats.
:func:`lagrangian_energy` takes one state or a batch: the energy
diagnostics of a path and the energy column of its CSV are one call.  A
batch of B velocities from one point (geodesic shooting) or of B widths
from one datum (a convergence study) has a ``(B, D)`` state and uses the
ensemble field: the ``(B, n)`` batch forms of the model (``grad f`` its
``_batch_gradient``) and the profile, a width and a ``u`` per row, and the
acceleration that the Picard iteration integrates
(:func:`batch_acceleration`).  It gives per row a path or the row's
failure, which drops out alone.  Batch rows carry no energy diagnostics:
no caller reads them, and they would add 4-6% to a sweep.  Each field
checks the chart only, once per call, then evaluates the model's unchecked
forms.  Every entry admits its start point first, by the model's one rule
for posed data (``_require_riemannian``), before any field is evaluated.

The raw state vector layout is ``[x (n), xdot (n), v, vdot]``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationFailure
from .odesolve import PathDiagnostics, solve_rk45

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
        if not np.isfinite(self.as_vector()).all():
            raise ConfigError("initial data must be finite")

    def as_vector(self):
        return np.concatenate([self.x0, self.xdot0, [self.v0, self.vdot0]])


def _state_from_vector(n, u, y):
    """The state of a raw vector, or the batch of states of a batch."""
    if y.ndim == 2:
        return GeodesicState(np.asarray(u, dtype=float), y[:, :n],
                             y[:, n:2 * n], y[:, 2 * n], y[:, 2 * n + 1])
    return GeodesicState(float(u), y[:n].copy(), y[n:2 * n].copy(),
                         float(y[2 * n]), float(y[2 * n + 1]))


class GeodesicPath:
    """Dense trajectory ``u -> (x, xdot, v, vdot)`` over contiguous pieces.

    Every query (``sample``, ``state_at`` and the accessors) takes a float
    or a 1-D array of ``u`` inside ``[u_start, u_end]``; anything else
    raises :class:`ConfigError`.  ``phase_marks`` records the strip
    boundaries ``(-eps, +eps)`` for impulsive trajectories and is ``None``
    for background geodesics.
    """

    def __init__(self, n, pieces, *, phase_marks=None, diagnostics=None):
        if not pieces:
            raise ConfigError("a path needs at least one piece")
        self.n = n
        self.pieces = list(pieces)
        for a, b in zip(self.pieces, self.pieces[1:]):
            if abs(a.t1 - b.t0) > 1e-12 * max(1.0, abs(a.t1)):
                raise ConfigError("path pieces are not contiguous")
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
        if us.ndim > 1:
            raise ConfigError("query must be a float or a 1-d array of u")
        scalar = us.ndim == 0
        uq = np.atleast_1d(us).astype(float)
        lo, hi = self.u_start, self.u_end
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if uq.size and not (uq.min() >= lo - slack and uq.max() <= hi + slack):
            raise ConfigError(
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
        return self.sample(u)[..., :self.n]

    def xdot_at(self, u):
        return self.sample(u)[..., self.n:2 * self.n]

    def v_at(self, u):
        return self.sample(u)[..., 2 * self.n]

    def vdot_at(self, u):
        return self.sample(u)[..., 2 * self.n + 1]

    def node_parameters(self):
        """Parameters of all accepted integration nodes, in order."""
        parts = [self.pieces[0].ts]
        parts += [p.ts[1:] for p in self.pieces[1:]]
        return np.concatenate(parts)


def require_profile_fits(model, profile):
    """Raise :class:`ConfigError` if ``profile`` was built for another
    dimension than ``model``'s (see ``WaveProfile.dim``).  Every entry that
    pairs a model with a profile calls it before evaluating either."""
    dim = getattr(profile, "dim", None)
    if dim is not None and dim != model.dim:
        raise ConfigError(
            f"{profile!r} is built for dimension {dim}, but {model.name} "
            f"has dimension {model.dim}")


def rhs(state, model, profile, net, eps):
    """Right-hand side of the geodesic system at one state.

    Outside the support of the regularized impulse the forcing terms are
    identically zero and the background system is returned.
    """
    require_profile_fits(model, profile)
    n = model.dim
    y = _system(model, profile, net, eps)(state.u, state.as_vector())
    return StateRate(np.array(y[:n]), np.array(y[n:2 * n]), float(y[2 * n]),
                     float(y[2 * n + 1]))


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
    require_profile_fits(model, profile)
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


def _christoffel_term(gamma, xd):
    """``-Gamma^k_ij xd^i xd^j`` as a list of floats, from the Christoffel
    symbols ``gamma`` at one point and the list of floats ``xd``.

    ``gamma`` is the one point form of every model, a nested list of
    floats (see :class:`~impulse_geo.geometry.ManifoldModel`), read as it
    is.  Each component is summed over ``i``, then ``j``, from 0.0, which
    is what ``np.einsum("kij,i,j->k")`` does on a C-ordered array: the two
    agree bit for bit.  For ``n = 2`` the sum is written out term by term,
    as :func:`odesolve._point_step` writes its stage sums; other ``n`` take
    the loop."""
    if len(xd) == 2:
        x0, x1 = xd
        return [-((((0.0 + g00 * x0 * x0) + g01 * x0 * x1) + g10 * x1 * x0)
                  + g11 * x1 * x1)
                for (g00, g01), (g10, g11) in gamma]
    acc = []
    for gk in gamma:
        s = 0.0
        for gi, a in zip(gk, xd):
            for g, b in zip(gi, xd):
                s += g * a * b
        acc.append(-s)
    return acc


def _system(model, profile, net, eps):
    """The geodesic field ``fun(u, y)`` on a raw state vector, as a list
    of floats; the background field when ``net`` or ``eps`` is None.  The
    forcing is skipped outside ``|u| < support_radius(eps)``, where it
    vanishes identically (see the module docstring)."""
    n = model.dim
    radius = 0.0 if net is None or eps is None else net.support_radius(eps)
    require_inside = model.require_inside
    christoffel = model._point_christoffel
    gradient = model._point_gradient

    def fun(u, y):
        x = y[:n]
        require_inside(x)
        state = y.tolist()
        xd = state[n:2 * n]
        acc = _christoffel_term(christoffel(x), xd)
        vdd = 0.0
        if -radius < u < radius:
            d = net.eval(eps, u)
            dd = net.deriv(eps, u)
            if d != 0.0 or dd != 0.0:
                df = profile.df(x)
                half = 0.5 * d
                acc = [a + half * g for a, g in zip(acc, gradient(x, df))]
                vdd = -float(df @ y[n:2 * n]) * d - 0.5 * profile.f(x) * dd
        return xd + acc + [state[2 * n + 1], vdd]

    return fun


def batch_acceleration(model, profile, x, xd, forced, delta):
    """``-Gamma(xd, xd)`` on a ``(B, n)`` batch, plus ``1/2 delta grad f``
    on the rows ``forced``, where ``delta`` holds the impulse values and
    ``grad f`` is the model's batch form.  One chart check covers the batch.

    ``forced`` is an index array of rows, ``slice(None)`` for every row (the
    forcing then works on views of the batch, with no gathered copies) or
    None for no row.  Returns the acceleration and ``df`` on the forced
    rows (None for no row).  Every row is computed from its own inputs
    only: the forcing is indexed, never multiplied by a zero mask, which
    would turn an infinite gradient on a row outside the strip into NaN.
    """
    x = model._require_batch_inside(x)
    acc = -np.einsum("bkij,bi,bj->bk", model._batch_christoffel(x), xd, xd)
    if forced is None:
        return acc, None
    xf = x[forced]
    df = profile.df(xf)
    acc[forced] += (0.5 * delta)[:, None] * model._batch_gradient(xf, df)
    return acc, df


def _ensemble_system(model, profile, net, eps):
    """The geodesic field ``fun(u, Y, rows)`` of an ensemble: row ``i`` of
    the ``(m, 2n + 2)`` raw states ``Y`` sits at ``u[i]`` and has the width
    ``eps[rows[i]]``; the background field when ``eps`` is None.  Per row
    it computes what :func:`_system` computes; the impulse is evaluated per
    strip row, on floats, as there, in one pass over the rows.

    At the handful of rows of a widths ensemble numpy's fixed cost per
    call, not the arithmetic, sets the cost of a call, so the rows that
    the impulse forces take one of the three layouts of
    :func:`batch_acceleration`: inside the strip every row is forced and
    the forcing works on views of the batch."""
    n = model.dim
    if eps is not None:
        eps = [float(e) for e in eps]
        radius = [net.support_radius(e) for e in eps]

    def fun(u, y, rows):
        x = y[:, :n]
        xd = y[:, n:2 * n]
        forced = d = None
        if eps is not None:
            forced, d, dd = [], [], []
            for i, (r, t) in enumerate(zip(rows.tolist(), u.tolist())):
                if -radius[r] < t < radius[r]:
                    a = net.eval(eps[r], t)
                    b = net.deriv(eps[r], t)
                    if a != 0.0 or b != 0.0:
                        forced.append(i)
                        d.append(a)
                        dd.append(b)
            if not forced:
                forced = None
            else:
                forced = (slice(None) if len(forced) == len(rows)
                          else np.array(forced))
                d, dd = np.array(d), np.array(dd)
        acc, df = batch_acceleration(model, profile, x, xd, forced, d)
        out = np.empty_like(y)
        out[:, :n] = xd
        out[:, n:2 * n] = acc
        out[:, 2 * n] = y[:, 2 * n + 1]
        out[:, 2 * n + 1] = 0.0
        if forced is not None:
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


def _initial_state(model, x0, xdot0, v0=0.0, vdot0=0.0):
    """The raw state of data posed at ``x0``, which the model admits (see
    the module docstring): a vector for a ``(n,)`` velocity ``xdot0``, a
    ``(B, D)`` batch for ``(B, n)`` velocities."""
    x0 = np.asarray(x0, dtype=float)
    xdot0 = np.asarray(xdot0, dtype=float)
    if xdot0.ndim > 2 or xdot0.shape[-1:] != x0.shape:
        raise ConfigError("xdot0 must have the shape of x0, or be (B, n)")
    model._require_riemannian(x0)
    n = model.dim
    y0 = np.empty(xdot0.shape[:-1] + (2 * n + 2,))
    y0[..., :n] = x0
    y0[..., n:2 * n] = xdot0
    y0[..., 2 * n:] = v0, vdot0
    return y0


def background_path(model, x0, xdot0, u_start, u_end, *, rtol=1e-10,
                    atol=1e-10):
    """Solve the background geodesic equation ``xddot = -Gamma(xdot, xdot)``
    from data posed at ``u_start`` to ``u_end``, with ``v = vdot = 0``.

    The path conserves the Riemannian speed ``h(xdot, xdot)`` up to the
    integrator tolerance.  A ``(B, n)`` batch of velocities ``xdot0`` gives
    B geodesics from ``x0`` as one ensemble (see the module docstring): per
    row a path without energy diagnostics, or the row's failure.
    """
    y0 = _initial_state(model, x0, xdot0)
    return _integrate(model, None, None, None, y0, u_start, u_end, rtol, atol)


_STRIP_STEP_DIVISOR = 50


def _integrate(model, profile, net, eps, y0, u_start, u_end, rtol, atol):
    """Integrate the raw state ``y0`` from ``u_start`` to ``u_end`` (see
    the module docstring).  A ``(B, D)`` state has the width ``eps[r]`` and
    the end ``u_end[r]`` in row ``r`` and gives per row a path or a failure;
    ``eps`` None is the background."""
    batch = np.ndim(y0) == 2
    y = np.array(y0, dtype=float, ndmin=2)
    widths = eps if batch and eps is not None else [eps] * len(y)
    marks = [None if w is None else (-w, w) for w in widths]
    if eps is None:
        plan = [("background", u_start, u_end, math.inf)]
    else:
        e = np.array(eps, dtype=float)
        cap = (np.reshape([net.support_radius(w) for w in widths], e.shape)
               / _STRIP_STEP_DIVISOR)
        plan = [("pre", u_start, -e, math.inf), ("strip", -e, e, cap),
                ("post", e, u_end, math.inf)]
    point_field = None if batch else _system(model, profile, net, eps)
    pieces = [[] for _ in y]
    diags = [PathDiagnostics() for _ in y]
    out = [None] * len(y)
    live = list(range(len(y)))
    for name, t0, t1, cap in plan:
        if batch:
            t0, t1, cap = (np.broadcast_to(v, (len(y),))[live]
                           for v in (t0, t1, cap))
            fun = _ensemble_system(model, profile, net,
                                   None if eps is None else e[live])
            ends, stats = solve_rk45(fun, t0, t1, y[live], rtol=rtol,
                                     atol=atol, max_step=cap, phase=name)
            counts = stats["rows"]
        else:
            try:
                end, count = solve_rk45(point_field, t0, t1, y[0], rtol=rtol,
                                        atol=atol, max_step=cap, phase=name)
            except IntegrationFailure as exc:
                end, count = exc, vars(exc.diagnostics)
            ends, counts = [end], [count]
        for r, end, count in zip(live, ends, counts):
            diags[r] += PathDiagnostics(**count)
            if isinstance(end, IntegrationFailure):
                if end.partial is not None:
                    pieces[r].append(end.partial)
                if pieces[r]:
                    end.partial = GeodesicPath(model.dim, pieces[r],
                                               phase_marks=marks[r],
                                               diagnostics=diags[r])
                end.diagnostics = diags[r]
                out[r] = end
                continue
            pieces[r].append(end)
            y[r] = end.ys[-1]
        live = [r for r in live if out[r] is None]
        if not live:
            break
    for r in live:
        out[r] = GeodesicPath(model.dim, pieces[r], phase_marks=marks[r],
                              diagnostics=diags[r])
    if batch:
        return out
    if isinstance(out[0], IntegrationFailure):
        raise out[0]
    _energy_diagnostics(out[0], model, profile, net, eps)
    return out[0]


def integrate_impulsive_geodesic(model, profile, net, eps, data, u_end, *,
                                 rtol=1e-10, atol=1e-10):
    """Integrate the full geodesic system from ``u = -1`` through the strip.

    Three phases are integrated with forced boundaries at ``-eps`` and
    ``+eps`` and a step cap in the strip (see the module docstring).  All
    three share one field, which skips the impulse terms outside the
    strip, where they vanish identically anyway.

    Raises :class:`IntegrationFailure` if the blow-up guard trips or the
    trajectory leaves the chart; the exception records the failing phase and
    the path integrated so far.

    A 1-D sequence of widths ``eps`` integrates one trajectory per width
    from ``data`` as one ensemble (see the module docstring), to a shared
    ``u_end`` or one per width: per width a path without energy
    diagnostics, or the row's failure.
    """
    require_profile_fits(model, profile)
    widths = np.asarray(eps, dtype=float)
    ends = np.asarray(u_end, dtype=float)
    if widths.ndim > 1 or ends.shape not in ((), widths.shape):
        raise ConfigError("eps must be one width or a 1-d sequence of them, "
                          "and u_end one value or one per width")
    if not np.all((0.0 < widths) & (widths <= 0.5)):
        raise ConfigError("eps must lie in (0, 1/2]")
    if not np.all((widths < ends) & (ends < math.inf)):
        raise ConfigError("u_end must be finite and exceed eps")
    if widths.ndim:
        eps = widths.tolist()
    xdot0 = np.broadcast_to(data.xdot0, widths.shape + data.xdot0.shape)
    y0 = _initial_state(model, data.x0, xdot0, data.v0, data.vdot0)
    return _integrate(model, profile, net, eps, y0, -1.0, u_end, rtol, atol)
