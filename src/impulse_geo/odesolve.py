"""Adaptive embedded Runge-Kutta integration with dense output.

A single Dormand-Prince 5(4) pair drives every trajectory in this package.
The fifth-order solution is propagated, the embedded fourth-order solution
provides the local error estimate, and each accepted step stores the
pair's quartic dense-output polynomial (built from the already computed
stages, so it costs no extra evaluations).  A plain cubic Hermite
interpolant was tried first and could not hold the 1e-8 dense-measurement
budget at the step sizes the controller selects.

Two guards reflect how chart-based geometry fails in practice:

* a right-hand side may raise :class:`~impulse_geo.errors.ChartDomainError`
  (or produce non-finite values) at a trial stage; the step is then retried
  with a smaller size and, if the step size collapses, integration aborts
  carrying the last accepted state;
* an accepted state whose magnitude exceeds the blow-up bound ``1e8``
  aborts immediately.

A ``(B, D)`` initial state integrates B independent trajectories as one
ensemble (see Hairer, Norsett and Wanner, *Solving ODEs I*, II.4-6).
``t0``, ``t1`` and ``max_step`` may then be given per row, and the
right-hand side is called as ``fun(t, Y, rows)`` on the ``(m,)``
parameters and ``(m, D)`` states of the live rows ``rows`` (indices into
``y0``).  A :class:`~impulse_geo.errors.ChartDomainError` of a stage is
resolved row by row, so it marks only the rows that raise it.  A row that
fails becomes that row's :class:`IntegrationFailure` and drops out; the
ensemble call itself never raises for one row.

Each form has its own trial step, and both do the same arithmetic.  An
ensemble takes :func:`_step` on ``(m, D)`` arrays: each stage combination
is one ``np.add.reduce`` over the stage axis of the slopes, from 0.0.
numpy adds that axis in order, so this is the written-out
``0 + a1*k1 + a2*k2 + ...`` bit for bit, signed zeros included, in a few
numpy calls rather than one per term.  A single trajectory takes
:func:`_point_step` on lists of Python floats, with that chain written out
term by term; its error norm and blow-up check round and compare as
numpy's do, so both forms keep the same bits.  At the 6 entries of a 2-D
geodesic state numpy's fixed cost per call, not the arithmetic, set the
cost of a step: on floats the benchmark's ``crossing_ensemble`` round time
fell by 16% (2-vCPU VM, Python 3.11, numpy 2.4).  An ensemble shares each
numpy call among its rows, but a widths ensemble has only 6-8 of them, and
there the number of calls per stage still sets the cost: one field call in
the strip (sphere, Gaussian bump, 6 rows) took 74 µs, no less than six
per-point calls.  So :func:`_step` forms its stage times in one operation,
the error norm skips ``np.mean``'s wrapper, and while every row is live
the states and slopes are not gathered; with the leaner ensemble field of
:mod:`impulse_geo.dynamics` that cut the benchmark's ``cli_sweep`` round
time by 23%, with every bit kept.  One step controller,
:class:`_Row`, serves both forms: every trajectory, alone or as a row, has
its own step size, end point, step cap, accept/reject decision, blow-up
and step-limit checks, counts and dense output, with the step-size
arithmetic in Python floats.  One stage-failure rule holds in both forms:
a stage that cannot be evaluated abandons the trial step, and the rows it
failed on retry at half the step; in an ensemble every other live row
repeats the same trial step from the same state, so its bits and counts
do not change.  Provided ``fun`` computes each row independently of the
others, every row is bit-identical to the same trajectory integrated
alone or in any other batch.

The two loops stay apart: a single trajectory run as an ensemble of one
was 36% slower, even before the 1-D loop moved to floats.  So the phase
driver of :mod:`impulse_geo.dynamics` hands a 1-D state to the 1-D loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, ConfigError, IntegrationFailure

__all__ = ["DensePath", "PathDiagnostics", "solve_rk45"]

# Dormand-Prince 5(4) tableau.  The last row of _A is the propagating weight
# vector, so the seventh (FSAL) stage is the first stage of the next step.
_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_ERR = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
        -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# the rows of _A and _ERR as columns against (m, D) slopes
_WEIGHTS = [np.reshape(w, (-1, 1, 1)) for w in _A + (_ERR,)]
# the stage nodes as a column against (m, 1) times
_C_COL = np.reshape(_C, (-1, 1, 1))

# quartic dense-output weights of the pair: y(t + s h) =
# y + h * (K^T P) . (s, s^2, s^3, s^4) with K the 7 stage slopes
_P = np.array([
    [1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0],
    [0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0],
    [0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0],
    [0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0],
    [0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 1_000_000
# an accepted state of larger magnitude has blown up
_BLOWUP = 1e8


@dataclass
class PathDiagnostics:
    """The work of an integration: accepted steps, rejected steps and
    right-hand side evaluations; :mod:`impulse_geo.dynamics` adds the
    energy at the first node and its drift for a single trajectory.  The
    sum of two is the work of both, with no energies."""

    n_steps: int = 0
    n_rejected: int = 0
    n_rhs: int = 0
    energy_start: float = math.nan
    energy_drift: float = math.nan

    def __add__(self, other):
        return PathDiagnostics(self.n_steps + other.n_steps,
                               self.n_rejected + other.n_rejected,
                               self.n_rhs + other.n_rhs)


class _StageFailure(Exception):
    """Internal: a trial stage could not be evaluated."""


class DensePath:
    """Piecewise quartic interpolant built on accepted RK steps.

    Stores the accepted nodes and states plus one polynomial coefficient
    block per step; evaluation at a query point uses the polynomial of the
    enclosing step.
    """

    def __init__(self, ts, ys, coeffs):
        self.ts = np.asarray(ts, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)  # (steps, dim, 4)
        if len(self.ts) < 2:
            raise ConfigError("a dense path needs at least one accepted step")

    @property
    def t0(self):
        return float(self.ts[0])

    @property
    def t1(self):
        return float(self.ts[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tq = np.atleast_1d(t)
        idx = np.clip(np.searchsorted(self.ts, tq, side="right") - 1,
                      0, len(self.ts) - 2)
        ta = self.ts[idx]
        h = self.ts[idx + 1] - ta
        s = (tq - ta) / h
        powers = np.stack([s, s * s, s ** 3, s ** 4], axis=-1)  # (q, 4)
        q = self.coeffs[idx]  # (q, dim, 4)
        out = self.ys[idx] + h[:, None] * np.einsum("qdj,qj->qd", q, powers)
        return out[0] if scalar else out


def _rms(v):
    return math.sqrt((v * v).sum() / v.size)


def _point_checked(fun, t, y):
    """``fun`` at the state ``y`` (its floats, given to ``fun`` as an
    array) as a list of floats; :class:`_StageFailure` where it raises
    :class:`ChartDomainError` or is not finite."""
    try:
        f = fun(t, np.array(y))
    except ChartDomainError as exc:
        raise _StageFailure from exc
    if type(f) is not list:
        f = np.asarray(f, dtype=float).tolist()
    if len(f) != len(y):
        raise ConfigError(f"the right-hand side gave {len(f)} values for a "
                          f"state of {len(y)}")
    if not all(map(math.isfinite, f)):
        raise _StageFailure
    return f


def _point_error_norm(err, y, y_new, rtol, atol):
    """The scaled error norm of a step of the 1-D loop, on floats and bit
    for bit ``_rms(err / (atol + rtol * np.maximum(|y|, |y_new|)))``:
    numpy's maximum is NaN where ``y_new`` holds a NaN, as the comparison
    here is (``y`` holds a NaN only where ``y_new`` does), and numpy adds
    fewer than eight squares in order, from 0.0, and more pairwise."""
    ratios = [e / (atol + rtol * (a if a >= b else b))
              for e, a, b in zip(err, map(abs, y), map(abs, y_new))]
    if len(ratios) >= 8:
        return _rms(np.array(ratios))
    total = 0.0
    for r in ratios:
        total += r * r
    return math.sqrt(total / len(ratios))


def _blown_up(y):
    """Whether ``np.abs(y).max()`` of the floats ``y`` exceeds the blow-up
    bound: a state holding a NaN has a NaN maximum, which exceeds
    nothing."""
    return max(map(abs, y)) > _BLOWUP and not any(v != v for v in y)


def _step(fun, check, t, y, f, h, t_new):
    """One Dormand-Prince trial step of size ``h`` from the ``(m, D)``
    states ``y`` at ``t`` with first slopes ``f``, ending at ``t_new``: the
    new states, the error estimates and the ``(7, m, D)`` array of the
    seven stage slopes.  ``t``, ``h`` and ``t_new`` are ``(m, 1)`` columns.

    ``check(fun, t, y)`` evaluates a stage or raises :class:`_StageFailure`.
    Its stage sums keep every bit of the written-out chain (module doc)."""
    w = _WEIGHTS
    ts = t + _C_COL * h
    k = np.empty((7,) + y.shape)
    k[0] = f
    for i in range(1, 6):
        k[i] = check(fun, ts[i - 1],
                     y + h * np.add.reduce(w[i - 1] * k[:i], axis=0,
                                           initial=0.0))
    y_new = y + h * np.add.reduce(w[5] * k[:6], axis=0, initial=0.0)
    k[6] = check(fun, t_new, y_new)
    err = h * np.add.reduce(w[6] * k, axis=0, initial=0.0)
    return y_new, err, k


def _point_step(fun, check, t, y, f, h, t_new):
    """:func:`_step` on one trajectory: the state ``y`` and the slope ``f``
    are lists of D floats, ``t``, ``h`` and ``t_new`` floats, and the
    slopes come back as a tuple of seven lists.

    Each stage sum is written out as ``(((0.0 + a1 k1) + a2 k2) + ...)``,
    the order of :func:`_step`'s reductions, so both keep the same bits.
    The two zero weights (``k2`` in the new state and in the error) are
    left out: a slope is finite, so its zero product is a signed zero, and
    a sum from 0.0 is never -0.0, so adding a signed zero to it changes no
    bit."""
    c2, c3, c4, c5, c6 = _C
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _A
    e1, _, e3, e4, e5, e6, e7 = _ERR
    k2 = check(fun, t + c2 * h,
               [v + h * (0.0 + a21 * p) for v, p in zip(y, f)])
    k3 = check(fun, t + c3 * h,
               [v + h * ((0.0 + a31 * p) + a32 * q)
                for v, p, q in zip(y, f, k2)])
    k4 = check(fun, t + c4 * h,
               [v + h * (((0.0 + a41 * p) + a42 * q) + a43 * r)
                for v, p, q, r in zip(y, f, k2, k3)])
    k5 = check(fun, t + c5 * h,
               [v + h * ((((0.0 + a51 * p) + a52 * q) + a53 * r) + a54 * s)
                for v, p, q, r, s in zip(y, f, k2, k3, k4)])
    k6 = check(fun, t + c6 * h,
               [v + h * (((((0.0 + a61 * p) + a62 * q) + a63 * r) + a64 * s)
                         + a65 * z)
                for v, p, q, r, s, z in zip(y, f, k2, k3, k4, k5)])
    y_new = [v + h * (((((0.0 + a71 * p) + a73 * r) + a74 * s) + a75 * z)
                      + a76 * g)
             for v, p, r, s, z, g in zip(y, f, k3, k4, k5, k6)]
    k7 = check(fun, t_new, y_new)
    err = [h * ((((((0.0 + e1 * p) + e3 * r) + e4 * s) + e5 * z) + e6 * g)
                + e7 * o)
           for p, r, s, z, g, o in zip(f, k3, k4, k5, k6, k7)]
    return y_new, err, (f, k2, k3, k4, k5, k6, k7)


class _Row:
    """The step controller of one trajectory, alone or as an ensemble row.

    Its dense output sits in buffers (node i at ``[i]``, the step from node
    i at ``[i]``) whose used part is the row's :class:`DensePath`."""

    __slots__ = ("t0", "t1", "cap", "end_tol", "phase", "t", "h",
                 "stage_failed", "n_accepted", "n_rejected", "n_rhs", "ts",
                 "ys", "coeffs")

    def __init__(self, t0, t1, cap, y0, phase):
        self.t0, self.t1, self.cap = float(t0), float(t1), float(cap)
        self.end_tol = 1e-14 * max(1.0, abs(self.t0), abs(self.t1))
        # an infinite or NaN bound fails this too
        if not self.end_tol < self.t1 - self.t0 < math.inf:
            raise ConfigError(f"phase t0={self.t0!r}, t1={self.t1!r}: need "
                              "finite t1 - t0 > 1e-14 max(1, |t0|, |t1|)")
        self.phase = phase
        self.t = self.t0
        self.h = 0.0
        self.stage_failed = False
        self.n_accepted, self.n_rejected, self.n_rhs = 0, 0, 1
        # twice the steps of a step cap that binds (the error control takes
        # up to twice as many in a strip), up to two thousand; a longer
        # phase grows the buffers
        span = self.t1 - self.t0
        nodes = 2 * int(span / max(self.cap, span / 1024)) + 16
        self.ts = np.empty(nodes)
        self.ys = np.empty((nodes, len(y0)))
        self.coeffs = np.empty((nodes, len(y0), len(_P[0])))
        self.ts[0] = self.t
        self.ys[0] = y0

    def first_guess(self, y0, f0, rtol, atol):
        """The trial step ``h0`` of the initial-step heuristic, with the
        error scale and the scaled slope norm ``d1`` that :meth:`start`
        needs; ``y0`` and ``f0`` are the state and slope at ``t0``."""
        scale = atol + np.abs(y0) * rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        return min(h0, self.t1 - self.t0, self.cap), scale, d1

    def start(self, h0, scale, d1, f0, f1):
        """Set the first trial step from :meth:`first_guess` and the slope
        ``f1`` at ``t0 + h0`` (None where it could not be evaluated)."""
        if f1 is None:
            h = max(h0 * 1e-3, 1e-12)
        else:
            d2 = _rms((f1 - f0) / scale) / h0
            if d1 <= 1e-15 and d2 <= 1e-15:
                h1 = max(1e-6, h0 * 1e-3)
            else:
                h1 = (0.01 / max(d1, d2)) ** 0.2
            h = min(100.0 * h0, h1, self.t1 - self.t0, self.cap)
        self.h = min(max(h, 1e-12), self.cap, self.t1 - self.t0)

    def next_step(self):
        """The size of the next trial step, or None once the end is reached.

        Raises the row's :class:`IntegrationFailure` when the step budget
        is spent or the step size has collapsed."""
        if not self.t1 - self.t > self.end_tol:
            return None
        if self.n_accepted + self.n_rejected >= _MAX_STEPS:
            raise self.failure("step_limit")
        self.h = min(self.h, self.cap, self.t1 - self.t)
        if self.h < 1e-14 * max(1.0, abs(self.t)):
            raise self.failure("chart_escape" if self.stage_failed
                               else "step_underflow")
        return self.h

    def end_of(self, h):
        """The end of a step of size ``h``, snapped onto ``t1`` when close."""
        t_new = self.t + h
        if self.t1 - t_new < 1e-12 * max(1.0, abs(self.t1)):
            t_new = self.t1
        return t_new

    def stage_failure(self):
        """A trial stage could not be evaluated: retry at half the step."""
        self.stage_failed = True
        self.n_rejected += 1
        self.h *= 0.5

    def accept(self, err_norm, t_new, y_new, dense, blown_up):
        """Decide on a completed step by its scaled error norm; on
        acceptance store it with its dense-output block ``dense``, or fail
        if the new state has ``blown_up``.  Returns whether the step was
        accepted."""
        self.n_rhs += 7
        factor = _MAX_FACTOR if err_norm == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
        self.h *= factor
        if err_norm > 1.0:
            self.n_rejected += 1
            return False
        if blown_up:
            raise self.failure("blow_up", t_new, np.array(y_new, dtype=float),
                               f"state magnitude exceeded {_BLOWUP:g}")
        n = self.n_accepted
        if n + 1 == len(self.ts):
            self.ts, self.ys, self.coeffs = (
                _grown(buf) for buf in (self.ts, self.ys, self.coeffs))
        self.coeffs[n] = dense
        self.t = self.ts[n + 1] = t_new
        self.ys[n + 1] = y_new
        self.n_accepted = n + 1
        self.stage_failed = False
        return True

    def path(self):
        n = self.n_accepted
        return DensePath(self.ts[:n + 1], self.ys[:n + 1], self.coeffs[:n])

    def counts(self):
        return {"n_steps": self.n_accepted, "n_rejected": self.n_rejected,
                "n_rhs": self.n_rhs}

    def failure(self, reason, u=None, state=None, msg=None):
        """The row's :class:`IntegrationFailure`, by default at its last
        accepted state, carrying the path integrated so far and its
        counts."""
        if u is None:
            u, state = self.t, self.ys[self.n_accepted].copy()
        exc = IntegrationFailure(
            reason, u, state, self.phase, msg,
            partial=self.path() if self.n_accepted else None)
        exc.diagnostics = PathDiagnostics(**self.counts())
        return exc


def _grown(buf):
    """``buf`` with twice the nodes."""
    out = np.empty((2 * len(buf),) + buf.shape[1:])
    out[:len(buf)] = buf
    return out


_INITIAL_UNDEFINED = "right-hand side undefined at the initial state"
_NON_FINITE = "initial state {} is not finite"


def solve_rk45(fun, t0, t1, y0, *, rtol=1e-10, atol=1e-10, max_step=math.inf,
               phase=None):
    """Integrate ``y' = fun(t, y)`` forward from ``t0`` to ``t1``.

    ``fun(t, y)`` gets the state as a ``(D,)`` array and returns its D
    slopes, as a list of floats or anything ``np.asarray`` takes.
    Returns ``(path, stats)`` where ``path`` is a :class:`DensePath` over
    ``[t0, t1]`` and ``stats`` is a dict with step counts.  Raises
    :class:`IntegrationFailure` on blow-up, chart escape or step collapse;
    the exception carries the last accepted state, the partial path and
    the phase's counts as a :class:`PathDiagnostics`.  An initial state
    that is not finite, or where ``fun`` is undefined, fails at once as a
    chart escape.

    A ``(B, D)`` state ``y0`` is an ensemble (see the module docstring):
    ``path`` is then a list holding, per row, a :class:`DensePath` or the
    row's :class:`IntegrationFailure`; ``stats`` holds the counts summed
    over the rows and, under ``"rows"``, one count dict per row.

    ``atol`` must be positive and ``rtol`` non-negative, or the error scale
    of a zero state vanishes; :class:`ConfigError` is raised otherwise.
    """
    if not (atol > 0.0 and rtol >= 0.0):
        raise ConfigError(
            f"tolerances need atol > 0 and rtol >= 0, got atol={atol!r}, "
            f"rtol={rtol!r}")
    if np.ndim(y0) == 2:
        return _solve_ensemble(fun, t0, t1, y0, rtol, atol, max_step, phase)
    row = _Row(t0, t1, max_step, np.asarray(y0, dtype=float), phase)
    y = row.ys[0]
    if not np.isfinite(y).all():
        raise row.failure("chart_escape", msg=_NON_FINITE.format(y))
    try:
        f = _point_checked(fun, row.t, y)
    except _StageFailure:
        raise row.failure("chart_escape", msg=_INITIAL_UNDEFINED) from None
    f0 = np.array(f)
    h0, scale, d1 = row.first_guess(y, f0, rtol, atol)
    try:
        f1 = np.array(_point_checked(fun, row.t + h0, y + h0 * f0))
    except _StageFailure:
        f1 = None
    row.start(h0, scale, d1, f0, f1)

    y = y.tolist()
    while (h := row.next_step()) is not None:
        t_new = row.end_of(h)
        try:
            y_new, err, k = _point_step(fun, _point_checked, row.t, y, f, h,
                                        t_new)
        except _StageFailure:
            row.stage_failure()
            continue
        if row.accept(_point_error_norm(err, y, y_new, rtol, atol), t_new,
                      y_new, np.einsum("sd,sj->dj", k, _P),
                      _blown_up(y_new)):
            y, f = y_new, k[-1]
    return row.path(), row.counts()


def _rows_checked(fun, t, y, rows):
    """``fun`` on the live rows ``rows`` and a mask of the rows it could
    evaluate.  A :class:`ChartDomainError` is resolved row by row, so it
    marks only the rows that raise it; a result of another shape than
    ``y`` raises :class:`ConfigError`."""
    try:
        f = np.asarray(fun(t, y, rows), dtype=float)
    except ChartDomainError:
        if len(rows) == 1:
            return np.full(y.shape, np.nan), np.zeros(1, dtype=bool)
        parts = [_rows_checked(fun, t[i:i + 1], y[i:i + 1], rows[i:i + 1])
                 for i in range(len(rows))]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))
    if f.shape != y.shape:
        raise ConfigError(f"the right-hand side gave values of shape "
                          f"{f.shape} for states of shape {y.shape}")
    return f, np.isfinite(f).all(axis=1)


def _per_row(value, b):
    return [float(v) for v in np.broadcast_to(np.asarray(value, float), (b,))]


def _solve_ensemble(fun, t0, t1, y0, rtol, atol, max_step, phase):
    """The ensemble form of :func:`solve_rk45` on a ``(B, D)`` state.

    The live rows take one :func:`_step` at once; each row's step control
    is its own :class:`_Row`, as in the single-trajectory loop.
    """
    y = np.array(y0, dtype=float)
    b = len(y)
    rows = [_Row(*spec, y[r], phase) for r, spec in enumerate(
        zip(*(_per_row(v, b) for v in (t0, t1, max_step))))]
    out = [None] * b
    f, ok = _rows_checked(fun, np.array([row.t for row in rows]), y,
                          np.arange(b))
    finite = np.isfinite(y).all(axis=1)
    for r in np.nonzero(~(ok & finite))[0]:
        out[r] = rows[r].failure("chart_escape", msg=_INITIAL_UNDEFINED
                                 if finite[r] else _NON_FINITE.format(y[r]))
    live = [r for r in range(b) if out[r] is None]

    def stage(fun, t, yi):
        # a stage on the live rows idx; a failure names the rows that could
        # not be evaluated
        fi, ok = _rows_checked(fun, t[:, 0], yi, idx)
        if not ok.all():
            raise _StageFailure(idx[~ok])
        return fi

    if live:
        guesses = [rows[r].first_guess(y[r], f[r], rtol, atol) for r in live]
        idx = np.array(live, dtype=int)
        h0 = np.array([g[0] for g in guesses])
        f1, ok = _rows_checked(fun, np.array([rows[r].t for r in live]) + h0,
                               y[idx] + h0[:, None] * f[idx], idx)
        for j, (r, guess) in enumerate(zip(live, guesses)):
            rows[r].start(*guess, f[r], f1[j] if ok[j] else None)

    while live:
        trial = []
        for r in live:
            try:
                h = rows[r].next_step()
            except IntegrationFailure as exc:
                out[r] = exc
                continue
            if h is None:
                out[r] = rows[r].path()
            else:
                trial.append(r)
        live = trial
        if not live:
            break
        idx = np.array(live)
        # (m, 1) columns of each live row's t, h and step end
        t, h, t_new = np.array([(row.t, row.h, row.end_of(row.h)) for row in
                                (rows[r] for r in live)]).T[:, :, None]
        # while every row is live, the states and slopes need no gather
        every = len(live) == b
        yv = y if every else y[idx]
        try:
            y_new, err, k = _step(fun, stage, t, yv, f if every else f[idx],
                                  h, t_new)
        except _StageFailure as exc:
            # the other rows repeat the same trial step
            for r in exc.args[0]:
                rows[r].stage_failure()
            continue
        size = np.abs(y_new)
        ratio = err / (atol + rtol * np.maximum(np.abs(yv), size))
        # np.mean's sum and true divide, without its wrapper
        err_norms = np.sqrt(np.add.reduce(ratio * ratio, axis=1) / y.shape[1])
        dense = np.einsum("sbd,sj->bdj", k, _P)
        blown = (size.max(axis=1) > _BLOWUP).tolist()
        accepted = []
        for j, (r, err_norm, end) in enumerate(
                zip(live, err_norms.tolist(), t_new[:, 0].tolist())):
            try:
                if rows[r].accept(err_norm, end, y_new[j], dense[j],
                                  blown[j]):
                    accepted.append(j)
            except IntegrationFailure as exc:
                out[r] = exc
        if len(accepted) == b:
            y, f = y_new, k[-1]
        else:
            y[idx[accepted]] = y_new[accepted]
            f[idx[accepted]] = k[-1][accepted]
        live = [r for r in live if out[r] is None]

    counts = [row.counts() for row in rows]
    stats = {key: sum(c[key] for c in counts)
             for key in ("n_steps", "n_rejected", "n_rhs")}
    stats["rows"] = counts
    return out, stats
