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
* an accepted state whose magnitude exceeds the blow-up bound aborts
  immediately.

A ``(B, D)`` initial state integrates B independent trajectories as one
ensemble (the vectorized form of the same controller, see Hairer, Norsett
and Wanner, *Solving ODEs I*, II.4-6).  ``t0``, ``t1`` and ``max_step``
may then be given per row, and the right-hand side is called as
``fun(t, Y, rows)`` on the ``(m,)`` parameters and ``(m, D)`` states of the
live rows ``rows`` (indices into ``y0``).  Every row keeps its own step
size, end point, step cap, accept/reject decision, stage-failure halving,
blow-up and step-limit checks and dense output; the step-size arithmetic
runs per row in Python floats, exactly as for a single trajectory.  A row
whose stage raises :class:`~impulse_geo.errors.ChartDomainError` is
re-evaluated alone, so a failure marks only the rows it concerns.  A row
that fails becomes that row's :class:`IntegrationFailure` and drops out;
the ensemble call itself never raises for one row.  Provided ``fun``
computes each row independently of the others, every row is bit-identical
to the same row integrated in any other batch.
"""

import math

import numpy as np

from .errors import ChartDomainError, IntegrationFailure

__all__ = ["DensePath", "solve_rk45"]

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
            raise ValueError("a dense path needs at least one accepted step")

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


def _checked(fun, t, y):
    try:
        f = np.asarray(fun(t, y), dtype=float)
    except ChartDomainError as exc:
        raise _StageFailure from exc
    if not np.all(np.isfinite(f)):
        raise _StageFailure
    return f


def _rms(v):
    return float(np.sqrt(np.mean(v * v)))


def _first_guess(t0, y0, f0, t_end, rtol, atol, max_step):
    """The trial step ``h0`` of the initial-step heuristic, with the error
    scale and the scaled slope norm ``d1`` that its second half needs."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    return min(h0, t_end - t0, max_step), scale, d1


def _second_guess(h0, d1, d2, t0, t_end, max_step):
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_end - t0, max_step)


def _initial_step(fun, t0, y0, f0, t_end, rtol, atol, max_step):
    h0, scale, d1 = _first_guess(t0, y0, f0, t_end, rtol, atol, max_step)
    try:
        f1 = _checked(fun, t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
    except _StageFailure:
        return max(h0 * 1e-3, 1e-12)
    return _second_guess(h0, d1, d2, t0, t_end, max_step)


def solve_rk45(fun, t0, t1, y0, *, rtol=1e-10, atol=1e-10, max_step=math.inf,
               first_step=None, blowup=1e8, phase=None):
    """Integrate ``y' = fun(t, y)`` forward from ``t0`` to ``t1``.

    Returns ``(path, stats)`` where ``path`` is a :class:`DensePath` over
    ``[t0, t1]`` and ``stats`` is a dict with step counts.  Raises
    :class:`IntegrationFailure` on blow-up, chart escape or step collapse;
    the exception carries the last accepted state and the partial path.

    A ``(B, D)`` state ``y0`` is an ensemble (see the module docstring):
    ``path`` is then a list holding, per row, a :class:`DensePath` or the
    row's :class:`IntegrationFailure`; ``stats`` holds the counts summed
    over the rows and, under ``"rows"``, one count dict per row.
    """
    if np.ndim(y0) == 2:
        return _solve_ensemble(fun, t0, t1, y0, rtol, atol, max_step,
                               first_step, blowup, phase)
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    try:
        f = _checked(fun, t, y)
    except _StageFailure:
        raise IntegrationFailure(
            "chart_escape", t, y, phase,
            "right-hand side undefined at the initial state") from None

    ts, ys, coeffs = [t], [y.copy()], []
    n_accepted = 0
    n_rejected = 0
    n_rhs = 1
    span = t1 - t0
    h = first_step if first_step is not None else _initial_step(
        fun, t0, y, f, t1, rtol, atol, max_step)
    h = min(max(h, 1e-12), max_step, span)
    stage_failed = False

    def _fail(reason, u, state, msg=None):
        partial = DensePath(ts, ys, coeffs) if len(ts) >= 2 else None
        raise IntegrationFailure(reason, u, state, phase, msg, partial=partial)

    while t1 - t > 1e-14 * max(1.0, abs(t0), abs(t1)):
        if n_accepted + n_rejected >= _MAX_STEPS:
            _fail("step_limit", t, y)
        h = min(h, max_step, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            _fail("chart_escape" if stage_failed else "step_underflow", t, y)
        try:
            k = [f]
            for ci, ai in zip(_C, _A[:-1]):
                yi = y + h * sum(a * kk for a, kk in zip(ai, k))
                k.append(_checked(fun, t + ci * h, yi))
            y_new = y + h * sum(a * kk for a, kk in zip(_A[-1], k))
            t_new = t + h
            if t1 - t_new < 1e-12 * max(1.0, abs(t1)):
                t_new = t1
            f_new = _checked(fun, t_new, y_new)
        except _StageFailure:
            stage_failed = True
            n_rejected += 1
            h *= 0.5
            continue
        n_rhs += 7
        k.append(f_new)
        err = h * sum(e * kk for e, kk in zip(_ERR, k))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = _rms(err / scale)
        if err_norm <= 1.0:
            if np.max(np.abs(y_new)) > blowup:
                _fail("blow_up", t_new, y_new,
                      f"state magnitude exceeded {blowup:g}")
            coeffs.append(np.einsum("sd,sj->dj", np.asarray(k), _P))
            t, y, f = t_new, y_new, f_new
            ts.append(t)
            ys.append(y.copy())
            n_accepted += 1
            stage_failed = False
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
            h *= factor
        else:
            n_rejected += 1
            h *= min(1.0, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))

    stats = {"n_steps": n_accepted, "n_rejected": n_rejected, "n_rhs": n_rhs}
    return DensePath(ts, ys, coeffs), stats


def _rows_checked(fun, t, y, rows):
    """``fun`` on the live rows ``rows`` and a mask of the rows it could
    evaluate.  A :class:`ChartDomainError` is resolved row by row, so it
    marks only the rows that raise it."""
    try:
        f = np.asarray(fun(t, y, rows), dtype=float)
    except ChartDomainError:
        if len(rows) == 1:
            return np.full(y.shape, np.nan), np.zeros(1, dtype=bool)
        parts = [_rows_checked(fun, t[i:i + 1], y[i:i + 1], rows[i:i + 1])
                 for i in range(len(rows))]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))
    return f, np.all(np.isfinite(f), axis=1)


def _per_row(value, b):
    return [float(v) for v in np.broadcast_to(np.asarray(value, float), (b,))]


def _buffer_nodes(t0, t1, cap):
    """Nodes to reserve for a row: twice the steps of a step cap that
    binds (the error control takes up to twice as many in a strip), up to
    two thousand; a longer phase grows the row's buffers."""
    span = t1 - t0
    return 2 * int(span / max(cap, span / 1024)) + 16


def _grown(buf):
    """``buf`` with twice the nodes."""
    out = np.empty((2 * len(buf),) + buf.shape[1:])
    out[:len(buf)] = buf
    return out


def _solve_ensemble(fun, t0, t1, y0, rtol, atol, max_step, first_step,
                    blowup, phase):
    """The ensemble form of :func:`solve_rk45` on a ``(B, D)`` state.

    Stage arithmetic runs on the live rows at once; times, step sizes,
    error norms and controller factors are per-row Python floats, computed
    as in the single-trajectory loop.
    """
    y = np.array(y0, dtype=float)
    b = len(y)
    t0s, t1s, caps = (_per_row(v, b) for v in (t0, t1, max_step))
    if not all(e > s for s, e in zip(t0s, t1s)):
        raise ValueError("t1 must exceed t0")
    out = [None] * b
    # per row, dense output in buffers: node i at [i], the step from node
    # i at [i]; the row's path is a view of them
    nodes = [_buffer_nodes(*row) for row in zip(t0s, t1s, caps)]
    ts = [np.empty(m) for m in nodes]
    ys = [np.empty((m, y.shape[1])) for m in nodes]
    coeffs = [np.empty((m, y.shape[1], len(_P[0]))) for m in nodes]
    for r in range(b):
        ts[r][0] = t0s[r]
        ys[r][0] = y[r]
    n_accepted, n_rejected, n_rhs = [0] * b, [0] * b, [1] * b
    stage_failed = [False] * b
    t = list(t0s)

    f, ok = _rows_checked(fun, np.array(t), y, np.arange(b))
    for r in np.nonzero(~ok)[0]:
        out[r] = IntegrationFailure(
            "chart_escape", t[r], y[r].copy(), phase,
            "right-hand side undefined at the initial state")
    live = [r for r in range(b) if out[r] is None]

    h = [0.0] * b if first_step is None else _per_row(first_step, b)
    if first_step is None and live:
        guesses = [_first_guess(t[r], y[r], f[r], t1s[r], rtol, atol, caps[r])
                   for r in live]
        idx = np.array(live, dtype=int)
        h0 = np.array([g[0] for g in guesses])
        f1, ok = _rows_checked(fun, np.array(t)[idx] + h0,
                               y[idx] + h0[:, None] * f[idx], idx)
        for j, (r, (h0r, scale, d1)) in enumerate(zip(live, guesses)):
            if ok[j]:
                d2 = _rms((f1[j] - f[r]) / scale) / h0r
                h[r] = _second_guess(h0r, d1, d2, t[r], t1s[r], caps[r])
            else:
                h[r] = max(h0r * 1e-3, 1e-12)
    for r in live:
        h[r] = min(max(h[r], 1e-12), caps[r], t1s[r] - t0s[r])

    def path(r):
        n = n_accepted[r]
        return DensePath(ts[r][:n + 1], ys[r][:n + 1], coeffs[r][:n])

    def fail(r, reason, u, state, msg=None):
        out[r] = IntegrationFailure(reason, u, state, phase, msg,
                                    partial=path(r) if n_accepted[r] else None)

    while live:
        trial = []
        for r in live:
            if not t1s[r] - t[r] > 1e-14 * max(1.0, abs(t0s[r]), abs(t1s[r])):
                out[r] = path(r)
            elif n_accepted[r] + n_rejected[r] >= _MAX_STEPS:
                fail(r, "step_limit", t[r], y[r].copy())
            else:
                h[r] = min(h[r], caps[r], t1s[r] - t[r])
                if h[r] < 1e-14 * max(1.0, abs(t[r])):
                    fail(r, "chart_escape" if stage_failed[r]
                         else "step_underflow", t[r], y[r].copy())
                else:
                    trial.append(r)
        live = trial
        if not live:
            break
        idx = np.array(live)
        hv = np.array([h[r] for r in live])
        tv = np.array([t[r] for r in live])
        yv = y[idx]
        k = [f[idx]]
        for s, ai in enumerate(_A):
            yi = yv + hv[:, None] * sum(a * kk for a, kk in zip(ai, k))
            if s < len(_C):
                ui = tv + _C[s] * hv
            else:
                # the propagated solution; snap onto the end point
                t1v = np.array([t1s[r] for r in idx])
                ui = tv + hv
                ui = np.where(t1v - ui < 1e-12 * np.maximum(1.0, np.abs(t1v)),
                              t1v, ui)
            fi, ok = _rows_checked(fun, ui, yi, idx)
            if not ok.all():
                for r in idx[~ok]:
                    stage_failed[r] = True
                    n_rejected[r] += 1
                    h[r] *= 0.5
                idx, hv, tv, yv, yi, ui, fi = (
                    arr[ok] for arr in (idx, hv, tv, yv, yi, ui, fi))
                k = [kk[ok] for kk in k]
                if not len(idx):
                    break
            k.append(fi)
        else:
            y_new, t_new = yi, ui
            err = hv[:, None] * sum(e * kk for e, kk in zip(_ERR, k))
            ratio = err / (atol + rtol * np.maximum(np.abs(yv), np.abs(y_new)))
            err_norms = np.sqrt(np.mean(ratio * ratio, axis=1))
            big = np.max(np.abs(y_new), axis=1) > blowup
            dense = np.einsum("sbd,sj->bdj", np.asarray(k), _P)
            for j, r in enumerate(idx.tolist()):
                n_rhs[r] += 7
                err_norm = float(err_norms[j])
                if err_norm <= 1.0:
                    if big[j]:
                        fail(r, "blow_up", float(t_new[j]), y_new[j],
                             f"state magnitude exceeded {blowup:g}")
                        continue
                    n = n_accepted[r]
                    if n + 1 == len(ts[r]):
                        ts[r], ys[r], coeffs[r] = (
                            _grown(buf) for buf in (ts[r], ys[r], coeffs[r]))
                    coeffs[r][n] = dense[j]
                    t[r] = ts[r][n + 1] = float(t_new[j])
                    y[r] = ys[r][n + 1] = y_new[j]
                    f[r] = k[-1][j]
                    n_accepted[r] += 1
                    stage_failed[r] = False
                    factor = _MAX_FACTOR if err_norm == 0.0 else min(
                        _MAX_FACTOR,
                        max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
                    h[r] *= factor
                else:
                    n_rejected[r] += 1
                    h[r] *= min(1.0, max(_MIN_FACTOR,
                                         _SAFETY * err_norm ** -0.2))
        live = [r for r in live if out[r] is None]

    rows = [{"n_steps": n_accepted[r], "n_rejected": n_rejected[r],
             "n_rhs": n_rhs[r]} for r in range(b)]
    stats = {key: sum(row[key] for row in rows)
             for key in ("n_steps", "n_rejected", "n_rhs")}
    stats["rows"] = rows
    return out, stats
