"""Fixed-point existence machinery for the shock-crossing initial value
problem.

The strip IVP ``xddot = F1(x, xdot) + F2(x) delta_eps`` with data at
``u = -eps`` is governed by two fields built from the geometry and the
profile::

    F1(y, z)^k = -Gamma^k_ij(y) z^i z^j
    F2(y)^k    = 1/2 h^{km}(y) d_m f(y)

Given sup norms of these fields over coordinate balls

    I1 = {|x - x0| <= b},   I2 = {|z - xdot0| <= c + K ||F2||},

the contraction scale is

    alpha = min(1, b / (|xdot0| + ||F1|| + K ||F2||), c / ||F1||)

with the convention ``c / 0 = +inf``, and the IVP has a unique solution on
``[-eps, alpha - eps]`` staying inside ``I1 x I2``.  Choosing
``eps0 = alpha / 2`` guarantees the solution crosses the strip whenever
``eps <= eps0``.

Sup norms and Lipschitz constants are estimated by sampling over the balls
enlarged by the fixed safety factor 1.1; this is a declared heuristic, not
proof-grade interval arithmetic, and the certificate records the grid and
the factor used.  Both the sampling and the iteration evaluate the fields on
whole grids at once, through the batch forms of the model and the profile.
The iteration itself is carried out by :func:`picard_solve` on a uniform grid
with cumulative composite Simpson quadrature: scipy's
``cumulative_simpson`` rule for unequal intervals (Cartwright's formula),
written in numpy with its weights set once per grid, so that importing the
package does not import scipy.  It gives scipy's bits and keeps scipy's
Fortran memory order, in which the charts' column reads ``x[..., i]`` are
contiguous.  The iteration is contractive in the iterated sense only, with
n-step constants

    a_n = 4 max(Lip(F1, I3), K Lip(F2, I1)) alpha^(2n-2) / (2n-2)!

whose summability drives convergence (:func:`weissinger_coefficient`).
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dynamics import InitialData, batch_acceleration, require_profile_fits
from .errors import (CertificateViolation, ChartDomainError, ConfigError,
                     NumericalError)
from .geometry import central_difference
from .profiles import metric_gradient

__all__ = [
    "SupNormEstimate", "ExistenceCertificate", "estimate_sup_norms",
    "alpha_bound", "certify", "PicardResult", "picard_solve",
    "weissinger_coefficient", "weissinger_budget",
]

# the sampled balls are enlarged by this factor; see estimate_sup_norms
_SAFETY = 1.1
# containment tolerance of the balls I1 and I2
_SLACK = 1e-9
# fixed-point iterations per grid, the first grid of picard_solve (odd, so
# that every other node of a refined grid is a node of the coarser one) and
# the most times it is doubled
_MAX_ITER = 60
_BASE_GRID = 2001
_MAX_REFINEMENTS = 3


@dataclass
class SupNormEstimate:
    norm_F1: float
    norm_F2: float
    lip_F1: float
    lip_F2: float
    i2_radius: float
    grid: int
    safety: float


@dataclass
class ExistenceCertificate(SupNormEstimate):
    """Crossing certificate anchored at the strip-entry data: the sup-norm
    estimate over its balls, the anchor, the radii and the bounds."""

    x0: np.ndarray
    xdot0: np.ndarray
    b: float
    c: float
    k: float
    alpha: float
    eps0: float
    chart: str

    def contains_x(self, x):
        """Whether ``x``, a point or every row of a batch, lies in ``I1``."""
        dist = np.linalg.norm(np.asarray(x) - self.x0, axis=-1)
        return bool(np.all(dist <= self.b + _SLACK))

    def contains_xdot(self, z):
        """Whether ``z``, a point or every row of a batch, lies in ``I2``."""
        dist = np.linalg.norm(np.asarray(z) - self.xdot0, axis=-1)
        return bool(np.all(dist <= self.i2_radius + _SLACK))


def _ball_grid(center, radius, per_axis):
    axes = [np.linspace(c - radius, c + radius, per_axis) for c in center]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    pts = mesh.reshape(-1, len(center))
    keep = np.linalg.norm(pts - center, axis=1) <= radius * (1.0 + 1e-12)
    return pts[keep]


def _anchor(model, x0, xdot0):
    """The anchor, checked by :class:`InitialData`, ``x0`` in the chart."""
    anchor = InitialData(x0, xdot0)
    model.require_inside(anchor.x0)
    return anchor.x0, anchor.xdot0


def estimate_sup_norms(model, profile, x0, xdot0, b, c_seed, *, k=1.0,
                       grid=9):
    """Sample-based sup norms and Lipschitz constants of F1 and F2.

    The safety factor 1.1 enlarges the sampled balls rather than scaling
    the sampled maxima: values of constant fields stay exact while growing
    fields are overestimated conservatively.  Points of the enlarged ball
    falling outside the chart are skipped, but the nominal ball ``I1`` must
    be admissible.  ``I2`` is rebuilt from the computed ``||F2||``, which
    depends on ``I1`` only, so one pass resolves its self-reference.
    """
    require_profile_fits(model, profile)
    if not all(0.0 < v < math.inf for v in (b, c_seed, k)):
        raise ConfigError("b, c and K must be positive and finite")
    if not (hasattr(grid, "__index__") and grid >= 9):
        raise ConfigError("grid must be an integer of at least 9 per axis")
    grid = operator.index(grid)
    x0, xdot0 = _anchor(model, x0, xdot0)

    if not model.inside(_ball_grid(x0, b, grid)).all():
        raise ChartDomainError("ball I1 leaves the chart domain; shrink b")
    padded = _ball_grid(x0, _SAFETY * b, grid)
    pts = padded[model.inside(padded)]

    n = model.dim
    m = len(pts)

    def fields(ys):
        # F2 and Gamma side by side: (B, n + n**3)
        f2 = 0.5 * metric_gradient(profile, model, ys)
        return np.concatenate(
            [f2, model.christoffel(ys).reshape(len(ys), -1)], axis=1)

    # jac[b, axis, :] is zero along an axis whose neighbour leaves the chart
    values, jac = central_difference(fields, pts, model.inside)
    f2 = values[:, :n]
    gammas = values[:, n:].reshape(m, n, n, n)
    norm_f2 = float(np.max(np.linalg.norm(f2, axis=1)))
    # Lipschitz of F2 over I1: largest sampled Jacobian (Frobenius bound)
    lip_f2 = float(np.max(np.linalg.norm(jac[:, :, :n], axis=(1, 2))))

    i2_radius = c_seed + k * norm_f2
    zs = _ball_grid(xdot0, _SAFETY * i2_radius, grid)

    # F1[y, z]^k = -Gamma^k_ij(y) z^i z^j over the product grid
    f1 = -np.einsum("mkij,pi,pj->mpk", gammas, zs, zs)
    norm_f1 = float(np.max(np.linalg.norm(f1, axis=2)))

    # joint Lipschitz of F1 on I3: d/dz analytic, d/dy by differencing Gamma
    dgam = jac[:, :, n:].reshape(m, n, n, n, n)
    jy = -np.einsum("makij,pi,pj->mpka", dgam, zs, zs)
    jz = -2.0 * np.einsum("mklj,pj->mpkl", gammas, zs)
    jfull = np.concatenate([jy, jz], axis=3)
    lip_f1 = float(np.max(np.sqrt(np.sum(jfull * jfull, axis=(2, 3)))))

    return SupNormEstimate(norm_F1=norm_f1, norm_F2=norm_f2, lip_F1=lip_f1,
                           lip_F2=lip_f2, i2_radius=i2_radius, grid=grid,
                           safety=_SAFETY)


def alpha_bound(speed, b, c, norm_F1, norm_F2, k):
    """Contraction scale alpha and strip half-width budget eps0 = alpha/2.

    Degenerate ratios follow the convention ``x / 0 = +inf``: with a flat
    chart, a constant-gradient profile and resting data every ratio is
    infinite and alpha = 1.
    """
    if not all(0.0 < v < math.inf for v in (b, c, k)):
        raise ConfigError("b, c and K must be positive and finite")
    if not (speed >= 0 and norm_F1 >= 0 and norm_F2 >= 0):
        raise ConfigError("speed and norms must be nonnegative")
    denom = speed + norm_F1 + k * norm_F2
    ratio_b = b / denom if denom > 0 else math.inf
    ratio_c = c / norm_F1 if norm_F1 > 0 else math.inf
    alpha = min(1.0, ratio_b, ratio_c)
    return alpha, alpha / 2.0


def certify(model, profile, x0, xdot0, *, b=1.0, c=1.0, k=1.0, grid=9):
    """Build an :class:`ExistenceCertificate` anchored at ``(x0, xdot0)``.

    The anchor is the strip-entry data of the IVP; ``k`` is the L1 bound of
    the impulse family in use.
    """
    est = estimate_sup_norms(model, profile, x0, xdot0, b, c, k=k, grid=grid)
    speed = float(np.linalg.norm(xdot0))
    alpha, eps0 = alpha_bound(speed, b, c, est.norm_F1, est.norm_F2, k)
    return ExistenceCertificate(
        **vars(est), x0=np.array(x0, dtype=float),
        xdot0=np.array(xdot0, dtype=float), b=float(b),
        c=float(c), k=float(k), alpha=alpha, eps0=eps0, chart=model.name)


@dataclass
class PicardResult:
    t: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    iterations: int
    corrective_iterations: int
    converged: bool
    shifts: list
    grid_size: int
    refinements: int
    grid_converged: bool


def _simpson_weights(t):
    """The grid-only coefficients of :func:`_cumulative_simpson` on nodes
    ``t`` (at least 3, strictly increasing).

    Cartwright's formula (eq. 8 of K. V. Cartwright, "Simpson's Rule
    Cumulative Integration with MS Excel and Irregularly-spaced Data")
    integrates the quadratic through nodes 1, 2, 3, spaced ``x21`` and
    ``x32``, over ``[x1, x2]`` as ``x21/6 (c1 y1 + c2 y2 + c3 y3)``.  The h1
    half applies it to each interval and its right neighbour; the h2 half,
    with ``x21`` and ``x32`` swapped and ``y3`` taking ``c1``, to each
    interval and its left one.  Both are written as scipy writes them, so
    the bits agree.  Interval ``i`` takes h1 when ``i`` is even and h2 when
    it is odd; on an even number of nodes the last interval takes h2 too.
    """
    dx = np.diff(t)

    def half(x21, x32):
        x31 = x21 + x32
        r31 = x21 / x31
        r = r31 * (x21 / x32)
        return np.array([x21 / 6, 3 - r31, 3 + r + r31, -r])

    h1 = half(dx[:-1], dx[1:])
    h2 = half(dx[1:], dx[:-1])
    return (np.ascontiguousarray(h1[:, ::2]), np.ascontiguousarray(h2[:, ::2]),
            h2[:, -1] if len(t) % 2 == 0 else None)


def _cumulative_simpson(y, weights):
    """``scipy.integrate.cumulative_simpson(y, x=t, axis=0, initial=0.0)``
    for the ``weights`` of :func:`_simpson_weights` on ``t``, bit for bit.

    Like scipy it works along the last axis of ``y.T`` and sums the
    interval integrals in order, so the result keeps scipy's Fortran order;
    the leading 0.0 of the sum stands for scipy's ``initial``, which it
    matches on a signed zero too.
    """
    h1, h2, last = weights
    y = y.T
    n, m = y.shape
    k = (m - 1) // 2
    y0, y1, y2 = y[:, :-2:2], y[:, 1:-1:2], y[:, 2::2]
    out = np.empty((n, m))
    out[:, 0] = 0.0
    w, c1, c2, c3 = h1
    out[:, 1:2 * k:2] = w * (c1 * y0 + c2 * y1 + c3 * y2)
    w, c1, c2, c3 = h2
    out[:, 2::2] = w * (c1 * y2 + c2 * y1 + c3 * y0)
    if last is not None:
        w, c1, c2, c3 = last
        out[:, -1] = w * (c1 * y[:, -1] + c2 * y[:, -2] + c3 * y[:, -3])
    return np.cumsum(out, axis=1, out=out).T


def _c1_distance(x, xd, y, yd):
    """The discrete C1 distance ``max|x - y| + max|xd - yd|``."""
    return float(np.max(np.abs(x - y))) + float(np.max(np.abs(xd - yd)))


def _picard_on_grid(model, profile, net, eps, t, x0, xdot0, tol,
                    certificate):
    """The last iterate on the grid ``t`` and each iteration's shift."""
    m = len(t)
    weights = _simpson_weights(t)
    delta = np.asarray(net.eval(eps, t), dtype=float)
    active = np.nonzero(delta != 0.0)[0]
    x = x0 + np.outer(t + eps, xdot0)
    xd = np.tile(xdot0, (m, 1))
    shifts = []
    for _ in range(_MAX_ITER):
        # F1 on every node (which also tests every node against the chart)
        # and F2 on the nodes where the impulse is active
        integrand, _ = batch_acceleration(
            model, profile, x, xd, active if len(active) else None,
            delta[active])
        xd_new = xdot0 + _cumulative_simpson(integrand, weights)
        x_new = x0 + _cumulative_simpson(xd_new, weights)
        shift = _c1_distance(x_new, xd_new, x, xd)
        shifts.append(shift)
        x, xd = x_new, xd_new
        if certificate is not None:
            if not certificate.contains_x(x):
                raise CertificateViolation(
                    "iterate left the ball I1; b was chosen too small")
            if not certificate.contains_xdot(xd):
                raise CertificateViolation(
                    "iterate velocity left I2; c was chosen too small")
        if shift <= tol:
            break
    return x, xd, shifts


def picard_solve(model, profile, net, eps, x0, xdot0, alpha, *, tol=1e-10,
                 certificate=None):
    """Solve the strip IVP by fixed-point iteration on a uniform grid.

    Iterates the integral operator

        A(x)(t) = x0 + xdot0 (t + eps)
                  + double-integral of [F1(x, xdot) + F2(x) delta_eps]

    from the straight-line seed on ``J = [-eps, alpha - eps]``, evaluating
    the nested integrals by cumulative composite Simpson quadrature on 2001
    nodes.  The rule is scipy's ``cumulative_simpson(y, x=t, axis=0,
    initial=0.0)`` (Cartwright's unequal-interval formula), bit for bit,
    with its weights computed once per grid rather than on each of the two
    integrals of every iteration.  Its result keeps scipy's Fortran order:
    the charts read the columns ``x[..., i]`` of every iterate, which are
    then contiguous.  The iteration stops when the discrete C1 norm of the
    update falls below ``tol``, within 60 iterations.  The grid is then
    doubled, at most 3 times, until the fixed point itself shifts by at
    most ``tol`` between grids.

    Requires ``0 < eps <= alpha / 2`` so the interval reaches ``u = eps``.
    When a certificate is supplied, iterates leaving its containment region
    raise :class:`CertificateViolation`.
    """
    require_profile_fits(model, profile)
    if not eps > 0.0:
        raise ConfigError("eps must be positive")
    if not 0.0 < alpha < math.inf:
        raise ConfigError("alpha must be positive and finite")
    if not eps <= alpha / 2.0 + 1e-12:
        raise ConfigError("eps must be at most alpha/2")
    if not 0.0 < tol < math.inf:
        raise ConfigError("tol must be positive and finite")
    x0, xdot0 = _anchor(model, x0, xdot0)

    x = xd = None
    for refinements in range(_MAX_REFINEMENTS + 1):
        t = np.linspace(-eps, alpha - eps,
                        (_BASE_GRID - 1) * 2 ** refinements + 1)
        coarse_x, coarse_xd = x, xd
        x, xd, shifts = _picard_on_grid(model, profile, net, eps, t, x0,
                                        xdot0, tol, certificate)
        if not shifts[-1] <= tol:
            raise NumericalError(
                f"fixed-point iteration did not converge within {_MAX_ITER} "
                f"iterations (last shift {shifts[-1]:.3e})")
        grid_converged = (refinements > 0 and _c1_distance(
            x[::2], xd[::2], coarse_x, coarse_xd) <= tol)
        if grid_converged:
            break

    corrective = sum(1 for s in shifts if s > tol)
    return PicardResult(t=t, x=x, xdot=xd, iterations=len(shifts),
                        corrective_iterations=corrective,
                        converged=True, shifts=shifts, grid_size=len(t),
                        refinements=refinements, grid_converged=grid_converged)


def weissinger_coefficient(n, alpha, lip_F1, lip_F2, k):
    """The n-step contraction constant a_n of the iterated operator."""
    if not (hasattr(n, "__index__") and n >= 2):
        raise ConfigError("n must be an integer of at least 2")
    if not all(0.0 <= v < math.inf for v in (alpha, lip_F1, lip_F2, k)):
        raise ConfigError("alpha, Lipschitz bounds and K must be in [0, inf)")
    lead = 4.0 * max(lip_F1, k * lip_F2)
    return lead * alpha ** (2 * n - 2) / math.factorial(2 * n - 2)


def weissinger_budget(alpha, lip_F1, lip_F2, k):
    """Partial sums of the contraction series over the iteration budget."""
    terms = np.array([weissinger_coefficient(n, alpha, lip_F1, lip_F2, k)
                      for n in range(2, _MAX_ITER + 1)])
    return np.cumsum(terms)
