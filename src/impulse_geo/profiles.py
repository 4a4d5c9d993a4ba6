"""Wave profiles on the wave surface and strict families of impulse
regularizations.

A :class:`WaveProfile` is a scalar function ``f`` on chart coordinates
together with its coordinate differential ``df``; both also take ``(B, n)``
batches of points.  :func:`metric_gradient` turns ``df`` into ``grad f`` by
the model's own point and batch forms, which the geodesic fields read too.
A :class:`DeltaNet` is a family ``delta_eps`` of smooth functions
regularizing the unit impulse at ``u = 0``; the built-in nets satisfy the
three strict-net properties by construction:

(i)   supports shrink to zero, ``supp(delta_eps) in (-eps, eps)``;
(ii)  integrals tend to one;
(iii) L1 norms are uniformly bounded by a declared constant ``K``.

:func:`verify_strict_delta_net` measures the three properties with adaptive
quadrature, and :func:`classify_growth` estimates the radial growth
exponent of a profile by sampling along radial geodesics.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import dynamics, geometry
from .errors import ConfigError, IntegrationFailure, NumericalError

__all__ = [
    "WaveProfile", "constant_profile", "linear_profile",
    "quadratic_form_profile", "radial_power_profile",
    "gaussian_bump_profile", "metric_gradient",
    "DeltaNet", "mollifier_net", "asymmetric_net", "signed_net",
    "NetCheck", "NetVerificationReport", "verify_strict_delta_net",
    "GrowthSample", "GrowthReport", "classify_growth",
]

# 1 / integral of exp(-1/(1-s^2)) over (-1, 1); normalizes the standard bump
_BUMP_NORM = 2.2522836210435810105


def _bump_scalar(s, prime):
    """The unit bump at a float ``s``, or with ``prime`` its derivative."""
    if abs(s) >= 1.0:
        return 0.0
    q = 1.0 - s * s
    value = _BUMP_NORM * math.exp(-1.0 / q)
    return value * (-2.0 * s / (q * q)) if prime else value


def _bump_array(s, prime):
    """:func:`_bump_scalar` on every element of an array ``s``."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    sm = s[m]
    q = 1.0 - sm * sm
    value = _BUMP_NORM * np.exp(-1.0 / q)
    out[m] = value * (-2.0 * sm / (q * q)) if prime else value
    return out


class WaveProfile:
    """Scalar profile ``f`` with its coordinate differential.

    ``f`` maps a point ``(n,)`` to a float and a batch ``(B, n)`` to
    ``(B,)``; ``df`` maps a point to ``(n,)`` and a batch to ``(B, n)``.
    Its forms are chosen once, when the profile is built: the ``df``
    callback at a point and row by row on a batch, or without one the
    central difference of ``f`` with the usual cube-root step, on a batch
    (of one row, for a point); built-in profiles evaluate a batch in closed
    form.  The difference's accuracy loss is acceptable for ``f`` but would
    not be for the impulse family, whose derivative is therefore always
    analytic for built-in nets.

    ``dim`` is the dimension the profile's parameters fix (a linear
    profile's coefficients, a bump's centre), or None where they fix none;
    pairing the profile with a model of another dimension raises
    :class:`ConfigError` before anything is evaluated.
    """

    def __init__(self, f, df=None, *, name="custom", dim=None):
        self._f = f
        self.analytic_grad = df is not None
        self.name = name
        self.dim = dim
        self._df = self._difference_at if df is None else df
        self._batch_df = self._difference if df is None else self._df_rows

    def __repr__(self):
        return f"WaveProfile({self.name!r})"

    def f(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(self._f(x))
        return np.asarray(self._batch_f(x), dtype=float)

    def _batch_f(self, xs):
        """The point form row by row, with its ``float`` contract."""
        return np.array([float(self._f(p)) for p in xs], dtype=float)

    def df(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return self._batch_df(x)
        return np.asarray(self._df(x), dtype=float)

    def _df_rows(self, xs):
        """The ``df`` callback row by row."""
        return np.array([self._df(p) for p in xs],
                        dtype=float).reshape(xs.shape)

    def _difference(self, xs):
        """``df`` of a batch as the central difference of ``f``."""
        return geometry.central_difference(self._batch_f, xs)[1]

    def _difference_at(self, x):
        return self._difference(np.atleast_2d(x))[0]


def _vector(key, values, size=None):
    """``values`` as a 1-D float array, of ``size`` entries if given; a
    profile's vector parameter fixes its dimension."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or size not in (None, len(v)):
        count = "" if size is None else f"{size} "
        raise ConfigError(f"{key} must be a 1-d sequence of {count}numbers, "
                          f"got shape {v.shape}")
    return v


def _with_batch_forms(profile, batch_f, batch_df):
    profile._batch_f = batch_f
    profile._batch_df = batch_df
    return profile


def constant_profile(value=1.0):
    v = float(value)
    prof = WaveProfile(lambda x: v, lambda x: np.zeros_like(x),
                       name="constant")
    return _with_batch_forms(prof, lambda xs: np.full(len(xs), v),
                             np.zeros_like)


def linear_profile(coeffs, offset=0.0):
    a = _vector("linear coeffs", coeffs)
    b = float(offset)
    prof = WaveProfile(lambda x: float(a @ x) + b, lambda x: a.copy(),
                       name="linear", dim=len(a))
    return _with_batch_forms(prof,
                             lambda xs: np.einsum("bi,i->b", xs, a) + b,
                             lambda xs: np.tile(a, (len(xs), 1)))


def quadratic_form_profile(matrix, center=None):
    q = np.asarray(matrix, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ConfigError(f"quadratic_form matrix must be square, got shape "
                          f"{q.shape}")
    q = 0.5 * (q + q.T)
    # no centre is the origin: x - 0.0 is x, bit for bit
    c = 0.0 if center is None else _vector("quadratic_form center", center,
                                           len(q))

    def f(x):
        y = x - c
        return float(y @ q @ y)

    def df(x):
        return 2.0 * (q @ (x - c))

    def batch_f(xs):
        # two two-operand contractions: with "bi,ij,bj->b" a row's rounding
        # depends on the rest of the batch
        ys = xs - c
        return np.einsum("bk,bk->b", ys, np.einsum("kj,bj->bk", q, ys))

    def batch_df(xs):
        return 2.0 * np.einsum("kj,bj->bk", q, xs - c)

    prof = WaveProfile(f, df, name="quadratic_form", dim=len(q))
    return _with_batch_forms(prof, batch_f, batch_df)


def radial_power_profile(amplitude, exponent, center=None):
    a = float(amplitude)
    p = float(exponent)
    c = 0.0 if center is None else _vector("radial_power center", center)

    def f(x):
        return a * float(np.linalg.norm(x - c)) ** p

    def df(x):
        y = x - c
        r = float(np.linalg.norm(y))
        if r == 0.0:
            return np.zeros_like(y)
        return a * p * r ** (p - 2.0) * y

    def batch_f(xs):
        return a * np.linalg.norm(xs - c, axis=1) ** p

    def batch_df(xs):
        ys = xs - c
        r = np.linalg.norm(ys, axis=1)
        out = np.zeros_like(ys)
        nz = r != 0.0
        out[nz] = (a * p * r[nz] ** (p - 2.0))[:, None] * ys[nz]
        return out

    prof = WaveProfile(f, df, name="radial_power",
                       dim=None if center is None else len(c))
    return _with_batch_forms(prof, batch_f, batch_df)


def gaussian_bump_profile(amplitude, center, width):
    a = float(amplitude)
    c = _vector("gaussian_bump center", center)
    w = float(width)
    if not 0.0 < w < math.inf:
        raise ConfigError(
            f"gaussian_bump width must be positive and finite, got {width!r}")

    def f(x):
        y = x - c
        return a * math.exp(-0.5 * float(y @ y) / (w * w))

    def df(x):
        y = x - c
        return (-a / (w * w)) * math.exp(-0.5 * float(y @ y) / (w * w)) * y

    def batch_f(xs):
        ys = xs - c
        return a * np.exp(-0.5 * np.einsum("bi,bi->b", ys, ys) / (w * w))

    def batch_df(xs):
        ys = xs - c
        r2 = np.einsum("bi,bi->b", ys, ys)
        return ((-a / (w * w)) * np.exp(-0.5 * r2 / (w * w)))[:, None] * ys

    prof = WaveProfile(f, df, name="gaussian_bump", dim=len(c))
    return _with_batch_forms(prof, batch_f, batch_df)


def metric_gradient(profile, model, x):
    """Metric gradient ``(grad f)^k = h^{km} d_m f`` at ``x``.

    ``x`` is a point ``(n,)`` or a batch ``(B, n)``, checked against the
    chart; ``grad f`` is the model's point or batch form, which the
    geodesic fields and the Picard iteration read too.
    """
    dynamics.require_profile_fits(model, profile)
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        xs = model._require_batch_inside(x)
        return model._batch_gradient(xs, profile.df(xs))
    model.require_inside(x)
    return np.array(model._point_gradient(x, profile.df(x)))


class DeltaNet:
    """Family of smooth impulse regularizations indexed by the width eps.

    ``eval(eps, u)`` and ``deriv(eps, u)`` accept scalars or arrays ``u``;
    all three methods raise :class:`ConfigError` unless ``0 < eps < inf``.
    The derivative is analytic for built-in nets: it scales like
    ``eps**-2`` and finite-differencing it would be badly conditioned.
    ``support_radius(eps)`` never exceeds ``eps``; ``l1_bound`` is the
    declared uniform L1 constant ``K``.
    """

    def __init__(self, eval_fn, deriv_fn, support_radius, l1_bound, *,
                 name="custom"):
        self._eval = eval_fn
        self._deriv = deriv_fn
        self._support = support_radius
        self.l1_bound = float(l1_bound)
        self.name = name

    def __repr__(self):
        return f"DeltaNet({self.name!r}, K={self.l1_bound})"

    def eval(self, eps, u):
        eps = float(eps)
        if not 0.0 < eps < math.inf:
            raise _width_error(eps)
        return self._eval(eps, u)

    def deriv(self, eps, u):
        eps = float(eps)
        if not 0.0 < eps < math.inf:
            raise _width_error(eps)
        return self._deriv(eps, u)

    def support_radius(self, eps):
        eps = float(eps)
        if not 0.0 < eps < math.inf:
            raise _width_error(eps)
        return float(self._support(eps))


def _width_error(eps):
    # an infinite width would turn the impulse off unseen
    return ConfigError(
        f"net width eps must be positive and finite, got {eps!r}")


def _bump_net(parts, l1_bound, name):
    """Net with shape ``sum of w * bump((s - c) / r) / r`` over the
    ``(w, c, r)`` parts, each a unit-integral bump.

    Floats take the ``math`` bump (tested with ``isinstance`` first: the
    integrator passes floats, and ``np.isscalar`` costs about a bump),
    arrays the numpy one.  Sums start at ``-0.0``, which adds exactly.
    """
    def shape(prime, eps, u):
        if isinstance(u, float) or np.isscalar(u):
            s, bump = u / eps, _bump_scalar
        else:
            s, bump = np.asarray(u, dtype=float) / eps, _bump_array
        total = -0.0
        for w, c, r in parts:
            scale = r * r if prime else r
            total = total + w * bump((s - c) / r, prime) / scale
        return total / (eps * eps if prime else eps)

    return DeltaNet(partial(shape, False), partial(shape, True),
                    lambda eps: eps, l1_bound, name=name)


def mollifier_net():
    """Symmetric nonnegative mollifier, unit integral for every eps (K = 1)."""
    return _bump_net(((1.0, 0.0, 1.0),), 1.0, "mollifier")


def asymmetric_net():
    """Nonnegative net with shape supported in (-1, 0.5), unit integral (K = 1)."""
    return _bump_net(((1.0, -0.25, 0.75),), 1.0, "asymmetric")


def signed_net():
    """Genuinely signed net ``1.25 rho_a - 0.25 rho_b`` with K = 1.5.

    Both component shapes have unit integral, so the difference integrates
    to one exactly while dipping negative near s = 0.6.
    """
    return _bump_net(((1.25, 0.0, 1.0), (-0.25, 0.6, 0.3)), 1.5, "signed")


@dataclass
class NetCheck:
    eps: float
    support_declared: float
    support_measured: float
    integral: float
    integral_err: float
    l1: float
    l1_err: float
    support_ok: bool
    indeterminate: bool


@dataclass
class NetVerificationReport:
    checks: list
    k_declared: float
    k_measured: float
    supports_ok: bool
    integral_ok: bool
    l1_ok: bool
    indeterminate: bool
    tol: float

    @property
    def passed(self):
        return self.supports_ok and self.integral_ok and self.l1_ok


def _measured_support(net, eps):
    declared = net.support_radius(eps)
    span = 1.5 * max(1.0, declared, eps)
    grid = np.linspace(-span, span, 8001)
    vals = np.abs(np.asarray(net.eval(eps, grid), dtype=float))
    peak = float(vals.max())
    if peak == 0.0:
        return 0.0
    nz = np.abs(grid[vals > 1e-13 * peak])
    return float(nz.max()) if nz.size else 0.0


def verify_strict_delta_net(net, eps_schedule, tol=1e-8):
    """Measure the three strict-net properties over a schedule of widths.

    The schedule must be strictly decreasing and positive, and ``tol``
    positive and finite.  Property (ii) is a limit statement, so it is
    checked as a trend: the deviations ``|integral - 1|`` must not grow
    along the schedule and must fall below ``tol`` at the smallest width.
    Quadrature entries whose reported error exceeds the requested absolute
    tolerance by a wide margin are flagged indeterminate.
    """
    # scipy is imported here so that importing the package does not load it
    from scipy.integrate import quad

    eps_schedule = [float(e) for e in eps_schedule]
    tol = float(tol)
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    if not eps_schedule or not all(0 < e < math.inf for e in eps_schedule):
        raise ConfigError("eps schedule must be positive and finite")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ConfigError("eps schedule must be strictly decreasing")

    checks = []
    for eps in eps_schedule:
        declared = net.support_radius(eps)
        measured = _measured_support(net, eps)
        r = max(declared, measured, eps * 1e-6)
        integral, int_err = quad(lambda u: float(net.eval(eps, u)), -r, r,
                                 epsabs=1e-12, limit=400)
        l1, l1_err = quad(lambda u: abs(float(net.eval(eps, u))), -r, r,
                          epsabs=1e-12, limit=400)
        slack = 1e-9 * max(1.0, eps)
        checks.append(NetCheck(
            eps=eps, support_declared=declared, support_measured=measured,
            integral=integral, integral_err=int_err, l1=l1, l1_err=l1_err,
            support_ok=(declared <= eps + slack and measured <= eps + slack),
            indeterminate=(int_err > 1e-9 or l1_err > 1e-9),
        ))

    deviations = [abs(c.integral - 1.0) for c in checks]
    trend_ok = all(b <= a + tol for a, b in zip(deviations, deviations[1:]))
    k_measured = max(c.l1 for c in checks)
    return NetVerificationReport(
        checks=checks,
        k_declared=net.l1_bound,
        k_measured=k_measured,
        supports_ok=all(c.support_ok for c in checks),
        integral_ok=(deviations[-1] <= tol and trend_ok),
        l1_ok=(k_measured <= net.l1_bound + tol),
        indeterminate=any(c.indeterminate for c in checks),
        tol=tol,
    )


@dataclass
class GrowthSample:
    direction: int
    radius: float
    distance: float
    value: float
    distance_is_lower_bound: bool


@dataclass
class GrowthReport:
    exponent: float
    stderr: float
    r1: float
    r2: float
    classification: str
    margin: float
    samples: list = field(default_factory=list)
    dropped_directions: list = field(default_factory=list)
    fit_count: int = 0


# integrator tolerances (rtol and atol) of the radial geodesics
_RAY_TOL = 1e-9


def classify_growth(profile, model, xbar, ray_directions, radii, *,
                    margin=0.1):
    """Classify the radial growth of a profile around a base point.

    Samples ``f`` along unit-speed radial geodesics from ``xbar`` at the
    given arc-length radii, then fits ``log |f|`` against
    ``log d(x, xbar)`` by least squares on the largest half of the radii,
    but never on fewer than the largest two.
    The estimated exponent classifies the profile as ``subquadratic``
    (below ``2 - margin``), ``superquadratic`` (above ``2 + margin``) or
    ``at-most-quadratic`` in between.

    The ray speeds come from ``model.norm_at``, which admits ``xbar``.  The
    rays run as one background batch, each row the ray alone bit for
    bit; a direction whose ray fails to integrate is dropped and reported,
    and if every direction fails, a :class:`NumericalError` is raised.
    """
    dynamics.require_profile_fits(model, profile)
    margin = float(margin)
    if not 0.0 <= margin < math.inf:
        raise ConfigError(f"margin must be finite and >= 0, got {margin}")
    radii = [float(r) for r in radii]
    if len(radii) < 2 or not all(b > a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii must be increasing with at least two values")
    if not all(0.0 < r < math.inf for r in radii):
        raise ConfigError("radii must be positive and finite")
    if len(ray_directions) == 0:
        raise ConfigError("classify_growth needs at least one ray direction")
    speeds = np.array([model.norm_at(xbar, w) for w in ray_directions])
    if not speeds.all():
        raise ConfigError("ray directions must be nonzero")
    ws = np.array(ray_directions, dtype=float)
    rays = dynamics.background_path(model, xbar, ws / speeds[:, None], 0.0,
                                    radii[-1], rtol=_RAY_TOL, atol=_RAY_TOL)
    samples = []
    dropped = []
    for idx, ray in enumerate(rays):
        if isinstance(ray, IntegrationFailure):
            dropped.append(idx)
            continue
        for r, x in zip(radii, ray.x_at(radii)):
            d = geometry.distance_estimate(model, xbar, x)
            samples.append(GrowthSample(idx, r, d.value,
                                        profile.f(x), d.lower_bound))
    if not samples:
        raise NumericalError("all ray directions failed to integrate")

    cut = radii[min(len(radii) // 2, len(radii) - 2)]
    fit = [s for s in samples
           if s.radius >= cut and s.distance > 0.0 and abs(s.value) > 1e-300]
    if len(fit) >= 2:
        lx = np.log([s.distance for s in fit])
        ly = np.log([abs(s.value) for s in fit])
        slope, intercept = np.polyfit(lx, ly, 1)
        pred = slope * lx + intercept
        dof = len(fit) - 2
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        if dof > 0 and sxx > 0:
            s2 = float(np.sum((ly - pred) ** 2)) / dof
            stderr = math.sqrt(s2 / sxx)
        else:
            stderr = 0.0
        r1 = math.exp(intercept)
    else:
        # no usable growth signal (constant-zero or single point)
        slope, stderr, r1 = 0.0, 0.0, 0.0
    r2 = max(0.0, max((s.value - r1 * s.distance ** slope
                       for s in samples if s.distance > 0.0), default=0.0))

    if slope < 2.0 - margin:
        label = "subquadratic"
    elif slope > 2.0 + margin:
        label = "superquadratic"
    else:
        label = "at-most-quadratic"
    return GrowthReport(exponent=float(slope), stderr=float(stderr),
                        r1=float(r1), r2=float(r2), classification=label,
                        margin=margin, samples=samples,
                        dropped_directions=dropped, fit_count=len(fit))
