"""Print one SHA-256 digest per group of integration results.

A change meant to keep every bit (a faster step, a leaner field) must
print the same digests as its parent.  Run it in both trees and compare::

    PYTHONPATH=src python3 tools/fingerprint.py

It takes no options.  The groups:

``trajectories``
    the 9 built-in scenarios x 3 built-in nets, one trajectory each at
    ``eps = 0.01`` to ``u = 1``: nodes, states, dense coefficients, step
    counts and the energy diagnostics as hex;
``width_ensembles``
    each scenario with the mollifier net at 4 widths, as one ensemble;
``background_batches``
    each scenario's start point with 3 velocities, as one background batch;
``shooting``
    shooting distances on the round sphere given only by its metric;
``certificates``
    each scenario's ``certify`` report at the shock anchor of its background
    path and, on the three scenarios of ``perfbench``'s ``picard_certify``,
    the nodes, positions and velocities of one ``picard_solve`` from that
    anchor at ``eps0 / 2``;
``growth``
    ``classify_growth`` reports as hex (exponent, stderr, ``r1``, ``r2``,
    class, every sample and the dropped directions): 3-4 rays on each
    built-in chart, 2 on the round sphere given only by its metric
    (shooting distances), and 3 on a plane cut at ``x1 < 0.5``, where the
    ray along ``x1`` leaves the chart and is dropped;
``limits``
    each scenario's ``limit_geodesic``: its coefficients as hex, and the
    bytes of its break vectors and of ``x_at``, ``xdot_at``, ``v_at`` and
    ``vdot_at`` at 41 values of ``u`` in [-1, 1.5] and at ``u = 0``; then
    the stdout and the CSV of ``limit`` on the benchmark's three sweep
    configs (as for ``sweeps``, compare it only between trees with the
    same ``perfbench/workloads.py``);
``sweeps``
    the CSVs of ``sweep`` on the benchmark's three sweep configs (round 0
    of seed 1 of ``perfbench``'s ``cli_sweep``).  This digest depends on
    those configs as well as on the solver: compare it only between trees
    with the same ``perfbench/workloads.py``;
``point_fields``
    the bytes of ``dynamics.rhs``, the per-point geodesic field, at seeded
    states inside and outside the strip of ``eps = 0.01``: for each scenario
    x net, and with the mollifier net on models no benchmark workload runs,
    ``euclidean(3)``, a 3-D ``from_metric`` model (the difference fallback
    and the contraction's loop for ``n != 2``), a ``ManifoldModel`` whose
    Christoffel callback returns an array, and a 2-D ``from_metric`` model
    with off-diagonal terms and a ``chart_domain`` (the 2-D difference
    fallback with its chart check on the stencil);
``three_d``
    integrations at ``n = 3``, whose 8-entry states take the pairwise sum
    of the 1-D loop's error norm: on ``euclidean(3)`` with the linear
    profiles along ``x1`` and along ``x2`` and the mollifier net, the
    widths 0.1, 0.05 and 0.02 to ``u = 1`` as one ensemble and as single
    trajectories; one trajectory on the 3-D ``from_metric`` model of
    ``point_fields`` at ``eps = 0.01``; and a background batch of 3
    velocities on that model;
``failures``
    single trajectories that fail, so that the retry and failure paths of
    the integrators have a bit check too: a blow-up in the strip (flat
    plane, ``|x|^4`` at rest at ``(8, 0)``, ``eps = 0.014``), and the same
    datum at widths 0.014 and 0.013 as one ensemble; chart escapes after
    stage retries on a plane cut at ``x1 < 0.5``, heading out, in the
    background, strip and post phases; and two failures at the initial
    state, where the field is undefined (its difference stencil leaves
    the cut plane) and where the state is not finite.

A failed trajectory or row enters its digest by its reason, phase, ``u``,
state, message, partial path and counts.  ``tools/fingerprint_against.sh
REF`` runs this script on the ``src/`` of the git revision ``REF`` and on
the working tree and prints the groups that differ.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "perfbench")]

from impulse_geo import (artifacts, cli, dynamics, existence,  # noqa: E402
                         geometry, limits, odesolve, profiles, scenarios)
from impulse_geo.errors import IntegrationFailure  # noqa: E402

_EPS = 0.01
_WIDTHS = [0.2, 0.05, 0.01, 0.003]


def _feed(h, result):
    """Add a path's or a failure's bytes to the hash ``h``."""
    if isinstance(result, IntegrationFailure):
        h.update(repr((result.reason, result.phase, float(result.u),
                       str(result))).encode())
        h.update(np.asarray(result.state, dtype=float).tobytes())
        if result.partial is not None:
            _feed(h, result.partial)
        else:
            _feed_counts(h, result.diagnostics)
        return
    for piece in result.pieces:
        for a in (piece.ts, piece.ys, piece.coeffs):
            h.update(np.ascontiguousarray(a).tobytes())
    _feed_counts(h, result.diagnostics)


def _feed_counts(h, d):
    h.update(repr((d.n_steps, d.n_rejected, d.n_rhs, d.energy_start.hex(),
                   d.energy_drift.hex())).encode())


def _single(scen, net, eps):
    try:
        return dynamics.integrate_impulsive_geodesic(
            scen.model, scen.profile, net, eps, scen.data, 1.0)
    except IntegrationFailure as exc:
        return exc


def trajectories(scens=None):
    """The digest of every scenario x net trajectory at ``eps = 0.01``."""
    h = hashlib.sha256()
    for scen in scens or scenarios.builtin_scenarios():
        for net in scenarios.builtin_nets().values():
            _feed(h, _single(scen, net, _EPS))
    return h.hexdigest()


def width_ensembles():
    h = hashlib.sha256()
    net = scenarios.builtin_nets()["mollifier"]
    for scen in scenarios.builtin_scenarios():
        for row in dynamics.integrate_impulsive_geodesic(
                scen.model, scen.profile, net, _WIDTHS, scen.data, 1.0):
            _feed(h, row)
    return h.hexdigest()


def background_batches():
    h = hashlib.sha256()
    for scen in scenarios.builtin_scenarios():
        w = scen.data.xdot0
        velocities = np.array([w, [-w[1], w[0]], 0.5 * w + [0.1, -0.2]])
        for row in dynamics.background_path(scen.model, scen.data.x0,
                                            velocities, -1.0, 1.0):
            _feed(h, row)
    return h.hexdigest()


def shooting():
    h = hashlib.sha256()
    model = geometry.from_metric(2, geometry.sphere_stereographic()._metric,
                                 name="sphere-user")
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = rng.uniform(-0.5, 0.5, 2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        xbar = x + 0.5 * np.array([np.cos(angle), np.sin(angle)])
        est = geometry.distance_estimate(model, x, xbar)
        h.update(repr((est.value.hex(), est.method, est.lower_bound)).encode())
    return h.hexdigest()


def certificates():
    import workloads  # perfbench's, for the picard_certify scenarios

    h = hashlib.sha256()
    net = scenarios.builtin_nets()["mollifier"]
    for scen in scenarios.builtin_scenarios():
        base = dynamics.background_path(scen.model, scen.data.x0,
                                        scen.data.xdot0, -1.0, 0.0)
        x, xdot = base.x_at(0.0), base.xdot_at(0.0)
        cert = existence.certify(scen.model, scen.profile, x, xdot, b=scen.b,
                                 c=scen.c, k=net.l1_bound)
        h.update(artifacts.certificate_text(cert).encode())
        if scen.name in workloads.PicardCertify.SCENARIOS:
            res = existence.picard_solve(scen.model, scen.profile, net,
                                         cert.eps0 / 2.0, x, xdot, cert.alpha)
            for a in (res.t, res.x, res.xdot):
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _fan(count):
    """``count`` unit directions evenly spread in the plane."""
    angles = 0.3 + 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def growth():
    h = hashlib.sha256()
    sphere = geometry.sphere_stereographic()
    cut = geometry.from_metric(2, lambda x: np.eye(2),
                               chart_domain=lambda x: x[0] < 0.5, name="cut")
    calls = [
        (profiles.radial_power_profile(1.0, 3.0, [0.1, -0.2]),
         geometry.euclidean(2), [0.1, -0.2], _fan(4)),
        (profiles.gaussian_bump_profile(2.0, [0.5, 1.5], 0.7),
         geometry.hyperbolic_half_plane(), [0.2, 1.0], _fan(3)),
        (profiles.quadratic_form_profile([[1.0, 0.2], [0.2, 0.5]]), sphere,
         [0.3, -0.1], _fan(4)),
        (profiles.radial_power_profile(1.0, 2.0, [0.1, 0.0]),
         geometry.from_metric(2, sphere._metric, name="sphere-user"),
         [0.1, 0.0], _fan(2)),
        (profiles.radial_power_profile(1.0, 1.5), cut, [0.0, 0.0],
         [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]]),
    ]
    for prof, model, xbar, rays in calls:
        rep = profiles.classify_growth(prof, model, xbar, rays,
                                       [0.25, 0.5, 1.0])
        h.update(repr((rep.exponent.hex(), rep.stderr.hex(), rep.r1.hex(),
                       rep.r2.hex(), rep.classification,
                       rep.dropped_directions)).encode())
        for s in rep.samples:
            h.update(repr((s.direction, s.radius.hex(), s.distance.hex(),
                           s.value.hex(), s.distance_is_lower_bound)).encode())
    return h.hexdigest()


def _cli_runs(command):
    """The exit code, stdout and CSV of ``command`` on each of the
    benchmark's sweep configs (round 0 of seed 1 of ``cli_sweep``)."""
    import workloads  # perfbench's, for its sweep configs

    with tempfile.TemporaryDirectory() as workdir:
        bench = workloads.CliSweep(1, workdir)
        for _, config, csv, _ in bench.round_inputs(0):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([command, "--config", config])
            with open(csv, "rb") as fh:
                yield code, out.getvalue(), fh.read()


def limit_paths():
    h = hashlib.sha256()
    us = np.append(np.linspace(-1.0, 1.5, 41), 0.0)
    for scen in scenarios.builtin_scenarios():
        lg = limits.limit_geodesic(scen.model, scen.profile, scen.data)
        h.update(repr((lg.v0.hex(), lg.vdot0.hex(), lg.jump_coeff.hex(),
                       lg.kink_coeff.hex())).encode())
        for a in (lg.grad_at_break, lg.x_break, lg.xdot_minus, lg.xdot_plus,
                  lg.x_at(us), lg.xdot_at(us), lg.v_at(us), lg.vdot_at(us)):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    for code, text, csv in _cli_runs("limit"):
        h.update(repr((code, text)).encode())
        h.update(csv)
    return h.hexdigest()


def sweeps():
    h = hashlib.sha256()
    for code, _, csv in _cli_runs("sweep"):
        h.update(repr(code).encode())
        h.update(csv)
    return h.hexdigest()


def _field_models():
    """The ``(model, profile, data)`` triples of ``point_fields`` beyond the
    scenarios."""
    user3 = geometry.from_metric(
        3, lambda x: np.diag([1.0 + x[0] * x[0], 2.0 + np.sin(x[1]),
                              1.5 + x[2] * x[2]]) + 0.1 * np.outer(x, x),
        name="user3")
    hyp = geometry.hyperbolic_half_plane()
    hyp_array = geometry.ManifoldModel(
        2, hyp._metric, inverse_metric=hyp._inverse_metric,
        christoffel=lambda x: np.array(hyp._christoffel(x), dtype=float),
        chart_domain=hyp._chart_domain, name="hyperbolic-array")
    bump3 = profiles.gaussian_bump_profile(1.5, [0.2, -0.1, 0.3], 0.7)
    data3 = dynamics.InitialData([0.1, 0.2, -0.3], [0.8, -0.4, 0.3])
    skew = geometry.from_metric(
        2, lambda x: np.array([[2.0 + np.sin(x[0]), 0.3 * x[0] * x[1]],
                               [0.3 * x[0] * x[1], 1.0 + x[1] * x[1]]]),
        chart_domain=lambda x: x[0] > -1.0, name="user2-skew")
    return [
        (geometry.euclidean(3), bump3, data3),
        (user3, bump3, data3),
        (hyp_array, profiles.gaussian_bump_profile(1.0, [0.5, 1.2], 0.8),
         dynamics.InitialData([0.2, 1.0], [0.7, 0.3])),
        (skew, profiles.gaussian_bump_profile(1.0, [0.4, -0.2], 0.9),
         dynamics.InitialData([0.3, -0.4], [0.6, 0.5])),
    ]


def point_fields():
    h = hashlib.sha256()
    rng = np.random.default_rng(23)
    mollifier = scenarios.builtin_nets()["mollifier"]
    runs = [(scen.model, scen.profile, scen.data, net)
            for scen in scenarios.builtin_scenarios()
            for net in scenarios.builtin_nets().values()]
    runs += [(model, prof, data, mollifier)
             for model, prof, data in _field_models()]
    for model, prof, data, net in runs:
        n = model.dim
        outside = rng.uniform(_EPS, 1.0, 4) * rng.choice([-1.0, 1.0], 4)
        for u in np.concatenate([rng.uniform(-_EPS, _EPS, 4), outside]):
            state = dynamics.GeodesicState(
                float(u), data.x0 + rng.uniform(-0.05, 0.05, n),
                data.xdot0 + rng.uniform(-0.15, 0.15, n),
                *rng.uniform(-1.0, 1.0, 2))
            rate = dynamics.rhs(state, model, prof, net, _EPS)
            h.update(np.concatenate([rate.xdot, rate.xddot,
                                     [rate.vdot, rate.vddot]]).tobytes())
    return h.hexdigest()


def three_d():
    h = hashlib.sha256()
    net = scenarios.builtin_nets()["mollifier"]
    flat3 = geometry.euclidean(3)
    data = dynamics.InitialData([0.1, -0.2, 0.3], [0.6, 0.4, -0.5])
    widths = [0.1, 0.05, 0.02]
    for coeffs in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]):
        prof = profiles.linear_profile(coeffs)
        for row in dynamics.integrate_impulsive_geodesic(flat3, prof, net,
                                                         widths, data, 1.0):
            _feed(h, row)
        for eps in widths:
            _feed(h, dynamics.integrate_impulsive_geodesic(flat3, prof, net,
                                                           eps, data, 1.0))
    user3, bump3, data3 = _field_models()[1]
    _feed(h, dynamics.integrate_impulsive_geodesic(user3, bump3, net, _EPS,
                                                   data3, 1.0))
    velocities = np.array([data3.xdot0, [0.3, 0.9, -0.2], [-0.5, 0.1, 0.7]])
    for row in dynamics.background_path(user3, data3.x0, velocities, -1.0,
                                        1.0):
        _feed(h, row)
    return h.hexdigest()


def failing_runs():
    """The runs of the ``failures`` group, by name: each should end in an
    :class:`IntegrationFailure` (an ensemble in a list of rows)."""
    flat = geometry.euclidean(2)
    cut = geometry.from_metric(2, lambda x: np.eye(2),
                               chart_domain=lambda x: x[0] < 0.5, name="cut")
    net = scenarios.builtin_nets()["mollifier"]
    quartic = profiles.radial_power_profile(1.0, 4.0)
    at_rest = dynamics.InitialData([8.0, 0.0], [0.0, 0.0])
    tilt = profiles.linear_profile([0.3, -0.2])
    return {
        "blow_up": lambda: dynamics.integrate_impulsive_geodesic(
            flat, quartic, net, 0.014, at_rest, 1.0),
        "blow_up_ensemble": lambda: dynamics.integrate_impulsive_geodesic(
            flat, quartic, net, [0.014, 0.013], at_rest, 1.0),
        "escape_background": lambda: dynamics.background_path(
            cut, [0.0, 0.0], [1.0, 0.2], 0.0, 2.0),
        "escape_strip": lambda: dynamics.integrate_impulsive_geodesic(
            cut, tilt, net, 0.1, dynamics.InitialData([-0.5, 0.0],
                                                      [1.0, 0.2]), 2.0),
        "escape_post": lambda: dynamics.integrate_impulsive_geodesic(
            cut, tilt, net, 0.1, dynamics.InitialData([-1.2, 0.0],
                                                      [1.0, 0.2]), 2.0),
        "initial_undefined": lambda: dynamics.background_path(
            cut, [0.5 - 1e-9, 0.0], [1.0, 0.2], 0.0, 2.0),
        "initial_not_finite": lambda: odesolve.solve_rk45(
            dynamics._system(flat, None, None, None), 0.0, 1.0,
            np.array([np.nan, 0.0, 1.0, 0.0, 0.0, 0.0]), phase="background"),
    }


def failures():
    h = hashlib.sha256()
    for run in failing_runs().values():
        try:
            result = run()
        except IntegrationFailure as exc:
            result = exc
        for row in result if isinstance(result, list) else [result]:
            _feed(h, row)
    return h.hexdigest()


GROUPS = {
    "trajectories": trajectories,
    "width_ensembles": width_ensembles,
    "background_batches": background_batches,
    "shooting": shooting,
    "certificates": certificates,
    "growth": growth,
    "limits": limit_paths,
    "sweeps": sweeps,
    "point_fields": point_fields,
    "three_d": three_d,
    "failures": failures,
}


def main():
    for name, digest in GROUPS.items():
        print(f"{name:20s} {digest()}")


if __name__ == "__main__":
    main()
